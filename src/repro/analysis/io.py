"""JSON persistence for campaign results.

Campaigns are cheap to re-run in simulation but expensive on real boards;
a JSON round-trip lets harnesses archive results, diff reruns, and feed
external plotting without pickling Python objects.
"""

from __future__ import annotations

import json
import pathlib
from typing import Union

from repro.core.records import CampaignResult, ChaosSummary, MBOReport, RoundRecord
from repro.errors import ConfigurationError
from repro.types import DvfsConfiguration

FORMAT_VERSION = 1


def _config_to_list(config: DvfsConfiguration) -> list:
    return [config.cpu, config.gpu, config.mem]


def _record_to_dict(record: RoundRecord) -> dict:
    payload = {
        "round_index": record.round_index,
        "phase": record.phase,
        "deadline": record.deadline,
        "jobs": record.jobs,
        "elapsed": record.elapsed,
        "energy": record.energy,
        "missed": record.missed,
        "explored": [_config_to_list(c) for c in record.explored],
        "explored_on_final_front": record.explored_on_final_front,
        "exploited_jobs": record.exploited_jobs,
        "guardian_triggered": record.guardian_triggered,
    }
    if record.mbo is not None:
        payload["mbo"] = {
            "latency": record.mbo.latency,
            "energy": record.mbo.energy,
            "n_observations": record.mbo.n_observations,
            "batch_size": record.mbo.batch_size,
            "suggestions": [_config_to_list(c) for c in record.mbo.suggestions],
        }
    return payload


def _record_from_dict(payload: dict) -> RoundRecord:
    mbo = None
    if payload.get("mbo") is not None:
        raw = payload["mbo"]
        mbo = MBOReport(
            latency=raw["latency"],
            energy=raw["energy"],
            n_observations=raw["n_observations"],
            batch_size=raw["batch_size"],
            suggestions=tuple(DvfsConfiguration(*c) for c in raw["suggestions"]),
        )
    return RoundRecord(
        round_index=payload["round_index"],
        phase=payload["phase"],
        deadline=payload["deadline"],
        jobs=payload["jobs"],
        elapsed=payload["elapsed"],
        energy=payload["energy"],
        missed=payload["missed"],
        explored=tuple(DvfsConfiguration(*c) for c in payload["explored"]),
        explored_on_final_front=payload.get("explored_on_final_front"),
        exploited_jobs=payload.get("exploited_jobs", 0),
        guardian_triggered=payload.get("guardian_triggered", False),
        mbo=mbo,
    )


def campaign_to_dict(result: CampaignResult) -> dict:
    """A JSON-safe representation of a campaign result."""
    payload = {
        "format_version": FORMAT_VERSION,
        "controller": result.controller,
        "device": result.device,
        "task": result.task,
        "deadline_ratio": result.deadline_ratio,
        "records": [_record_to_dict(r) for r in result.records],
        "final_front": None if result.final_front is None else list(result.final_front),
    }
    if result.chaos is not None:
        payload["chaos"] = {
            "injected": [[r, k] for r, k in result.chaos.injected],
            "checkpoints": result.chaos.checkpoints,
            "restores": result.chaos.restores,
            "escalations": result.chaos.escalations,
            "dropped_rounds": result.chaos.dropped_rounds,
            "lost_reports": result.chaos.lost_reports,
        }
    return payload


def campaign_from_dict(payload: dict) -> CampaignResult:
    """Rebuild a :class:`CampaignResult` from :func:`campaign_to_dict` output."""
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported campaign format version {version!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    front = payload.get("final_front")
    chaos = payload.get("chaos")
    return CampaignResult(
        controller=payload["controller"],
        device=payload["device"],
        task=payload["task"],
        deadline_ratio=payload["deadline_ratio"],
        records=tuple(_record_from_dict(r) for r in payload["records"]),
        final_front=(
            None if front is None else tuple((float(t), float(e)) for t, e in front)
        ),
        chaos=None if chaos is None else ChaosSummary(
            injected=tuple((int(r), str(k)) for r, k in chaos["injected"]),
            checkpoints=chaos.get("checkpoints", 0),
            restores=chaos.get("restores", 0),
            escalations=chaos.get("escalations", 0),
            dropped_rounds=chaos.get("dropped_rounds", 0),
            lost_reports=chaos.get("lost_reports", 0),
        ),
    )


def save_campaign(result: CampaignResult, path: Union[str, pathlib.Path]) -> None:
    """Write a campaign result to ``path`` as JSON."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(campaign_to_dict(result), indent=2))


def load_campaign(path: Union[str, pathlib.Path]) -> CampaignResult:
    """Read a campaign result previously written by :func:`save_campaign`."""
    path = pathlib.Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as error:
        raise ConfigurationError(f"{path} is not valid campaign JSON: {error}") from error
    return campaign_from_dict(payload)
