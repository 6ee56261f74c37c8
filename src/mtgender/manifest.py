"""Run manifests: reproducibility metadata written alongside every pipeline file.

Each stage output <file> gets a sidecar <file>.manifest.json recording input
digests, the output digest and counts. Run ids are content-derived (a hash of
the inputs, options and tool version), so identical runs produce identical
ids; wall-clock timestamps live only in the sidecar, keeping the stage files
and reports byte-reproducible.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from .fileio import atomic_write_text, sha256_file, sha256_text

TOOL_NAME = "mtgender"


def tool_version() -> str:
    from . import __version__

    return __version__


def derive_run_id(payload: dict) -> str:
    """Content-derived run id: stable across reruns with identical inputs."""
    canonical = json.dumps(payload, ensure_ascii=False, sort_keys=True)
    return sha256_text(canonical)[:16]


def file_ref(path: str | Path) -> dict:
    return {"path": str(path), "sha256": sha256_file(path)}


@dataclass
class RunManifest:
    run_id: str
    command: str
    suite: str | None
    inputs: dict[str, dict]
    output: dict
    counts: dict[str, int]
    backend: dict | None = None
    tool: str = TOOL_NAME
    version: str = field(default_factory=tool_version)
    created_utc: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(timespec="seconds")
    )


def sidecar_path(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_sidecar(manifest: RunManifest) -> Path:
    path = sidecar_path(manifest.output["path"])
    atomic_write_text(path, json.dumps(asdict(manifest), ensure_ascii=False, indent=2,
                                       sort_keys=True) + "\n")
    return path


def verify_against_sidecar(path: str | Path, digest: str) -> tuple[bool, str]:
    """Check a pipeline file's sha256 digest, computed by the caller, against
    its manifest.

    Returns (ok, message): ok is False only on a digest mismatch; a file
    without a sidecar passes with a note, since externally produced corpora
    are legitimate inputs.
    """
    sidecar = sidecar_path(path)
    if not sidecar.exists():
        return True, f"{path}: no manifest sidecar"
    try:
        recorded = json.loads(sidecar.read_text(encoding="utf-8"))["output"]["sha256"]
    except (ValueError, LookupError, TypeError):  # not UTF-8 JSON, or not shaped like a manifest
        recorded = None
    if not isinstance(recorded, str):
        return False, f"{sidecar}: malformed manifest"
    if digest != recorded:
        return False, (
            f"{path}: digest {digest[:12]}... does not match manifest {recorded[:12]}..."
        )
    return True, f"{path}: manifest digest ok"
