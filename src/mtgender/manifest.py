"""Run manifests: reproducibility metadata written alongside every pipeline file.

Each stage output <file> gets a sidecar <file>.manifest.json recording input
digests, the output digest and counts. Run ids are content-derived (a hash of
the inputs, options and tool version), so identical runs produce identical
ids; wall-clock timestamps live only in the sidecar, keeping the stage files
and reports byte-reproducible.
"""

from __future__ import annotations

import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from .fileio import atomic_write_text, sha256_file, sha256_text

TOOL_NAME = "mtgender"


def tool_version() -> str:
    from . import __version__

    return __version__


def derive_run_id(command: str, inputs: dict[str, dict], **identity: object) -> str:
    """Content-derived run id: stable across reruns with identical inputs.

    It hashes the command, the sha256 of each input (inputs maps a name to
    {"path", "sha256"}, as in the manifest), the tool version and identity,
    whatever else decides the output (backend, options).
    """
    payload = {"command": command, "version": tool_version(), **identity,
               "inputs": {name: ref["sha256"] for name, ref in inputs.items()}}
    return sha256_text(json.dumps(payload, ensure_ascii=False, sort_keys=True))[:16]


def file_ref(path: str | Path) -> dict:
    return {"path": str(path), "sha256": sha256_file(path)}


def sidecar_path(output_path: str | Path) -> Path:
    return Path(str(output_path) + ".manifest.json")


def write_sidecar(command: str, run_id: str, *, suite: str | None, inputs: dict[str, dict],
                  out: str | Path, sha256: str, records: int, counts: dict[str, int],
                  backend: dict | None = None) -> None:
    """Write out's sidecar: the run that made out, from inputs, and its digest."""
    manifest = {
        "run_id": run_id, "command": command, "suite": suite, "inputs": inputs,
        "output": {"path": str(out), "sha256": sha256, "records": records},
        "counts": counts, "backend": backend, "tool": TOOL_NAME, "version": tool_version(),
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    atomic_write_text(sidecar_path(out), json.dumps(manifest, ensure_ascii=False, indent=2,
                                                    sort_keys=True) + "\n")


def read_sidecar(output_path: str | Path) -> dict[str, Any] | None:
    """The manifest in output_path's sidecar, its nested keys joined by dots
    ("output.sha256"); None when there is no sidecar. A sidecar that is not a
    UTF-8 JSON object reads as {}, as if every key were missing."""
    sidecar = sidecar_path(output_path)
    if not sidecar.exists():
        return None
    try:
        manifest = json.loads(sidecar.read_text(encoding="utf-8"))
    except ValueError:
        return {}

    flat: dict[str, Any] = {}

    def flatten(node: dict, prefix: str) -> None:
        for key, value in node.items():
            if isinstance(value, dict):
                flatten(value, f"{prefix}{key}.")
            else:
                flat[prefix + key] = value

    if isinstance(manifest, dict):
        flatten(manifest, "")
    return flat


def verify_against_sidecar(path: str | Path, digest: str) -> tuple[bool, str]:
    """Check a pipeline file's sha256 digest, computed by the caller, against
    its manifest.

    Returns (ok, message): ok is False only on a digest mismatch; a file
    without a sidecar passes with a note, since externally produced corpora
    are legitimate inputs.
    """
    manifest = read_sidecar(path)
    if manifest is None:
        return True, f"{path}: no manifest sidecar"
    recorded = manifest.get("output.sha256")
    if not isinstance(recorded, str):
        return False, f"{sidecar_path(path)}: malformed manifest"
    if digest != recorded:
        return False, (
            f"{path}: digest {digest[:12]}... does not match manifest {recorded[:12]}..."
        )
    return True, f"{path}: manifest digest ok"
