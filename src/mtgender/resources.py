"""Access to data files bundled with the package."""

from __future__ import annotations

from importlib import resources
from pathlib import Path


def data_path(name: str) -> Path:
    """Path to a bundled data file (template, cue inventory, sample corpora)."""
    return Path(str(resources.files("mtgender").joinpath("data", name)))
