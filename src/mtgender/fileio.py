"""Shared file plumbing: JSONL records and their dataclass codec, atomic writes,
digests, Devanagari helpers."""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import re
import tempfile
from pathlib import Path
from typing import Any, Iterable, Iterator, TypeVar, get_args, get_type_hints

T = TypeVar("T")

# Devanagari block minus punctuation (danda, double danda, abbreviation sign).
_DEVANAGARI_WORD = re.compile(r"[ऀ-ॣ०-९ॱ-ॿ]+")
_DEVANAGARI_ANY = re.compile(r"[ऀ-ॿ]")


def contains_devanagari(text: str) -> bool:
    return bool(_DEVANAGARI_ANY.search(text))


def devanagari_tokens(text: str) -> list[str]:
    """Split out maximal runs of Devanagari word characters, dropping punctuation."""
    return _DEVANAGARI_WORD.findall(text)


def parse_record(line: str, where: str) -> dict[str, Any]:
    """Parse one JSONL line; raises ValueError naming where on malformed JSON
    or a non-object line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{where}: expected a JSON object")
    return record


def read_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for every non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield lineno, parse_record(line, f"{path}: line {lineno}")


@functools.cache
def _fields_plan(cls: type) -> tuple[tuple[str, type, dict | None, bool], ...]:
    """(name, type, enum members by token or None, required) per field of a flat
    dataclass, whose fields are each a str or an enum, optionally "| None"."""
    hints = get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        kind = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
        members = {m.value: m for m in kind} if issubclass(kind, enum.Enum) else None
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plan.append((f.name, kind, members, required))
    return tuple(plan)


def to_record(obj: Any) -> dict[str, Any]:
    """A flat dataclass as a JSON object: enums as their value, None fields left out."""
    record = {}
    for name, _, members, _ in _fields_plan(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            record[name] = value if members is None else value.value
    return record


def from_record(cls: type[T], record: dict[str, Any], error: type[Exception], where: str) -> T:
    """Build the flat dataclass cls from a JSON object, checked against its annotations.

    A required field (one without a default) that is absent, null or "" is
    missing; an enum field is parsed from its token; any other field must be
    an instance of its type. An absent or null optional field takes its
    default. Raises error naming where and the record by its first field.
    """
    plan = _fields_plan(cls)
    values = {}
    for name, kind, members, required in plan:
        value = record.get(name)
        if value is None or (required and value == ""):
            if required:
                problem = f"missing field {name!r}"
                break
            continue
        if members is not None:
            try:
                value = members[value]
            except (KeyError, TypeError):
                problem = f"bad {name} token {value!r}"
                break
        elif not isinstance(value, kind):
            problem = f"field {name!r} must be a {kind.__name__}"
            break
        values[name] = value
    else:
        return cls(**values)
    raise error(f"{where}: record {record.get(plan[0][0], '?')!r}: {problem}")


def dumps_record(record: dict[str, Any]) -> str:
    """Serialize one record deterministically (sorted keys, no ASCII escaping)."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def write_jsonl(path: str | os.PathLike, records: Iterable[dict[str, Any]]) -> int:
    """Atomically write records as JSONL; returns the number of lines written."""
    lines = [dumps_record(r) for r in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write via a temp file in the same directory, then rename over the target."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def sha256_file(path: str | os.PathLike) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
