"""Shared file plumbing: JSONL records and their dataclass codec, JSON
documents, atomic writes, digests, Devanagari helpers."""

from __future__ import annotations

import contextlib
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import os
import re
import secrets
from json.encoder import encode_basestring
from pathlib import Path
from typing import (
    Any, BinaryIO, Callable, Iterable, Iterator, TypeVar, get_args, get_type_hints,
)

T = TypeVar("T")

# Devanagari block minus punctuation (danda, double danda, abbreviation sign).
_DEVANAGARI_WORD = re.compile(r"[ऀ-ॣ०-९ॱ-ॿ]+")
_DEVANAGARI_ANY = re.compile(r"[ऀ-ॿ]")


def contains_devanagari(text: str) -> bool:
    return bool(_DEVANAGARI_ANY.search(text))


def devanagari_tokens(text: str) -> list[str]:
    """Split out maximal runs of Devanagari word characters, dropping punctuation."""
    return _DEVANAGARI_WORD.findall(text)


def parse_record(line: str, path: str | os.PathLike, lineno: int) -> dict[str, Any] | None:
    """One JSONL line as a JSON object; None for a blank line. Raises
    ValueError naming path and line on malformed JSON or a non-object line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError:
        # blank, malformed, or padded with whitespace that JSON does not skip
        line = line.strip()
        if not line:
            return None
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: line {lineno}: expected a JSON object")
    return record


def read_jsonl(path: str | os.PathLike) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for every non-blank line of a JSONL file."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                record = parse_record(line, path, lineno)
                if record is not None:
                    yield lineno, record
        except UnicodeDecodeError:
            raise utf8_error(path) from None


def utf8_error(path: str | os.PathLike) -> ValueError:
    """The error for a text file that failed to decode as UTF-8, naming path
    and its first line that is not UTF-8."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValueError(f"{path}: line {lineno}: not valid UTF-8 ({exc.reason})")
    return ValueError(f"{path}: not valid UTF-8")


def read_text(path: str | os.PathLike, error: type[Exception]) -> str:
    """The UTF-8 text of the file at path; raises error naming path when the
    file cannot be read or is not UTF-8."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror or exc})") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_json(path: str | os.PathLike, error: type[Exception]) -> Any:
    """The JSON document in the UTF-8 file at path; raises error naming path
    when the file cannot be read or is not UTF-8 or JSON."""
    try:
        return json.loads(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from None


@functools.cache
def _fields_plan(cls: type) -> tuple[tuple[str, type, dict | None, bool, Any], ...]:
    """(name, type, enum members by token or None, required, default) per
    field of a flat dataclass, whose fields are each a str or a str-valued
    enum, optionally "| None"; a field is required when it has no default."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__}: a record class is built without its __init__")
    hints = get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        kind = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
        members = {m.value: m for m in kind} if issubclass(kind, enum.Enum) else None
        required = f.default is dataclasses.MISSING
        plan.append((f.name, kind, members, required, None if required else f.default))
    return tuple(plan)


@functools.cache
def record_decoder(cls: type[T], error: type[Exception]) -> Callable[[dict[str, Any], Any, int], T]:
    """decode(record, path, lineno): the flat dataclass cls built from a JSON
    object, checked against its annotations.

    A required field (one without a default) that is absent, null or "" is
    missing; an enum field is parsed from its token; any other field must be
    of its type exactly (a JSON value is never of a subclass). An absent or
    null optional field takes its default; other keys are ignored. Raises
    error naming path, line and the record by its first field.
    """
    plan = _fields_plan(cls)
    first = plan[0][0]
    # Built without cls.__init__: each field is set the way a frozen
    # dataclass's __init__ sets it, minus the call and keyword overhead.
    # Filling obj.__dict__ would be faster still, but it gives each instance
    # a dict of its own, twice the memory.
    new, setattr_ = object.__new__, object.__setattr__

    def reject(record, path, lineno, field) -> Exception:
        name, kind, members, required, _ = field
        value = record.get(name)
        if value is None or (required and value == ""):
            problem = f"missing field {name!r}"
        elif members is not None:
            problem = f"bad {name} token {value!r}"
        else:
            problem = f"field {name!r} must be a {kind.__name__}"
        return error(f"{path}: line {lineno}: record {record.get(first, '?')!r}: {problem}")

    def decode(record: dict[str, Any], path: str | os.PathLike, lineno: int) -> T:
        obj = new(cls)
        for field in plan:
            name, kind, members, required, default = field
            value = record.get(name)
            if value is None and not required:
                value = default
            elif members is not None:
                try:
                    value = members[value]
                except (KeyError, TypeError):  # an unknown or unhashable token
                    raise reject(record, path, lineno, field) from None
            elif type(value) is not kind or (required and value == ""):
                raise reject(record, path, lineno, field)
            setattr_(obj, name, value)
        return obj

    return decode


@functools.cache
def line_encoder(cls: type[T]) -> Callable[[T], str]:
    """encode(obj): the JSONL line, newline included, of an instance of the
    flat dataclass cls, byte for byte what dumps_record writes for it: keys
    sorted, enums as their token, None fields left out."""
    fields = []
    for name, _, members, _, _ in sorted(_fields_plan(cls), key=lambda field: field[0]):
        key = encode_basestring(name) + ": "
        tokens = None if members is None else {
            member: key + encode_basestring(token) for token, member in members.items()}
        fields.append((name, key, tokens))

    def encode(obj: T) -> str:
        values = vars(obj)
        parts = []
        for name, key, tokens in fields:
            value = values[name]
            if value is not None:
                parts.append(key + encode_basestring(value) if tokens is None else tokens[value])
        return "{" + ", ".join(parts) + "}\n"

    return encode


def dumps_record(record: dict[str, Any]) -> str:
    """Serialize one record deterministically (sorted keys, no ASCII escaping)."""
    return json.dumps(record, ensure_ascii=False, sort_keys=True)


def write_jsonl(path: str | os.PathLike, lines: Iterable[str], digest: Any = None) -> int:
    """Atomically write lines, each ending in a newline, as UTF-8, a chunk at
    a time; returns the number of lines. digest, a hashlib object, when
    given, is updated with every byte written."""
    lines = iter(lines)
    count = 0
    with _atomic_output(path) as fh:
        while chunk := list(itertools.islice(lines, 1024)):
            data = "".join(chunk).encode("utf-8")
            if digest is not None:
                digest.update(data)
            fh.write(data)
            count += len(chunk)
    return count


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Atomically write text as UTF-8."""
    with _atomic_output(path) as fh:
        fh.write(text.encode("utf-8"))


@contextlib.contextmanager
def _atomic_output(path: str | os.PathLike) -> Iterator[BinaryIO]:
    """A binary file written via a temp file in the same directory, then
    renamed over path; nothing is left behind if the writing fails. The file
    is created as open() creates one: mode 0o666 less the umask."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{secrets.token_hex(6)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0), 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
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
