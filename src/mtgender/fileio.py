"""Shared file plumbing: JSONL records and their dataclass codec, JSON
documents and their checked decoder, atomic writes, digests, Devanagari
helpers."""

from __future__ import annotations

import codecs
import contextlib
import dataclasses
import enum
import functools
import hashlib
import itertools
import json
import logging
import os
import re
import secrets
import sys
import types
from collections.abc import Mapping
from json.encoder import encode_basestring
from pathlib import Path
from typing import (
    Any, BinaryIO, Callable, Iterable, Iterator, TypeVar, Union, get_args, get_origin,
    get_type_hints,
)

T = TypeVar("T")

logger = logging.getLogger(__name__)

# Devanagari block minus punctuation (danda, double danda, abbreviation sign).
_DEVANAGARI_WORD = re.compile(r"[ऀ-ॣ०-९ॱ-ॿ]+")
_DEVANAGARI_ANY = re.compile(r"[ऀ-ॿ]")


def contains_devanagari(text: str) -> bool:
    return bool(_DEVANAGARI_ANY.search(text))


def devanagari_tokens(text: str) -> list[str]:
    """Split out maximal runs of Devanagari word characters, dropping punctuation."""
    return _DEVANAGARI_WORD.findall(text)


def parse_json(text: str | bytes) -> Any:
    """json.loads, but a document nested too deeply for the parser raises
    JSONDecodeError("nested too deeply") instead of RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise json.JSONDecodeError("nested too deeply", "", 0) from None


def parse_record(line: str, path: str | os.PathLike, lineno: int) -> dict[str, Any] | None:
    """One JSONL line as a JSON object; None for a blank line. Raises
    ValueError naming path and line on malformed JSON or a non-object line."""
    try:
        record = json.loads(line)
    except (json.JSONDecodeError, RecursionError):
        # blank, malformed, nested too deeply, or padded with whitespace JSON does not skip
        line = line.strip()
        if not line:
            return None
        try:
            record = parse_json(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise ValueError(f"{path}: line {lineno}: expected a JSON object")
    return record


def read_jsonl(
    path: str | os.PathLike, digest: Any = None, lenient: bool = False
) -> Iterator[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for every non-blank line of a UTF-8 JSONL
    file, read once; lines end at "\\n". digest, a hashlib object, when given,
    is updated with every byte of the file. Raises ValueError naming path and
    line, or path alone for a leading byte order mark; with lenient,
    undecodable bytes become U+FFFD and a line that does not parse is logged
    and skipped instead."""
    with open(path, "rb") as fh:
        _reject_bom(path, fh.peek(3), ValueError)
        for lineno, raw in enumerate(fh, start=1):
            if digest is not None:
                digest.update(raw)
            try:
                record = parse_record(raw.decode("utf-8", "replace" if lenient else "strict"),
                                      path, lineno)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not valid UTF-8 ({exc.reason})") from None
            except ValueError as exc:
                if not lenient:
                    raise
                logger.warning("%s; line skipped", exc)
                continue
            if record is not None:
                yield lineno, record


def _reject_bom(path: str | os.PathLike, head: bytes, error: type[Exception]) -> None:
    """Raise error naming path when head, its file's start, is a UTF-8 byte order mark."""
    if head.startswith(codecs.BOM_UTF8):
        raise error(f"{path}: starts with a byte order mark (BOM); save it as UTF-8 without one")


def read_text(path: str | os.PathLike, error: type[Exception]) -> str:
    """The UTF-8 text of the file at path; raises error naming path when the
    file starts with a byte order mark or is not UTF-8."""
    data = Path(path).read_bytes()
    _reject_bom(path, data, error)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def load_json(path: str | os.PathLike, error: type[Exception]) -> Any:
    """The JSON document in the UTF-8 file at path; raises error naming path
    when the file is not UTF-8 or JSON, and OSError when it cannot be read."""
    try:
        return parse_json(read_text(path, error))
    except json.JSONDecodeError as exc:
        raise error(f"{path}: invalid JSON ({exc.msg})") from None


@contextlib.contextmanager
def file_errors(path: str | os.PathLike, error: type[Exception]) -> Iterator[None]:
    """Re-raise a ValueError from the block as error, prefixed with path."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{path}: {exc}") from None


def decode_document(value: Any, cls: type[T], error: type[Exception], where: str = "") -> T:
    """The dataclass cls built through cls(**fields), so that its
    __post_init__ checks run, from the JSON object value found at the dotted
    path where of its document ("" for the document itself).

    Each field is checked against its annotation: str; int, a finite number
    without a fractional part; float, a finite number; a str-valued enum, by
    its token; frozenset[str], from a list of strings; a nested dataclass or
    dict[str, X] or Mapping, from an object. "| None" accepts null. A field
    with a default may be absent; other keys are ignored. Raises error as
    "<where.field> must be <kind>, not <value>" or "missing <where.field>",
    or, for a nested class's own errors, "<where>: <error>".
    """
    if not isinstance(value, dict):
        raise error(f"{where or 'the document'} must be an object, not {_shown(value)}")
    hints, kwargs = get_type_hints(cls), {}
    for f in dataclasses.fields(cls):
        dotted = f"{where}.{f.name}" if where else f.name
        if f.init and f.name in value:
            kwargs[f.name] = _decode_field(value[f.name], hints[f.name], error, dotted)
        elif f.init and f.default is dataclasses.MISSING is f.default_factory:
            raise error(f"missing {dotted}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        if not where:
            raise
        raise error(f"{where}: {exc}") from None


def _decode_field(value: Any, hint: Any, error: type[Exception], dotted: str) -> Any:
    """value checked against, and built as, the annotation hint (see decode_document)."""
    if get_origin(hint) in (Union, types.UnionType):
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    origin = get_origin(hint) or hint
    # a finite JSON number: bool is not one, and an int beyond any float is not finite
    number = type(value) in (int, float) and abs(value) <= sys.float_info.max
    if hint is str and isinstance(value, str):
        return value
    if hint is float and number:
        return float(value)
    if hint is int and number and value == int(value):
        return int(value)
    if origin is frozenset and isinstance(value, list) and all(isinstance(v, str) for v in value):
        return frozenset(value)
    if dataclasses.is_dataclass(hint):
        # a value the caller built (a mock entry's stereotype lists) is taken as it is
        return value if isinstance(value, hint) else decode_document(value, hint, error, dotted)
    if origin in (dict, Mapping) and isinstance(value, dict):
        item = get_args(hint)[1]
        return value if item is Any else {
            key: _decode_field(v, item, error, f"{dotted}.{key}") for key, v in value.items()}
    if isinstance(hint, enum.EnumMeta):
        tokens = [member.value for member in hint]
        if value in tokens:
            return hint(value)
        kind = "one of " + ", ".join(map(repr, tokens))
    else:
        kind = {str: "a string", int: "a whole number" if number else "a number",
                float: "a number", frozenset: "a list of strings", dict: "an object",
                Mapping: "an object"}[origin]
    raise error(f"{dotted} must be {kind}, not {_shown(value)}")


def _shown(value: Any) -> str:
    """value as an error message quotes it: its repr, cut short."""
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


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
