"""The record codec in mtgender.fileio against the field-by-field oracle in
oracles.py: the decoder accepts and rejects what the oracle does, with the
same exception and message, and the line encoder writes the oracle's bytes.
Also the digest the JSONL reader takes as it reads, the byte order mark every
text reader rejects, and the mode of the files the atomic writer creates."""

import codecs
import dataclasses
import hashlib
import json
import os
import stat
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.backends import BackendError, TranslationRecord, TranslationStatus
import mtgender
from mtgender.corpus import (
    CorpusError,
    GenderLabel,
    ReferencedEntity,
    SourceSentence,
    Stereotype,
    Suite,
    load_occupations,
    iter_sentences,
)
from mtgender.fileio import (
    dumps_record, line_encoder, load_json, parse_record, read_jsonl, record_decoder,
)

from conftest import read_translations
from oracles import oracle_from_record, oracle_to_record

ERRORS = {SourceSentence: CorpusError, TranslationRecord: BackendError}
ENUMS = (Suite, GenderLabel, Stereotype, ReferencedEntity, TranslationStatus)
TOKENS = sorted({member.value for kind in ENUMS for member in kind})

_json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                          st.text(max_size=4))
json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=4,
)
# values no field takes (... is an absent field): missing, null, "", bool,
# int, list and dict fields, unknown and unhashable tokens
EDGE_CASES = [..., None, "", True, False, 0, 7, 2.5, [], ["male"], {}, {"male": 1}, "unknown"]
bad_values = st.one_of(st.sampled_from(EDGE_CASES), st.sampled_from(TOKENS),
                       st.text(max_size=4), json_values)
VALID = {
    SourceSentence: {"id": "x1", "text": "नमस्ते", "suite": "winomt", "set_id": "main",
                     "gold_gender": "male", "speaker_gender": "female", "occupation": "डॉक्टर",
                     "stereotype": "pro", "referenced_entity": "entity1"},
    TranslationRecord: {"source_id": "x1", "target_text": "he", "backend": "b",
                        "status": "failed", "reason": "timeout"},
}


def good_value(hint, required):
    kind = next(k for k in get_args(hint) or (hint,) if k is not type(None))
    if kind is str:
        good = st.text(min_size=1, max_size=6)
    else:
        good = st.sampled_from([member.value for member in kind])
    return good if required else st.one_of(st.just(...), st.none(), good)


@st.composite
def records(draw, cls):
    """A JSON object for cls with up to two of its fields spoiled, plus extra keys."""
    fields = dataclasses.fields(cls)
    hints = get_type_hints(cls)
    spoiled = draw(st.sets(st.sampled_from([f.name for f in fields]), max_size=2))
    record = draw(st.dictionaries(st.text(max_size=4).filter(lambda k: k not in hints),
                                  json_values, max_size=2))
    for f in fields:
        required = f.default is dataclasses.MISSING
        value = draw(bad_values if f.name in spoiled else good_value(hints[f.name], required))
        if value is not ...:
            record[f.name] = value
    return record


def outcome(build):
    try:
        obj = build()
    except Exception as exc:
        return type(exc), str(exc)
    return obj, list(vars(obj).items())


@settings(max_examples=400)
@given(st.data())
def test_decoder_matches_oracle(data):
    cls = data.draw(st.sampled_from(list(ERRORS)))
    record = data.draw(records(cls))
    expected = outcome(lambda: oracle_from_record(cls, dict(record), ERRORS[cls],
                                                  "in.jsonl: line 3"))
    assert outcome(lambda: record_decoder(cls, ERRORS[cls])(dict(record), "in.jsonl", 3)) \
        == expected


@pytest.mark.parametrize("cls, name", [(cls, f.name) for cls in VALID
                                        for f in dataclasses.fields(cls)])
def test_decoder_matches_oracle_on_each_edge_case(cls, name):
    for value in EDGE_CASES:
        record = dict(VALID[cls], extra=[1])
        if value is ...:
            del record[name]
        else:
            record[name] = value
        expected = outcome(lambda: oracle_from_record(cls, dict(record), ERRORS[cls],
                                                      "in.jsonl: line 3"))
        assert outcome(lambda: record_decoder(cls, ERRORS[cls])(dict(record), "in.jsonl", 3)) \
            == expected, value


# quotes, backslashes, control characters, line and paragraph separators,
# non-BMP characters, lone surrogates, Devanagari
_awkward = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029\U0001f600\ud800\u0915'),
                             st.characters(exclude_categories=())), max_size=10)


def optional(strategy):
    return st.one_of(st.none(), strategy)


@st.composite
def instances(draw):
    if draw(st.booleans()):
        return SourceSentence(
            id=draw(_awkward), text=draw(_awkward), suite=draw(st.sampled_from(Suite)),
            set_id=draw(_awkward), gold_gender=draw(optional(st.sampled_from(GenderLabel))),
            speaker_gender=draw(optional(st.sampled_from(GenderLabel))),
            occupation=draw(optional(_awkward)),
            stereotype=draw(optional(st.sampled_from(Stereotype))),
            referenced_entity=draw(optional(st.sampled_from(ReferencedEntity))),
        )
    return TranslationRecord(
        source_id=draw(_awkward), target_text=draw(_awkward), backend=draw(_awkward),
        status=draw(st.sampled_from(TranslationStatus)), reason=draw(optional(_awkward)),
    )


@settings(max_examples=400)
@given(instances())
def test_line_encoder_matches_dumps_record(obj):
    assert line_encoder(type(obj))(obj) == dumps_record(oracle_to_record(obj)) + "\n"


_padding = st.text(st.sampled_from(" \t\r\x0b\x0c\x1c\x85\xa0\u2028\u3000"), max_size=3)


@given(_padding, _padding, st.dictionaries(st.text(max_size=3), json_values, max_size=3))
def test_parse_record_strips_what_str_strip_strips(before, after, record):
    line = before + json.dumps(record, ensure_ascii=False) + after + "\n"
    assert parse_record(line, "in.jsonl", 1) == record
    assert parse_record(before + after + "\n", "in.jsonl", 2) is None


_SENTENCES = [SourceSentence(f"n{i}", "वह आया।", Suite.NEUTRAL, "S1") for i in range(3)]
_TRANSLATIONS = [TranslationRecord.ok("n0", "He came.", "x"),
                 TranslationRecord.failed("n1", "x", "timeout")]
_READERS = {
    "sentences": (lambda path, digest: list(iter_sentences(path, digest=digest)),
                  _SENTENCES),
    "translations": (lambda path, digest: read_translations(path, digest=digest),
                     _TRANSLATIONS),
    "translations-lenient": (lambda path, digest: read_translations(path, True, digest),
                             _TRANSLATIONS),
}
# lines a lenient read skips: torn inside a record, inside a character, not an object
_JUNK = ['{"source_id": "n9'.encode(), "{\"source_id\": \"ड".encode()[:-1], b"[1]"]


_padding_bytes = st.text(st.sampled_from(" \t\x0c\xa0"), max_size=2).map(str.encode)


@st.composite
def jsonl_file(draw, records, lenient):
    """The bytes of a JSONL file holding records: each line padded with
    whitespace and ended by LF or CRLF (the last one perhaps by nothing), with
    blank lines between them and, when lenient, lines that do not parse."""
    lines = []
    for record in records:
        lines += draw(st.lists(_padding_bytes, max_size=2))
        if lenient:
            lines += draw(st.lists(st.sampled_from(_JUNK), max_size=1))
        lines.append(draw(_padding_bytes) + line_encoder(type(record))(record).rstrip("\n")
                     .encode() + draw(_padding_bytes))
    endings = draw(st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    last = draw(st.sampled_from([b"\n", b"\r\n", b""]))
    return b"".join(line + ending for line, ending in zip(lines, endings[:-1] + [last]))


@pytest.mark.parametrize("reader", list(_READERS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_the_readers_digest_is_the_files_sha256(reader, data):
    read, records = _READERS[reader]
    raw = data.draw(jsonl_file(records, reader.endswith("lenient")))
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.jsonl"
        path.write_bytes(raw)
        assert read(path, digest) == records
    assert digest.hexdigest() == hashlib.sha256(raw).hexdigest()


@pytest.mark.parametrize("read", [
    lambda path: list(read_jsonl(path)),
    lambda path: list(read_jsonl(path, lenient=True)),
    lambda path: load_json(path, ValueError),
    load_occupations,
], ids=["jsonl", "jsonl-lenient", "json", "line-list"])
def test_a_byte_order_mark_is_rejected_naming_the_file(tmp_path, read):
    path = tmp_path / "in.txt"
    path.write_bytes(codecs.BOM_UTF8 + '{"term": "डॉक्टर"}\n'.encode())
    with pytest.raises(ValueError) as excinfo:
        read(path)
    assert str(excinfo.value) == \
        f"{path}: starts with a byte order mark (BOM); save it as UTF-8 without one"


def test_a_document_nested_too_deeply_is_invalid_json(tmp_path):
    nested = "[" * 100_000 + "]" * 100_000
    jsonl, document = tmp_path / "in.jsonl", tmp_path / "in.json"
    jsonl.write_text(f'{{"a": 1}}\n{nested}\n{{"b": 2}}\n', encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        list(read_jsonl(jsonl))
    assert str(excinfo.value) == f"{jsonl}: line 2: invalid JSON (nested too deeply)"
    assert list(read_jsonl(jsonl, lenient=True)) == [(1, {"a": 1}), (3, {"b": 2})]
    document.write_text(nested, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_json(document, ValueError)
    assert str(excinfo.value) == f"{document}: invalid JSON (nested too deeply)"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
def test_written_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    """Set in a child process, so this process keeps its umask."""
    src = str(Path(mtgender.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out.txt"
    probe = (f"import os; os.umask({umask:#o}); from mtgender.fileio import atomic_write_text; "
             f"atomic_write_text({str(out)!r}, 'x')")
    subprocess.run([sys.executable, "-c", probe], env=env, check=True)
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
