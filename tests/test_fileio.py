"""The record codec in mtgender.fileio against the field-by-field oracle in
oracles.py: the decoder accepts and rejects what the oracle does, with the
same exception and message, and the line encoder writes the oracle's bytes."""

import dataclasses
import json
from typing import get_args, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.backends import BackendError, TranslationRecord, TranslationStatus
from mtgender.corpus import (
    CorpusError,
    GenderLabel,
    ReferencedEntity,
    SourceSentence,
    Stereotype,
    Suite,
)
from mtgender.fileio import dumps_record, line_encoder, parse_record, record_decoder

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
