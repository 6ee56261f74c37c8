"""decode_document on every field of every JSON document kind: the backends
config (with its retry policy and mock entry), the OTSC template, the pronoun
lexicon, the cue inventory and the three machine reports.

Each field is given each of the same ten values. A value the type rules
accept must load, unless the class's own __post_init__ rejects it (listed in
POST_INIT); a value they reject must fail with the file and the dotted field
named. A Hypothesis round trip checks that a report decodes to itself.
"""

import dataclasses
import enum
import json
import math
import types
from dataclasses import asdict, dataclass
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.backends import BackendConfig, RetryPolicy, backend_config_from_dict
from mtgender.classify import PronounLexicon
from mtgender.cli import CliError, report_from_dict
from mtgender.corpus import OTSC_QUADRANTS
from mtgender.fileio import decode_document
from mtgender.metrics import (
    OtscReport, QuadrantStats, SetBalance, TgbiReport, WinomtReport, compute_ps,
)
from mtgender.resources import data_path
from mtgender.templates import CueInventory, OtscTemplate

ABSENT = object()
VALUES = {"absent": ABSENT, "null": None, "empty": "", "bool": True, "int": 2, "frac": 2.5,
          "inf": math.inf, "string": "string", "list": ["x"], "object": {"k": "v"}}
# the values each kind of field takes, besides null ("| None") and absent (a default)
ACCEPTS = {"str": {"empty", "string"}, "int": {"int"}, "float": {"int", "frac"},
           "enum": set(), "strings": {"list"}, "object": {"object"}, "objects": set()}


@dataclass(frozen=True)
class MockEntry:
    """The shape of a config's "mock" object, which MockSpec is built from."""

    spec: str = ""
    seed: int = 0
    p_male: float = 0.5
    male_list: str | None = None
    female_list: str | None = None


# (document, where, class): the object at where in the document is decoded as class
LOCATIONS = [
    ("config", "", BackendConfig),
    ("config", "retry", RetryPolicy),
    ("config", "mock", MockEntry),
    ("template", "", OtscTemplate),
    ("lexicon", "", PronounLexicon),
    ("cues", "", CueInventory),
    ("winomt", "metrics", WinomtReport),
    ("otsc", "metrics", OtscReport),
    ("otsc", "metrics.quadrants.FF", QuadrantStats),
    ("neutral", "metrics", TgbiReport),
    ("neutral", "metrics.per_set.S1", SetBalance),
]

_ps = compute_ps(SetBalance(0.25, 0.25, 0.5, 0.0, 4))
REPORTS = {
    "winomt": WinomtReport(acc=50.0, delta_g=1.0, delta_s=-2.0, n=10.0, f1_male=60.0,
                           f1_female=59.0, macro_f1_pro=55.0, macro_f1_anti=57.0, total=20,
                           excluded_unlisted=2),
    "otsc": OtscReport({q: QuadrantStats(25.0, 25.0, 50.0, 25.0, 4) for q in OTSC_QUADRANTS}),
    "neutral": TgbiReport({"S1": SetBalance(0.25, 0.25, 0.5, _ps, 4)}, _ps),
}


def base_document(document):
    if document == "config":
        return {"name": "m", "kind": "mock", "mock": {"spec": "coin_flip", "seed": 7},
                "retry": {}}
    if document == "template":
        return json.loads(data_path("otsc_template.json").read_text(encoding="utf-8"))
    if document == "lexicon":
        return {"male_tokens": ["he"], "female_tokens": ["she"]}
    if document == "cues":
        return {"male_cues": ["करता"], "female_cues": ["करती"]}
    return {"suite": document, "backend": "b", "metrics": asdict(REPORTS[document])}


def load(document, path):
    raw = json.loads(path.read_text(encoding="utf-8"))
    if document == "config":
        return backend_config_from_dict(raw, path)
    if document in REPORTS:
        return report_from_dict(raw, str(path))[2]
    return {"template": OtscTemplate, "lexicon": PronounLexicon,
            "cues": CueInventory}[document].from_file(path)


def inner(obj, where):
    """The decoded object at where (a report's where starts at its metrics)."""
    for key in where.split(".")[1:] if where.startswith("metrics") else where.split("."):
        if key:
            obj = obj[key] if isinstance(obj, dict) else getattr(obj, key)
    return obj


def unwrap(hint):
    """The annotation without its "| None"."""
    if get_origin(hint) in (Union, types.UnionType):
        return next(arg for arg in get_args(hint) if arg is not type(None))
    return hint


def kind_of(hint):
    """(kind, optional) of a field's annotation."""
    optional, hint = unwrap(hint) is not hint, unwrap(hint)
    if hint in (str, int, float):
        return hint.__name__, optional
    if isinstance(hint, enum.EnumMeta):
        return "enum", optional
    if get_origin(hint) is frozenset:
        return "strings", optional
    if get_origin(hint) is dict and dataclasses.is_dataclass(get_args(hint)[1]):
        return "objects", optional  # {"k": "v"} holds no object for its "k"
    return "object", optional


def default_of(field):
    if field.default_factory is not dataclasses.MISSING:
        return field.default_factory()
    return field.default


# (document, dotted field, value label) -> the message of a value the type
# rules accept and the class's own checks reject
_KIND = "mock: unknown mock kind"
_RANGE = "metrics.per_set.S1: {} must be within [0, 1], got {}"
POST_INIT = {
    ("config", "mock", "absent"): "backend 'm': mock kind requires a mock spec",
    ("config", "mock", "null"): "backend 'm': mock kind requires a mock spec",
    ("config", "mock", "object"): f"{_KIND} ''",
    ("config", "mock.spec", "absent"): f"{_KIND} ''",
    ("config", "mock.spec", "empty"): f"{_KIND} ''",
    ("config", "mock.spec", "string"): f"{_KIND} 'string'",
    ("config", "mock.p_male", "int"): "mock: p_male must be within [0, 1]",
    ("config", "mock.p_male", "frac"): "mock: p_male must be within [0, 1]",
    ("template", "skeleton", "empty"): "skeleton must contain the {occupation} slot exactly once",
    ("template", "skeleton", "string"): "skeleton must contain the {occupation} slot exactly once",
    ("template", "occupation_slot", "empty"): "skeleton must contain the {} slot exactly once",
    ("template", "occupation_slot", "string"):
        "skeleton must contain the {string} slot exactly once",
    **{("neutral", f"metrics.per_set.S1.{name}", label): _RANGE.format(name, value)
       for name in ("p_m", "p_f", "p_n") for label, value in (("int", 2.0), ("frac", 2.5))},
}
# fields whose messages are written by hand rather than by the decoder
HAND_WRITTEN = {
    ("config", "name"): lambda label: (
        None if label == "string" else
        "backend entry is missing a name" if label in ("absent", "null", "empty") else
        f"name must be a string, not {VALUES[label]!r}"),
    ("config", "kind"): lambda label: (
        f"backend 'm': unknown kind {None if label == 'absent' else VALUES[label]!r}"),
    ("config", "mock.male_list"): lambda label: (
        None if label in ("absent", "null") else
        "backend 'm': stereotype mock needs both male_list and female_list, each a file name"),
}
HAND_WRITTEN[("config", "mock.female_list")] = HAND_WRITTEN[("config", "mock.male_list")]


def expected_value(document, dotted, kind, hint, field, label, path):
    """What an accepted value decodes to."""
    value = VALUES[label]
    if label == "absent":
        return default_of(field)
    if value is None or dotted.endswith("_list"):  # a mock's lists: None unless both are set
        return None
    if (document, dotted) == ("config", "replay_path"):
        return str(path.parent / value)
    if kind == "object" and dataclasses.is_dataclass(unwrap(hint)):
        return unwrap(hint)()  # {"k": "v"} sets no field
    return {"int": int, "float": float, "strings": frozenset}.get(kind, lambda v: v)(value)


def write_case(tmp_path, document, where, name, value):
    doc = base_document(document)
    parent = doc
    for step in where.split(".") if where else ():
        parent = parent[step]
    if value is ABSENT:
        parent.pop(name, None)
    else:
        parent[name] = value
    path = tmp_path / f"{document}.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


CASES = [(document, where, cls, field)
         for document, where, cls in LOCATIONS
         for field in dataclasses.fields(cls) if field.init]


@pytest.mark.parametrize("document, where, cls, field", CASES,
                         ids=[f"{d}-{f'{w}.' if w else ''}{f.name}" for d, w, _, f in CASES])
def test_every_field_takes_what_its_annotation_allows(tmp_path, document, where, cls, field):
    hint = get_type_hints(cls)[field.name]
    kind, optional = kind_of(hint)
    dotted = f"{where}.{field.name}" if where else field.name
    for label, value in VALUES.items():
        path = write_case(tmp_path, document, where, field.name, value)
        case = f"{dotted} = {label}"
        if (document, dotted) in HAND_WRITTEN:
            message = HAND_WRITTEN[document, dotted](label)
        elif (document, dotted, label) in POST_INIT:
            message = POST_INIT[document, dotted, label]
        elif label in ACCEPTS[kind] or (label == "null" and optional) or (
                label == "absent" and default_of(field) is not dataclasses.MISSING):
            message = None
        elif label == "absent":
            message = f"missing {dotted}"
        else:
            message = ...  # the decoder's type error, checked below

        if message is None:
            loaded = inner(load(document, path), where)
            got = getattr(loaded, "kind" if field.name == "spec" else
                          "lists" if field.name.endswith("_list") else field.name)
            assert got == expected_value(document, dotted, kind, hint, field, label, path), case
            continue
        with pytest.raises(ValueError) as excinfo:
            load(document, path)
        error = str(excinfo.value)
        if message is ...:
            # a value inside a dict names its own key: metrics.quadrants.k must be ...
            assert error.startswith(f"{path}: {dotted}") and " must be " in error, case
            if error.startswith(f"{path}: {dotted} must be "):
                assert error.endswith(f", not {value!r}"), case
        else:
            assert error == f"{path}: {message}", case


# --------------------------------------------------------------------------
# Round trip


_percent = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
_count = st.integers(min_value=0, max_value=10**6)


@st.composite
def set_balances(draw):
    males, females, neutrals = draw(st.tuples(_count, _count, _count).filter(lambda t: sum(t)))
    n = males + females + neutrals
    p_m, p_f, p_n = males / n, females / n, (n - males - females) / n
    return SetBalance(p_m, p_f, p_n, compute_ps(SetBalance(p_m, p_f, p_n, 0.0, n)), n)


reports = st.one_of(
    st.builds(WinomtReport, acc=_percent, delta_g=_percent, delta_s=st.none() | _percent,
              n=_percent, f1_male=_percent, f1_female=_percent,
              macro_f1_pro=st.none() | _percent, macro_f1_anti=st.none() | _percent,
              total=_count, excluded_unlisted=_count),
    st.builds(OtscReport, st.fixed_dictionaries({
        q: st.builds(QuadrantStats, _percent, _percent, _percent, _percent, _count)
        for q in OTSC_QUADRANTS})),
    st.builds(TgbiReport, st.dictionaries(st.sampled_from(["S1", "S2", "S3", "x"]),
                                          set_balances(), min_size=1),
              st.floats(min_value=0.0, max_value=1.0)),
)


@settings(max_examples=200, deadline=None)
@given(report=reports)
def test_a_report_decodes_to_itself(report):
    metrics = json.loads(json.dumps(asdict(report)))
    assert decode_document(metrics, type(report), CliError, "metrics") == report
