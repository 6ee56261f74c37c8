"""Brute-force oracles: recompute metrics by direct enumeration over
(gold, predicted) pairs, independent of the tally bookkeeping in mtgender.metrics,
classify by scanning every word, independent of the compiled lexicon regex, and
encode and decode pipeline records field by field through a dict and json.dumps,
independent of the record codec in mtgender.fileio."""

import dataclasses
import enum
import re
from typing import Any, get_args, get_type_hints

from mtgender.classify import ClassifiedRecord, PronounLexicon
from mtgender.corpus import GenderLabel, Stereotype

GENDERED = (GenderLabel.MALE, GenderLabel.FEMALE)

_WORD = re.compile(r"\w+")


def oracle_classify_gender(
    target_text: str, lexicon: PronounLexicon | None = None
) -> tuple[GenderLabel, tuple[str, ...]]:
    """Label a translation by pronoun presence; returns matches in text order."""
    lexicon = lexicon or PronounLexicon.default()
    matched: list[str] = []
    saw_male = saw_female = False
    for match in _WORD.finditer(target_text.lower()):
        token = match.group(0)
        if token in lexicon.male_tokens:
            saw_male = True
            matched.append(token)
        elif token in lexicon.female_tokens:
            saw_female = True
            matched.append(token)
    if saw_male and saw_female:
        label = GenderLabel.AMBIGUOUS
    elif saw_male:
        label = GenderLabel.MALE
    elif saw_female:
        label = GenderLabel.FEMALE
    else:
        label = GenderLabel.NEUTRAL
    return label, tuple(matched)


def oracle_class_scores(records: list[ClassifiedRecord], cls: GenderLabel):
    """Precision/recall/F1 for one class, counted straight off the records."""
    tp = sum(1 for r in records if r.predicted is cls and r.source.gold_gender is cls)
    fp = sum(
        1
        for r in records
        if r.predicted is cls and r.source.gold_gender in GENDERED
        and r.source.gold_gender is not cls
    )
    fn = sum(1 for r in records if r.source.gold_gender is cls and r.predicted is not cls)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _macro_pct(records):
    f1_m = oracle_class_scores(records, GenderLabel.MALE)[2]
    f1_f = oracle_class_scores(records, GenderLabel.FEMALE)[2]
    return 100.0 * (f1_m + f1_f) / 2


def oracle_winomt(records: list[ClassifiedRecord]):
    """All challenge-set metrics by enumeration (default neutral-as-miss policy)."""
    total = len(records)
    correct = sum(1 for r in records if r.predicted is r.source.gold_gender)
    neutral_like = sum(
        1 for r in records if r.predicted in (GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS)
    )
    f1_male = 100.0 * oracle_class_scores(records, GenderLabel.MALE)[2]
    f1_female = 100.0 * oracle_class_scores(records, GenderLabel.FEMALE)[2]
    pro = [r for r in records if r.source.stereotype is Stereotype.PRO]
    anti = [r for r in records if r.source.stereotype is Stereotype.ANTI]
    macro_pro = _macro_pct(pro) if pro else None
    macro_anti = _macro_pct(anti) if anti else None
    delta_s = macro_pro - macro_anti if pro and anti else None
    return {
        "acc": 100.0 * correct / total,
        "f1_male": f1_male,
        "f1_female": f1_female,
        "delta_g": f1_male - f1_female,
        "n": 100.0 * neutral_like / total,
        "macro_f1_pro": macro_pro,
        "macro_f1_anti": macro_anti,
        "delta_s": delta_s,
    }


def _oracle_fields(cls):
    """(name, type, enum members by token or None, required) per field of a
    flat dataclass whose fields are each a str or an enum, optionally "| None"."""
    hints = get_type_hints(cls)
    plan = []
    for f in dataclasses.fields(cls):
        kind = next((a for a in get_args(hints[f.name]) if a is not type(None)), hints[f.name])
        members = {m.value: m for m in kind} if issubclass(kind, enum.Enum) else None
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        plan.append((f.name, kind, members, required))
    return plan


def oracle_to_record(obj) -> dict[str, Any]:
    """A flat dataclass as a JSON object: enums as their value, None fields left out."""
    record = {}
    for name, _, members, _ in _oracle_fields(type(obj)):
        value = getattr(obj, name)
        if value is not None:
            record[name] = value if members is None else value.value
    return record


def oracle_from_record(cls, record: dict[str, Any], error: type[Exception], where: str):
    """Build the flat dataclass cls from a JSON object through its __init__.

    A required field (one without a default) that is absent, null or "" is
    missing; an enum field is parsed from its token; any other field must be
    an instance of its type. An absent or null optional field takes its
    default. Raises error naming where and the record by its first field.
    """
    plan = _oracle_fields(cls)
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
