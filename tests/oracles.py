"""Brute-force oracles: recompute metrics by direct enumeration over the
records, independent of the count table in mtgender.metrics,
classify by scanning every word, independent of the compiled lexicon regex, and
encode and decode pipeline records field by field through a dict and json.dumps,
independent of the record codec in mtgender.fileio, and render a template by
substituting every placeholder in one pass, independent of the quadrant frames
in mtgender.templates, and serve a replay file from a map of all its OK lines,
independent of the replay walk in mtgender.backends."""

import dataclasses
import enum
import logging
import math
import re
from typing import Any, Mapping, get_args, get_type_hints

from mtgender.backends import TranslationStatus, iter_translations
from mtgender.classify import ClassifiedRecord, PronounLexicon
from mtgender.corpus import OTSC_QUADRANTS, GenderLabel, Stereotype
from mtgender.templates import TemplateError

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


def oracle_class_scores(
    records: list[ClassifiedRecord], cls: GenderLabel, neutral_as_positive: bool = False
):
    """Precision/recall/F1 for one class, counted straight off the records; with
    neutral_as_positive a Neutral prediction is a hit for its gold class."""

    def hit(r):
        return r.predicted is cls or (neutral_as_positive and r.predicted is GenderLabel.NEUTRAL)

    tp = sum(1 for r in records if r.source.gold_gender is cls and hit(r))
    fp = sum(
        1
        for r in records
        if r.predicted is cls and r.source.gold_gender in GENDERED
        and r.source.gold_gender is not cls
    )
    fn = sum(1 for r in records if r.source.gold_gender is cls and not hit(r))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def _macro_pct(records, neutral_as_positive):
    f1_m = oracle_class_scores(records, GenderLabel.MALE, neutral_as_positive)[2]
    f1_f = oracle_class_scores(records, GenderLabel.FEMALE, neutral_as_positive)[2]
    return 100.0 * (f1_m + f1_f) / 2


def oracle_winomt(
    records: list[ClassifiedRecord], strict_neutral: bool = False,
    neutral_as_positive: bool = False,
):
    """All challenge-set metrics by enumeration."""
    total = len(records)
    correct = sum(
        1 for r in records
        if r.predicted is r.source.gold_gender
        or (neutral_as_positive and r.predicted is GenderLabel.NEUTRAL)
    )
    neutral_labels = (GenderLabel.NEUTRAL,) if strict_neutral else (
        GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS)
    neutral_like = sum(1 for r in records if r.predicted in neutral_labels)
    f1_male = 100.0 * oracle_class_scores(records, GenderLabel.MALE, neutral_as_positive)[2]
    f1_female = 100.0 * oracle_class_scores(records, GenderLabel.FEMALE, neutral_as_positive)[2]
    pro = [r for r in records if r.source.stereotype is Stereotype.PRO]
    anti = [r for r in records if r.source.stereotype is Stereotype.ANTI]
    macro_pro = _macro_pct(pro, neutral_as_positive) if pro else None
    macro_anti = _macro_pct(anti, neutral_as_positive) if anti else None
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
        "total": total,
        "excluded_unlisted": total - len(pro) - len(anti),
    }


def oracle_otsc(records: list[ClassifiedRecord]):
    """Per-quadrant percentages by enumeration: quadrant -> QuadrantStats fields."""
    quadrants = {}
    for quadrant in OTSC_QUADRANTS:
        members = [r for r in records if r.source.set_id == quadrant]
        n = len(members)
        males = sum(1 for r in members if r.predicted is GenderLabel.MALE)
        females = sum(1 for r in members if r.predicted is GenderLabel.FEMALE)
        hits = sum(1 for r in members if r.predicted is r.source.gold_gender)
        quadrants[quadrant] = {
            "p_m": 100.0 * males / n,
            "p_w": 100.0 * females / n,
            "p_n": 100.0 * (n - males - females) / n,
            "true_rate": 100.0 * hits / n,
            "count": n,
        }
    return quadrants


def oracle_tgbi(records: list[ClassifiedRecord]):
    """Per-set proportions and balance scores and their unweighted mean, by
    enumeration: (set id -> (p_m, p_f, p_n, ps, count), tgbi)."""
    per_set = {}
    for set_id in sorted({r.source.set_id for r in records}):
        labels = [r.predicted for r in records if r.source.set_id == set_id]
        n = len(labels)
        p_m = labels.count(GenderLabel.MALE) / n
        p_f = labels.count(GenderLabel.FEMALE) / n
        p_n = (labels.count(GenderLabel.NEUTRAL) + labels.count(GenderLabel.AMBIGUOUS)) / n
        ps = math.sqrt(min(1.0, max(0.0, p_m * p_f + p_n)))
        per_set[set_id] = (p_m, p_f, p_n, ps, n)
    return per_set, sum(entry[3] for entry in per_set.values()) / len(per_set)


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


_PLACEHOLDER = re.compile(r"\{([A-Za-z_][A-Za-z0-9_]*)\}")


def render_template(template_text: str, bindings: Mapping[str, str]) -> str:
    """Substitute every ``{name}`` placeholder; all other characters pass through.

    Unbound placeholders raise TemplateError naming the placeholder; bindings
    that never appear in the text are logged, not fatal.
    """
    used: set[str] = set()

    def substitute(match: re.Match[str]) -> str:
        name = match.group(1)
        if name not in bindings:
            raise TemplateError(f"unbound placeholder {name!r}")
        used.add(name)
        return bindings[name]

    rendered = _PLACEHOLDER.sub(substitute, template_text)
    for unused in sorted(set(bindings) - used):
        logging.getLogger(__name__).warning("binding %r does not appear in the template", unused)
    return rendered


def oracle_render_quadrant(template, quadrant: str, occupation: str) -> str:
    """One quadrant of an OtscTemplate, rendered from its skeleton by render_template."""
    speaker, friend = quadrant
    bindings = {
        "prefix": template.prefix_male_speaker if speaker == "M" else template.prefix_female_speaker,
        "possessive": (template.possessive_male_friend if friend == "M"
                       else template.possessive_female_friend),
        "verb": template.verb_male_friend if friend == "M" else template.verb_female_friend,
        template.occupation_slot: occupation,
    }
    return render_template(template.skeleton, bindings)


def oracle_replay_map(path) -> dict[str, str]:
    """A replay file as the text of each id's OK line, failed lines ignored:
    bare {source_id, target_text} lines or a full translations file."""
    return {record.source_id: record.target_text for record in iter_translations(path)
            if record.status is TranslationStatus.OK}
