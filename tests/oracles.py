"""Brute-force oracles: recompute metrics by direct enumeration over
(gold, predicted) pairs, independent of the tally bookkeeping in mtgender.metrics,
and classify by scanning every word, independent of the compiled lexicon regex."""

import re

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
