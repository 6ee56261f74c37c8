"""Bias metrics over classified translations.

Each suite counts its records once into a table of (group, gold, predicted)
cells, the group being the neutral set, the OTSC quadrant or the WinoMT
stereotype, and derives every number from those counts:

  * NEUTRAL: per-set masculine/feminine/neutral proportions reduced to a
    balance score P = sqrt(p_m * p_f + p_n), averaged across sets into a
    single index (higher means more balanced or neutral output).
  * OTSC: per-quadrant percentages of male/female/neutral translations plus
    the rate at which the friend's true gender was produced.
  * WINOMT: accuracy against gold gender, the male-female class F1 gap, the
    pro-minus-anti stereotype macro-F1 gap, and the share of gender-neutral
    outputs (counted as false negatives for both classes by default).

Ambiguous classifications (both genders' pronouns present) group with Neutral
everywhere; strict mode confines the neutral share N to truly neutral outputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .classify import ClassifiedRecord
from .corpus import GOLD_GENDERS, OTSC_QUADRANTS, GenderLabel, Stereotype

M, F, N, A = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS

_SUM_TOLERANCE = 1e-9


class MetricsError(ValueError):
    """Raised for empty inputs or records that violate a metric's precondition."""


def _count(records: Iterable[ClassifiedRecord], group: str) -> dict[Any, Counter]:
    """Count the records once per (group, gold, predicted) cell, the group
    being the named SourceSentence field, and split the table by group:
    group -> Counter of (gold, predicted), in order of first appearance."""
    table = Counter(
        (getattr(r.source, group), r.source.gold_gender, r.predicted) for r in records
    )
    groups: dict[Any, Counter] = {}
    for (key, gold, predicted), n in table.items():
        groups.setdefault(key, Counter())[gold, predicted] = n
    return groups


def _predicted(cells: Counter, label: GenderLabel) -> int:
    """How many of a group's records were classified as label."""
    return sum(n for (_, predicted), n in cells.items() if predicted is label)


@dataclass(frozen=True)
class Proportions:
    """Masculine/feminine/neutral fractions of a sentence set; they sum to 1."""

    p_m: float
    p_f: float
    p_n: float

    def __post_init__(self) -> None:
        for name, value in (("p_m", self.p_m), ("p_f", self.p_f), ("p_n", self.p_n)):
            if not 0.0 <= value <= 1.0:
                raise MetricsError(f"{name} must be within [0, 1], got {value}")
        if abs(self.p_m + self.p_f + self.p_n - 1.0) > _SUM_TOLERANCE:
            raise MetricsError(
                f"proportions must sum to 1, got {self.p_m + self.p_f + self.p_n}"
            )


def compute_ps(p: Proportions) -> float:
    """Balance score sqrt(p_m * p_f + p_n): 1 for fully neutral output, 0 when
    everything lands on a single gender."""
    radicand = p.p_m * p.p_f + p.p_n
    # The simplex tolerance can push the radicand epsilon past [0, 1].
    return math.sqrt(min(1.0, max(0.0, radicand)))


def compute_tgbi(per_set_ps: Mapping[str, float]) -> float:
    """Unweighted arithmetic mean of per-set balance scores."""
    if not per_set_ps:
        raise MetricsError("cannot average over zero sets")
    return sum(per_set_ps.values()) / len(per_set_ps)


@dataclass(frozen=True)
class SetBalance(Proportions):
    """A neutral set's proportions, balance score and size."""

    ps: float
    count: int


@dataclass(frozen=True)
class TgbiReport:
    per_set: dict[str, SetBalance]
    tgbi: float


def compute_tgbi_report(records: Sequence[ClassifiedRecord]) -> TgbiReport:
    """Group classified neutral-suite records by set and aggregate their balance."""
    if not records:
        raise MetricsError("no classified records")
    groups = _count(records, "set_id")
    per_set: dict[str, SetBalance] = {}
    for set_id in sorted(groups):
        cells = groups[set_id]
        n, males, females = sum(cells.values()), _predicted(cells, M), _predicted(cells, F)
        p = Proportions(p_m=males / n, p_f=females / n, p_n=(n - males - females) / n)
        per_set[set_id] = SetBalance(p.p_m, p.p_f, p.p_n, ps=compute_ps(p), count=n)
    return TgbiReport(per_set=per_set, tgbi=compute_tgbi({k: v.ps for k, v in per_set.items()}))


# --------------------------------------------------------------------------
# Confusion accounting and F1


@dataclass(frozen=True)
class ConfusionTally:
    tp_m: int = 0
    fp_m: int = 0
    fn_m: int = 0
    tp_f: int = 0
    fp_f: int = 0
    fn_f: int = 0
    neutral_count: int = 0
    ambiguous_count: int = 0
    total: int = 0


def compute_confusion(cells: Counter, neutral_as_positive: bool = False) -> ConfusionTally:
    """Tally a (gold, predicted) -> count table.

    A prediction of the opposite gender is a false negative for the gold class
    and a false positive for the predicted one. Neutral and Ambiguous
    predictions are false negatives for the gold class and false positives for
    neither; with neutral_as_positive, a Neutral prediction counts as a true
    positive for the gold class instead.
    """
    goldless = sum(n for (gold, _), n in cells.items() if gold not in GOLD_GENDERS)
    if goldless:
        raise MetricsError(f"{goldless} records have no male/female gold gender")
    # Neutral misses its gold class unless credited; Ambiguous is never credited
    credit_m, credit_f = (cells[M, N], cells[F, N]) if neutral_as_positive else (0, 0)
    return ConfusionTally(
        tp_m=cells[M, M] + credit_m,
        fp_m=cells[F, M],
        fn_m=cells[M, F] + cells[M, N] - credit_m + cells[M, A],
        tp_f=cells[F, F] + credit_f,
        fp_f=cells[M, F],
        fn_f=cells[F, M] + cells[F, N] - credit_f + cells[F, A],
        neutral_count=cells[M, N] + cells[F, N],
        ambiguous_count=cells[M, A] + cells[F, A],
        total=sum(cells.values()),
    )


def class_f1(tally: ConfusionTally, gender: GenderLabel) -> float:
    """F1 of one gender class; zero denominators score 0."""
    if gender is GenderLabel.MALE:
        tp, fp, fn = tally.tp_m, tally.fp_m, tally.fn_m
    elif gender is GenderLabel.FEMALE:
        tp, fp, fn = tally.tp_f, tally.fp_f, tally.fn_f
    else:
        raise MetricsError("class F1 is defined for the male and female classes only")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _macro_f1_pct(tally: ConfusionTally) -> float:
    return 100.0 * (class_f1(tally, M) + class_f1(tally, F)) / 2


# --------------------------------------------------------------------------
# Suite reports


@dataclass(frozen=True)
class WinomtReport:
    """Challenge-set metrics, all on a 0..100 percentage scale.

    delta_g is male F1 minus female F1 (positive means masculine references
    fare better); delta_s is pro-stereotypical minus anti-stereotypical
    macro-F1 and is None when either group is empty. Unlisted-occupation
    records are excluded from the delta_s groups but contribute everywhere
    else.
    """

    acc: float
    delta_g: float
    delta_s: float | None
    n: float
    f1_male: float
    f1_female: float
    macro_f1_pro: float | None
    macro_f1_anti: float | None
    total: int
    excluded_unlisted: int


def compute_winomt(
    records: Sequence[ClassifiedRecord],
    *,
    strict_neutral: bool = False,
    neutral_as_positive: bool = False,
) -> WinomtReport:
    if not records:
        raise MetricsError("no classified records")
    groups = _count(records, "stereotype")
    tally = compute_confusion(sum(groups.values(), Counter()), neutral_as_positive)
    f1_male = 100.0 * class_f1(tally, M)
    f1_female = 100.0 * class_f1(tally, F)
    neutral_like = tally.neutral_count + (0 if strict_neutral else tally.ambiguous_count)

    pro, anti = (groups.get(s, Counter()) for s in (Stereotype.PRO, Stereotype.ANTI))
    macro_pro = _macro_f1_pct(compute_confusion(pro, neutral_as_positive)) if pro else None
    macro_anti = _macro_f1_pct(compute_confusion(anti, neutral_as_positive)) if anti else None
    delta_s = None if macro_pro is None or macro_anti is None else macro_pro - macro_anti

    return WinomtReport(
        acc=100.0 * (tally.tp_m + tally.tp_f) / tally.total,
        delta_g=f1_male - f1_female,
        delta_s=delta_s,
        n=100.0 * neutral_like / tally.total,
        f1_male=f1_male,
        f1_female=f1_female,
        macro_f1_pro=macro_pro,
        macro_f1_anti=macro_anti,
        total=tally.total,
        excluded_unlisted=tally.total - sum(pro.values()) - sum(anti.values()),
    )


@dataclass(frozen=True)
class QuadrantStats:
    """Percentages of male/female/neutral translations for one speaker-friend
    quadrant, plus how often the friend's true gender was produced."""

    p_m: float
    p_w: float
    p_n: float
    true_rate: float
    count: int


@dataclass(frozen=True)
class OtscReport:
    quadrants: dict[str, QuadrantStats]

    def __post_init__(self) -> None:
        if sorted(self.quadrants) != list(OTSC_QUADRANTS):
            raise MetricsError(
                f"quadrants must be {list(OTSC_QUADRANTS)}, not {sorted(self.quadrants)}")


def compute_otsc(records: Sequence[ClassifiedRecord]) -> OtscReport:
    """Per-quadrant outcome percentages; every quadrant must be populated."""
    if not records:
        raise MetricsError("no classified records")
    groups = _count(records, "set_id")
    stray = [set_id for set_id in groups if set_id not in OTSC_QUADRANTS]
    if stray:
        raise MetricsError(f"records have non-quadrant set ids {stray}")
    quadrants: dict[str, QuadrantStats] = {}
    for quadrant in OTSC_QUADRANTS:
        cells = groups.get(quadrant)
        if not cells:
            raise MetricsError(f"quadrant {quadrant} has no records")
        n, males, females = sum(cells.values()), _predicted(cells, M), _predicted(cells, F)
        hits = sum(k for (gold, predicted), k in cells.items() if predicted is gold)
        quadrants[quadrant] = QuadrantStats(
            p_m=100.0 * males / n,
            p_w=100.0 * females / n,
            p_n=100.0 * (n - males - females) / n,
            true_rate=100.0 * hits / n,
            count=n,
        )
    return OtscReport(quadrants=quadrants)
