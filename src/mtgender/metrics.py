"""Bias metrics over classified translations.

Each suite counts its records once into a table of (group, gold, predicted)
cells, the group being the neutral set, the OTSC quadrant or the WinoMT
stereotype, and derives every number from those counts in its *_from_table
entry; compute_* count a list of records and call that entry:

  * NEUTRAL: per-set masculine/feminine/neutral proportions reduced to a
    balance score P = sqrt(p_m * p_f + p_n), averaged across sets into a
    single index (higher means more balanced or neutral output).
  * OTSC: per-quadrant percentages of male/female/neutral translations plus
    the rate at which the friend's true gender was produced.
  * WINOMT: accuracy against gold gender, the male-female class F1 gap, the
    pro-minus-anti stereotype macro-F1 gap, and the share N of gender-neutral
    outputs. A Neutral or Ambiguous output is a false negative for its gold
    class and a false positive for neither; neutral_as_positive counts a
    Neutral output as a hit.

Ambiguous classifications (both genders' pronouns present) group with Neutral
everywhere; strict mode confines the neutral share N to truly neutral outputs.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from .classify import ClassifiedRecord
from .corpus import GOLD_GENDERS, OTSC_QUADRANTS, GenderLabel, Stereotype, Suite

M, F, N, A = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS

_SUM_TOLERANCE = 1e-9


class MetricsError(ValueError):
    """Raised for empty inputs or records that violate a metric's precondition."""


def count_cells(records: Iterable[ClassifiedRecord], suite: Suite) -> Counter:
    """The (group, gold, predicted) -> count table of records, the group being
    a record's stereotype in the winomt suite, else its set id."""
    group = "stereotype" if suite is Suite.WINOMT else "set_id"
    return Counter((getattr(r.source, group), r.source.gold_gender, r.predicted) for r in records)


def _by_group(table: Counter) -> dict[Any, Counter]:
    """Split a count table by group, in order of first appearance; empty is an error."""
    if not table:
        raise MetricsError("no classified records")
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
    return tgbi_from_table(count_cells(records, Suite.NEUTRAL))


def tgbi_from_table(table: Counter) -> TgbiReport:
    """The TGBI report of a neutral-suite count table."""
    groups = _by_group(table)
    per_set: dict[str, SetBalance] = {}
    for set_id in sorted(groups):
        cells = groups[set_id]
        n, males, females = sum(cells.values()), _predicted(cells, M), _predicted(cells, F)
        p = Proportions(p_m=males / n, p_f=females / n, p_n=(n - males - females) / n)
        per_set[set_id] = SetBalance(p.p_m, p.p_f, p.p_n, ps=compute_ps(p), count=n)
    return TgbiReport(per_set=per_set, tgbi=compute_tgbi({k: v.ps for k, v in per_set.items()}))


# --------------------------------------------------------------------------
# F1 from the count table


def _f1(cells: Counter, gender: GenderLabel, neutral_as_positive: bool) -> float:
    """F1 of the male or female class from a (gold, predicted) -> count table;
    zero denominators score 0. An output of the other gender is a false
    positive for it; a Neutral or Ambiguous output is a false negative for its
    gold class, or with neutral_as_positive a Neutral one a true positive."""
    tp = cells[gender, gender] + (cells[gender, N] if neutral_as_positive else 0)
    fp = cells[F if gender is M else M, gender]
    gold = sum(n for (g, _), n in cells.items() if g is gender)  # tp + fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / gold if gold else 0.0
    return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def _macro_f1_pct(cells: Counter, neutral_as_positive: bool) -> float | None:
    """A group's mean male and female F1 in percent; None for an empty group."""
    if not cells:
        return None
    return 100.0 * (_f1(cells, M, neutral_as_positive) + _f1(cells, F, neutral_as_positive)) / 2


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
    return winomt_from_table(count_cells(records, Suite.WINOMT), strict_neutral=strict_neutral,
                             neutral_as_positive=neutral_as_positive)


def winomt_from_table(
    table: Counter, *, strict_neutral: bool = False, neutral_as_positive: bool = False
) -> WinomtReport:
    """The WinoMT report of a winomt count table."""
    groups = _by_group(table)
    cells = sum(groups.values(), Counter())
    goldless = sum(n for (gold, _), n in cells.items() if gold not in GOLD_GENDERS)
    if goldless:
        raise MetricsError(f"{goldless} records have no male/female gold gender")
    total = sum(cells.values())
    hits = sum(n for (gold, predicted), n in cells.items()
               if predicted is gold or (neutral_as_positive and predicted is N))
    f1_male, f1_female = (100.0 * _f1(cells, g, neutral_as_positive) for g in (M, F))
    neutral_like = _predicted(cells, N) + (0 if strict_neutral else _predicted(cells, A))
    pro, anti = (groups.get(s, Counter()) for s in (Stereotype.PRO, Stereotype.ANTI))
    macro_pro, macro_anti = (_macro_f1_pct(g, neutral_as_positive) for g in (pro, anti))
    delta_s = None if macro_pro is None or macro_anti is None else macro_pro - macro_anti

    return WinomtReport(
        acc=100.0 * hits / total,
        delta_g=f1_male - f1_female,
        delta_s=delta_s,
        n=100.0 * neutral_like / total,
        f1_male=f1_male,
        f1_female=f1_female,
        macro_f1_pro=macro_pro,
        macro_f1_anti=macro_anti,
        total=total,
        excluded_unlisted=total - sum(pro.values()) - sum(anti.values()),
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
    return otsc_from_table(count_cells(records, Suite.OTSC))


def otsc_from_table(table: Counter) -> OtscReport:
    """The OTSC report of an otsc count table."""
    groups = _by_group(table)
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
