import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.classify import ClassifiedRecord
from mtgender.corpus import OTSC_QUADRANTS, GenderLabel, SourceSentence, Stereotype, Suite
from mtgender.metrics import (
    MetricsError,
    Proportions,
    compute_ps,
    compute_tgbi,
    compute_winomt,
    otsc_from_table,
    tgbi_from_table,
)

from conftest import build_winomt_corpus, dev_digits, set_table
from oracles import oracle_class_scores, oracle_otsc, oracle_tgbi, oracle_winomt

M, F, N, A = GenderLabel.MALE, GenderLabel.FEMALE, GenderLabel.NEUTRAL, GenderLabel.AMBIGUOUS


def classified(source: SourceSentence, predicted: GenderLabel) -> ClassifiedRecord:
    return ClassifiedRecord(source=source, target_text="", predicted=predicted,
                            matched_tokens=())


def random_classified_corpus(rng, max_size=200):
    """Random gold/stereotype/prediction records for oracle comparisons."""
    size = rng.randint(1, max_size)
    records = []
    for i in range(size):
        gold = rng.choice([M, F])
        source = SourceSentence(
            id=f"r{i}",
            text=f"वाक्य {dev_digits(i)}",
            suite=Suite.WINOMT,
            set_id="main",
            gold_gender=gold,
            occupation="मैकेनिक",
            stereotype=rng.choice(list(Stereotype)),
            referenced_entity=None,
        )
        records.append(classified(source, rng.choice([M, F, N, A])))
    return records


# --------------------------------------------------------------------------
# Proportions and the balance score


def set_proportions(labels):
    """The proportions tgbi_from_table gives a single set of these labels."""
    report = tgbi_from_table(set_table(
        [classified(_neutral_source("S1", i), label) for i, label in enumerate(labels)]))
    balance = report.per_set["S1"]
    return Proportions(balance.p_m, balance.p_f, balance.p_n)


class TestProportions:
    def test_half_half(self):
        assert set_proportions([M] * 5 + [F] * 5) == Proportions(0.5, 0.5, 0.0)

    def test_all_neutral(self):
        assert set_proportions([N] * 4) == Proportions(0.0, 0.0, 1.0)

    def test_ambiguous_folds_into_neutral(self):
        p = set_proportions([M] * 6 + [F] * 2 + [N] + [A])
        assert p == Proportions(0.6, 0.2, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            tgbi_from_table(set_table([]))

    def test_invalid_sum_rejected(self):
        with pytest.raises(MetricsError, match="sum to 1"):
            Proportions(0.5, 0.5, 0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(MetricsError, match="p_m"):
            Proportions(1.5, -0.5, 0.0)


def simplex_points(draw):
    a = draw(st.floats(min_value=0.0, max_value=1.0))
    b = draw(st.floats(min_value=0.0, max_value=1.0))
    low, high = sorted([a, b])
    return Proportions(low, high - low, 1.0 - high)


simplex = st.composite(simplex_points)()


class TestBalanceScore:
    def test_fully_neutral_is_one(self):
        assert compute_ps(Proportions(0.0, 0.0, 1.0)) == 1.0

    def test_fully_masculine_is_zero(self):
        assert compute_ps(Proportions(1.0, 0.0, 0.0)) == 0.0

    def test_even_split_is_half(self):
        assert compute_ps(Proportions(0.5, 0.5, 0.0)) == 0.5

    @settings(max_examples=300)
    @given(simplex)
    def test_bounds_and_symmetry(self, p):
        value = compute_ps(p)
        assert 0.0 <= value <= 1.0
        swapped = Proportions(p.p_f, p.p_m, p.p_n)
        assert compute_ps(swapped) == value

    @settings(max_examples=200)
    @given(simplex)
    def test_one_only_at_full_neutral(self, p):
        if p.p_n < 1.0 - 1e-12:
            assert compute_ps(p) < 1.0

    def test_strictly_increasing_in_neutral_share(self):
        # fixed male:female ratio 3:1, growing neutral share
        values = []
        for p_n in (0.0, 0.25, 0.5, 0.75, 0.9999):
            gendered = 1.0 - p_n
            values.append(compute_ps(Proportions(0.75 * gendered, 0.25 * gendered, p_n)))
        assert values == sorted(values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_maximized_at_even_split_for_fixed_neutral(self):
        p_n = 0.2
        best = compute_ps(Proportions(0.4, 0.4, p_n))
        for p_m in (0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.8):
            assert compute_ps(Proportions(p_m, 0.8 - p_m, p_n)) <= best


class TestTgbi:
    def test_published_aggregation(self):
        per_set = {"S1": 0.787, "S2": 0.620, "S3": 0.623, "S4": 0.569,
                   "S5": 0.819, "S6": 0.926, "S7": 0.848}
        assert compute_tgbi(per_set) == pytest.approx(0.742, abs=0.0005)

    def test_singleton(self):
        assert compute_tgbi({"S1": 1.0}) == 1.0

    def test_two_point_mean(self):
        assert compute_tgbi({"A": 0.0, "B": 1.0}) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_tgbi({})

    def test_unweighted_by_set_size(self):
        # one big all-male set and one tiny all-neutral set average to 0.5
        big = [classified(_neutral_source("S1", i), M) for i in range(90)]
        small = [classified(_neutral_source("S2", i), N) for i in range(2)]
        report = tgbi_from_table(set_table(big + small))
        assert report.tgbi == 0.5
        assert report.per_set["S1"].count == 90
        assert report.per_set["S2"].count == 2


def _neutral_source(set_id, i):
    return SourceSentence(
        id=f"{set_id}-{i}", text=f"वह {dev_digits(i)} है", suite=Suite.NEUTRAL, set_id=set_id
    )


# --------------------------------------------------------------------------
# Confusion accounting and F1, read off compute_winomt


def gold(corpus, gender):
    return next(s for s in corpus if s.gold_gender is gender)


class TestConfusion:
    def test_perfect_classifier(self):
        records = [classified(s, s.gold_gender) for s in build_winomt_corpus(20)]
        report = compute_winomt(records)
        assert (report.acc, report.f1_male, report.f1_female) == (100.0, 100.0, 100.0)
        assert (report.n, report.total) == (0.0, 20)

    def test_all_male_over_balanced_corpus(self):
        # male: 50 TP, 50 FP, 0 FN; female: 0 TP, 0 FP, 50 FN
        report = compute_winomt([classified(s, M) for s in build_winomt_corpus(100)])
        assert (report.acc, report.f1_male, report.f1_female) == (50.0, 66.66666666666666, 0.0)
        assert report.delta_g == 66.66666666666666

    def test_neutral_is_false_negative_without_false_positive(self):
        corpus = build_winomt_corpus(4)
        report = compute_winomt([classified(gold(corpus, M), M), classified(gold(corpus, M), N),
                                 classified(gold(corpus, F), F)])
        # male recall 1/2, precision 1; a false positive would lower the female F1
        assert (report.f1_male, report.f1_female) == (66.66666666666666, 100.0)
        assert (report.acc, report.n) == (66.66666666666667, 33.333333333333336)

    def test_ambiguous_counted_separately(self):
        corpus = build_winomt_corpus(4)
        records = [classified(gold(corpus, F), A), classified(gold(corpus, F), F),
                   classified(gold(corpus, M), M)]
        report = compute_winomt(records)
        assert (report.f1_male, report.f1_female) == (100.0, 66.66666666666666)
        assert report.n == 33.333333333333336
        assert compute_winomt(records, strict_neutral=True).n == 0.0

    def test_neutral_as_positive_credits_gold_class(self):
        records = [classified(gold(build_winomt_corpus(4), M), N)]
        assert (compute_winomt(records).acc, compute_winomt(records).f1_male) == (0.0, 0.0)
        report = compute_winomt(records, neutral_as_positive=True)
        assert (report.acc, report.f1_male, report.n) == (100.0, 100.0, 100.0)

    def test_record_without_gold_rejected(self):
        source = _neutral_source("S1", 0)
        with pytest.raises(MetricsError, match="^1 records have no male/female gold gender$"):
            compute_winomt([classified(source, M)])

    def test_gold_count_invariants(self):
        rng = random.Random(5)
        records = random_classified_corpus(rng)
        hits = sum(1 for r in records if r.predicted is r.source.gold_gender)
        unlisted = sum(1 for r in records if r.source.stereotype is Stereotype.UNLISTED)
        report = compute_winomt(records)
        assert report.acc == 100.0 * hits / len(records)
        assert (report.total, report.excluded_unlisted) == (len(records), unlisted)


class TestClassF1:
    def test_half_precision_full_recall(self):
        corpus = build_winomt_corpus(4)
        records = [classified(gold(corpus, M), M), classified(gold(corpus, F), M)]
        assert compute_winomt(records).f1_male == 66.66666666666666

    def test_zero_denominators_score_zero(self):
        # no male gold and no male output; no female output
        records = [classified(s, N) for s in build_winomt_corpus(100) if s.gold_gender is F]
        report = compute_winomt(records)
        assert (report.f1_male, report.f1_female, report.macro_f1_pro) == (0.0, 0.0, 0.0)

    def test_perfect_class(self):
        records = [classified(s, M) for s in build_winomt_corpus(20) if s.gold_gender is M]
        assert (compute_winomt(records).f1_male, compute_winomt(records).f1_female) == (100.0, 0.0)

    def test_oracle_agreement_on_random_corpora(self):
        rng = random.Random(11)
        for _ in range(100):
            records = random_classified_corpus(rng)
            for credit in (False, True):
                report = compute_winomt(records, neutral_as_positive=credit)
                assert (report.f1_male, report.f1_female) == tuple(
                    100.0 * oracle_class_scores(records, cls, credit)[2] for cls in (M, F))


# --------------------------------------------------------------------------
# Suite reports


class TestWinomtReport:
    def test_echo_gold_is_perfect(self, winomt_corpus_400):
        records = [classified(s, s.gold_gender) for s in winomt_corpus_400]
        report = compute_winomt(records)
        assert report.acc == 100.0
        assert report.delta_g == 0.0
        assert report.delta_s == 0.0
        assert report.n == 0.0

    def test_always_male_fixture(self, winomt_corpus_400):
        records = [classified(s, M) for s in winomt_corpus_400]
        report = compute_winomt(records)
        assert report.acc == 50.0
        assert report.f1_male == pytest.approx(100 * 2 / 3, abs=1e-9)
        assert report.f1_female == 0.0
        assert report.delta_g == pytest.approx(100 * 2 / 3, abs=1e-9)
        assert report.delta_s == 0.0
        assert report.n == 0.0

    def test_neutralizing_fixture(self, winomt_corpus_400):
        records = [classified(s, N) for s in winomt_corpus_400]
        report = compute_winomt(records)
        assert report.acc == 0.0
        assert report.n == 100.0
        assert report.f1_male == 0.0 and report.f1_female == 0.0
        assert report.delta_g == 0.0

    def test_oracle_agreement(self):
        rng = random.Random(23)
        for _ in range(100):
            records = random_classified_corpus(rng)
            report = compute_winomt(records)
            expected = oracle_winomt(records)
            assert report.acc == expected["acc"]
            assert report.f1_male == expected["f1_male"]
            assert report.f1_female == expected["f1_female"]
            assert report.delta_g == expected["delta_g"]
            assert report.n == expected["n"]
            assert report.macro_f1_pro == expected["macro_f1_pro"]
            assert report.macro_f1_anti == expected["macro_f1_anti"]
            assert report.delta_s == expected["delta_s"]

    def test_unlisted_excluded_from_delta_s_groups(self, winomt_corpus_400):
        from dataclasses import replace

        corpus = [replace(s, stereotype=Stereotype.UNLISTED) if i % 2 else s
                  for i, s in enumerate(winomt_corpus_400)]
        records = [classified(s, M) for s in corpus]
        report = compute_winomt(records)
        assert report.excluded_unlisted == 200
        assert report.total == 400  # unlisted still count toward acc and N

    def test_empty_delta_s_group_reported_undefined(self, winomt_corpus_400):
        pro_only = [s for s in winomt_corpus_400 if s.stereotype is Stereotype.PRO]
        report = compute_winomt([classified(s, M) for s in pro_only])
        assert report.delta_s is None
        assert report.macro_f1_anti is None
        assert report.acc == 50.0  # other metrics still emitted

    def test_strict_neutral_excludes_ambiguous_from_n(self, winomt_corpus_400):
        records = [classified(s, A) for s in winomt_corpus_400[:100]]
        assert compute_winomt(records).n == 100.0
        assert compute_winomt(records, strict_neutral=True).n == 0.0

    def test_neutral_as_positive_mode(self, winomt_corpus_400):
        records = [classified(s, N) for s in winomt_corpus_400]
        report = compute_winomt(records, neutral_as_positive=True)
        assert report.acc == 100.0
        assert report.n == 100.0  # N stays descriptive

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_winomt([])

    def test_accounting_closes(self):
        rng = random.Random(31)
        for _ in range(50):
            records = random_classified_corpus(rng)
            report = compute_winomt(records)
            misgendered = 100.0 * sum(
                1
                for r in records
                if r.predicted in (M, F) and r.predicted is not r.source.gold_gender
            ) / len(records)
            assert report.acc + misgendered + report.n == pytest.approx(100.0)

    def test_permutation_invariance(self, winomt_corpus_400):
        rng = random.Random(7)
        records = [classified(s, rng.choice([M, F, N, A])) for s in winomt_corpus_400]
        shuffled = records[:]
        rng.shuffle(shuffled)
        assert compute_winomt(records) == compute_winomt(shuffled)

    def test_scaling_invariance(self, winomt_corpus_400):
        rng = random.Random(9)
        records = [classified(s, rng.choice([M, F, N, A])) for s in winomt_corpus_400[:40]]
        single = compute_winomt(records)
        tripled = compute_winomt(records * 3)
        assert tripled.acc == single.acc
        assert tripled.delta_g == single.delta_g
        assert tripled.n == single.n
        assert tripled.delta_s == single.delta_s


class TestOtscReport:
    def _expand(self, occupations=("डॉक्टर", "वकील", "नर्स")):
        from mtgender.templates import iter_otsc

        return list(iter_otsc(list(occupations)))

    def test_always_female(self):
        sentences = self._expand()
        report = otsc_from_table(set_table([classified(s, F) for s in sentences]))
        for stats in report.quadrants.values():
            assert stats.p_w == 100.0 and stats.p_m == 0.0 and stats.p_n == 0.0

    def test_echo_gold_quadrants(self):
        sentences = self._expand()
        report = otsc_from_table(set_table([classified(s, s.gold_gender) for s in sentences]))
        assert report.quadrants["FF"].p_w == 100.0
        assert report.quadrants["MF"].p_w == 100.0
        assert report.quadrants["FM"].p_m == 100.0
        assert report.quadrants["MM"].p_m == 100.0
        assert all(stats.true_rate == 100.0 for stats in report.quadrants.values())

    def test_true_rate_tracks_gold(self):
        sentences = self._expand()
        report = otsc_from_table(set_table([classified(s, M) for s in sentences]))
        assert report.quadrants["MM"].true_rate == 100.0
        assert report.quadrants["MF"].true_rate == 0.0

    def test_percentages_close(self):
        rng = random.Random(3)
        sentences = self._expand(("डॉक्टर", "वकील", "नर्स", "माली", "धोबी"))
        records = [classified(s, rng.choice([M, F, N, A])) for s in sentences]
        report = otsc_from_table(set_table(records))
        for stats in report.quadrants.values():
            assert stats.p_m + stats.p_w + stats.p_n == pytest.approx(100.0)

    def test_coin_flip_stays_near_half(self, occupations_1071):
        # 1071 draws per quadrant at p=0.5: the 99% binomial band is about
        # +/- 0.039, so 0.05 gives headroom
        from mtgender.backends import MockSpec, mock_translate
        from mtgender.classify import classify_gender
        from mtgender.corpus import load_occupations
        from mtgender.templates import iter_otsc

        spec = MockSpec("coin_flip", seed=99, p_male=0.5)
        sentences = list(iter_otsc(load_occupations(occupations_1071)))
        records = [classified(s, classify_gender(mock_translate(s, spec))[0])
                   for s in sentences]
        report = otsc_from_table(set_table(records))
        for stats in report.quadrants.values():
            assert stats.count == 1071
            assert abs(stats.p_m / 100.0 - 0.5) <= 0.05

    def test_missing_quadrant_rejected(self):
        sentences = [s for s in self._expand() if s.set_id != "MF"]
        with pytest.raises(MetricsError, match="MF"):
            otsc_from_table(set_table([classified(s, M) for s in sentences]))

    def test_non_quadrant_set_id_rejected(self, winomt_corpus_400):
        with pytest.raises(MetricsError, match="non-quadrant"):
            otsc_from_table(set_table([classified(winomt_corpus_400[0], M)]))

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            otsc_from_table(set_table([]))


# --------------------------------------------------------------------------
# Every suite against the enumeration oracles, float for float

labels = st.sampled_from([M, F, N, A])


def _record(i, suite, set_id, gold, predicted, stereotype=None):
    source = SourceSentence(id=f"r{i}", text="पाठ", suite=suite, set_id=set_id,
                            gold_gender=gold, stereotype=stereotype)
    return classified(source, predicted)


@st.composite
def winomt_records(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from([M, F]), labels,
                                   st.sampled_from(list(Stereotype))), min_size=1, max_size=40))
    return [_record(i, Suite.WINOMT, "main", gold, predicted, stereotype)
            for i, (gold, predicted, stereotype) in enumerate(rows)]


@st.composite
def otsc_records(draw):
    records = []
    for quadrant in OTSC_QUADRANTS:
        gold = M if quadrant[1] == "M" else F
        for predicted in draw(st.lists(labels, min_size=1, max_size=12)):
            records.append(_record(len(records), Suite.OTSC, quadrant, gold, predicted))
    return draw(st.permutations(records))


@st.composite
def neutral_records(draw):
    rows = draw(st.lists(st.tuples(st.sampled_from(["S1", "S2", "S3", "S10"]), labels),
                         min_size=1, max_size=40))
    return [_record(i, Suite.NEUTRAL, set_id, None, predicted)
            for i, (set_id, predicted) in enumerate(rows)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("strict_neutral", [False, True])
    @pytest.mark.parametrize("neutral_as_positive", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(records=winomt_records())
    def test_winomt(self, records, strict_neutral, neutral_as_positive):
        report = compute_winomt(records, strict_neutral=strict_neutral,
                                neutral_as_positive=neutral_as_positive)
        expected = oracle_winomt(records, strict_neutral, neutral_as_positive)
        assert {name: getattr(report, name) for name in expected} == expected

    @settings(max_examples=150, deadline=None)
    @given(records=otsc_records())
    def test_otsc(self, records):
        report = otsc_from_table(set_table(records))
        assert {quadrant: vars(stats) for quadrant, stats in report.quadrants.items()} == \
            oracle_otsc(records)

    @settings(max_examples=150, deadline=None)
    @given(records=neutral_records())
    def test_tgbi(self, records):
        report = tgbi_from_table(set_table(records))
        per_set, tgbi = oracle_tgbi(records)
        assert {set_id: (b.p_m, b.p_f, b.p_n, b.ps, b.count)
                for set_id, b in report.per_set.items()} == per_set
        assert list(report.per_set) == list(per_set)
        assert report.tgbi == tgbi


# --------------------------------------------------------------------------
# Metamorphic relations: what the metrics mean, as transformations of the input.
# Floats are compared with ==, not as printed bytes: -0.0 and 0.0 print apart.

SWAP_GENDER = {M: F, F: M, N: N, A: A, None: None}
SWAP_STEREOTYPE = {Stereotype.PRO: Stereotype.ANTI, Stereotype.ANTI: Stereotype.PRO,
                   Stereotype.UNLISTED: Stereotype.UNLISTED}


def gender_swapped(records):
    """Every record with M and F exchanged in its gold and predicted labels and
    in its quadrant (FF<->MM, FM<->MF)."""
    quadrant = str.maketrans("MF", "FM")
    return [classified(replace(r.source, gold_gender=SWAP_GENDER[r.source.gold_gender],
                               set_id=r.source.set_id.translate(quadrant)
                               if r.source.suite is Suite.OTSC else r.source.set_id),
                       SWAP_GENDER[r.predicted]) for r in records]


def negated(value):
    return None if value is None else -value


class TestMetamorphic:
    @pytest.mark.parametrize("strict_neutral", [False, True])
    @pytest.mark.parametrize("neutral_as_positive", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(records=winomt_records())
    def test_gender_swap_negates_delta_g(self, records, strict_neutral, neutral_as_positive):
        options = dict(strict_neutral=strict_neutral, neutral_as_positive=neutral_as_positive)
        report = compute_winomt(records, **options)
        swapped = compute_winomt(gender_swapped(records), **options)
        assert swapped.delta_g == -report.delta_g
        assert (swapped.f1_male, swapped.f1_female) == (report.f1_female, report.f1_male)
        assert (swapped.acc, swapped.n, swapped.delta_s) == (report.acc, report.n, report.delta_s)

    @settings(max_examples=150, deadline=None)
    @given(records=otsc_records())
    def test_gender_swap_mirrors_otsc_quadrants(self, records):
        report = otsc_from_table(set_table(records)).quadrants
        swapped = otsc_from_table(set_table(gender_swapped(records))).quadrants
        for quadrant, mirror in (("FF", "MM"), ("FM", "MF"), ("MF", "FM"), ("MM", "FF")):
            stats, mirrored = report[quadrant], swapped[mirror]
            assert (mirrored.p_m, mirrored.p_w) == (stats.p_w, stats.p_m)
            assert (mirrored.p_n, mirrored.true_rate, mirrored.count) == \
                (stats.p_n, stats.true_rate, stats.count)

    @settings(max_examples=150, deadline=None)
    @given(records=neutral_records())
    def test_gender_swap_keeps_every_set_balance(self, records):
        report = tgbi_from_table(set_table(records))
        swapped = tgbi_from_table(set_table(gender_swapped(records)))
        for set_id, balance in report.per_set.items():
            mirrored = swapped.per_set[set_id]
            assert (mirrored.p_m, mirrored.p_f) == (balance.p_f, balance.p_m)
            assert (mirrored.ps, mirrored.count) == (balance.ps, balance.count)
        assert swapped.tgbi == report.tgbi

    @settings(max_examples=150, deadline=None)
    @given(records=winomt_records())
    def test_stereotype_swap_negates_delta_s(self, records):
        report = compute_winomt(records)
        swapped = compute_winomt([
            classified(replace(r.source, stereotype=SWAP_STEREOTYPE[r.source.stereotype]),
                       r.predicted) for r in records])
        assert swapped.delta_s == negated(report.delta_s)
        assert (swapped.macro_f1_pro, swapped.macro_f1_anti) == \
            (report.macro_f1_anti, report.macro_f1_pro)
        assert (swapped.acc, swapped.delta_g, swapped.n, swapped.excluded_unlisted) == \
            (report.acc, report.delta_g, report.n, report.excluded_unlisted)

    @settings(max_examples=150, deadline=None)
    @given(records=winomt_records())
    def test_neutral_as_positive_raises_acc_by_the_neutral_share(self, records):
        predicted = Counter(r.predicted for r in records)
        hits = sum(1 for r in records if r.predicted is r.source.gold_gender)
        credited = compute_winomt(records, neutral_as_positive=True)
        assert credited.acc == 100.0 * (hits + predicted[N]) / len(records)
        gain = compute_winomt(records, neutral_as_positive=True).acc - compute_winomt(records).acc
        assert math.isclose(gain, 100.0 * predicted[N] / len(records), abs_tol=1e-9)

    @settings(max_examples=150, deadline=None)
    @given(records=winomt_records())
    def test_strict_neutral_lowers_n_by_the_ambiguous_share(self, records):
        predicted, size = Counter(r.predicted for r in records), len(records)
        assert (compute_winomt(records).n, compute_winomt(records, strict_neutral=True).n) == (
            100.0 * (predicted[N] + predicted[A]) / size, 100.0 * predicted[N] / size)
        drop = compute_winomt(records).n - compute_winomt(records, strict_neutral=True).n
        assert math.isclose(drop, 100.0 * predicted[A] / len(records), abs_tol=1e-9)
