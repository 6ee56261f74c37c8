import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.classify import ClassifiedRecord
from mtgender.corpus import OTSC_QUADRANTS, GenderLabel, SourceSentence, Stereotype, Suite
from mtgender.metrics import (
    ConfusionTally,
    MetricsError,
    Proportions,
    class_f1,
    compute_confusion,
    compute_otsc,
    compute_proportions,
    compute_ps,
    compute_tgbi,
    compute_tgbi_report,
    compute_winomt,
)

from conftest import build_winomt_corpus, dev_digits
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


class TestProportions:
    def test_half_half(self):
        assert compute_proportions([M] * 5 + [F] * 5) == Proportions(0.5, 0.5, 0.0)

    def test_all_neutral(self):
        assert compute_proportions([N] * 4) == Proportions(0.0, 0.0, 1.0)

    def test_ambiguous_folds_into_neutral(self):
        p = compute_proportions([M] * 6 + [F] * 2 + [N] + [A])
        assert p == Proportions(0.6, 0.2, 0.2)

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_proportions([])

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
        report = compute_tgbi_report(big + small)
        assert report.tgbi == 0.5
        assert report.per_set["S1"].count == 90
        assert report.per_set["S2"].count == 2


def _neutral_source(set_id, i):
    return SourceSentence(
        id=f"{set_id}-{i}", text=f"वह {dev_digits(i)} है", suite=Suite.NEUTRAL, set_id=set_id
    )


# --------------------------------------------------------------------------
# Confusion tallies and F1


class TestConfusion:
    def test_perfect_classifier(self):
        corpus = build_winomt_corpus(20)
        records = [classified(s, s.gold_gender) for s in corpus]
        tally = compute_confusion(records)
        assert tally.tp_m == 10 and tally.tp_f == 10
        assert tally.fp_m == tally.fp_f == tally.fn_m == tally.fn_f == 0
        assert tally.total == 20

    def test_all_male_over_balanced_corpus(self):
        corpus = build_winomt_corpus(100)
        tally = compute_confusion([classified(s, M) for s in corpus])
        assert (tally.tp_m, tally.fp_m, tally.fn_m) == (50, 50, 0)
        assert (tally.tp_f, tally.fp_f, tally.fn_f) == (0, 0, 50)

    def test_neutral_is_false_negative_without_false_positive(self):
        corpus = build_winomt_corpus(4)
        gold_male = next(s for s in corpus if s.gold_gender is M)
        tally = compute_confusion([classified(gold_male, N)])
        assert tally.fn_m == 1 and tally.neutral_count == 1
        assert tally.fp_m == 0 and tally.fp_f == 0

    def test_ambiguous_counted_separately(self):
        corpus = build_winomt_corpus(4)
        gold_female = next(s for s in corpus if s.gold_gender is F)
        tally = compute_confusion([classified(gold_female, A)])
        assert tally.fn_f == 1 and tally.ambiguous_count == 1 and tally.neutral_count == 0

    def test_neutral_as_positive_credits_gold_class(self):
        corpus = build_winomt_corpus(4)
        gold_male = next(s for s in corpus if s.gold_gender is M)
        tally = compute_confusion([classified(gold_male, N)], neutral_as_positive=True)
        assert tally.tp_m == 1 and tally.fn_m == 0 and tally.neutral_count == 1

    def test_record_without_gold_rejected(self):
        source = _neutral_source("S1", 0)
        with pytest.raises(MetricsError):
            compute_confusion([classified(source, M)])

    def test_gold_count_invariants(self):
        rng = random.Random(5)
        records = random_classified_corpus(rng)
        tally = compute_confusion(records)
        gold_m = sum(1 for r in records if r.source.gold_gender is M)
        gold_f = sum(1 for r in records if r.source.gold_gender is F)
        assert tally.tp_m + tally.fn_m == gold_m
        assert tally.tp_f + tally.fn_f == gold_f
        assert tally.total == gold_m + gold_f


class TestClassF1:
    def test_half_precision_full_recall(self):
        tally = ConfusionTally(tp_m=50, fp_m=50, fn_m=0, total=100)
        scores = class_f1(tally, M)
        assert scores.precision == 0.5
        assert scores.recall == 1.0
        assert scores.f1 == pytest.approx(2 / 3)

    def test_zero_denominators_score_zero(self):
        tally = ConfusionTally(tp_f=0, fp_f=0, fn_f=50, total=50)
        scores = class_f1(tally, F)
        assert (scores.precision, scores.recall, scores.f1) == (0.0, 0.0, 0.0)

    def test_perfect_class(self):
        tally = ConfusionTally(tp_m=10, total=10)
        scores = class_f1(tally, M)
        assert (scores.precision, scores.recall, scores.f1) == (1.0, 1.0, 1.0)

    def test_neutral_class_rejected(self):
        with pytest.raises(MetricsError):
            class_f1(ConfusionTally(), N)

    def test_oracle_agreement_on_random_corpora(self):
        rng = random.Random(11)
        for _ in range(100):
            records = random_classified_corpus(rng)
            tally = compute_confusion(records)
            for cls in (M, F):
                scores = class_f1(tally, cls)
                assert (scores.precision, scores.recall, scores.f1) == \
                    oracle_class_scores(records, cls)


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
        assert tripled.acc == pytest.approx(single.acc)
        assert tripled.delta_g == pytest.approx(single.delta_g)
        assert tripled.n == pytest.approx(single.n)
        assert tripled.delta_s == pytest.approx(single.delta_s)


class TestOtscReport:
    def _expand(self, occupations=("डॉक्टर", "वकील", "नर्स")):
        from mtgender.templates import expand_otsc

        return expand_otsc(list(occupations))

    def test_always_female(self):
        sentences = self._expand()
        report = compute_otsc([classified(s, F) for s in sentences])
        for stats in report.quadrants.values():
            assert stats.p_w == 100.0 and stats.p_m == 0.0 and stats.p_n == 0.0

    def test_echo_gold_quadrants(self):
        sentences = self._expand()
        report = compute_otsc([classified(s, s.gold_gender) for s in sentences])
        assert report.quadrants["FF"].p_w == 100.0
        assert report.quadrants["MF"].p_w == 100.0
        assert report.quadrants["FM"].p_m == 100.0
        assert report.quadrants["MM"].p_m == 100.0
        assert all(stats.true_rate == 100.0 for stats in report.quadrants.values())

    def test_true_rate_tracks_gold(self):
        sentences = self._expand()
        report = compute_otsc([classified(s, M) for s in sentences])
        assert report.quadrants["MM"].true_rate == 100.0
        assert report.quadrants["MF"].true_rate == 0.0

    def test_percentages_close(self):
        rng = random.Random(3)
        sentences = self._expand(("डॉक्टर", "वकील", "नर्स", "माली", "धोबी"))
        records = [classified(s, rng.choice([M, F, N, A])) for s in sentences]
        report = compute_otsc(records)
        for stats in report.quadrants.values():
            assert stats.p_m + stats.p_w + stats.p_n == pytest.approx(100.0)

    def test_coin_flip_stays_near_half(self, occupations_1071):
        # 1071 draws per quadrant at p=0.5: the 99% binomial band is about
        # +/- 0.039, so 0.05 gives headroom
        from mtgender.backends import MockSpec, mock_translate
        from mtgender.classify import classify_gender
        from mtgender.corpus import load_occupations
        from mtgender.templates import expand_otsc

        spec = MockSpec("coin_flip", seed=99, p_male=0.5)
        sentences = expand_otsc(load_occupations(occupations_1071))
        records = [classified(s, classify_gender(mock_translate(s, spec))[0])
                   for s in sentences]
        report = compute_otsc(records)
        for stats in report.quadrants.values():
            assert stats.count == 1071
            assert abs(stats.p_m / 100.0 - 0.5) <= 0.05

    def test_missing_quadrant_rejected(self):
        sentences = [s for s in self._expand() if s.set_id != "MF"]
        with pytest.raises(MetricsError, match="MF"):
            compute_otsc([classified(s, M) for s in sentences])

    def test_non_quadrant_set_id_rejected(self, winomt_corpus_400):
        with pytest.raises(MetricsError, match="non-quadrant"):
            compute_otsc([classified(winomt_corpus_400[0], M)])

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            compute_otsc([])


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
        report = compute_otsc(records)
        assert {quadrant: vars(stats) for quadrant, stats in report.quadrants.items()} == \
            oracle_otsc(records)

    @settings(max_examples=150, deadline=None)
    @given(records=neutral_records())
    def test_tgbi(self, records):
        report = compute_tgbi_report(records)
        per_set, tgbi = oracle_tgbi(records)
        assert {set_id: (b.p_m, b.p_f, b.p_n, b.ps, b.count)
                for set_id, b in report.per_set.items()} == per_set
        assert list(report.per_set) == list(per_set)
        assert report.tgbi == tgbi
