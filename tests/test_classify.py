import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtgender.backends import MockSpec, TranslationRecord, mock_translate
from mtgender.classify import (
    ClassifyError,
    PronounLexicon,
    classify_batch,
    classify_gender,
)
from mtgender.corpus import GenderLabel

from conftest import build_winomt_corpus
from oracles import oracle_classify_gender


class TestClassifyGender:
    def test_neutral_example(self):
        label, tokens = classify_gender("The secretary asks the mover what to do to help")
        assert label is GenderLabel.NEUTRAL
        assert tokens == ()

    def test_single_female_pronoun(self):
        label, tokens = classify_gender(
            "I have known her for a long time, my friend works as a doctor."
        )
        assert label is GenderLabel.FEMALE
        assert tokens == ("her",)

    def test_both_genders_ambiguous(self):
        label, tokens = classify_gender("He said she left")
        assert label is GenderLabel.AMBIGUOUS
        assert tokens == ("he", "she")

    def test_empty_string(self):
        assert classify_gender("") == (GenderLabel.NEUTRAL, ())

    @pytest.mark.parametrize("text", ["here", "therapist", "shed", "history",
                                       "The shepherd gathered the sheep"])
    def test_no_substring_false_positives(self, text):
        assert classify_gender(text) == (GenderLabel.NEUTRAL, ())

    @pytest.mark.parametrize("text,expected", [
        ("him,", ("him",)),
        ("His", ("his",)),
        ("(she)", ("she",)),
        ("her.", ("her",)),
        ("HE!", ("he",)),
    ])
    def test_punctuation_and_case(self, text, expected):
        label, tokens = classify_gender(text)
        assert tokens == expected
        assert label in (GenderLabel.MALE, GenderLabel.FEMALE)

    def test_tokens_in_text_order(self):
        _, tokens = classify_gender("She told him that his plan needs her review")
        assert tokens == ("she", "him", "his", "her")

    def test_hers_default_vs_strict(self):
        assert classify_gender("the book is hers")[0] is GenderLabel.FEMALE
        assert classify_gender("the book is hers", PronounLexicon.strict())[0] is GenderLabel.NEUTRAL

    def test_strict_keeps_core_pronouns(self):
        strict = PronounLexicon.strict()
        assert classify_gender("she spoke to him", strict)[0] is GenderLabel.AMBIGUOUS

    @settings(max_examples=100)
    @given(st.text(max_size=80))
    def test_lowercase_invariance(self, text):
        assert classify_gender(text) == classify_gender(text.lower())

    @settings(max_examples=100)
    @given(st.lists(st.sampled_from(
        ["he", "him", "his", "she", "her", "hers", "they", "the", "friend", "works"]),
        max_size=12))
    def test_label_matches_token_evidence(self, words):
        label, tokens = classify_gender(" ".join(words))
        male = {"he", "him", "his"}
        female = {"she", "her", "hers"}
        saw_male = any(t in male for t in tokens)
        saw_female = any(t in female for t in tokens)
        assert (label is GenderLabel.NEUTRAL) == (not tokens)
        assert (label is GenderLabel.AMBIGUOUS) == (saw_male and saw_female)

    def test_custom_lexicon_from_file(self, tmp_path):
        path = tmp_path / "pronouns.json"
        path.write_text(json.dumps({"male_tokens": ["il"], "female_tokens": ["elle"]}),
                        encoding="utf-8")
        lexicon = PronounLexicon.from_file(path)
        assert classify_gender("elle est partie", lexicon)[0] is GenderLabel.FEMALE

    @pytest.mark.parametrize("content, complaint", [
        ('{"male_tokens": ["he", 5], "female_tokens": ["she"]}', "male_tokens must be a list of strings"),
        ('{"male_tokens": ["he"], "female_tokens": "she"}', "female_tokens must be a list of strings"),
        ('[["he"], ["she"]]', "lexicon must be an object, not list"),
        ('{"male_tokens": ["he"]', "invalid JSON"),
        ('{"male_tokens": ["he"]}', "missing token list 'female_tokens'"),
    ])
    def test_malformed_lexicon_file_names_the_file(self, tmp_path, content, complaint):
        path = tmp_path / "pronouns.json"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ClassifyError) as excinfo:
            PronounLexicon.from_file(path)
        assert str(excinfo.value).startswith(f"{path}: ") and complaint in str(excinfo.value)

    def test_overlapping_lexicon_rejected(self):
        with pytest.raises(ClassifyError, match="overlap"):
            PronounLexicon(frozenset({"x"}), frozenset({"x"}))


# Pieces that put pronouns next to punctuation, case changes, digits, "_" and
# non-ASCII letters, so word boundaries fall in every kind of place.
_PRONOUN_PIECES = ["he", "him", "his", "she", "her", "hers", "He", "HIM", "Hers", "SHE"]
_NEAR_MISSES = ["the", "here", "shed", "hero", "ushers", "therapist", "they"]
_JOINERS = [" ", ".", ",", "'", "-", "\n", "_", "2", "é", "ß", "İ", "Σ", "\u0301", "ह"]
_TEXT = st.lists(
    st.one_of(
        st.sampled_from(_PRONOUN_PIECES + _NEAR_MISSES + _JOINERS),
        st.text(alphabet="hersimHERSIM_09 .é", max_size=4),
    ),
    max_size=20,
).map("".join)
_LEXICON_TOKENS = ["he", "him", "his", "she", "her", "hers", "o'neil", "he she",
                   "elle", "él", "x", "", "ह", "HIS"]


class TestOracleEquivalence:
    """The compiled lexicon regex against the word-by-word scan it replaced."""

    @pytest.mark.parametrize("lexicon", [None, PronounLexicon.strict()],
                             ids=["default", "strict"])
    @settings(max_examples=300)
    @given(text=st.one_of(_TEXT, st.text(max_size=60)))
    @example(text="_he")
    @example(text="he2")
    @example(text="éhe")
    @example(text="HERS.")
    @example(text="İhe")
    def test_builtin_lexicons(self, lexicon, text):
        assert classify_gender(text, lexicon) == oracle_classify_gender(text, lexicon)

    @settings(max_examples=300)
    @given(st.dictionaries(st.sampled_from(_LEXICON_TOKENS), st.booleans()), _TEXT)
    @example({"o'neil": True, "he she": False, "he": True}, "o'neil said he she left")
    def test_custom_lexicons(self, is_male, text):
        """Tokens map to male (True) or female (False); multi-word and
        apostrophe tokens never match, exactly as in the word scan."""
        lexicon = PronounLexicon(
            frozenset(t for t, male in is_male.items() if male),
            frozenset(t for t, male in is_male.items() if not male),
        )
        text = text + " " + " ".join(is_male)
        assert classify_gender(text, lexicon) == oracle_classify_gender(text, lexicon)


class TestClassifyBatch:
    def _translations(self, corpus, spec):
        return [
            TranslationRecord.ok(s.id, mock_translate(s, spec), "mock") for s in corpus
        ]

    def test_always_male_all_male(self):
        corpus = build_winomt_corpus(40)
        index = {s.id: s for s in corpus}
        classified, excluded = classify_batch(
            self._translations(corpus, MockSpec("always_male")), index
        )
        assert len(classified) == 40 and not excluded
        assert all(r.predicted is GenderLabel.MALE for r in classified)

    def test_neutralizing_all_neutral(self):
        corpus = build_winomt_corpus(40)
        index = {s.id: s for s in corpus}
        classified, _ = classify_batch(
            self._translations(corpus, MockSpec("neutralizing")), index
        )
        assert all(r.predicted is GenderLabel.NEUTRAL for r in classified)
        assert all(not r.matched_tokens for r in classified)

    def test_failed_translations_become_exclusions(self):
        corpus = build_winomt_corpus(40)
        index = {s.id: s for s in corpus}
        translations = self._translations(corpus, MockSpec("echo_gold"))
        translations[3] = TranslationRecord.failed(corpus[3].id, "mock", "boom")
        translations[17] = TranslationRecord.failed(corpus[17].id, "mock", "boom")
        classified, excluded = classify_batch(translations, index)
        assert len(classified) == 38
        assert len(excluded) == 2
        assert {t.source_id for t in excluded} == {corpus[3].id, corpus[17].id}

    def test_unresolvable_id_aborts(self):
        corpus = build_winomt_corpus(4)
        index = {s.id: s for s in corpus}
        translations = [TranslationRecord.ok("ghost", "He left.", "mock")]
        with pytest.raises(ClassifyError, match="ghost"):
            classify_batch(translations, index)
