import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mtgender.corpus import OTSC_QUADRANTS, GenderLabel
from mtgender.resources import data_path
from mtgender.templates import (
    CueInventory,
    OtscTemplate,
    TemplateError,
    iter_otsc,
    validate_gender_cues,
)
from mtgender.corpus import Suite, iter_sentences

from oracles import oracle_render_quadrant

# Hand-rendered from the bundled template before the expansion engine existed.
GOLDEN_MM = "मैं उसे काफी समय से जानता हूँ, मेरा दोस्त डॉक्टर का काम करता है।"


def _template(skeleton: str) -> OtscTemplate:
    return OtscTemplate(skeleton, "अ", "आ", "का", "की", "करता", "करती")


# Skeleton text between slots that never forms a {name} placeholder itself,
# though it holds braces; fragments and occupations may hold anything,
# placeholders included, since what is substituted is never substituted again.
_literal = st.text(st.sampled_from("{} ।,क1-"), max_size=4) | st.sampled_from(
    ["{{not a slot}}", "{x y}", "{1a}", "{}"])
_free = st.text(st.sampled_from("{}ab ।क"), max_size=5) | st.sampled_from(
    ["{verb}", "{occupation}", "{prefix}", "{job}", "{{x}}"])


@st.composite
def templates(draw):
    """A valid template: the occupation slot once, any other slots any number
    of times (none included), a distinct male and female fragment per slot."""
    slot = draw(st.sampled_from(["occupation", "job"]))
    slots = draw(st.lists(st.sampled_from(["prefix", "possessive", "verb"]), max_size=5))
    slots.insert(draw(st.integers(0, len(slots))), slot)
    skeleton = draw(_literal) + "".join(f"{{{name}}}" + draw(_literal) for name in slots)
    fragments = [f for _ in range(3) for f in draw(st.lists(_free, min_size=2, max_size=2,
                                                            unique=True))]
    return OtscTemplate(skeleton, *fragments, occupation_slot=slot)


@settings(max_examples=300)
@given(templates(), _free)
@example(_template("X {verb} Y {occupation}"), "डॉक्टर")
@example(_template("{verb}{verb}{occupation}{verb}"), "{verb}")
@example(_template("a {prefix} b {{not a slot}} । , {occupation}"), "{{x}}")
def test_render_quadrant_matches_the_oracle(template, occupation):
    for quadrant in OTSC_QUADRANTS:
        assert template.render_quadrant(quadrant, occupation) == \
            oracle_render_quadrant(template, quadrant, occupation)


def test_a_missing_slot_warns_once_per_template(caplog):
    occupations = ["डॉक्टर", "वकील", "नर्स", "माली", "सुनार"]
    with caplog.at_level("WARNING"):
        sentences = list(iter_otsc(occupations, _template("{prefix} {possessive} {occupation}")))
    assert len(sentences) == 4 * len(occupations)
    assert caplog.messages == ["binding 'verb' does not appear in the template"]


def test_an_unknown_slot_is_named():
    with pytest.raises(TemplateError, match="'a'"):
        _template("X {a} {occupation}")


class TestOtscTemplate:
    def test_golden_mm_render(self):
        template = OtscTemplate.default()
        assert template.render_quadrant("MM", "डॉक्टर") == GOLDEN_MM

    def test_quadrant_token_presence(self):
        template = OtscTemplate.default()
        rendered = {q: template.render_quadrant(q, "डॉक्टर") for q in ("FF", "FM", "MF", "MM")}
        assert "जानती" in rendered["FF"] and "मेरी" in rendered["FF"] and "करती" in rendered["FF"]
        assert "जानती" in rendered["FM"] and "मेरा" in rendered["FM"] and "करता" in rendered["FM"]
        assert "जानता" in rendered["MF"] and "मेरी" in rendered["MF"] and "करती" in rendered["MF"]
        assert "जानता" in rendered["MM"] and "मेरा" in rendered["MM"] and "करता" in rendered["MM"]

    def test_occupation_exactly_once_no_residual_placeholder(self):
        template = OtscTemplate.default()
        for quadrant in ("FF", "FM", "MF", "MM"):
            text = template.render_quadrant(quadrant, "सुनार")
            assert text.count("सुनार") == 1
            assert "{" not in text and "}" not in text

    def test_friend_renderings_differ_only_in_possessive_and_verb(self):
        template = OtscTemplate.default()
        male = template.render_quadrant("MM", "डॉक्टर").split()
        female = template.render_quadrant("MF", "डॉक्टर").split()
        assert len(male) == len(female)
        diffs = [(a, b) for a, b in zip(male, female) if a != b]
        assert diffs == [("मेरा", "मेरी"), ("करता", "करती")]

    def test_unknown_quadrant(self):
        with pytest.raises(TemplateError, match="quadrant"):
            OtscTemplate.default().render_quadrant("XX", "डॉक्टर")

    def test_from_file_missing_field(self, tmp_path):
        path = tmp_path / "template.json"
        path.write_text(json.dumps({"skeleton": "{prefix} {occupation} {possessive} {verb}"}),
                        encoding="utf-8")
        with pytest.raises(TemplateError) as excinfo:
            OtscTemplate.from_file(path)
        assert str(excinfo.value) == f"{path}: missing prefix_male_speaker"

    def test_from_file_unknown_field(self, tmp_path):
        raw = json.loads(data_path("otsc_template.json").read_text(encoding="utf-8"))
        raw["surprise"] = "x"
        path = tmp_path / "template.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(TemplateError, match="unknown template fields"):
            OtscTemplate.from_file(path)

    def test_skeleton_without_occupation_slot_rejected(self):
        with pytest.raises(TemplateError, match="exactly once"):
            OtscTemplate(
                skeleton="{prefix} {possessive} {verb}",
                prefix_male_speaker="अ",
                prefix_female_speaker="आ",
                possessive_male_friend="का",
                possessive_female_friend="की",
                verb_male_friend="करता",
                verb_female_friend="करती",
            )

    def test_identical_gender_fragments_rejected(self):
        with pytest.raises(TemplateError, match="must differ"):
            OtscTemplate(
                skeleton="{prefix} {possessive} {occupation} {verb}",
                prefix_male_speaker="same",
                prefix_female_speaker="same",
                possessive_male_friend="का",
                possessive_female_friend="की",
                verb_male_friend="करता",
                verb_female_friend="करती",
            )


class TestExpandOtsc:
    def test_four_records_per_occupation(self):
        sentences = list(iter_otsc(["डॉक्टर", "वकील", "नर्स"]))
        assert len(sentences) == 12
        assert [s.set_id for s in sentences[:4]] == ["FF", "FM", "MF", "MM"]

    def test_single_occupation_pairwise_distinct(self):
        texts = [s.text for s in list(iter_otsc(["डॉक्टर"]))]
        assert len(set(texts)) == 4

    def test_gold_matches_quadrant(self):
        for sentence in list(iter_otsc(["डॉक्टर", "वकील"])):
            assert sentence.gold_gender.value[0].upper() == sentence.set_id[1]
            assert sentence.speaker_gender.value[0].upper() == sentence.set_id[0]
            assert sentence.occupation in sentence.text

    def test_gender_marker_invariant(self):
        template = OtscTemplate.default()
        for sentence in list(iter_otsc(["डॉक्टर", "सुनार"], template)):
            female_friend = (
                template.possessive_female_friend in sentence.text
                and template.verb_female_friend in sentence.text
            )
            assert (sentence.gold_gender is GenderLabel.FEMALE) == female_friend
            assert (sentence.speaker_gender is GenderLabel.FEMALE) == ("जानती" in sentence.text)

    def test_deterministic_and_order_preserving(self):
        first = list(iter_otsc(["डॉक्टर", "वकील"]))
        second = list(iter_otsc(["डॉक्टर", "वकील"]))
        assert first == second
        occupations = [s.occupation for s in first]
        assert occupations == ["डॉक्टर"] * 4 + ["वकील"] * 4

    def test_ids_encode_quadrant_and_index(self):
        sentences = list(iter_otsc(["डॉक्टर", "वकील"]))
        assert sentences[0].id == "otsc-FF-00000"
        assert sentences[7].id == "otsc-MM-00001"

    def test_empty_list_rejected(self):
        with pytest.raises(TemplateError, match="empty"):
            list(iter_otsc([]))

    def test_duplicates_rejected(self):
        with pytest.raises(TemplateError, match="duplicates"):
            list(iter_otsc(["डॉक्टर", "डॉक्टर"]))

    @settings(max_examples=30)
    @given(st.lists(st.text(alphabet="कखगचजटडतनपबमयरलवसह", min_size=1, max_size=5),
                    min_size=1, max_size=20, unique=True))
    def test_expansion_size_property(self, occupations):
        assert len(list(iter_otsc(occupations))) == 4 * len(occupations)


class TestCueValidation:
    def test_pass_on_gold_cue(self):
        corpus = list(iter_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT))
        cues = CueInventory.default()
        for record in corpus:
            result = validate_gender_cues(record, cues)
            assert result.ok, f"{record.id}: {result.message}"
            assert result.matched_gold

    def test_both_genders_warn(self):
        corpus = list(iter_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT))
        record = corpus[1]  # gold male
        cues = CueInventory(frozenset({"पूछता"}), frozenset({"मदद"}))
        result = validate_gender_cues(record, cues)
        assert not result.ok
        assert "मदद" in result.matched_opposite
        assert "पूछता" in result.matched_gold

    def test_no_cue_warns(self):
        corpus = list(iter_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT))
        cues = CueInventory(frozenset({"क़ख़"}), frozenset({"ग़घ़"}))
        result = validate_gender_cues(corpus[0], cues)
        assert not result.ok
        assert result.message == "no cue found"

    def test_requires_winomt_record(self):
        sentence = list(iter_otsc(["डॉक्टर"]))[0]
        with pytest.raises(TemplateError, match="WinoMT"):
            validate_gender_cues(sentence, CueInventory.default())

    def test_overlapping_inventories_rejected(self):
        with pytest.raises(TemplateError, match="overlap"):
            CueInventory(frozenset({"करता"}), frozenset({"करता"}))

    @pytest.mark.parametrize("content, complaint", [
        ({"male_cues": "जानता", "female_cues": ["जानती"]},
         "male_cues must be a list of strings, not 'जानता'"),
        ({"male_cues": ["जानता"], "female_cues": ["जानती", 5]},
         "female_cues must be a list of strings, not ['जानती', 5]"),
        (["जानता", "जानती"], "the document must be an object, not ['जानता', 'जानती']"),
        ({"male_cues": ["करता"], "female_cues": ["करता"]}, "cue inventories overlap: करता"),
    ])
    def test_malformed_inventory_file_names_the_file(self, tmp_path, content, complaint):
        path = tmp_path / "cues.json"
        path.write_text(json.dumps(content, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(TemplateError) as excinfo:
            CueInventory.from_file(path)
        assert str(excinfo.value) == f"{path}: {complaint}"

    def test_inventory_from_file_missing_key(self, tmp_path):
        path = tmp_path / "cues.json"
        path.write_text(json.dumps({"male_cues": ["करता"]}), encoding="utf-8")
        with pytest.raises(TemplateError, match="female_cues"):
            CueInventory.from_file(path)
