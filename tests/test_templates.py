import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtgender.corpus import GenderLabel
from mtgender.resources import data_path
from mtgender.templates import (
    CueInventory,
    OtscTemplate,
    TemplateError,
    expand_otsc,
    render_template,
    validate_gender_cues,
)
from mtgender.corpus import Suite, read_sentences

# Hand-rendered from the bundled template before the expansion engine existed.
GOLDEN_MM = "मैं उसे काफी समय से जानता हूँ, मेरा दोस्त डॉक्टर का काम करता है।"


class TestRenderTemplate:
    def test_single_substitution(self):
        assert render_template("X {a} Y", {"a": "b"}) == "X b Y"

    def test_repeated_placeholder(self):
        assert render_template("{a}{a}", {"a": "z"}) == "zz"

    def test_unbound_placeholder_named(self):
        with pytest.raises(TemplateError, match="'a'"):
            render_template("X {a}", {})

    def test_unused_binding_warns(self, caplog):
        with caplog.at_level("WARNING"):
            assert render_template("X", {"a": "b"}) == "X"
        assert any("'a'" in m for m in caplog.messages)

    def test_other_characters_untouched(self):
        text = "a {x} b {{not a slot}} । ,"
        # double braces are not placeholders for this engine; inner name has a space
        assert render_template(text, {"x": "Y"}) == "a Y b {{not a slot}} । ,"


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
        with pytest.raises(TemplateError, match="missing template fields"):
            OtscTemplate.from_file(path)

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
        sentences = expand_otsc(["डॉक्टर", "वकील", "नर्स"])
        assert len(sentences) == 12
        assert [s.set_id for s in sentences[:4]] == ["FF", "FM", "MF", "MM"]

    def test_single_occupation_pairwise_distinct(self):
        texts = [s.text for s in expand_otsc(["डॉक्टर"])]
        assert len(set(texts)) == 4

    def test_gold_matches_quadrant(self):
        for sentence in expand_otsc(["डॉक्टर", "वकील"]):
            assert sentence.gold_gender.initial == sentence.set_id[1]
            assert sentence.speaker_gender.initial == sentence.set_id[0]
            assert sentence.occupation in sentence.text

    def test_gender_marker_invariant(self):
        template = OtscTemplate.default()
        for sentence in expand_otsc(["डॉक्टर", "सुनार"], template):
            female_friend = (
                template.possessive_female_friend in sentence.text
                and template.verb_female_friend in sentence.text
            )
            assert (sentence.gold_gender is GenderLabel.FEMALE) == female_friend
            assert (sentence.speaker_gender is GenderLabel.FEMALE) == ("जानती" in sentence.text)

    def test_deterministic_and_order_preserving(self):
        first = expand_otsc(["डॉक्टर", "वकील"])
        second = expand_otsc(["डॉक्टर", "वकील"])
        assert first == second
        occupations = [s.occupation for s in first]
        assert occupations == ["डॉक्टर"] * 4 + ["वकील"] * 4

    def test_ids_encode_quadrant_and_index(self):
        sentences = expand_otsc(["डॉक्टर", "वकील"])
        assert sentences[0].id == "otsc-FF-00000"
        assert sentences[7].id == "otsc-MM-00001"

    def test_empty_list_rejected(self):
        with pytest.raises(TemplateError, match="empty"):
            expand_otsc([])

    def test_duplicates_rejected(self):
        with pytest.raises(TemplateError, match="duplicates"):
            expand_otsc(["डॉक्टर", "डॉक्टर"])

    @settings(max_examples=30)
    @given(st.lists(st.text(alphabet="कखगचजटडतनपबमयरलवसह", min_size=1, max_size=5),
                    min_size=1, max_size=20, unique=True))
    def test_expansion_size_property(self, occupations):
        assert len(expand_otsc(occupations)) == 4 * len(occupations)


class TestCueValidation:
    def test_pass_on_gold_cue(self):
        corpus = read_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT)
        cues = CueInventory.default()
        for record in corpus:
            result = validate_gender_cues(record, cues)
            assert result.ok, f"{record.id}: {result.message}"
            assert result.matched_gold

    def test_both_genders_warn(self):
        corpus = read_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT)
        record = corpus[1]  # gold male
        cues = CueInventory(frozenset({"पूछता"}), frozenset({"मदद"}))
        result = validate_gender_cues(record, cues)
        assert not result.ok
        assert "मदद" in result.matched_opposite
        assert "पूछता" in result.matched_gold

    def test_no_cue_warns(self):
        corpus = read_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT)
        cues = CueInventory(frozenset({"क़ख़"}), frozenset({"ग़घ़"}))
        result = validate_gender_cues(corpus[0], cues)
        assert not result.ok
        assert result.message == "no cue found"

    def test_requires_winomt_record(self):
        sentence = expand_otsc(["डॉक्टर"])[0]
        with pytest.raises(TemplateError, match="WinoMT"):
            validate_gender_cues(sentence, CueInventory.default())

    def test_overlapping_inventories_rejected(self):
        with pytest.raises(TemplateError, match="overlap"):
            CueInventory(frozenset({"करता"}), frozenset({"करता"}))

    @pytest.mark.parametrize("content, complaint", [
        ({"male_cues": "जानता", "female_cues": ["जानती"]}, "male_cues must be a list of strings"),
        ({"male_cues": ["जानता"], "female_cues": ["जानती", 5]},
         "female_cues must be a list of strings"),
        (["जानता", "जानती"], "cue inventory must be an object, not list"),
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
