import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mtgender.corpus
from mtgender.corpus import (
    CorpusError,
    GenderLabel,
    ReferencedEntity,
    SourceSentence,
    Stereotype,
    StereotypeLists,
    Suite,
    assign_stereotype,
    load_occupations,
    iter_sentences,
    validate_sentence,
    write_sentences,
)
from mtgender.backends import TranslationRecord, TranslationStatus
from mtgender.cli import EXIT_ABORTED, run
from mtgender.fileio import dumps_record, line_encoder, record_decoder
from mtgender.resources import data_path

from conftest import build_winomt_corpus, dev_digits


# --------------------------------------------------------------------------
# Occupation lists


class TestLoadOccupations:
    def test_single_line(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\n", encoding="utf-8")
        assert load_occupations(path) == ["डॉक्टर"]

    def test_order_comments_blanks(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("# header\nडॉक्टर\n\nवकील\n  नर्स \n", encoding="utf-8")
        assert load_occupations(path) == ["डॉक्टर", "वकील", "नर्स"]

    def test_crlf(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_bytes("डॉक्टर\r\nवकील\r\n".encode("utf-8"))
        assert load_occupations(path) == ["डॉक्टर", "वकील"]

    def test_duplicate_reports_both_lines(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\nवकील\nडॉक्टर\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="lines 1 and 3"):
            load_occupations(path)

    def test_lines_end_at_newline_only(self, tmp_path):
        """U+2028 and U+0085 are line breaks to str.splitlines, not here."""
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\u2028वकील\nनर्स\x85माली\n", encoding="utf-8")
        assert load_occupations(path) == ["डॉक्टर\u2028वकील", "नर्स\x85माली"]
        path.write_text("डॉक्टर\u2028वकील\nनर्स\nडॉक्टर\u2028वकील\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="on lines 1 and 3$"):
            load_occupations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_occupations(tmp_path / "absent.txt")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "occ.txt"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="no occupations"):
            load_occupations(path)

    def test_non_devanagari_kept_with_warning(self, tmp_path, caplog):
        path = tmp_path / "occ.txt"
        path.write_text("डॉक्टर\nCEO\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            assert load_occupations(path) == ["डॉक्टर", "CEO"]
        assert any("no Devanagari" in m for m in caplog.messages)

    def test_1071_line_file(self, occupations_1071):
        assert len(load_occupations(occupations_1071)) == 1071


# --------------------------------------------------------------------------
# WinoMT corpus


class TestLoadWinomt:
    def test_bundled_sample(self):
        records = list(iter_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT))
        assert len(records) == 20
        assert all(r.suite is Suite.WINOMT for r in records)
        assert sum(1 for r in records if r.gold_gender is GenderLabel.FEMALE) == 10
        assert sum(1 for r in records if r.stereotype is Stereotype.PRO) == 10

    def test_bundled_sample_tags_match_bundled_lists(self):
        lists = StereotypeLists.from_files(
            data_path("stereotypes_male.txt"), data_path("stereotypes_female.txt")
        )
        for record in iter_sentences(data_path("winomt_sample.jsonl"), Suite.WINOMT):
            assert record.stereotype is assign_stereotype(
                record.occupation, record.gold_gender, lists
            )

    def test_full_size_corpus(self, tmp_path):
        path = tmp_path / "big.jsonl"
        lines = []
        for i in range(704):
            gold = "male" if i % 2 == 0 else "female"
            lines.append(dumps_record({
                "id": f"r{i:04d}",
                "text": f"मैकेनिक परीक्षण वाक्य {dev_digits(i)}",
                "gold_gender": gold,
                "stereotype": "pro" if i % 4 < 2 else "anti",
                "occupation": "मैकेनिक",
                "referenced_entity": "entity1",
                "set_id": "main",
            }))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert len(list(iter_sentences(path, Suite.WINOMT))) == 704

    def test_neutral_gold_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_record({
            "id": "x1", "text": "मैकेनिक वाक्य", "gold_gender": "neutral",
            "stereotype": "pro", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        }) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="male or female"):
            list(iter_sentences(path, Suite.WINOMT))

    @pytest.mark.parametrize("missing", ["id", "text", "gold_gender", "stereotype",
                                          "occupation", "referenced_entity", "set_id"])
    def test_missing_field_rejected(self, tmp_path, missing):
        record = {
            "id": "x1", "text": "मैकेनिक वाक्य", "gold_gender": "male",
            "stereotype": "pro", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        }
        del record[missing]
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_record(record) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError):
            list(iter_sentences(path, Suite.WINOMT))

    def test_bad_stereotype_token(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_record({
            "id": "x1", "text": "मैकेनिक वाक्य", "gold_gender": "male",
            "stereotype": "sometimes", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        }) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="bad stereotype token"):
            list(iter_sentences(path, Suite.WINOMT))

    def test_duplicate_id(self, tmp_path):
        record = {
            "id": "x1", "text": "मैकेनिक वाक्य", "gold_gender": "male",
            "stereotype": "pro", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        }
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_record(record) + "\n" + dumps_record(record) + "\n",
                        encoding="utf-8")
        with pytest.raises(CorpusError, match="duplicate id"):
            list(iter_sentences(path, Suite.WINOMT))

    def test_error_carries_line_number(self, tmp_path):
        good = dumps_record({
            "id": "x1", "text": "मैकेनिक वाक्य", "gold_gender": "male",
            "stereotype": "pro", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        })
        bad = dumps_record({"id": "x2", "set_id": "main"})
        path = tmp_path / "bad.jsonl"
        path.write_text(good + "\n" + bad + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="line 2"):
            list(iter_sentences(path, Suite.WINOMT))

    def test_text_without_devanagari_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(dumps_record({
            "id": "x1", "text": "plain english only", "gold_gender": "male",
            "stereotype": "pro", "occupation": "मैकेनिक",
            "referenced_entity": "entity1", "set_id": "main",
        }) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="no Devanagari"):
            list(iter_sentences(path, Suite.WINOMT))


# --------------------------------------------------------------------------
# Neutral sets


def _neutral_line(set_id, i):
    return dumps_record({"id": f"{set_id}-{i}", "set_id": set_id,
                         "text": f"वह वाक्य {dev_digits(i)} है"})


class TestLoadNeutralSets:
    def test_seven_sets_of_ten(self, tmp_path):
        path = tmp_path / "neutral.jsonl"
        lines = [_neutral_line(f"S{k}", i) for k in range(1, 8) for i in range(10)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        sentences = list(iter_sentences(path, Suite.NEUTRAL))
        assert Counter(s.set_id for s in sentences) == {f"S{k}": 10 for k in range(1, 8)}
        assert all(s.gold_gender is None for s in sentences)

    def test_bundled_sample(self):
        sentences = list(iter_sentences(data_path("neutral_sample.jsonl"), Suite.NEUTRAL))
        assert sorted({s.set_id for s in sentences}) == [f"S{k}" for k in range(1, 8)]

    def test_gold_gender_rejected(self, tmp_path):
        path = tmp_path / "neutral.jsonl"
        path.write_text(dumps_record({
            "id": "n1", "set_id": "S1", "text": "वह ठीक है", "gold_gender": "male",
        }) + "\n", encoding="utf-8")
        with pytest.raises(CorpusError, match="n1"):
            list(iter_sentences(path, Suite.NEUTRAL))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "neutral.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(CorpusError, match="no records found"):
            list(iter_sentences(path, Suite.NEUTRAL))

    def test_noncanonical_set_warned_but_kept(self, tmp_path, caplog):
        path = tmp_path / "neutral.jsonl"
        path.write_text(_neutral_line("S9", 0) + "\n", encoding="utf-8")
        with caplog.at_level("WARNING"):
            sentences = list(iter_sentences(path, Suite.NEUTRAL))
        assert [s.set_id for s in sentences] == ["S9"]
        assert any("S9" in m for m in caplog.messages)


# --------------------------------------------------------------------------
# Sentence rules, one bad record each

_GOOD = {
    "otsc": {"id": "o1", "text": "मैं उसे जानता हूँ", "suite": "otsc", "set_id": "MF",
             "gold_gender": "female", "speaker_gender": "male", "occupation": "डॉक्टर"},
    "winomt": {"id": "w1", "text": "सचिव पूछती है", "suite": "winomt", "set_id": "type1",
               "gold_gender": "female", "occupation": "सचिव", "stereotype": "pro",
               "referenced_entity": "entity1"},
    "neutral": {"id": "n1", "text": "वह ठीक है", "suite": "neutral", "set_id": "S1"},
}


@pytest.mark.parametrize("suite, edit, complaint", [
    ("winomt", {"id": ""}, "record '': missing field 'id'"),
    ("winomt", {"text": ""}, "record 'w1': missing field 'text'"),
    ("winomt", {"text": "He asks"}, "record 'w1': text contains no Devanagari"),
    ("winomt", {"gold_gender": "neutral"},
     "record 'w1': gold gender must be male or female, got 'neutral'"),
    ("otsc", {"gold_gender": "ambiguous"},
     "record 'o1': gold gender must be male or female, got 'ambiguous'"),
    ("otsc", {"speaker_gender": "neutral"}, "record 'o1': speaker gender must be male or female"),
    ("neutral", {"speaker_gender": "ambiguous"},
     "record 'n1': speaker gender must be male or female"),
    ("otsc", {"set_id": "MX"}, "record 'o1': OTSC set_id must be one of FF/FM/MF/MM, got 'MX'"),
    ("otsc", {"gold_gender": None, "speaker_gender": None, "occupation": None},
     "record 'o1': OTSC requires gold_gender"),
    ("otsc", {"gold_gender": None}, "record 'o1': OTSC requires gold_gender"),
    ("otsc", {"speaker_gender": None}, "record 'o1': OTSC requires speaker_gender"),
    ("otsc", {"occupation": None}, "record 'o1': OTSC requires occupation"),
    ("winomt", {"gold_gender": None, "stereotype": None, "referenced_entity": None,
                "occupation": None}, "record 'w1': WinoMT requires gold_gender"),
    ("winomt", {"gold_gender": None}, "record 'w1': WinoMT requires gold_gender"),
    ("winomt", {"stereotype": None}, "record 'w1': WinoMT requires stereotype"),
    ("winomt", {"referenced_entity": None}, "record 'w1': WinoMT requires referenced_entity"),
    ("winomt", {"referenced_entity": None, "occupation": None},
     "record 'w1': WinoMT requires referenced_entity"),
    ("winomt", {"occupation": None}, "record 'w1': WinoMT requires occupation"),
    ("otsc", {"speaker_gender": "female"},
     "record 'o1': set_id MF does not match speaker gender female"),
    ("otsc", {"gold_gender": "male"}, "record 'o1': set_id MF does not match friend gender male"),
    ("otsc", {"set_id": "FM"}, "record 'o1': set_id FM does not match speaker gender male"),
    ("otsc", {"set_id": "MM"}, "record 'o1': set_id MM does not match friend gender female"),
    ("neutral", {"gold_gender": "male"},
     "record 'n1': neutral records must not carry a gold gender"),
])
def test_each_sentence_rule_gives_its_error_line(tmp_path, backends_config, capsys, suite, edit,
                                                 complaint):
    """A sentence file whose one record breaks one rule: translate ends in
    exactly that rule's error line, whose checks run in a fixed order."""
    path = tmp_path / "s.jsonl"
    record = {k: v for k, v in {**_GOOD[suite], **edit}.items() if v is not None}
    path.write_text(dumps_record(record) + "\n", encoding="utf-8")
    assert run(["translate", "--sentences", str(path), "--config", str(backends_config),
                "--backend", "coin", "--out", str(tmp_path / "tr.jsonl")]) == EXIT_ABORTED
    assert capsys.readouterr().err == f"error: {path}: line 1: {complaint}\n"


# --------------------------------------------------------------------------
# Stereotype assignment


class TestAssignStereotype:
    def test_pro(self, synthetic_lists):
        assert assign_stereotype("मैकेनिक", GenderLabel.MALE, synthetic_lists) is Stereotype.PRO
        assert assign_stereotype("नर्स", GenderLabel.FEMALE, synthetic_lists) is Stereotype.PRO

    def test_anti(self, synthetic_lists):
        assert assign_stereotype("मैकेनिक", GenderLabel.FEMALE, synthetic_lists) is Stereotype.ANTI
        assert assign_stereotype("नर्स", GenderLabel.MALE, synthetic_lists) is Stereotype.ANTI

    def test_unlisted(self, synthetic_lists):
        assert assign_stereotype("माली", GenderLabel.MALE, synthetic_lists) is Stereotype.UNLISTED

    def test_overlapping_lists_rejected(self):
        with pytest.raises(CorpusError, match="overlap"):
            StereotypeLists(frozenset({"नर्स"}), frozenset({"नर्स"}))


# --------------------------------------------------------------------------
# Round trips and determinism


class TestRoundTrip:
    @pytest.mark.parametrize("name,suite", [
        ("winomt_sample.jsonl", Suite.WINOMT),
        ("neutral_sample.jsonl", Suite.NEUTRAL),
    ])
    def test_bundled_files_round_trip(self, tmp_path, name, suite):
        original = list(iter_sentences(data_path(name), suite))
        out = tmp_path / "copy.jsonl"
        write_sentences(out, original)
        assert list(iter_sentences(out)) == original

    def test_loader_determinism(self):
        path = data_path("winomt_sample.jsonl")
        assert (list(iter_sentences(path, Suite.WINOMT))
                == list(iter_sentences(path, Suite.WINOMT)))

    def test_synthetic_corpus_round_trip(self, tmp_path, winomt_corpus_400):
        out = tmp_path / "syn.jsonl"
        write_sentences(out, winomt_corpus_400)
        assert list(iter_sentences(out, Suite.WINOMT)) == winomt_corpus_400

    def test_otsc_loader_accepts_generated_records(self, tmp_path):
        sentence = SourceSentence(
            id="otsc-MM-00000",
            text="मैं उसे काफी समय से जानता हूँ, मेरा दोस्त डॉक्टर का काम करता है।",
            suite=Suite.OTSC,
            set_id="MM",
            gold_gender=GenderLabel.MALE,
            speaker_gender=GenderLabel.MALE,
            occupation="डॉक्टर",
        )
        out = tmp_path / "otsc.jsonl"
        write_sentences(out, [sentence])
        assert list(iter_sentences(out, Suite.OTSC)) == [sentence]

    def test_otsc_quadrant_consistency_enforced(self):
        sentence = SourceSentence(
            id="otsc-MF-00000",
            text="मैं उसे काफी समय से जानता हूँ, मेरा दोस्त डॉक्टर का काम करता है।",
            suite=Suite.OTSC,
            set_id="MF",
            gold_gender=GenderLabel.MALE,  # contradicts the F in MF
            speaker_gender=GenderLabel.MALE,
            occupation="डॉक्टर",
        )
        with pytest.raises(CorpusError, match="does not match"):
            validate_sentence(sentence)


_DEV_WORD = st.text(alphabet="कखगघचजझटडतथदधनपबभमयरलवशसह", min_size=1, max_size=6)


@st.composite
def winomt_sentences(draw):
    index = draw(st.integers(min_value=0, max_value=10**6))
    words = draw(st.lists(_DEV_WORD, min_size=1, max_size=6))
    return SourceSentence(
        id=f"hyp-{index}",
        text=" ".join(words),
        suite=Suite.WINOMT,
        set_id=draw(st.sampled_from(["main", "type1", "type2"])),
        gold_gender=draw(st.sampled_from([GenderLabel.MALE, GenderLabel.FEMALE])),
        occupation=draw(_DEV_WORD),
        stereotype=draw(st.sampled_from(list(Stereotype))),
        referenced_entity=draw(st.sampled_from(list(ReferencedEntity))),
    )


@st.composite
def translation_records(draw):
    status = draw(st.sampled_from(list(TranslationStatus)))
    return TranslationRecord(
        source_id=draw(st.text(min_size=1, max_size=8)),
        target_text=draw(st.text(max_size=20)),
        backend=draw(st.text(min_size=1, max_size=8)),
        status=status,
        reason=draw(st.text(min_size=1, max_size=8)) if status is TranslationStatus.FAILED else None,
    )


@settings(max_examples=50)
@given(st.one_of(winomt_sentences(), translation_records()))
def test_record_round_trip_property(record):
    encode = line_encoder(type(record))
    decode = record_decoder(type(record), ValueError)
    assert decode(json.loads(encode(record)), "round trip", 1) == record


def test_build_winomt_corpus_is_valid():
    for sentence in build_winomt_corpus(40):
        validate_sentence(sentence)


# --------------------------------------------------------------------------
# The duplicate-id screen, which keeps of each id only its hash


def _winomt_lines(ids) -> str:
    """A WinoMT sentences file with one record for each of ids, in order, and
    a blank line after the second, which a line number still counts."""
    lines = [dumps_record({"id": i, "text": "मैकेनिक वाक्य", "gold_gender": "male",
                           "stereotype": "pro", "occupation": "मैकेनिक",
                           "referenced_entity": "entity1", "set_id": "main"}) for i in ids]
    lines.insert(2, "")
    return "\n".join(lines) + "\n"


_COLLIDING_HASHES = {"one value": lambda _: 42, "length": len, "negative": lambda i: -len(i)}


@pytest.mark.parametrize("collide", _COLLIDING_HASHES.values(), ids=_COLLIDING_HASHES)
@pytest.mark.parametrize("ids, line", [
    ([f"r{i}" for i in range(12)], None),
    (["r0", "r1", "r22", "r3", "r22", "r4"], "line 6: duplicate id 'r22' (first seen on line 4)"),
    (["r0", "x0", "r1", "x0", "r0"], "line 5: duplicate id 'x0' (first seen on line 2)"),
    (["a", "bb", "cc", "a"], "line 5: duplicate id 'a' (first seen on line 1)"),
], ids=["clean", "duplicate", "second of two", "first line"])
def test_ids_of_one_hash_read_as_with_the_real_hash(tmp_path, monkeypatch, collide, ids, line):
    """Unequal ids of one hash only have the earlier lines read again: a
    clean file gives the same sentences, and a duplicate the same message on
    the same line, as with hash()."""
    path = tmp_path / "s.jsonl"
    path.write_text(_winomt_lines(ids), encoding="utf-8")

    def read():
        try:
            return [s.id for s in iter_sentences(path, Suite.WINOMT)]
        except CorpusError as exc:
            return str(exc)

    real = read()
    assert real == (ids if line is None else f"{path}: {line}")
    monkeypatch.setattr(mtgender.corpus, "_id_hash", collide)
    assert read() == real


@pytest.mark.parametrize("spread", [hash, lambda i: int(i[1:]) << 6],
                         ids=["hash", "hashes 64 apart"])
def test_the_screen_keeps_every_id_as_its_table_grows(tmp_path, monkeypatch, spread):
    """2,000 ids, past several doublings of the table, read clean, and a
    duplicate of any of them is found after them: no hash is lost when the
    table grows, also where the hashes crowd into few home slots."""
    monkeypatch.setattr(mtgender.corpus, "_id_hash", spread)
    ids = [f"r{i}" for i in range(2000)]
    path = tmp_path / "s.jsonl"
    path.write_text(_winomt_lines(ids), encoding="utf-8")
    assert [s.id for s in iter_sentences(path, Suite.WINOMT)] == ids
    for k in range(0, 2000, 222):
        path.write_text(_winomt_lines([*ids, ids[k]]), encoding="utf-8")
        with pytest.raises(CorpusError) as caught:
            list(iter_sentences(path, Suite.WINOMT))
        assert str(caught.value) == (f"{path}: line 2002: duplicate id {ids[k]!r} "
                                     f"(first seen on line {k + 1 + (k >= 2)})")
