import json

import pytest

from acsa_harness.datasets import (
    CountMismatch,
    DatasetError,
    MalformedRecord,
    MalformedXml,
    MissingCategoryAttribute,
    Pair,
    Polarity,
    UnknownPolarityValue,
    load_dataset,
    load_shoes,
    load_xml,
    read_inventory,
    verify_official_counts,
)

SEMEVAL_XML = """<?xml version="1.0" encoding="UTF-8"?>
<Reviews>
  <Review rid="1">
    <sentences>
      <sentence id="1:0">
        <text>The pizza was great but the waiter was rude.</text>
        <Opinions>
          <Opinion target="pizza" category="FOOD#QUALITY" polarity="positive" from="4" to="9"/>
          <Opinion target="waiter" category="SERVICE#GENERAL" polarity="negative" from="28" to="34"/>
        </Opinions>
      </sentence>
      <sentence id="1:1">
        <text>Decent prices, and the pasta was also great.</text>
        <Opinions>
          <Opinion target="NULL" category="RESTAURANT#PRICES" polarity="positive" from="0" to="0"/>
          <Opinion target="pasta" category="FOOD#QUALITY" polarity="positive" from="23" to="28"/>
          <Opinion target="pasta" category="FOOD#QUALITY" polarity="positive" from="23" to="28"/>
        </Opinions>
      </sentence>
      <sentence id="1:2">
        <text>We walked in and sat down.</text>
      </sentence>
    </sentences>
  </Review>
</Reviews>
"""

MAMS_XML = """<?xml version="1.0"?>
<sentences>
  <sentence>
    <text>The staff was friendly but the food took forever.</text>
    <aspectCategories>
      <aspectCategory category="staff" polarity="positive"/>
      <aspectCategory category="food" polarity="negative"/>
    </aspectCategories>
  </sentence>
  <sentence>
    <text>Average place with average menu.</text>
    <aspectCategories>
      <aspectCategory category="place" polarity="neutral"/>
      <aspectCategory category="menu" polarity="neutral"/>
    </aspectCategories>
  </sentence>
</sentences>
"""


class TestSemeval:
    def test_loads_samples_and_dedups(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        split = load_xml(path, "Restaurant16")
        assert split.name == "Restaurant16"
        assert [s.id for s in split.samples] == ["1:0", "1:1", "1:2"]
        # duplicate FOOD#QUALITY/positive opinions collapse into one pair
        assert split.samples[1].gold == frozenset(
            {
                Pair("FOOD#QUALITY", Polarity.POSITIVE),
                Pair("RESTAURANT#PRICES", Polarity.POSITIVE),
            }
        )
        # zero-opinion sentences are retained with empty gold
        assert split.samples[2].gold == frozenset()
        assert split.categories == (
            "FOOD#QUALITY",
            "RESTAURANT#PRICES",
            "SERVICE#GENERAL",
        )
        assert all(s.domain == "restaurant" for s in split.samples)

    def test_deterministic(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        assert load_xml(path, "Restaurant16") == load_xml(path, "Restaurant16")

    def test_malformed_xml(self, tmp_path):
        path = tmp_path / "bad.xml"
        path.write_text("<Reviews><sentence>", "utf-8")
        with pytest.raises(MalformedXml):
            load_xml(path, "Restaurant16")

    def test_unknown_polarity(self, tmp_path):
        xml = SEMEVAL_XML.replace('polarity="negative"', 'polarity="angry"')
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(UnknownPolarityValue):
            load_xml(path, "Restaurant16")

    def test_conflict_errors_by_default(self, tmp_path):
        xml = SEMEVAL_XML.replace('polarity="negative"', 'polarity="conflict"')
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(UnknownPolarityValue):
            load_xml(path, "Restaurant16")

    def test_conflict_dropped_when_requested(self, tmp_path):
        xml = SEMEVAL_XML.replace('polarity="negative"', 'polarity="conflict"')
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        split = load_xml(path, "Restaurant16", drop_conflict=True)
        assert split.n_conflict_dropped == 1
        assert split.samples[0].gold == frozenset({Pair("FOOD#QUALITY", Polarity.POSITIVE)})

    def test_missing_category(self, tmp_path):
        xml = SEMEVAL_XML.replace(' category="SERVICE#GENERAL"', "")
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(MissingCategoryAttribute):
            load_xml(path, "Restaurant16")

    def test_inventory_override(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        inventory = ["SERVICE#GENERAL", "FOOD#QUALITY", "RESTAURANT#PRICES", "AMBIENCE#GENERAL"]
        split = load_xml(path, "Restaurant16", inventory=inventory)
        assert split.categories == tuple(inventory)

    def test_gold_outside_inventory_rejected(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        with pytest.raises(DatasetError):
            load_xml(path, "Restaurant16", inventory=["FOOD#QUALITY"])


class TestMams:
    def test_loads(self, tmp_path):
        path = tmp_path / "mams.xml"
        path.write_text(MAMS_XML, "utf-8")
        split = load_xml(path, "MAMS", container="aspectCategories", element="aspectCategory")
        assert split.name == "MAMS"
        assert len(split.samples) == 2
        assert split.samples[0].gold == frozenset(
            {Pair("staff", Polarity.POSITIVE), Pair("food", Polarity.NEGATIVE)}
        )
        assert split.categories == ("food", "menu", "place", "staff")
        assert split.samples[0].domain == "restaurant"


@pytest.mark.parametrize(
    "name,tags",
    [("Restaurant16", ("Opinions", "Opinion")), ("MAMS", ("aspectCategories", "aspectCategory"))],
)
def test_xml_read_faults_are_the_same_for_both_layouts(tmp_path, name, tags):
    with pytest.raises(FileNotFoundError):
        load_xml(tmp_path / "missing.xml", name, container=tags[0], element=tags[1])
    path = tmp_path / "bad.xml"
    path.write_text("<Reviews><sentence>", "utf-8")
    with pytest.raises(MalformedXml):
        load_xml(path, name, container=tags[0], element=tags[1])


class TestShoes:
    def test_jsonl(self, tmp_path):
        lines = [
            {"id": "r1", "text": "Great boots, terrible laces.",
             "pairs": [["comfort", "positive"], ["laces", "negative"]]},
            {"text": "They fit fine.", "pairs": [["sizing", "neutral"]]},
            {"id": "r3", "text": "No opinion really.", "pairs": []},
        ]
        path = tmp_path / "shoes.jsonl"
        path.write_text("\n".join(json.dumps(x) for x in lines), "utf-8")
        split = load_shoes(path)
        assert split.name == "Shoes"
        assert [s.id for s in split.samples] == ["r1", "r2", "r3"]
        assert split.samples[0].gold == frozenset(
            {Pair("comfort", Polarity.POSITIVE), Pair("laces", Polarity.NEGATIVE)}
        )
        assert split.samples[2].gold == frozenset()
        assert split.samples[0].domain == "shoes"

    def test_tsv(self, tmp_path):
        path = tmp_path / "shoes.tsv"
        path.write_text(
            "r1\tGreat boots.\tcomfort\tpositive\tdurability\tpositive\n"
            "r2\tNothing special.\n",
            "utf-8",
        )
        split = load_shoes(path)
        assert len(split.samples) == 2
        assert split.samples[0].gold == frozenset(
            {Pair("comfort", Polarity.POSITIVE), Pair("durability", Polarity.POSITIVE)}
        )
        assert split.samples[1].gold == frozenset()

    def test_format_autodetect(self, tmp_path):
        path = tmp_path / "shoes.txt"
        path.write_text('{"id": "r1", "text": "ok", "pairs": []}', "utf-8")
        assert load_shoes(path).samples[0].id == "r1"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "r1", "text": ', "utf-8")
        with pytest.raises(MalformedRecord):
            load_shoes(path)

    def test_unpaired_tsv_fields(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("r1\ttext\tcomfort\n", "utf-8")
        with pytest.raises(MalformedRecord):
            load_shoes(path)

    def test_missing_text(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "r1", "pairs": []}', "utf-8")
        with pytest.raises(MalformedRecord):
            load_shoes(path)

    def test_bad_pair_shape(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "pairs": [["only-category"]]}', "utf-8")
        with pytest.raises(MalformedRecord):
            load_shoes(path)


class TestInventoryAndCounts:
    def test_read_inventory_keeps_order(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("SERVICE#GENERAL\nFOOD#QUALITY\n\nAMBIENCE#GENERAL\n", "utf-8")
        assert read_inventory(path) == [
            "SERVICE#GENERAL",
            "FOOD#QUALITY",
            "AMBIENCE#GENERAL",
        ]

    def test_read_inventory_rejects_duplicates(self, tmp_path):
        path = tmp_path / "inv.txt"
        path.write_text("FOOD#QUALITY\nFOOD#QUALITY\n", "utf-8")
        with pytest.raises(DatasetError):
            read_inventory(path)

    def test_verify_official_counts_mismatch(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        split = load_xml(path, "Restaurant16")
        with pytest.raises(CountMismatch):
            verify_official_counts(split)

    def test_load_dataset_dispatch(self, tmp_path):
        path = tmp_path / "mams.xml"
        path.write_text(MAMS_XML, "utf-8")
        assert load_dataset("MAMS", path).name == "MAMS"
        with pytest.raises(DatasetError):
            load_dataset("Hotels", path)

    def test_duplicate_sample_ids_rejected(self, tmp_path):
        xml = SEMEVAL_XML.replace('id="1:1"', 'id="1:0"')
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        with pytest.raises(DatasetError):
            load_xml(path, "Restaurant16")
