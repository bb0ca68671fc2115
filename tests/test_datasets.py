import json
import random
import re
import tracemalloc
from pathlib import Path
from xml.etree import ElementTree as ET
from xml.sax.saxutils import escape, quoteattr

import pytest

from acsa_harness import datasets as ds
from acsa_harness.datasets import (
    CountMismatch,
    DatasetError,
    DuplicateCategory,
    MalformedRecord,
    MalformedXml,
    Pair,
    Polarity,
    Sample,
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
        message = f"{path}: sentence '1:0': missing or blank category"
        with pytest.raises(MalformedRecord, match=f"^{re.escape(message)}$"):
            load_xml(path, "Restaurant16")

    def test_blank_category(self, tmp_path):
        xml = SEMEVAL_XML.replace(' category="SERVICE#GENERAL"', ' category=" \t"')
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        message = f"{path}: sentence '1:0': missing or blank category"
        with pytest.raises(MalformedRecord, match=f"^{re.escape(message)}$"):
            load_xml(path, "Restaurant16")

    def test_categories_are_stripped(self, tmp_path):
        xml = SEMEVAL_XML.replace('category="FOOD#QUALITY"', 'category=" FOOD#QUALITY\t"', 1)
        path = tmp_path / "rest.xml"
        path.write_text(xml, "utf-8")
        split = load_xml(path, "Restaurant16")
        assert split.categories == ("FOOD#QUALITY", "RESTAURANT#PRICES", "SERVICE#GENERAL")
        assert Pair("FOOD#QUALITY", Polarity.POSITIVE) in split.samples[0].gold

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


def reference_load_xml(
    path, name, split="test", drop_conflict=False, inventory=None,
    container="Opinions", element="Opinion",
):
    """The XML loader as it was before it streamed: ET.parse on the whole
    file, then one Sample per <sentence> of the tree."""
    try:
        tree = ET.parse(path)
    except ET.ParseError as err:
        raise MalformedXml(f"{path}: {err}") from err
    samples = []
    dropped = 0
    for i, sentence in enumerate(tree.getroot().iter("sentence")):
        sid = sentence.get("id") or f"s{i + 1}"
        text_el = sentence.find("text")
        text = (text_el.text or "") if text_el is not None else ""
        if not text.strip():
            raise MalformedXml(f"sentence {sid!r} has no text element or empty text")
        pairs = set()
        opinions = sentence.find(container)
        if opinions is not None:
            for opinion in opinions.findall(element):
                category = opinion.get("category")
                if not category:
                    raise MalformedRecord(f"sentence {sid!r}: missing or blank category")
                polarity = ds._resolve_polarity(
                    opinion.get("polarity"), f"sentence {sid!r}", drop_conflict
                )
                if polarity is None:
                    dropped += 1
                    continue
                pairs.add(Pair(category, polarity))
        samples.append(Sample(sid, text.strip(), frozenset(pairs)))
    if inventory is None:
        inventory = sorted({p.category for s in samples for p in s.gold})
    return ds.DatasetSplit(name, split, tuple(samples), tuple(inventory), dropped)


E2E = Path(__file__).parent / "fixtures" / "e2e"
MAMS_TAGS = {"container": "aspectCategories", "element": "aspectCategory"}
SEMEVAL_CATEGORIES = ("FOOD#QUALITY", "SERVICE#GENERAL", "DRINKS#PRICES", "AMBIENCE#GENERAL")
MAMS_CATEGORIES = ("food", "service", "staff", "price", "ambience", "menu", "place")
RAW_POLARITIES = ("positive", "negative", "neutral", "Positive", " NEGATIVE ", "conflict")


def _opinions(rng, tag, categories) -> str:
    """Zero to four opinions, with repeats, mixed-case polarities and conflicts."""
    return "".join(
        f'<{tag} category="{rng.choice(categories)}" polarity="{rng.choice(RAW_POLARITIES)}"/>'
        for _ in range(rng.randrange(5))
    )


def semeval_xml(n: int, seed: int = 0) -> str:
    """Reviews/Review/sentences, some sentences without an id, some
    without opinions or with an empty Opinions element."""
    rng = random.Random(seed)
    reviews = []
    for r in range(0, n, 7):
        sentences = []
        for i in range(r, min(n, r + 7)):
            sid = f' id="{r}:{i}"' if rng.random() < 0.8 else ""
            shape = rng.random()
            if shape < 0.2:
                opinions = ""
            elif shape < 0.3:
                opinions = "<Opinions/>"
            else:
                opinions = f"<Opinions>{_opinions(rng, 'Opinion', SEMEVAL_CATEGORIES)}</Opinions>"
            sentences.append(
                f"<sentence{sid}>\n  <text> Sentence {i} &amp; more. </text>\n  {opinions}\n</sentence>"
            )
        reviews.append(f'<Review rid="{r}"><sentences>{"".join(sentences)}</sentences></Review>')
    return f'<?xml version="1.0" encoding="UTF-8"?>\n<Reviews>{"".join(reviews)}</Reviews>\n'


def mams_xml(n: int, seed: int = 0) -> str:
    rng = random.Random(seed)
    sentences = "".join(
        f"<sentence><text>Mams sentence {i}.</text><aspectCategories>"
        f"{_opinions(rng, 'aspectCategory', MAMS_CATEGORIES)}</aspectCategories></sentence>"
        for i in range(n)
    )
    return f'<?xml version="1.0"?>\n<sentences>{sentences}</sentences>\n'


def shoes_jsonl(n: int, seed: int = 0) -> str:
    """Full reviews of about 120 words each, one JSON object per line."""
    rng = random.Random(seed)
    words = "boots laces sole heel fit size leather waterproof price arch toe narrow".split()
    categories = ("comfort", "sizing", "durability", "price", "appearance")
    records = [
        {
            "id": f"r{i}",
            "text": " ".join(rng.choice(words) for _ in range(120)),
            "pairs": [[rng.choice(categories), rng.choice(("positive", "negative", "neutral"))]
                      for _ in range(rng.randrange(0, 4))],
        }
        for i in range(n)
    ]
    return "".join(json.dumps(record) + "\n" for record in records)


class TestStreamedXmlLoader:
    """``load_xml`` streams its file and must load exactly what the
    whole-tree loader loaded."""

    @pytest.mark.parametrize(
        "name,file,tags",
        [
            ("Laptop16", "laptop16_test.xml", {}),
            ("Restaurant16", "restaurant16_test.xml", {}),
            ("MAMS", "mams_test.xml", MAMS_TAGS),
        ],
    )
    def test_committed_files(self, name, file, tags):
        path = E2E / "datasets" / file
        assert load_xml(path, name, **tags) == reference_load_xml(path, name, **tags)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("layout", ["semeval", "mams"])
    def test_generated_files(self, tmp_path, layout, seed):
        path = tmp_path / f"{layout}.xml"
        if layout == "semeval":
            path.write_text(semeval_xml(60, seed), "utf-8")
            name, tags = "Restaurant16", {}
        else:
            path.write_text(mams_xml(60, seed), "utf-8")
            name, tags = "MAMS", MAMS_TAGS
        split = load_xml(path, name, "train", drop_conflict=True, **tags)
        assert split == reference_load_xml(path, name, "train", drop_conflict=True, **tags)
        assert split.n_conflict_dropped > 0
        assert any(s.id.startswith("s") for s in split.samples)  # numbered by position
        assert any(not s.gold for s in split.samples)
        # both loaders raise the same fault for a conflict that is not dropped,
        # and the streamed one names the file before the sentence
        with pytest.raises(UnknownPolarityValue) as streamed:
            load_xml(path, name, **tags)
        with pytest.raises(UnknownPolarityValue) as whole:
            reference_load_xml(path, name, **tags)
        assert str(streamed.value) == f"{path}: {whole.value}"

    def test_missing_ids_are_numbered_by_position(self, tmp_path):
        path = tmp_path / "rest.xml"
        path.write_text(semeval_xml(40, seed=3), "utf-8")
        split = load_xml(path, "Restaurant16", drop_conflict=True)
        unnamed = [i for i, s in enumerate(split.samples) if s.id == f"s{i + 1}"]
        assert unnamed and len(split.samples) == 40

    def test_equal_pairs_and_gold_sets_are_shared(self, tmp_path):
        path = tmp_path / "mams.xml"
        path.write_text(mams_xml(200), "utf-8")
        split = load_xml(path, "MAMS", drop_conflict=True, **MAMS_TAGS)
        pairs = [p for s in split.samples for p in s.gold]
        assert len({id(p) for p in pairs}) == len(set(pairs))
        golds = [s.gold for s in split.samples]
        assert len({id(g) for g in golds}) == len(set(golds))
        assert not hasattr(split.samples[0], "__dict__")
        assert not hasattr(pairs[0], "__dict__")

    @pytest.mark.parametrize("layout", ["semeval", "mams"])
    def test_truncated_file_is_malformed_and_closed(self, tmp_path, monkeypatch, layout):
        text = semeval_xml(50) if layout == "semeval" else mams_xml(50)
        path = tmp_path / "cut.xml"
        path.write_text(text[: len(text) // 2], "utf-8")
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr(ds, "open", recording_open, raising=False)
        name, tags = ("Restaurant16", {}) if layout == "semeval" else ("MAMS", MAMS_TAGS)
        with pytest.raises(MalformedXml):
            load_xml(path, name, drop_conflict=True, **tags)
        with pytest.raises(UnknownPolarityValue):  # a fault raised by the loader itself
            load_xml(path, name, **tags)
        assert len(handles) == 2 and all(h.closed for h in handles)
        with pytest.raises(FileNotFoundError):
            load_xml(tmp_path / "missing.xml", name, **tags)

    @pytest.mark.parametrize("layout", ["semeval", "mams", "shoes"])
    def test_parse_peak_stays_near_the_split_size(self, tmp_path, layout):
        # the whole tree of a parsed file, or the whole text of a Shoes
        # file, is several times the size of the samples kept from it; a
        # streamed parse holds one sentence or one line at a time
        n = 906 if layout == "shoes" else 3000
        path = tmp_path / "split.data"
        path.write_text(
            {"semeval": semeval_xml, "mams": mams_xml, "shoes": shoes_jsonl}[layout](n), "utf-8"
        )
        tracemalloc.start()
        try:
            if layout == "shoes":
                split = load_shoes(path)
            else:
                name, tags = ("Restaurant16", {}) if layout == "semeval" else ("MAMS", MAMS_TAGS)
                split = load_xml(path, name, drop_conflict=True, **tags)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(split.samples) == n
        assert peak < 1.5 * held


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

    def test_jsonl_text_may_hold_unicode_line_breaks(self, tmp_path):
        # json.dumps(..., ensure_ascii=False) writes these characters raw;
        # only LF, CRLF and CR end a record
        texts = ["Comfy\u2028but loud.", "Snug\x85fit.", "Page\x0cbreak\x1cand\x0bmore."]
        records = [{"id": f"r{i}", "text": t, "pairs": [["fit", "positive"]]}
                   for i, t in enumerate(texts)]
        path = tmp_path / "shoes.jsonl"
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\r\n\n{", "utf-8"
        )
        with pytest.raises(MalformedRecord, match=r"shoes\.jsonl:5: invalid JSON"):
            load_shoes(path)
        path.write_text(path.read_text("utf-8")[:-1], "utf-8")
        split = load_shoes(path)
        assert [s.text for s in split.samples] == texts
        assert [s.id for s in split.samples] == ["r0", "r1", "r2"]

    def test_tsv_text_may_hold_form_feed(self, tmp_path):
        path = tmp_path / "shoes.tsv"
        path.write_text(
            "\n\t\nr1\tGreat\x0cboots.\tcomfort\tpositive\r\n\tNo id.\u2028Fine.\n", "utf-8"
        )
        split = load_shoes(path)
        assert [(s.id, s.text) for s in split.samples] == [
            ("r1", "Great\x0cboots."), ("r4", "No id.\u2028Fine.")
        ]

    def test_blank_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.jsonl"
        path.write_text("\n  \r\n\t\n", "utf-8")
        with pytest.raises(MalformedRecord, match="empty file"):
            load_shoes(path)

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

    @pytest.mark.parametrize(
        "name,line",
        [
            ("shoes.tsv", "r1\tThe shoes fit well.\t\tpositive"),
            ("shoes.tsv", "r1\tThe shoes fit well.\tfit\tpositive\t \tnegative"),
            ("shoes.jsonl", '{"text": "The shoes fit well.", "pairs": [["", "positive"]]}'),
            ("shoes.jsonl", '{"text": "The shoes fit well.", "pairs": [[" ", "positive"]]}'),
        ],
    )
    def test_blank_category(self, tmp_path, name, line):
        path = tmp_path / name
        path.write_text("\n" + line + "\n", "utf-8")
        with pytest.raises(MalformedRecord, match=rf"{name}:2: missing or blank category$"):
            load_shoes(path)

    @pytest.mark.parametrize(
        "name,lines",
        [
            ("shoes.tsv", ["r1\tThey fit.\tfit\tpositive", "r2\tThey do not.\t fit \tnegative"]),
            (
                "shoes.jsonl",
                [
                    '{"text": "They fit.", "pairs": [["fit", "positive"]]}',
                    '{"text": "They do not.", "pairs": [[" fit ", "negative"]]}',
                ],
            ),
        ],
    )
    def test_categories_are_stripped(self, tmp_path, name, lines):
        path = tmp_path / name
        path.write_text("\n".join(lines), "utf-8")
        split = load_shoes(path)
        assert split.categories == ("fit",)
        assert [sample.gold for sample in split.samples] == [
            {Pair("fit", Polarity.POSITIVE)}, {Pair("fit", Polarity.NEGATIVE)}
        ]

    def test_bad_pair_shape(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"text": "x", "pairs": [["only-category"]]}', "utf-8")
        with pytest.raises(MalformedRecord):
            load_shoes(path)


def write_layout(tmp_path, layout, records):
    """``records``, as ``(id, text, [(category, polarity), ...])``, written
    in one of the four layouts; returns the file's loader and the ``where``
    that a fault of each record names it by."""
    if layout in ("semeval", "mams"):
        path = tmp_path / f"{layout}.xml"
        tags = {} if layout == "semeval" else MAMS_TAGS
        container, element = tags.get("container", "Opinions"), tags.get("element", "Opinion")
        path.write_text(
            "<sentences>" + "".join(
                f'<sentence id="{rid}"><text>{escape(text)}</text><{container}>'
                + "".join(f"<{element} category={quoteattr(c)} polarity={quoteattr(p)}/>"
                          for c, p in pairs)
                + f"</{container}></sentence>"
                for rid, text, pairs in records
            ) + "</sentences>",
            "utf-8",
        )
        where = [f"{path}: sentence {rid!r}" for rid, _, _ in records]
        return (lambda: load_xml(path, "MAMS", drop_conflict=True, **tags)), where
    path = tmp_path / f"shoes.{layout}"
    if layout == "jsonl":
        lines = [json.dumps({"id": rid, "text": text, "pairs": pairs}) for rid, text, pairs in records]
    else:
        lines = ["\t".join([rid, text, *(x for pair in pairs for x in pair)])
                 for rid, text, pairs in records]
    path.write_text("\n".join(lines) + "\n", "utf-8")
    where = [f"{path}:{lineno}" for lineno in range(1, len(records) + 1)]
    return (lambda: load_shoes(path, drop_conflict=True)), where


LAYOUTS = ["semeval", "mams", "jsonl", "tsv"]


class TestOneSampleBuilder:
    """Every layout's records go through one builder, with one set of checks."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_equal_pairs_and_gold_sets_are_shared(self, tmp_path, layout):
        rng = random.Random(7)
        records = [
            (f"r{i}", f"Review {i}.",
             [(rng.choice(MAMS_CATEGORIES), rng.choice(RAW_POLARITIES)) for _ in range(rng.randrange(4))])
            for i in range(300)
        ]
        load, _ = write_layout(tmp_path, layout, records)
        split = load()
        pairs = [p for s in split.samples for p in s.gold]
        assert len({id(p) for p in pairs}) == len(set(pairs)) < len(pairs)
        golds = [s.gold for s in split.samples]
        assert len({id(g) for g in golds}) == len(set(golds)) < len(golds)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "text,category,fault",
        [(" ", "fit", "missing or empty text"), ("Snug.", "  ", "missing or blank category")],
    )
    def test_faults_of_a_record(self, tmp_path, layout, text, category, fault):
        records = [("a", "Fine.", [("fit", "positive")]), ("b", text, [(category, "negative")])]
        load, where = write_layout(tmp_path, layout, records)
        with pytest.raises(MalformedRecord) as err:
            load()
        assert str(err.value) == f"{where[1]}: {fault}"

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_categories_are_stripped(self, tmp_path, layout):
        records = [("a", "Fine.", [(" fit ", "positive")]), ("b", "Tight.", [("fit", "negative")])]
        load, _ = write_layout(tmp_path, layout, records)
        split = load()
        assert split.categories == ("fit",)
        assert [s.gold for s in split.samples] == [
            {Pair("fit", Polarity.POSITIVE)}, {Pair("fit", Polarity.NEGATIVE)}
        ]


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
        for other in ("FOOD#QUALITY", " food#quality", "Food#Quality\t"):
            path.write_text(f"FOOD#QUALITY\nSERVICE#GENERAL\n{other}\n", "utf-8")
            message = (
                f"{path}: categories 'FOOD#QUALITY' and {other.strip()!r} "
                "differ only in case or spacing"
            )
            with pytest.raises(DuplicateCategory, match=f"^{re.escape(message)}$"):
                read_inventory(path)

    def test_read_inventory_splits_at_line_ends_only(self, tmp_path):
        # as a Shoes record does: a form feed or U+0085 is part of its line
        path = tmp_path / "inv.txt"
        path.write_text("FOOD#QUALITY\x0cDRINKS\r\nSERVICE\x85X\rAMBIENCE\u2028B\n\nPLACE", "utf-8")
        assert read_inventory(path) == [
            "FOOD#QUALITY\x0cDRINKS", "SERVICE\x85X", "AMBIENCE\u2028B", "PLACE"
        ]

    def test_one_spelling_per_category(self, tmp_path):
        # two entries that differ only in case or spacing, from the data
        # or from an inventory file, would leave one of them unpredictable
        path = tmp_path / "shoes.tsv"
        path.write_text("r1\tThey fit.\tfit\tpositive\nr2\tThey do not.\tFit\tnegative\n", "utf-8")
        message = f"{path}: categories 'Fit' and 'fit' differ only in case or spacing"
        with pytest.raises(DuplicateCategory, match=f"^{re.escape(message)}$"):
            load_shoes(path)
        path = tmp_path / "rest.xml"
        path.write_text(SEMEVAL_XML, "utf-8")
        for other in ("food#quality", "FOOD#QUALITY ", "FOOD#QUALITY"):
            # a list passed by the caller names no file of its own
            inventory = ["FOOD#QUALITY", "SERVICE#GENERAL", other]
            message = (
                f"{path}: categories 'FOOD#QUALITY' and {other!r} differ only in case or spacing"
            )
            with pytest.raises(DuplicateCategory, match=f"^{re.escape(message)}$"):
                load_xml(path, "Restaurant16", inventory=inventory)
        assert ds.DatasetSplit("x", "test", (), ("fit", "fits")).categories == ("fit", "fits")

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
