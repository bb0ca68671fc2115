"""Loaders for the four ACSA evaluation datasets.

A reader per file format streams one raw record per sentence (XML) or per
line (Shoes), and one builder, ``_build_split``, turns the records of every
format into the same canonical shape: one Sample per sentence (or per
review for Shoes) with a deduplicated gold set of (category, polarity)
pairs, plus the ordered category inventory that fills the prompt's
category slot. Every loading fault names its file once, at the start of
the message, and only this module decides which file that is.

``load_dataset`` reads the file's bytes once, hashes them and parses
those same bytes from memory, and a process keeps the last
``SPLIT_MEMO_SIZE`` splits under (name, sha256 of the bytes, split,
drop_conflict, inventory). So the cells of one ``acsa grid`` that share
a dataset file parse it once, and an edited file is parsed again. A
fault is raised on every call and never kept; a split is frozen, so its
callers can share it.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import json
import logging
import threading
from collections import OrderedDict
from contextlib import closing
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence
from xml.etree import ElementTree as ET

logger = logging.getLogger(__name__)

DATASET_NAMES = ("Laptop16", "Restaurant16", "MAMS", "Shoes")

DOMAIN_BY_DATASET = {
    "Laptop16": "laptop",
    "Restaurant16": "restaurant",
    "MAMS": "restaurant",
    "Shoes": "shoes",
}

# Most parsed splits one process keeps. The paper's grid reads four
# dataset files, each for six cells.
SPLIT_MEMO_SIZE = 8

_BOM_FAULT = "the file starts with a byte-order mark; save it as UTF-8 without one"

# name -> (train samples, test samples, category count)
OFFICIAL_COUNTS = {
    "Laptop16": (2468, 579, 67),
    "Restaurant16": (1954, 571, 12),
    "MAMS": (3149, 400, 8),
    "Shoes": (906, 125, 21),
}


class DatasetError(Exception):
    """Base class for dataset loading errors."""


class MalformedXml(DatasetError):
    pass


class UnknownPolarityValue(DatasetError):
    pass


class MalformedRecord(DatasetError):
    pass


class CountMismatch(DatasetError):
    pass


class InvalidSplit(DatasetError):
    """A fault of a split's own checks, which know no file."""


class DuplicateCategory(InvalidSplit):
    pass


def _fold(s: str) -> str:
    """The one spelling by which categories are compared."""
    return " ".join(s.split()).casefold()


def _one_spelling_each(categories: Sequence[str]) -> None:
    """Refuse two categories that fold alike: which of them a prediction
    maps to would be unpredictable."""
    first: dict[str, int] = {}
    for i, entry in enumerate(categories):
        j = first.setdefault(_fold(entry), i)
        if j != i:
            raise DuplicateCategory(
                f"categories {categories[j]!r} and {entry!r} differ only in case or spacing"
            )


class Polarity(str, Enum):
    POSITIVE = "positive"
    NEUTRAL = "neutral"
    NEGATIVE = "negative"


@dataclass(frozen=True, order=True, slots=True)
class Pair:
    """One (canonical category, polarity) prediction or gold annotation."""

    category: str
    polarity: Polarity


@dataclass(frozen=True, slots=True)
class Sample:
    id: str
    text: str
    gold: frozenset[Pair]


@dataclass(frozen=True)
class DatasetSplit:
    name: str
    split: str
    samples: tuple[Sample, ...]
    categories: tuple[str, ...]
    n_conflict_dropped: int = 0

    def __post_init__(self):
        _one_spelling_each(self.categories)
        seen_ids = set()
        known = set(self.categories)
        for sample in self.samples:
            if sample.id in seen_ids:
                raise InvalidSplit(f"duplicate sample id {sample.id!r}")
            seen_ids.add(sample.id)
            if not sample.text.strip():
                raise InvalidSplit(f"sample {sample.id!r} has empty text")
            for pair in sample.gold:
                if pair.category not in known:
                    raise InvalidSplit(
                        f"sample {sample.id!r} gold category {pair.category!r} "
                        "is not in the inventory"
                    )


def read_inventory(path: str | Path) -> list[str]:
    """Read a one-category-per-line inventory file, keeping file order.

    Lines end at LF, CRLF or CR only, as Shoes records do, and are taken
    verbatim after stripping surrounding whitespace (no comment syntax:
    '#' is a legal category character). Blank lines are skipped; two
    entries that fold alike are an error, and so is a byte-order mark.
    """
    data = Path(path).read_bytes()
    if data.startswith(codecs.BOM_UTF8):
        raise DatasetError(f"{path}: {_BOM_FAULT}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise DatasetError(f"{path}: not UTF-8: {err.reason} at byte offset {err.start}") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    categories = [entry for entry in map(str.strip, lines) if entry]
    if not categories:
        raise DatasetError(f"{path}: the inventory file contains no categories")
    try:
        _one_spelling_each(categories)
    except DuplicateCategory as err:
        raise DuplicateCategory(f"{path}: {err}") from None
    return categories


def _resolve_polarity(raw: str | None, where: str, drop_conflict: bool) -> Polarity | None:
    """Map a raw polarity attribute to a Polarity, or None for a dropped conflict."""
    value = (raw or "").strip().lower()
    if not value:
        raise UnknownPolarityValue(f"{where}: missing polarity value")
    if value == "conflict":
        if drop_conflict:
            return None
        raise UnknownPolarityValue(
            f"{where}: polarity 'conflict' (rerun with drop_conflict to discard)"
        )
    try:
        return Polarity(value)
    except ValueError:
        raise UnknownPolarityValue(f"{where}: unknown polarity {raw!r}") from None


def _build_split(
    path: str | Path,
    name: str,
    split: str,
    records: Iterator[tuple],
    drop_conflict: bool,
    inventory: Sequence[str] | None,
) -> DatasetSplit:
    """The split of the records ``(where, id, text, [(category, polarity),
    ...])`` that a format's reader streams, with the strings as the file
    holds them. Equal pairs and equal gold sets are one shared object each.
    A record's fault names its ``where``; a fault of the split's own
    checks, ``path``."""
    samples: list[Sample] = []
    pair_of: dict[tuple[str, Polarity], Pair] = {}
    gold_of: dict[frozenset[Pair], frozenset[Pair]] = {}
    dropped = 0
    with closing(records):
        for where, sid, text, raw_pairs in records:
            if not text.strip():
                raise MalformedRecord(f"{where}: missing or empty text")
            pairs = set()
            for category, raw_polarity in raw_pairs:
                category = category.strip()
                if not category:
                    raise MalformedRecord(f"{where}: missing or blank category")
                polarity = _resolve_polarity(raw_polarity, where, drop_conflict)
                if polarity is None:
                    dropped += 1
                    continue
                pair = pair_of.get((category, polarity))
                if pair is None:
                    pair = pair_of[category, polarity] = Pair(category, polarity)
                pairs.add(pair)
            gold = frozenset(pairs)
            samples.append(Sample(sid, text.strip(), gold_of.setdefault(gold, gold)))
    categories = tuple(sorted({c for c, _ in pair_of}) if inventory is None else inventory)
    if dropped:
        logger.info("%s %s: dropped %d conflict opinions", name, split, dropped)
    try:
        return DatasetSplit(name, split, tuple(samples), categories, dropped)
    except InvalidSplit as err:
        raise type(err)(f"{path}: {err}") from None


def load_xml(
    path: str | Path,
    name: str,
    split: str = "test",
    drop_conflict: bool = False,
    inventory: Sequence[str] | None = None,
    container: str = "Opinions",
    element: str = "Opinion",
    *,
    data: bytes | None = None,
) -> DatasetSplit:
    """Load a sentence-level ACSA XML file.

    One Sample per <sentence> element; each ``element`` inside the
    sentence's ``container`` carries category and polarity attributes.
    The defaults read SemEval-2016 task-5 subtask-1 files (Laptop16,
    Restaurant16); MAMS ACSA files use ``aspectCategories`` and
    ``aspectCategory``. Sentences without opinions are retained with an
    empty gold set; duplicate (category, polarity) opinions collapse. A
    file that cannot be read raises its OSError unchanged.

    The file is parsed as a stream (``_sentences``), so the parse holds
    little more than the split it returns; given ``data``, the file's
    bytes that the caller has read already, it parses those instead.
    """
    records = _xml_records(path, data, container, element)
    return _build_split(path, name, split, records, drop_conflict, inventory)


def _binary(path: str | Path, data: bytes | None):
    """A binary handle on the file's bytes: ``data`` if the caller holds
    them, else the file itself."""
    return open(path, "rb") if data is None else io.BytesIO(data)


def _xml_records(
    path: str | Path, data: bytes | None, container: str, element: str
) -> Iterator[tuple]:
    with _binary(path, data) as handle:
        try:
            for i, sentence in enumerate(_sentences(handle)):
                sid = sentence.get("id") or f"s{i + 1}"
                text = sentence.findtext("text") or ""
                opinions = sentence.find(container)
                raw_pairs = [] if opinions is None else [
                    (opinion.get("category", ""), opinion.get("polarity"))
                    for opinion in opinions.findall(element)
                ]
                yield f"{path}: sentence {sid!r}", sid, text, raw_pairs
        except ET.ParseError as err:
            raise MalformedXml(f"{path}: {err}") from err


_XML_CHUNK = 16 * 1024  # bytes per read, as ET.iterparse reads


def _sentences(handle) -> Iterator[ET.Element]:
    """Yield each <sentence> element of an XML stream when it ends, in
    document order. Once the caller is done with it, the sentence is
    dropped from its parent, and so is every element that ends outside a
    sentence, so the parsed tree never grows with the file."""
    # a pull parser fed by hand: ET.iterparse does the same, but builds a
    # class on every call, which costs more than parsing a small split
    parser = ET.XMLPullParser(events=("start", "end"))
    open_elements: list[ET.Element] = []  # the path from the root
    in_sentence = 0  # open <sentence> elements, whose children are still needed
    while True:
        chunk = handle.read(_XML_CHUNK)
        if chunk:
            parser.feed(chunk)
        else:
            parser.close()
        for event, node in parser.read_events():
            if event == "start":
                open_elements.append(node)
                in_sentence += node.tag == "sentence"
                continue
            open_elements.pop()
            if node.tag == "sentence":
                in_sentence -= 1
                yield node
            if not in_sentence and open_elements:
                open_elements[-1].remove(node)
        if not chunk:
            return


def load_shoes(
    path: str | Path,
    split: str = "test",
    drop_conflict: bool = False,
    inventory: Sequence[str] | None = None,
    *,
    data: bytes | None = None,
) -> DatasetSplit:
    """Load the full-review Shoes dataset from a delimited-record file.

    The format is auto-detected from the first non-blank character: '{'
    means one JSON object per line with keys id (optional), text, and
    pairs ([[category, polarity], ...]); anything else is tab-separated
    ``id<TAB>text<TAB>cat<TAB>pol[<TAB>cat<TAB>pol ...]``.

    Records are split at line ends only (LF, CRLF or CR), so a record's
    text may hold any other character, U+2028 or a form feed included.
    A byte-order mark is refused. The file is read one line at a time;
    given ``data``, the file's bytes that the caller has read already,
    those are read instead.
    """
    records = _shoes_records(path, data)
    return _build_split(path, "Shoes", split, records, drop_conflict, inventory)


def _shoes_records(path: str | Path, data: bytes | None) -> Iterator[tuple]:
    jsonl = None
    # a byte that is not UTF-8 is kept as a lone surrogate, so that the
    # fault names its line: the decoder's own offset counts within a chunk
    with io.TextIOWrapper(
        _binary(path, data), encoding="utf-8", errors="surrogateescape"
    ) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.removesuffix("\n")
            if lineno == 1 and line.startswith("\ufeff"):
                raise MalformedRecord(f"{path}: {_BOM_FAULT}")
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as err:
                    raise MalformedRecord(f"{where}: not UTF-8: {err.reason}") from None
            if jsonl is None:
                jsonl = line.lstrip()[0] == "{"
            record = _shoes_json_record if jsonl else _shoes_tsv_record
            yield where, *record(line, where, lineno)
    if jsonl is None:
        raise MalformedRecord(f"{path}: empty file")


def _shoes_json_record(line: str, where: str, lineno: int):
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as err:
        raise MalformedRecord(f"{where}: invalid JSON ({err})") from err
    if not isinstance(obj, dict):
        raise MalformedRecord(f"{where}: record is not a JSON object")
    text = obj.get("text")
    if not isinstance(text, str):
        raise MalformedRecord(f"{where}: missing or non-string 'text'")
    rid = obj.get("id")
    if rid is None:
        rid = f"r{lineno}"
    elif not isinstance(rid, str):
        raise MalformedRecord(f"{where}: non-string 'id'")
    raw_pairs = obj.get("pairs", [])
    if not isinstance(raw_pairs, list):
        raise MalformedRecord(f"{where}: 'pairs' must be a list")
    for item in raw_pairs:
        if not isinstance(item, list) or len(item) != 2 or not all(isinstance(x, str) for x in item):
            raise MalformedRecord(f"{where}: each pair must be a [category, polarity] pair")
    return rid, text, raw_pairs


def _shoes_tsv_record(line: str, where: str, lineno: int):
    fields = line.split("\t")
    if len(fields) < 2:
        raise MalformedRecord(f"{where}: expected at least id and text fields")
    rid, text, tail = fields[0], fields[1], fields[2:]
    if not rid:
        rid = f"r{lineno}"
    if len(tail) % 2 != 0:
        raise MalformedRecord(f"{where}: category/polarity fields are unpaired")
    out = [(tail[i], tail[i + 1]) for i in range(0, len(tail), 2)]
    return rid, text, out


# the splits load_dataset parsed, least recently used first
_splits: OrderedDict[tuple, DatasetSplit] = OrderedDict()
_splits_lock = threading.Lock()


def load_dataset(
    name: str,
    path: str | Path,
    split: str = "test",
    drop_conflict: bool = False,
    inventory: Sequence[str] | None = None,
) -> DatasetSplit:
    """Load one of the four dataset names through its loader, or return
    the split this process already parsed from the same bytes with the
    same arguments (see the module docstring)."""
    if name not in DATASET_NAMES:
        raise DatasetError(f"unknown dataset {name!r}; expected one of {DATASET_NAMES}")
    data = Path(path).read_bytes()
    key = (
        name,
        hashlib.sha256(data).digest(),
        split,
        drop_conflict,
        None if inventory is None else tuple(inventory),
    )
    with _splits_lock:
        found = _splits.get(key)
        if found is not None:
            _splits.move_to_end(key)
            return found
    if name == "Shoes":
        found = load_shoes(path, split, drop_conflict, inventory, data=data)
    elif name == "MAMS":
        found = load_xml(
            path, name, split, drop_conflict, inventory, "aspectCategories", "aspectCategory",
            data=data,
        )
    else:
        found = load_xml(path, name, split, drop_conflict, inventory, data=data)
    with _splits_lock:
        _splits[key] = found
        if len(_splits) > SPLIT_MEMO_SIZE:
            _splits.popitem(last=False)
    return found


def verify_official_counts(split: DatasetSplit) -> None:
    """Check sample and category counts against the published statistics.

    Only meaningful when the loaded file is an official distribution; the
    loaders cannot know that, so this is an explicit opt-in check.
    """
    if split.name not in OFFICIAL_COUNTS:
        raise CountMismatch(f"no official counts known for {split.name!r}")
    train, test, n_categories = OFFICIAL_COUNTS[split.name]
    expected = train if split.split == "train" else test
    if len(split.samples) != expected:
        raise CountMismatch(
            f"{split.name} {split.split}: expected {expected} samples, "
            f"found {len(split.samples)}"
        )
    if len(split.categories) != n_categories:
        raise CountMismatch(
            f"{split.name}: expected {n_categories} categories, "
            f"found {len(split.categories)}"
        )
