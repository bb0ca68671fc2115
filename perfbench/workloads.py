"""Inputs and expected outputs for the three benchmark workloads.

Each builder writes its inputs under a work directory and returns a spec:
the run cells (``RunConfig`` field mappings), what every op must produce
per cell, and whether each op starts from an empty cache. The synthetic workloads are a
function of the seed alone; the amount of work per sample (output length,
bracket count, pairs per sample, variant mix) comes from fixed multisets
that the seed only shuffles, so different seeds cost about the same.

Expected mapping outcomes come from a reference copy of the fuzzy match
kept in this file (``_ref_best``), not from the harness, so a change to
``postprocess`` that alters results shows as a failed check.

The mix of category spellings (exact, case variant, misspelt, unmappable,
bad polarity) and the wrong-polarity rate are assumptions, not measured
from recorded model outputs, which the repository does not hold. They
decide how often a category string repeats within a run. rescore-warm
and fetch-cold assume that models mostly write inventory names
verbatim, so strings repeat; rescore-distinct has the same shape as
rescore-warm but gives every raw pair a category spelling not seen
before in the run, the no-repeat end. A gain that depends on repeats
should show on rescore-warm and not on rescore-distinct.
"""

from __future__ import annotations

import difflib
import json
import random
from pathlib import Path
from xml.etree import ElementTree as ET

CONCURRENCY = 2
CUTOFF = 0.6
MODEL_ID = "bench-model"
POLARITIES = ("positive", "neutral", "negative")

# results_sha256 of each replay-grid cell, pinned from the harness at the
# commit that added this benchmark; a change here is a change of results.
GRID_DIGESTS = {
    ("Laptop16", "baseline"): "b35aa677fbcfdef0a21f360cef6965c5fe02f1bd37dc3f03fd39c5acce662493",
    ("Laptop16", "umr"): "61771eadb06e5201c3f9179b7e138cb51eb2bcff886dd70c12f86feccb07a27f",
    ("MAMS", "baseline"): "629f6c6a07a44e599f120c22130d98897ff20eda50aa7de277631f09d044e72f",
    ("MAMS", "umr"): "10e16887266fb307f39b4794960b075b11c086079c70880b767122b270a9f644",
    ("Restaurant16", "baseline"): "3b23fc2ef76adbf55e7fd474ff61c765521df314b9400432b1c343a8dfd7facc",
    ("Restaurant16", "umr"): "deee417bc8f8ca46172e47a86f80ee42eadfbaf06c034c3189a2e8a9947da168",
    ("Shoes", "baseline"): "c3a34c8cc7837524d0bdd34aca42b30db0ee7110e52c78cd7abfbf88e989f492",
    ("Shoes", "umr"): "d67d59f3419bbccd1238490d01b64361f80d6587cac3e82ae97d76380496e60f",
}

# (tp, fp, fn) per grid cell, as in test_acceptance_8_end_to_end_replay
GRID_COUNTS = {
    ("Laptop16", "baseline"): (9, 1, 2),
    ("Laptop16", "umr"): (9, 0, 2),
    ("Restaurant16", "baseline"): (9, 1, 2),
    ("Restaurant16", "umr"): (9, 0, 2),
    ("MAMS", "baseline"): (9, 1, 2),
    ("MAMS", "umr"): (9, 0, 2),
    ("Shoes", "baseline"): (11, 1, 2),
    ("Shoes", "umr"): (11, 0, 2),
}

LAPTOP_ENTITIES = (
    "LAPTOP", "DISPLAY", "KEYBOARD", "MOUSE", "MOTHERBOARD", "CPU", "FANS_COOLING",
    "PORTS", "MEMORY", "POWER_SUPPLY", "OPTICAL_DRIVES", "BATTERY", "GRAPHICS",
    "HARD_DISC", "MULTIMEDIA_DEVICES", "HARDWARE", "SOFTWARE", "OS", "WARRANTY",
    "SHIPPING", "SUPPORT", "COMPANY",
)
LAPTOP_ATTRIBUTES = (
    "GENERAL", "PRICE", "QUALITY", "OPERATION_PERFORMANCE", "USABILITY",
    "DESIGN_FEATURES", "PORTABILITY", "CONNECTIVITY", "MISCELLANEOUS",
)
MAMS_CATEGORIES = (
    "food", "service", "staff", "price", "ambience", "menu", "place", "miscellaneous",
)

WORDS = (
    "screen", "hinge", "speaker", "charger", "trackpad", "fan", "lid", "port", "driver",
    "update", "case", "cable", "light", "sound", "finish", "weight", "grip", "box",
    "manual", "display", "switch", "panel", "dock", "stand", "label", "button",
)
ADJECTIVES = (
    "great", "awful", "fine", "solid", "flimsy", "bright", "dull", "quiet", "loud",
    "fast", "slow", "sturdy", "cheap", "sleek", "clunky", "decent", "poor", "superb",
)
FOODS = (
    "pasta", "steak", "soup", "bread", "salad", "curry", "tacos", "sushi", "pizza",
    "dumplings", "noodles", "dessert", "coffee", "wine", "burger", "risotto",
)
UNMAPPABLE = (
    "overall vibe", "zzq", "the thing", "weekend mood", "random remark", "n/a aspect",
    "wifi", "parking", "music volume", "outdoor heaters", "uber ride", "birthday",
)
BAD_POLARITY = ("mixed", "unclear", "n/a", "so-so", "idk")


# ---------------------------------------------------------------------------
# Reference fuzzy match (same definition as postprocess, kept independent)


def _fold(text: str) -> str:
    return " ".join(text.split()).casefold()


def _ref_similarity(a: str, b: str) -> float:
    x, y = sorted((a, b), key=lambda s: (len(s), s))
    return difflib.SequenceMatcher(None, x, y, autojunk=False).ratio()


def _ref_best(candidate: str, labels) -> tuple[int, float, float]:
    """Index of the best label, its score and the runner-up score."""
    folded = _fold(candidate)
    scores = [_ref_similarity(folded, _fold(label)) for label in labels]
    best = max(range(len(scores)), key=lambda i: (scores[i], -i))
    runner_up = max((s for i, s in enumerate(scores) if i != best), default=-1.0)
    return best, scores[best], runner_up


class _Variants:
    """Seeded surface variants of categories and polarities, each checked
    against the reference match so its mapping outcome is known."""

    def __init__(self, inventory, rng: random.Random, distinct: bool = False):
        self.inventory = list(inventory)
        self.rng = rng
        self.distinct = distinct
        self._used: set[str] = set()  # folded category strings, in distinct mode
        self._verdicts: dict[tuple[str, str], bool] = {}
        self.unmappable = [u for u in UNMAPPABLE if _ref_best(u, self.inventory)[1] < CUTOFF]
        self.bad_polarity = [p for p in BAD_POLARITY if _ref_best(p, POLARITIES)[1] < CUTOFF]
        if not self.unmappable or not self.bad_polarity:
            raise RuntimeError("no unmappable strings for this inventory")

    def _maps_to(self, text: str, target: str, labels) -> bool:
        key = (text, target)
        if key not in self._verdicts:
            best, score, runner_up = _ref_best(text, labels)
            self._verdicts[key] = (
                labels[best] == target and score >= CUTOFF and score > runner_up
            )
        return self._verdicts[key]

    def _typo(self, text: str) -> str:
        i = self.rng.randrange(1, len(text) - 1)
        if self.rng.random() < 0.5:
            return text[:i] + text[i + 1 :]
        return text[: i - 1] + text[i] + text[i - 1] + text[i + 1 :]

    def category(self, kind: str, category: str) -> str:
        if self.distinct:
            return self._fresh(category)
        if kind == "exact":
            return category
        if kind == "case":
            options = [category.lower(), category.title(), category.upper(), f" {category} "]
            if "#" in category:
                options.append(category.replace("#", " ").replace("_", " ").lower())
            text = self.rng.choice(options)
        else:  # "typo"
            text = self._typo(category)
        return text if self._maps_to(text, category, self.inventory) else category.lower()

    def _fresh(self, category: str) -> str:
        """A spelling of ``category`` that maps to it and, once folded,
        was not written before: another separator and one or more typos."""
        for attempt in range(1000):
            text = category.replace("#", self.rng.choice(("#", " ", "_", "-", " / ", ": ")))
            for _ in range(1 + attempt // 200):
                text = self._typo(text)
            if _fold(text) not in self._used and self._maps_to(text, category, self.inventory):
                self._used.add(_fold(text))
                return text
        raise RuntimeError(f"no fresh spelling of {category!r}")

    def unmappable_text(self) -> str:
        if not self.distinct:
            return self.rng.choice(self.unmappable)
        for _ in range(1000):
            text = f"{self.rng.choice(ADJECTIVES)} {self.rng.choice(WORDS)} {self.rng.choice(UNMAPPABLE)}"
            if _fold(text) not in self._used and _ref_best(text, self.inventory)[1] < CUTOFF:
                self._used.add(_fold(text))
                return text
        raise RuntimeError("no fresh unmappable string")

    def polarity(self, kind: str, polarity: str) -> str:
        if kind == "exact":
            return polarity
        if kind == "case":
            return self.rng.choice([polarity.title(), polarity.upper()])
        text = self._typo(polarity)
        return text if self._maps_to(text, polarity, POLARITIES) else polarity.title()


def _cycled(rng: random.Random, items, n: int) -> list:
    """n items drawn as whole shuffled passes over ``items``, so each
    appears about equally often whatever the seed."""
    out: list = []
    while len(out) < n:
        block = list(items)
        rng.shuffle(block)
        out.extend(block)
    return out[:n]


def _mix(rng: random.Random, counts: dict) -> list:
    """A seeded shuffle of a fixed multiset given as {value: count}."""
    out = [value for value, count in counts.items() for _ in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# Synthetic samples and answers


def _answers(rng, categories, shape, pair_kinds, polarity_kinds, distinct=False):
    """Gold sets and answer lists, one per sample.

    ``shape`` maps "fail"/"empty"/k (pairs per sample) to sample counts.
    With ``distinct`` no two raw pairs share a folded category string.
    Returns one dict per sample: gold pairs, the pairs as the model
    writes them, the pairs the harness must keep, and the expected
    drop count.
    """
    shapes = _mix(rng, shape)
    n_pairs = sum(s for s in shapes if isinstance(s, int))
    kinds = _mix(rng, _scaled(pair_kinds, n_pairs))
    pol_kinds = _mix(rng, _scaled(polarity_kinds, n_pairs))
    stream = iter(_cycled(rng, categories, 4 * (n_pairs + len(shapes))))
    variants = _Variants(categories, rng, distinct)
    out = []
    k = 0
    for shape_i in shapes:
        width = 2 if shape_i == "fail" else 1 if shape_i == "empty" else shape_i
        chosen: list[str] = []
        while len(chosen) < width:
            category = next(stream)
            if category not in chosen:
                chosen.append(category)
        gold = [(c, rng.choice(POLARITIES)) for c in chosen]
        sample = {"gold": gold, "written": [], "kept": [], "dropped": 0, "fail": shape_i == "fail"}
        if isinstance(shape_i, int):
            for category, polarity in gold:
                kind, pol_kind = kinds[k], pol_kinds[k]
                k += 1
                predicted = polarity
                if rng.random() < 0.1:  # the model picks the wrong polarity
                    predicted = rng.choice([p for p in POLARITIES if p != polarity])
                if kind == "unmappable":
                    written = (variants.unmappable_text(), predicted)
                    sample["dropped"] += 1
                elif kind == "badpol":
                    written = (variants.category("exact", category), rng.choice(variants.bad_polarity))
                    sample["dropped"] += 1
                else:
                    written = (
                        variants.category(kind, category),
                        variants.polarity(pol_kind, predicted),
                    )
                    sample["kept"].append((category, predicted))
                sample["written"].append(written)
        out.append(sample)
    return out


def _scaled(shares: dict, n: int) -> dict:
    counts = {key: int(share * n) for key, share in shares.items()}
    first = next(iter(counts))
    counts[first] += n - sum(counts.values())
    return counts


def _render_list(pairs) -> str:
    return "[" + ", ".join(f"('{c}', '{p}')" for c, p in pairs) + "]"


def _cot_output(rng, sample, n_brackets: int, categories) -> str:
    """A long four-step answer whose final line holds the list.

    Every earlier ``[`` opens something the extractor must try and
    reject, or (outside format-failure samples) a short well-formed list
    that a later list overrides.
    """
    lines = [
        "Step 1: UMR graph of the text.",
        f"(s1x / {rng.choice(ADJECTIVES)}-01",
        f"  :ARG1 (s1t / {rng.choice(WORDS)})",
        "  :aspect state",
        "  :modstr FullAff)",
        "Step 2: aspects, opinions and categories.",
    ]
    for j in range(n_brackets - 1):
        word, other = rng.choice(WORDS), rng.choice(WORDS)
        cat, cat2 = rng.choice(categories), rng.choice(categories)
        pol = rng.choice(POLARITIES)
        form = j % 5
        if form == 0:
            lines.append(f"- aspect [{j + 1}] '{word}' is {rng.choice(ADJECTIVES)}.")
        elif form == 1:
            lines.append(f"  note [{word} {other}] seen before.")
        elif form == 2:
            lines.append(f"  candidate [('{cat}', '{pol}'), ('{cat2}'")
        elif form == 3 and not sample["fail"]:
            lines.append(f"  maybe [('{cat}', '{pol}')] fits the {word}.")
        else:
            lines.append(f"  the {word} [sic] reads {pol}.")
    lines.append("Step 4: final list.")
    if sample["fail"]:
        lines.append(_render_list(sample["gold"])[:-12])  # cut off mid-list
    else:
        lines.append(_render_list(sample["written"]))
    return "\n".join(lines)


def _short_output(sample) -> str:
    if sample["fail"]:
        return "I cannot tell which aspects this review talks about."
    return f"Answer: {_render_list(sample['written'])}"


def _expected_counts(samples) -> tuple[int, int, int]:
    tp = fp = fn = 0
    for s in samples:
        gold = set(s["gold"])
        pred = set(s["kept"])
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    return tp, fp, fn


def _write_semeval(path: Path, ids, texts, samples) -> None:
    root = ET.Element("Reviews")
    sentences = ET.SubElement(ET.SubElement(root, "Review", rid="bench"), "sentences")
    for sid, text, sample in zip(ids, texts, samples):
        sentence = ET.SubElement(sentences, "sentence", id=sid)
        ET.SubElement(sentence, "text").text = text
        opinions = ET.SubElement(sentence, "Opinions")
        for category, polarity in sample["gold"]:
            ET.SubElement(
                opinions, "Opinion", target="NULL", category=category,
                polarity=polarity, **{"from": "0", "to": "0"},
            )
    ET.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)


def _write_mams(path: Path, ids, texts, samples) -> None:
    root = ET.Element("sentences")
    for sid, text, sample in zip(ids, texts, samples):
        sentence = ET.SubElement(root, "sentence", id=sid)
        ET.SubElement(sentence, "text").text = text
        aspects = ET.SubElement(sentence, "aspectCategories")
        for category, polarity in sample["gold"]:
            ET.SubElement(aspects, "aspectCategory", category=category, polarity=polarity)
    ET.ElementTree(root).write(path, encoding="utf-8", xml_declaration=True)


def _unique_texts(rng, n, make) -> list[str]:
    """Distinct sample texts, so distinct samples never share a request hash."""
    tags = rng.sample(range(100, 100 + 20 * n), n)
    return [make(rng, tag) for tag in tags]


def _laptop_text(rng, tag) -> str:
    a, b = rng.sample(WORDS, 2)
    return (
        f"The {a} is {rng.choice(ADJECTIVES)} but the {b} felt {rng.choice(ADJECTIVES)} "
        f"after {tag} hours of use, which matters for a machine at this price."
    )


def _mams_text(rng, tag) -> str:
    return (
        f"The {rng.choice(FOODS)} was {rng.choice(ADJECTIVES)} and the waiter was "
        f"{rng.choice(ADJECTIVES)} at table {tag}."
    )


def laptop_inventory() -> list[str]:
    """67 Laptop16-style ENTITY#ATTRIBUTE categories, the same for every seed."""
    grid = [f"{e}#{a}" for e in LAPTOP_ENTITIES for a in LAPTOP_ATTRIBUTES]
    return sorted(random.Random(67).sample(grid, 67))


# ---------------------------------------------------------------------------
# Workload builders


def load_split(config):
    """Load a cell's split the way ``acsa score`` does."""
    from acsa_harness import datasets

    inventory = datasets.read_inventory(config.inventory_path) if config.inventory_path else None
    return datasets.load_dataset(
        config.dataset, config.dataset_path, split=config.split,
        drop_conflict=config.drop_conflict, inventory=inventory,
    )


def _cell(**fields) -> dict:
    base = {"model_id": MODEL_ID, "backend": "replay", "concurrency": CONCURRENCY, "cutoff": CUTOFF}
    return {**base, **fields}


def _write_responses(cell: dict, texts_by_index, dirs) -> None:
    """Write one cache-format file per request into each of ``dirs``."""
    from acsa_harness import llm, runner

    config = runner.RunConfig.from_mapping(cell)
    config.validate()
    jobs = runner.prepare_jobs(config, load_split(config))
    if len({job.request.cache_key for job in jobs}) != len(jobs):
        raise RuntimeError("two samples share a request hash")
    for job in jobs:
        for directory in dirs:
            llm.write_cache_file(
                Path(directory) / f"{job.request.cache_key}.json",
                job.request,
                texts_by_index[job.index],
            )


def _synthetic_expect(samples, cache_hits: int, cache_files: int | None) -> dict:
    tp, fp, fn = _expected_counts(samples)
    return {
        "samples": len(samples),
        "format_failures": sum(1 for s in samples if s["fail"]),
        "dropped_pairs": sum(s["dropped"] for s in samples),
        "cache_hits": cache_hits,
        "counts": [tp, fp, fn],
        "results_sha256": None,
        "cache_files": cache_files,
    }


def grid_replay(root: Path, work: Path, seed: int) -> dict:
    """The committed 8-cell replay grid; it is the same for every seed."""
    e2e = root / "tests" / "fixtures" / "e2e"
    meta = json.loads((e2e / "meta.json").read_text("utf-8"))
    cells, expect = [], []
    for dataset in sorted(meta["datasets"]):
        for method in ("baseline", "umr"):
            cells.append(_cell(
                dataset=dataset,
                dataset_path=str(e2e / meta["datasets"][dataset]),
                method=method,
                model_id=meta["model_id"],
                fixture_dir=str(e2e / meta["replay_dir"]),
                seed=meta["seed"],
                output_path=str(work / f"{dataset}_{method}.jsonl"),
                exemplar_paths=[str(root / p) for p in meta["exemplars"]] if method == "umr" else [],
            ))
            expect.append({
                "samples": 10,
                "format_failures": 1 if method == "baseline" else 0,
                "dropped_pairs": 0 if method == "baseline" else 1,
                "cache_hits": 0,
                "counts": list(GRID_COUNTS[(dataset, method)]),
                "results_sha256": GRID_DIGESTS[(dataset, method)],
                "cache_files": None,
            })
    return {"cells": cells, "expect": expect, "fresh_cache": False}


def rescore_warm(root: Path, work: Path, seed: int, distinct: bool = False) -> dict:
    """Laptop16-shaped umr split, long answers, every response already cached."""
    rng = random.Random(seed)
    inventory = laptop_inventory()
    shape = {"fail": 8, "empty": 8, 2: 150, 3: 200, 4: 34}
    n = sum(shape.values())
    samples = _answers(
        rng, inventory, shape,
        pair_kinds={"exact": 0.40, "case": 0.25, "typo": 0.20, "unmappable": 0.10, "badpol": 0.05},
        polarity_kinds={"exact": 0.7, "case": 0.2, "typo": 0.1},
        distinct=distinct,
    )
    ids = [f"lap:{i}" for i in range(n)]
    texts = _unique_texts(rng, n, _laptop_text)
    outputs = [_cot_output(rng, s, 100 + i % 41, inventory) for i, s in enumerate(samples)]
    dataset_path = work / "laptop16_test.xml"
    _write_semeval(dataset_path, ids, texts, samples)
    inventory_path = work / "laptop16_inventory.txt"
    inventory_path.write_text("\n".join(inventory) + "\n", "utf-8")
    fixtures, cache = work / "replay", work / "cache"
    fixtures.mkdir()
    e2e = root / "tests" / "fixtures" / "e2e"
    meta = json.loads((e2e / "meta.json").read_text("utf-8"))
    cell = _cell(
        dataset="Laptop16",
        dataset_path=str(dataset_path),
        inventory_path=str(inventory_path),
        method="umr",
        exemplar_paths=[str(root / p) for p in meta["exemplars"]],
        seed=seed,
        fixture_dir=str(fixtures),
        cache_dir=str(cache),
        output_path=str(work / "laptop16_umr.jsonl"),
    )
    # The runs only ever hit the cache; the fixture copy is what
    # ChatClient.warm_cache fetches from in the traced run.
    _write_responses(cell, outputs, [fixtures, cache])
    return {
        "cells": [cell],
        "expect": [_synthetic_expect(samples, cache_hits=n, cache_files=None)],
        "fresh_cache": False,
    }


def fetch_cold(root: Path, work: Path, seed: int) -> dict:
    """MAMS-shaped baseline split, short answers, every request a cache miss."""
    rng = random.Random(seed)
    inventory = list(MAMS_CATEGORIES)
    shape = {"fail": 60, "empty": 60, 1: 1380, 2: 1200, 3: 300}
    n = sum(shape.values())
    samples = _answers(
        rng, inventory, shape,
        pair_kinds={"exact": 0.60, "case": 0.20, "typo": 0.10, "unmappable": 0.07, "badpol": 0.03},
        polarity_kinds={"exact": 0.8, "case": 0.15, "typo": 0.05},
    )
    ids = [f"mams:{i}" for i in range(n)]
    texts = _unique_texts(rng, n, _mams_text)
    outputs = [_short_output(s) for s in samples]
    dataset_path = work / "mams_test.xml"
    _write_mams(dataset_path, ids, texts, samples)
    inventory_path = work / "mams_inventory.txt"
    inventory_path.write_text("\n".join(inventory) + "\n", "utf-8")
    fixtures = work / "replay"
    fixtures.mkdir()
    cell = _cell(
        dataset="MAMS",
        dataset_path=str(dataset_path),
        inventory_path=str(inventory_path),
        method="baseline",
        seed=seed,
        fixture_dir=str(fixtures),
        cache_dir=str(work / "cache"),
        output_path=str(work / "mams_baseline.jsonl"),
    )
    _write_responses(cell, outputs, [fixtures])
    return {
        "cells": [cell],
        "expect": [_synthetic_expect(samples, cache_hits=0, cache_files=n)],
        "fresh_cache": True,
    }


def rescore_distinct(root: Path, work: Path, seed: int) -> dict:
    """rescore-warm with a category spelling per raw pair that is new to the
    run: the exact, case and typo shares all become fresh misspellings."""
    return rescore_warm(root, work, seed, distinct=True)


BUILDERS = {
    "grid-replay": grid_replay,
    "rescore-warm": rescore_warm,
    "rescore-distinct": rescore_distinct,
    "fetch-cold": fetch_cold,
}
