import difflib
import itertools
import json
import random
import string
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import gestalt_reference, scan_list_reference

from acsa_harness.datasets import Pair, Polarity
from acsa_harness import postprocess
from acsa_harness.postprocess import (
    DEFAULT_CUTOFF,
    MappingOutcome,
    NoListFound,
    PreparedInventory,
    RawPair,
    canonicalize,
    extract_pair_list,
    _best_category,
    _fold,
    _lcs_lengths,
    normalize_polarity,
    similarity,
)

FIXTURES = Path(__file__).parent / "fixtures"

RESTAURANT_INVENTORY = [
    "AMBIENCE#GENERAL",
    "DRINKS#PRICES",
    "DRINKS#QUALITY",
    "DRINKS#STYLE_OPTIONS",
    "FOOD#PRICES",
    "FOOD#QUALITY",
    "FOOD#STYLE_OPTIONS",
    "LOCATION#GENERAL",
    "RESTAURANT#GENERAL",
    "RESTAURANT#MISCELLANEOUS",
    "RESTAURANT#PRICES",
    "SERVICE#GENERAL",
]


LAPTOP_STYLE_INVENTORY = [
    f"{entity}#{attribute}"
    for entity, attribute in itertools.product(
        (
            "LAPTOP", "DISPLAY", "KEYBOARD", "MOUSE", "MOTHERBOARD", "CPU", "FANS_COOLING",
            "PORTS", "MEMORY", "POWER_SUPPLY", "OPTICAL_DRIVES", "BATTERY", "GRAPHICS",
            "HARD_DISC", "MULTIMEDIA_DEVICES", "HARDWARE", "SOFTWARE",
        ),
        ("GENERAL", "PRICE", "QUALITY", "OPERATION_PERFORMANCE"),
    )
][:67]


def _reference_best_category(candidate, inventory):
    """The exhaustive search: score every entry, keep the first maximum."""

    def fold(s):
        return " ".join(s.split()).casefold()

    folded = fold(candidate)
    best = None
    best_score = -1.0
    for entry in inventory:
        score = similarity(folded, fold(entry))
        if score > best_score:
            best, best_score = entry, score
    return best, max(best_score, 0.0)


def _reference_lcs(a, b):
    """Longest common subsequence length by the textbook dynamic program."""
    row = [0] * (len(b) + 1)
    for ch in a:
        diagonal = 0
        for j, other in enumerate(b, 1):
            above = row[j]
            row[j] = diagonal + 1 if ch == other else max(above, row[j - 1])
            diagonal = above
    return row[-1]


def _reference_scored(folded, texts):
    """The folded entries, in order, that the LCS-ordered search scores
    with ``similarity``, with every bound from the dynamic program: the
    first entry of highest LCS bound, then, of the entries whose bound
    reaches its score, a full (-LCS bound, index) sort."""
    size = len(folded)
    bounds = [2.0 * _reference_lcs(folded, text) / (size + len(text)) for text in texts]
    best_index = min(range(len(texts)), key=lambda i: (-bounds[i], i))
    best_score, scored = similarity(folded, texts[best_index]), [texts[best_index]]
    order = sorted(
        (-bounds[i], i) for i in range(len(texts)) if i != best_index and bounds[i] >= best_score
    )
    for negated_bound, i in order:
        if -negated_bound < best_score:
            break
        if -negated_bound == best_score and i > best_index:
            continue
        scored.append(texts[i])
        score = similarity(folded, texts[i])
        if score > best_score or (score == best_score and i < best_index):
            best_score, best_index = score, i
    return scored


def _reference_extract(raw_output):
    """The forward scan: try every '[' with the hand-written scanner and
    keep the last list that parses."""
    found = None
    for start, ch in enumerate(raw_output):
        if ch == "[":
            result = scan_list_reference(raw_output, start)
            if result is not None:
                found = result[0]
    if found is None:
        raise NoListFound("reference")
    return [RawPair(c.strip(), p.strip()) for c, p in found if c.strip() and p.strip()]


def _typo(rng, text):
    if len(text) < 3:
        return text + rng.choice("xyz")
    i = rng.randrange(1, len(text) - 1)
    roll = rng.random()
    if roll < 0.4:
        return text[:i] + text[i + 1 :]
    if roll < 0.8:
        return text[: i - 1] + text[i] + text[i - 1] + text[i + 1 :]
    return text[:i] + rng.choice(string.ascii_lowercase) + text[i:]


def _laptop_style_candidate(rng):
    roll = rng.random()
    if roll < 0.15:
        return "".join(rng.choice(string.ascii_lowercase + " ") for _ in range(rng.randrange(0, 30)))
    text = rng.choice(LAPTOP_STYLE_INVENTORY)
    text = text.replace("#", rng.choice(("#", " ", "_", "-", " / ")))
    if rng.random() < 0.5:
        text = text.replace("_", rng.choice(("_", " ", "")))
    for _ in range(rng.randrange(0, 3)):
        text = _typo(rng, text)
    return rng.choice((str.lower, str.upper, str.title, str))(text)


def _load_cases():
    payload = json.loads((FIXTURES / "extract_cases.json").read_text("utf-8"))
    return payload["cases"]


class TestExtractPairList:
    @pytest.mark.parametrize("case", _load_cases(), ids=lambda c: c["name"])
    def test_fixture_corpus(self, case):
        if case["expect"] == "NoListFound":
            with pytest.raises(NoListFound):
                extract_pair_list(case["text"])
        else:
            got = extract_pair_list(case["text"])
            assert got == [RawPair(c, p) for c, p in case["expect"]]

    def test_template_literals_reproduce_example_pairs(self):
        from acsa_harness.prompts import baseline_template, umr_template

        expected = [
            RawPair("example_category_1", "positive"),
            RawPair("example_category_2", "negative"),
        ]
        assert extract_pair_list(baseline_template()) == expected
        assert extract_pair_list(umr_template()) == expected

    def test_empty_list_is_not_format_failure(self):
        assert extract_pair_list("[]") == []

    def test_escapes_and_whitespace(self):
        text = (
            "[('it\\'s', \"say \\\"hi\\\"\"),\r\n\t"
            "('a\\\\b', 'x\\qy\\n'), ('line\\\nbreak', 'ok')]"
        )
        assert extract_pair_list(text) == [
            RawPair("it's", 'say "hi"'),
            RawPair("a\\b", "x\\qy"),
            RawPair("line\\\nbreak", "ok"),
        ]
        # only space, tab, CR and LF separate tokens; str.strip trims the rest
        assert extract_pair_list("[('\xa0food\x0c', 'positive')]") == [RawPair("food", "positive")]
        for text in ("[\x0c('food', 'positive')]", "[(\xa0'food', 'positive')]",
                     "[('multi\nline', 'positive')]", "[('food', 'positive')\\]"):
            with pytest.raises(NoListFound):
                extract_pair_list(text)

    def test_no_list_raises(self):
        with pytest.raises(NoListFound):
            extract_pair_list("")
        with pytest.raises(NoListFound):
            extract_pair_list("nothing here [ or here")


class TestExtractMatchesForwardScan:
    """The reverse scan returns what trying every '[' and keeping the
    last list that parses returns, including NoListFound."""

    FRAGMENTS = (
        "[('FOOD#QUALITY', 'positive')]",
        "[('a[b', 'negative'), (\"x]y[\", 'neutral')]",
        "[('service', 'neutral'), ('price', 'negative'),]",
        "[ ( 'menu' , 'positive' , ) ,\n ... ]",
        "[]",
        "[('truncated', 'posi",
        "[('open', 'positive'),",
        "[(",
        "[[",
        "[x]",
        "[1, 2, 3]",
        "['a', 'b']",
        "[('multi\nline', 'positive')]",
        " [",
        "]",
        "Step 1: reason about [the review]. ",
        " so the answer is: ",
        "\n",
        "(('tuple', 'not list'))",
        "'",
        '"',
        "[('it\\'s', 'positive')]",
        '[("say \\"hi\\"", "neutral")]',
        "[('line\\\nbreak', 'negative')]",
        "[('a\\\\', 'tab\\there'), ('\\q', 'x')]",
        "[\r\n\t('crlf', 'positive')\r\n]",
        "[\x0c('form feed', 'positive')]",
        "[('\x0c', 'positive'), ('\xa0nbsp\xa0', 'neutral')]",
        "[(\xa0'nbsp', 'positive')]",
        "[()]",
        "\\'",
        '\\"',
        "\\\n",
        "\\",
        "\x0c",
        "\xa0",
    )

    def _text(self, rng):
        return "".join(rng.choice(self.FRAGMENTS) for _ in range(rng.randrange(0, 12)))

    def test_seeded_bracket_heavy_texts(self):
        rng = random.Random(4242)
        outcomes = {"list": 0, "none": 0}
        for _ in range(3000):
            text = self._text(rng)
            try:
                expected = _reference_extract(text)
            except NoListFound:
                outcomes["none"] += 1
                with pytest.raises(NoListFound):
                    extract_pair_list(text)
                continue
            outcomes["list"] += 1
            assert extract_pair_list(text) == expected, text
        assert min(outcomes.values()) > 100

    def test_junk_brackets_after_final_list(self):
        text = "[('FOOD#QUALITY', 'positive')] then [ and [( and [('x', 'y'"
        assert extract_pair_list(text) == _reference_extract(text)
        assert extract_pair_list(text) == [RawPair("FOOD#QUALITY", "positive")]

    def test_bracket_inside_quoted_element_of_final_list(self):
        text = "[('early', 'positive')] final: [('a [b', 'negative')]"
        assert extract_pair_list(text) == _reference_extract(text)
        assert extract_pair_list(text) == [RawPair("a [b", "negative")]

    def test_no_list_raises_like_reference(self):
        for text in ("", "[", "no list [( here", "[('a', 'b'", "[x] [[ [(", "[1]"):
            with pytest.raises(NoListFound):
                _reference_extract(text)
            with pytest.raises(NoListFound):
                extract_pair_list(text)


class TestSimilarity:
    def test_identity(self):
        assert similarity("food", "food") == 1.0

    def test_disjoint(self):
        assert similarity("abc", "xyz") == 0.0

    def test_negtive_negative_exact_value(self):
        # longest block "tive" (4) + left remainder block "neg" (3): M=7, 2*7/15
        expected = 14.0 / 15.0
        assert similarity("negtive", "negative") == pytest.approx(expected, abs=1e-15)
        assert Fraction(similarity("negtive", "negative")).limit_denominator(100) == Fraction(14, 15)

    def test_symmetry_on_adversarial_pair(self):
        a, b = "GESTALT PATTERN MATCHING", "GESTALT PRACTICE"
        assert similarity(a, b) == similarity(b, a)

    def test_matches_brute_force_on_random_pairs(self):
        rng = random.Random(1234)
        alphabet = string.ascii_lowercase[:8] + " #_"
        for _ in range(500):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 18)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 18)))
            assert similarity(a, b) == gestalt_reference(a, b)
            assert similarity(a, b) == similarity(b, a)

    @staticmethod
    def _difflib_ratio(a, b):
        x, y = sorted((a, b), key=lambda s: (len(s), s))
        return difflib.SequenceMatcher(None, x, y, autojunk=False).ratio()

    def test_equals_difflib_bit_for_bit(self):
        # casefold and upper turn "ß", "ﬁ" and "İ" into two characters
        rng = random.Random(2629)
        alphabets = ("abc#_-/ ", "ab", "food#quality_ ", "aßﬁİé漢#_ ", "laptop#general_price")
        folds = (str, str.casefold, str.upper, _fold)
        for _ in range(20_000):
            alphabet, fold = rng.choice(alphabets), rng.choice(folds)
            a, b = (
                fold("".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 24))))
                for _ in range(2)
            )
            assert similarity(a, b) == self._difflib_ratio(a, b), (a, b)
        for a, b in (("", ""), ("", "a#b"), ("ß", "SS"), ("ﬁle", "file"), ("İ", "i̇")):
            assert similarity(a, b) == self._difflib_ratio(a, b), (a, b)

    def test_long_strings_equal_difflib(self):
        # every block of the chain is one character with the rest of both
        # strings right of it, so the windows nest 1 500 deep, past the
        # interpreter's default recursion limit
        chain = "".join(map(chr, range(0x100, 0x100 + 1500)))
        spaced = "".join(ch + chr(0x1000 + i) for i, ch in enumerate(chain))
        rng = random.Random(4000)
        pairs = [
            (chain, spaced),
            ("abc" * 100, "acb" * 100),
            tuple("".join(rng.choice("ab") for _ in range(4000)) for _ in range(2)),
        ]
        for a, b in pairs:
            assert similarity(a, b) == self._difflib_ratio(a, b), (len(a), len(b))

    def test_bounds(self):
        rng = random.Random(99)
        for _ in range(200):
            a = "".join(rng.choice("abcdef") for _ in range(rng.randrange(0, 10)))
            b = "".join(rng.choice("abcdef") for _ in range(rng.randrange(0, 10)))
            value = similarity(a, b)
            assert 0.0 <= value <= 1.0
            assert (value == 1.0) == (a == b)

    def test_empty_strings(self):
        assert similarity("", "") == 1.0
        assert similarity("", "abc") == 0.0


class TestMapCategory:
    """Single candidates through the run's path: ``canonicalize`` and
    ``_best_category`` over a ``PreparedInventory``."""

    @staticmethod
    def _map(candidate, inventory, cutoff=DEFAULT_CUTOFF):
        _, outcomes = canonicalize(
            [RawPair(candidate, "positive")], PreparedInventory(inventory), cutoff
        )
        pair = outcomes[0].mapped
        return pair.category if pair is not None else None

    def test_space_for_hash_variant(self):
        # after folding only '#' vs ' ' differs: M=11, ratio 22/24 = 0.9167
        assert self._map("FOOD QUALITY", RESTAURANT_INVENTORY, 0.6) == "FOOD#QUALITY"

    def test_exact_member(self):
        assert self._map("SERVICE#GENERAL", RESTAURANT_INVENTORY, 0.6) == "SERVICE#GENERAL"
        assert similarity("service#general", "service#general") == 1.0

    def test_out_of_domain_candidate(self):
        best = max(gestalt_reference("battery", e.casefold()) for e in RESTAURANT_INVENTORY)
        assert best < 0.6
        assert self._map("battery", RESTAURANT_INVENTORY, 0.6) is None

    def test_case_fold_and_whitespace_collapse(self):
        assert self._map("  food   quality ", RESTAURANT_INVENTORY, 0.6) == "FOOD#QUALITY"

    def test_tie_breaks_to_earliest(self):
        inventory = PreparedInventory(["drinks", "drinkz"])
        assert _best_category("drinks", inventory) == ("drinks", 1.0)
        # equal similarity to both entries -> first position wins
        assert _best_category("drink#", inventory)[0] == "drinks"
        assert similarity("drink#", "drinks") == similarity("drink#", "drinkz")

    def test_returns_inventory_member_or_none(self):
        rng = random.Random(7)
        inventory = PreparedInventory(RESTAURANT_INVENTORY)
        for _ in range(100):
            candidate = "".join(rng.choice("abcdefgh #") for _ in range(rng.randrange(1, 12)))
            pairs, outcomes = canonicalize([RawPair(candidate, "positive")], inventory)
            got = outcomes[0].mapped
            assert got is None or got.category in RESTAURANT_INVENTORY
            assert pairs == ({got} if got is not None else set())

    def test_cutoff_validation(self):
        with pytest.raises(ValueError):
            self._map("food", RESTAURANT_INVENTORY, 1.5)
        # an empty inventory maps nothing: every pair falls below the cutoff
        assert _best_category("food", PreparedInventory([])) == (None, 0.0)
        assert self._map("food", [], 0.0) is None


class TestBestCategoryMatchesExhaustiveSearch:
    """The bound-pruned search picks the same entry with the same
    similarity float as scoring every entry."""

    def _check(self, candidate, inventory):
        got = _best_category(_fold(candidate), PreparedInventory(inventory))
        expected = _reference_best_category(candidate, inventory)
        assert got[0] == expected[0], (candidate, inventory)
        assert got[1] == expected[1], (candidate, inventory)  # the float itself

    def test_ties_break_to_earliest(self):
        self._check("drink#", ["drinks", "drinkz"])
        self._check("ab", ["ax", "xb", "ab "])
        # a later entry whose bound is above the best score but whose score equals it
        self._check("aba", ["bcbca", "bbbca"])
        rng = random.Random(11)
        for _ in range(500):  # a 3-letter alphabet makes equal scores common
            inventory = ["".join(rng.choice("abc") for _ in range(rng.randrange(1, 6))) for _ in range(8)]
            self._check("".join(rng.choice("abc") for _ in range(rng.randrange(1, 6))), inventory)

    def test_later_entry_with_equal_bound(self):
        # "abx" and "acb" share the LCS bound 4/6 and both score it: the
        # first is scored, and the other's bound equals the best score at a
        # later position
        self._check("abc", ["abx", "acb"])
        self._check("abc", ["acb", "abx"])
        self._check("ab", ["ab", "ba"])
        self._check("ab", ["ba", "ab"])
        self._check("aba", ["bca", "aab", "baa"])  # LCS 2 exceeds the matched 1 of "bca"
        rng = random.Random(17)
        for _ in range(500):  # anagrams of one base often share their bound
            base = "".join(rng.choice("abc#") for _ in range(rng.randrange(1, 6)))
            inventory = [
                "".join(rng.sample(base, len(base))) + rng.choice(("", "", "a", "b"))
                for _ in range(8)
            ]
            self._check("".join(rng.sample(base, len(base))), inventory)

    def test_later_entry_with_equal_bound_is_not_scored(self, monkeypatch):
        calls = []

        def counting_similarity(a, b):
            calls.append((a, b))
            return similarity(a, b)

        monkeypatch.setattr(postprocess, "similarity", counting_similarity)
        inventory = PreparedInventory(["food", "FOOD", " Food "])
        assert _best_category("foods", inventory) == ("food", similarity("foods", "food"))
        assert len(calls) == 1

    def test_scores_what_a_full_sort_scores(self, monkeypatch):
        # the search sorts only the entries whose bound reaches the first
        # score; the entries scored, and their order, are those of the
        # reference, which sorts them with bounds from the dynamic program
        scored = []

        def recording_similarity(a, b):
            scored.append(b)
            return similarity(a, b)

        monkeypatch.setattr(postprocess, "similarity", recording_similarity)
        rng = random.Random(19)
        cases = [(_laptop_style_candidate(rng), LAPTOP_STYLE_INVENTORY) for _ in range(300)]
        for _ in range(300):  # anagrams of one base often share their bound
            base = "".join(rng.choice("abc#") for _ in range(rng.randrange(1, 6)))
            inventory = ["".join(rng.sample(base, len(base))) + rng.choice(("", "a")) for _ in range(8)]
            cases.append(("".join(rng.sample(base, len(base))) + rng.choice(("", "b")), inventory))
        for candidate, inventory in cases:
            folded, prepared = _fold(candidate), PreparedInventory(inventory)
            if folded in prepared.exact:
                continue
            scored.clear()
            _best_category(folded, prepared)
            assert scored == _reference_scored(folded, [_fold(e) for e in inventory]), candidate

    def test_exact_hit_scores_nothing(self, monkeypatch):
        calls = []

        def counting_similarity(a, b):
            calls.append((a, b))
            return similarity(a, b)

        monkeypatch.setattr(postprocess, "similarity", counting_similarity)
        inventory = PreparedInventory(["drinks", " Food ", "food", "FOOD"])
        assert _best_category("food", inventory) == (" Food ", 1.0)
        assert _best_category("drinks", inventory) == ("drinks", 1.0)
        assert calls == []

    def test_duplicate_entries(self):
        rng = random.Random(12)
        for _ in range(300):
            base = ["".join(rng.choice("abcd #") for _ in range(rng.randrange(1, 8))) for _ in range(4)]
            inventory = [rng.choice((str.upper, str.lower, str))(rng.choice(base)) for _ in range(10)]
            self._check(rng.choice(base), inventory)
            self._check(_typo(rng, rng.choice(base)), inventory)
        self._check("food quality", ["FOOD#QUALITY", "food#quality", "FOOD#QUALITY"])

    def test_empty_and_whitespace_strings(self):
        blanks = ["", " ", "   ", "\t\n"]
        for candidate in blanks + ["a", "food"]:
            for inventory in (blanks, ["food", ""], ["", "food"], [" ", "a", "  "], ["food", "a"]):
                self._check(candidate, inventory)

    def test_candidates_longer_and_shorter_than_entries(self):
        rng = random.Random(13)
        for _ in range(300):
            inventory = [
                "".join(rng.choice("abcdefg_#") for _ in range(rng.randrange(3, 9))) for _ in range(12)
            ]
            short = "".join(rng.choice("abcdefg") for _ in range(rng.randrange(1, 3)))
            long = " ".join(rng.sample(inventory, 3)) + "".join(rng.choice("xyz") for _ in range(5))
            self._check(short, inventory)
            self._check(long, inventory)

    def test_lane_width_switch(self):
        rng = random.Random(20)
        for length in (7, 8, 63, 64, 255, 256, 5000):
            # a wider alphabet keeps the exhaustive reference quick at 5000
            alphabet = "ab#" if length < 1000 else string.ascii_lowercase + "#"
            long_entry = "".join(rng.choice(alphabet) for _ in range(length))
            inventory = ["a" * 40 + "b", long_entry, "ab#", _typo(rng, long_entry)]
            longest = max(len(_fold(entry)) for entry in inventory)
            assert PreparedInventory(inventory).width == longest + 1
            # a candidate holding the long entry has it all as its LCS
            self._check(long_entry + "ab#", inventory)
            self._check(_typo(rng, long_entry), inventory)
            self._check(long_entry[: length // 2], inventory)
            self._check("a" * 300 + "b" * 300, inventory)
            self._check("ab", inventory)

    def test_characters_in_no_entry(self):
        for candidate in ("xyz", "food xyz", "ü", "\x00", "qqqq"):
            self._check(candidate, RESTAURANT_INVENTORY)
            self._check(candidate, ["ab", "ba", "food"])

    def test_whitespace_only_entry(self):
        for inventory in (["food", "  \t "], ["\n", "food", " "], ["a", "b", "   "]):
            assert "" in PreparedInventory(inventory).exact
            for candidate in ("", " ", "food", "a", "x"):
                self._check(candidate, inventory)

    def test_laptop_style_inventory(self):
        assert len(LAPTOP_STYLE_INVENTORY) == 67
        rng = random.Random(14)
        for _ in range(400):
            self._check(_laptop_style_candidate(rng), LAPTOP_STYLE_INVENTORY)

    def test_canonicalize_outcomes_match_reference(self):
        rng = random.Random(15)
        raw = [RawPair(_laptop_style_candidate(rng), "positive") for _ in range(100)]
        _, outcomes = canonicalize(raw, PreparedInventory(LAPTOP_STYLE_INVENTORY))
        for pair, outcome in zip(raw, outcomes):
            entry, score = _reference_best_category(pair.category_text, LAPTOP_STYLE_INVENTORY)
            assert outcome.similarity == score
            if outcome.mapped is not None:
                assert outcome.mapped.category == entry


class TestPackedLanes:
    """Each lane of one packed pass over a multi-entry inventory holds
    the LCS of the candidate and that lane's entry."""

    ALPHABET = "aAbBcß#_-/: "

    @staticmethod
    def _check(candidate, inventory):
        expected = [_reference_lcs(candidate, text) for _, text in inventory.entries]
        assert _lcs_lengths(candidate, inventory) == expected, candidate

    def test_seeded_random_strings(self):
        rng = random.Random(21)
        for _ in range(1000):
            inventory = PreparedInventory(
                "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 30)))
                for _ in range(rng.randrange(1, 12))
            )
            candidate = "".join(rng.choice(self.ALPHABET + "xyz") for _ in range(rng.randrange(0, 40)))
            candidate = _fold(candidate)
            self._check(candidate, inventory)

    def test_wide_lanes(self):
        rng = random.Random(22)
        for length in (7, 8, 63, 64, 255, 256, 300, 5000):
            # the longest entry sits between two others, so a carry out of
            # its positions would reach the next lane without a guard bit
            entries = ["a", "".join(rng.choice("ab") for _ in range(length)), "b" * 3]
            inventory = PreparedInventory(entries)
            # the first two are the long entry itself up to 64 characters
            for candidate in (entries[1][:64], entries[1][-64:], "ab" * 32, "xyz"):
                self._check(candidate, inventory)

    def test_laptop_style_inventory(self):
        rng = random.Random(23)
        inventory = PreparedInventory(LAPTOP_STYLE_INVENTORY)
        for _ in range(300):
            candidate = _fold(_laptop_style_candidate(rng))
            self._check(candidate, inventory)


class TestLcsLength:
    """The packed LCS of one entry equals the dynamic program, and its
    ratio bounds the similarity from above."""

    ALPHABET = "aAbBß#_-/: "

    def _check(self, candidate, entry):
        inventory = PreparedInventory([entry])
        ((_, text),) = inventory.entries
        folded = _fold(candidate)
        (got,) = _lcs_lengths(folded, inventory)
        assert got == _reference_lcs(folded, text), (candidate, entry)
        total = len(folded) + len(text)
        if total:
            assert 2.0 * got / total >= similarity(folded, text), (candidate, entry)

    def test_empty_strings(self):
        for a, b in (("", ""), ("", "abc"), ("abc", ""), ("   ", "a"), ("a", "\t ")):
            self._check(a, b)

    def test_repeated_characters(self):
        pairs = (("aaaa", "aa"), ("aa", "aaaa"), ("abab", "baba"), ("aabb", "bbaa"), ("#" * 9, "#_#"))
        for a, b in pairs:
            self._check(a, b)

    def test_case_folds_that_change_length(self):
        pairs = (("Straße", "STRASSE"), ("STRASSE", "straße"), ("ßß", "ss"), ("ﬁle", "FILE"), ("İx", "ix"))
        for a, b in pairs:
            assert len(_fold(a)) != len(a) or len(_fold(b)) != len(b)
            self._check(a, b)

    def test_seeded_random_strings(self):
        rng = random.Random(18)
        for _ in range(1000):
            # lengths up to 79 take the bit vectors past 64 bits
            a = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 80)))
            b = "".join(rng.choice(self.ALPHABET) for _ in range(rng.randrange(0, 80)))
            self._check(a, b)

    def test_laptop_style_candidates(self):
        rng = random.Random(19)
        for _ in range(300):
            self._check(_laptop_style_candidate(rng), rng.choice(LAPTOP_STYLE_INVENTORY))


class TestCanonicalizeThreads:
    def test_concurrent_calls_match_serial(self):
        rng = random.Random(16)
        labels = ["positive", "Negative", "netural", "mixed"]
        raw = [RawPair(_laptop_style_candidate(rng), rng.choice(labels)) for _ in range(60)]
        inventory = PreparedInventory(LAPTOP_STYLE_INVENTORY)
        serial = canonicalize(raw, inventory)
        threads = 8
        barrier = threading.Barrier(threads)

        def work(_):
            barrier.wait()
            return [canonicalize(raw, inventory) for _ in range(3)]

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, range(threads)))
        for per_thread in results:
            for pairs, outcomes in per_thread:
                assert pairs == serial[0]
                assert outcomes == serial[1]


class TestNormalizePolarity:
    def test_case_fold(self):
        assert normalize_polarity("Positive") is Polarity.POSITIVE
        assert normalize_polarity("  NEGATIVE ") is Polarity.NEGATIVE

    def test_misspelling(self):
        assert normalize_polarity("negtive") is Polarity.NEGATIVE

    def test_unmappable(self):
        best = max(gestalt_reference("mixed", label) for label in ("positive", "neutral", "negative"))
        assert best < 0.6
        assert normalize_polarity("mixed") is None

    def test_neutral_variant(self):
        assert normalize_polarity("netural") is Polarity.NEUTRAL

    def test_matches_exhaustive_search(self):
        labels = ("positive", "neutral", "negative")

        def reference(text, cutoff):
            folded = text.strip().casefold()
            best, best_score = None, -1.0
            for label in labels:
                score = similarity(folded, label)
                if score > best_score:
                    best, best_score = label, score
            return Polarity(best) if best_score >= cutoff else None

        rng = random.Random(32)
        for _ in range(1000):
            text = rng.choice(labels + ("mixed", "", "pos itive", "NEG  ative", "conflict"))
            for _ in range(rng.randrange(0, 3)):
                text = _typo(rng, text)
            cutoff = rng.choice((0.0, 0.3, DEFAULT_CUTOFF, 0.8, 1.0))
            assert normalize_polarity(text, cutoff) is reference(text, cutoff), (text, cutoff)


class TestCanonicalize:
    def test_maps_and_dedups(self):
        raw = [
            RawPair("food quality", "positive"),
            RawPair("FOOD#QUALITY", "Positive"),
            RawPair("service", "negative"),
        ]
        pairs, outcomes = canonicalize(raw, PreparedInventory(RESTAURANT_INVENTORY))
        assert pairs == frozenset(
            {
                Pair("FOOD#QUALITY", Polarity.POSITIVE),
                Pair("SERVICE#GENERAL", Polarity.NEGATIVE),
            }
        )
        assert len(outcomes) == 3
        assert all(o.mapped is not None for o in outcomes)

    def test_drop_reasons(self):
        raw = [RawPair("battery", "positive"), RawPair("food quality", "mixed")]
        pairs, outcomes = canonicalize(raw, PreparedInventory(RESTAURANT_INVENTORY))
        assert pairs == frozenset()
        assert outcomes[0].dropped_reason == "below-cutoff"
        assert outcomes[1].dropped_reason == "bad-polarity"
        assert outcomes[1].similarity >= DEFAULT_CUTOFF

    def test_output_never_larger_than_input(self):
        rng = random.Random(31)
        labels = ["positive", "neutral", "negative", "mixed", "positve"]
        for _ in range(50):
            raw = [
                RawPair(
                    "".join(rng.choice("abcdefgh #") for _ in range(rng.randrange(1, 10))),
                    rng.choice(labels),
                )
                for _ in range(rng.randrange(0, 6))
            ]
            pairs, outcomes = canonicalize(raw, PreparedInventory(RESTAURANT_INVENTORY))
            assert len(pairs) <= len(raw)
            assert len(outcomes) == len(raw)

    def test_outcome_exclusivity_enforced(self):
        with pytest.raises(ValueError):
            MappingOutcome(RawPair("a", "b"), None, 0.5, None)
        with pytest.raises(ValueError):
            MappingOutcome(
                RawPair("a", "b"),
                Pair("x", Polarity.POSITIVE),
                1.0,
                "below-cutoff",
            )
