"""Turn raw LLM text into canonical (category, polarity) pairs.

The pipeline is: find the last well-formed Python-style list of quoted
2-tuples in the output, then fuzzy-map each category onto the official
inventory and normalize each polarity label, dropping anything that
cannot be mapped. Every mapping decision is kept for audit.

The list grammar is regular, so one regular expression (``_LIST``)
states it: tokens are separated only by space, tab, CR and LF; an
element is a 2-tuple of single- or double-quoted strings or a literal
``...``; a comma may trail inside a tuple and inside the list; ``[]``
is a list. A quoted string never holds a bare newline, and a backslash
escapes the character after it, a newline included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .datasets import Pair, Polarity, _fold

DEFAULT_CUTOFF = 0.6

_POLARITY_LABELS = ("positive", "neutral", "negative")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}


class NoListFound(Exception):
    """No well-formed list of pairs occurs anywhere in the output.

    Distinct from an explicit empty list: this signals a format failure
    and is scored as zero predictions while being counted in the run
    manifest.
    """


@dataclass(frozen=True)
class RawPair:
    """A pair exactly as the model wrote it, before any mapping."""

    category_text: str
    polarity_text: str


@dataclass(frozen=True)
class MappingOutcome:
    """Audit record for one raw pair: either mapped or dropped with a reason."""

    raw: RawPair
    mapped: Pair | None
    similarity: float
    dropped_reason: str | None = None  # "below-cutoff" | "bad-polarity"

    def __post_init__(self):
        if (self.mapped is None) == (self.dropped_reason is None):
            raise ValueError("exactly one of mapped/dropped_reason must be set")


# ---------------------------------------------------------------------------
# List extraction


# a quoted string, quotes included, with no bare newline; compiled with
# DOTALL, a backslash pairs with whatever character follows, a newline too
_QUOTED = r"'(?:[^'\\\n]|\\.)*'" "|" r'"(?:[^"\\\n]|\\.)*"'
_WS = r"[ \t\r\n]*"
_TUPLE = re.compile(
    rf"\({_WS}({_QUOTED}){_WS},{_WS}({_QUOTED}){_WS}(?:,{_WS})?\)", re.DOTALL
)
# the templates' own example lists end with a literal ``...`` element
_ELEMENT = rf"(?:\.\.\.|{_TUPLE.pattern})"
_LIST = re.compile(
    rf"\[{_WS}(?:\]|{_ELEMENT}{_WS}(?:,{_WS}{_ELEMENT}{_WS})*(?:,{_WS})?\])", re.DOTALL
)
_ESCAPE = re.compile(r"\\(.)")


def _unquote(quoted: str) -> str:
    return _ESCAPE.sub(lambda m: _ESCAPES.get(m[1], m[0]), quoted[1:-1])


def extract_pair_list(raw_output: str) -> list[RawPair]:
    """Extract the last well-formed list of pairs from arbitrary text.

    Chain-of-thought outputs end with the final answer, so the last
    occurrence wins: ``[`` positions are tried from the end of the text
    and the first one that starts a well-formed list is taken, which is
    the list with the highest start of all that parse. An explicit ``[]``
    yields an empty list; no well-formed list at all raises NoListFound.
    """
    start = raw_output.rfind("[")
    while start >= 0:
        found = _LIST.match(raw_output, start)
        if found is not None:
            break
        start = raw_output.rfind("[", 0, start)
    else:
        raise NoListFound("no well-formed list of (category, polarity) tuples in output")
    pairs = []
    for cat, pol in _TUPLE.findall(raw_output, start, found.end()):
        cat, pol = _unquote(cat).strip(), _unquote(pol).strip()
        if cat and pol:
            pairs.append(RawPair(cat, pol))
    return pairs


# ---------------------------------------------------------------------------
# Similarity and mapping


def similarity(a: str, b: str) -> float:
    """Gestalt (Ratcliff/Obershelp) ratio 2*M/(|a|+|b|) in [0, 1].

    M counts characters in the recursive longest-matching-block
    decomposition with no junk heuristic (``_matched``): the blocks and
    the float are those of difflib's ``SequenceMatcher(None, a, b,
    autojunk=False).ratio()``. The classical decomposition depends on
    argument order, so the two strings are put into a canonical order
    (by length, then lexicographically) before matching; that makes the
    function symmetric without changing the ratio for equal-role cases
    like spelling variants.
    """
    if (len(b), b) < (len(a), a):
        a, b = b, a
    length = len(a) + len(b)
    if not length:
        return 1.0
    positions: dict[str, list[int]] = {}
    for j, ch in enumerate(b):
        positions.setdefault(ch, []).append(j)
    return 2.0 * _matched(a, positions, (0, len(a), 0, len(b))) / length


def _matched(a: str, positions: dict[str, list[int]], window) -> int:
    """Characters matched when ``a[alo:ahi]`` and ``b[blo:bhi]``, for the
    ``window`` (alo, ahi, blo, bhi), are split at their longest common
    block, and the parts left and right of it likewise; ``b`` is given
    by the ascending ``positions`` of each of its characters.

    The longest block is the first one found scanning ``i`` then ``j``
    ascending, as difflib's ``find_longest_match`` keeps it, so the
    blocks are difflib's with no junk. A stack of windows replaces the
    recursion, whose depth grows with the number of blocks.
    """
    matched = 0
    stack = [window]
    while stack:
        alo, ahi, blo, bhi = stack.pop()
        besti = bestj = size = 0
        # ending[j]: length of the common block that ends at a[i - 1] and b[j]
        ending: dict[int, int] = {}
        for i in range(alo, ahi):
            here = {}
            for j in positions.get(a[i], ()):
                if j < blo:
                    continue
                if j >= bhi:
                    break
                k = here[j] = ending.get(j - 1, 0) + 1
                if k > size:
                    besti, bestj, size = i - k + 1, j - k + 1, k
            ending = here
        if size:
            matched += size
            if alo < besti and blo < bestj:
                stack.append((alo, besti, blo, bestj))
            if besti + size < ahi and bestj + size < bhi:
                stack.append((besti + size, ahi, bestj + size, bhi))
    return matched


class PreparedInventory:
    """An inventory prepared once for the fuzzy search.

    Each entry is kept with its folded spelling, and ``exact`` maps each
    folded spelling to the position of its first entry.

    For the LCS bound, the entries lie side by side in one integer per
    character: lane i, the ``width`` bits from bit ``i * width`` up,
    belongs to entry i, and ``masks[ch]`` holds in each lane the
    positions of ``ch`` in that entry. ``full`` holds in lane i the
    ones of all of entry i's positions. Every lane is at least one bit
    wider than the longest folded entry, so a carry out of an entry's
    positions stops in its own lane, on a bit ``full`` clears.

    A run prepares its category inventory once; nothing changes it
    afterwards, so one instance can be shared across threads.
    """

    __slots__ = ("entries", "lengths", "exact", "masks", "full", "width")

    def __init__(self, inventory):
        self.entries = tuple((entry, _fold(entry)) for entry in inventory)
        self.lengths = tuple(len(text) for _, text in self.entries)
        self.width = max(self.lengths, default=0) + 1
        self.exact: dict[str, int] = {}
        self.masks: dict[str, int] = {}
        self.full = 0
        for index, (_, text) in enumerate(self.entries):
            self.exact.setdefault(text, index)
            shift = index * self.width
            self.full |= ((1 << len(text)) - 1) << shift
            for i, ch in enumerate(text, shift):
                self.masks[ch] = self.masks.get(ch, 0) | 1 << i


def _lcs_lengths(folded: str, inventory: PreparedInventory) -> list[int]:
    """Per entry, the length of the longest common subsequence of
    ``folded`` and the entry's folded spelling, from one pass over
    ``folded`` for all entries at once.

    Bit-parallel (Allison & Dix 1986; Hyyrö 2004): in each lane, ``v``
    encodes one row of the LCS dynamic program, a zero at a position of
    the entry marking where the row steps up by one, so the LCS is the
    number of zeros. Each lane stays exact: ``u`` is a subset of ``v``,
    so ``v - u`` never borrows, and a carry of ``v + u`` out of the
    entry's positions ends on the lane's next bit, which ``full``
    clears.
    """
    masks, full = inventory.masks, inventory.full
    v = full
    for ch in folded:
        mask = masks.get(ch)
        if mask:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    steps = full ^ v
    width = inventory.width
    lane = (1 << width) - 1
    return [
        (steps >> shift & lane).bit_count()
        for shift in range(0, width * len(inventory.entries), width)
    ]


def _best_category(folded: str, inventory: PreparedInventory) -> tuple[str | None, float]:
    """The earliest entry whose folded spelling is most similar to the
    already folded ``folded``, and that similarity.

    The ratio is 1.0 only for identical strings, so a candidate equal to
    a folded entry returns the first such entry at 1.0 from
    ``inventory.exact``, before any bound is computed: the answer
    scoring every entry gives.

    Otherwise, best-first search over an upper bound on the ratio
    2*M/(|a|+|b|) that puts the length of the two strings' longest
    common subsequence in place of M: the matched blocks appear in the
    same order in both strings, so M <= LCS. The bound uses the ratio's
    own float expression, so it is never below the ratio, and it is read
    for all entries at once from the inventory's packed lanes
    (``_lcs_lengths``). |a|+|b| is never 0 here: "" against an entry
    folded to "" is an exact hit.

    The first entry of highest bound is scored first; the others are
    visited by descending bound, then by inventory position. A score
    replaces the best when it is greater, or equal at an earlier
    position. The search stops at the first entry whose bound is below
    the best score, since every later one is bounded by it, and skips an
    entry whose bound equals the best score at a later position, since
    it could at most tie and lose. So the chosen entry, its score and
    the earliest-position tie-break are exactly those of scoring every
    entry.
    """
    entries = inventory.entries
    hit = inventory.exact.get(folded)
    if hit is not None:
        return entries[hit][0], 1.0
    size = len(folded)
    bounds = [
        2.0 * common / (size + length)
        for common, length in zip(_lcs_lengths(folded, inventory), inventory.lengths)
    ]
    if not bounds:
        return None, 0.0
    best_index = bounds.index(max(bounds))
    best, text = entries[best_index]
    best_score = similarity(folded, text)
    order = sorted(
        (-bound, index)
        for index, bound in enumerate(bounds)
        if bound >= best_score and index != best_index
    )
    for negated_bound, index in order:
        bound = -negated_bound
        if bound < best_score:
            break
        if bound == best_score and index > best_index:
            continue
        entry, text = entries[index]
        score = similarity(folded, text)
        if score > best_score or (score == best_score and index < best_index):
            best, best_score, best_index = entry, score, index
    return best, best_score


_PREPARED_POLARITY_LABELS = PreparedInventory(_POLARITY_LABELS)


def normalize_polarity(text: str, cutoff: float = DEFAULT_CUTOFF) -> Polarity | None:
    """Map free-text polarity onto the three labels, fuzzily below exactness."""
    label, score = _best_category(text.strip().casefold(), _PREPARED_POLARITY_LABELS)
    if score >= cutoff:
        return Polarity(label)
    return None


def canonicalize(
    raw_pairs, inventory: PreparedInventory, cutoff: float = DEFAULT_CUTOFF
) -> tuple[frozenset[Pair], list[MappingOutcome]]:
    """Map raw pairs onto the prepared inventory, dropping what cannot be mapped.

    Returns the deduplicated pair set plus one MappingOutcome per input
    pair, preserving full provenance for the results file.
    """
    if not 0.0 <= cutoff <= 1.0:
        raise ValueError(f"cutoff must be in [0, 1], got {cutoff}")
    outcomes: list[MappingOutcome] = []
    mapped: list[Pair] = []
    for raw in raw_pairs:
        entry, score = _best_category(_fold(raw.category_text), inventory)
        if entry is None or score < cutoff:
            outcomes.append(MappingOutcome(raw, None, score, "below-cutoff"))
            continue
        polarity = normalize_polarity(raw.polarity_text, cutoff)
        if polarity is None:
            outcomes.append(MappingOutcome(raw, None, score, "bad-polarity"))
            continue
        pair = Pair(entry, polarity)
        mapped.append(pair)
        outcomes.append(MappingOutcome(raw, pair, score))
    return frozenset(mapped), outcomes
