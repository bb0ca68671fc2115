"""Shared test utilities: random graph generation and independent oracles.

Everything here is deliberately written against the raw definitions (no
calls into the implementation paths it checks): the gestalt reference
recurses on longest matching blocks directly, the F tail integrates the
density by adaptive quadrature, the graph renderer emits Penman text
straight from a generated structure, and the list reference scans an
answer character by character.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from acsa_harness.umr import Const, Edge, Ref, UmrGraph

CONCEPTS = (
    "thing", "event", "person", "city", "taste-01", "have-attribute-91",
    "and", "or", "publication-91", "temperature", "resemble-91",
)
ROLES = (
    "ARG0", "ARG1", "ARG2", "op1", "op2", "mod", "aspect", "temporal",
    "quant", "name", "manner",
)
SYMBOLS = ("state", "habitual", "full-affirmative", "imperative", "-", "3", "2024", "performance")
_STRING_CHARS = "abcdefgh XYZ012.,!?'"


def random_graph(rng, max_depth: int = 4, allow_strings: bool = True) -> UmrGraph:
    """A random well-formed graph of nesting depth <= max_depth."""
    counter = itertools.count(1)
    nodes: dict[str, str] = {}
    edges: list = []

    def new_var() -> str:
        return f"{rng.choice('abcdefghijklmnopqrstuvwxyz')}{next(counter)}"

    def build(depth: int) -> str:
        var = new_var()
        nodes[var] = rng.choice(CONCEPTS)
        n_children = rng.randint(0, 3) if depth < max_depth else 0
        for _ in range(n_children):
            role = rng.choice(ROLES)
            roll = rng.random()
            if roll < 0.55 and depth < max_depth:
                slot = len(edges)
                edges.append(None)
                child = build(depth + 1)
                edges[slot] = Edge(var, role, Ref(child))
            elif roll < 0.75 and allow_strings:
                value = "".join(rng.choice(_STRING_CHARS) for _ in range(rng.randrange(0, 8)))
                if rng.random() < 0.3:
                    value += rng.choice(['"', "\\", '\\"', 'a"b'])
                edges.append(Edge(var, role, Const(value, "string")))
            else:
                edges.append(Edge(var, role, Const(rng.choice(SYMBOLS), "symbol")))
        return var

    root = build(1)
    variables = list(nodes)
    for _ in range(rng.randint(0, 2)):
        edges.append(Edge(rng.choice(variables), rng.choice(ROLES), Ref(rng.choice(variables))))
    return UmrGraph(root, nodes, tuple(e for e in edges if e is not None))


def structurally_equal(a: UmrGraph, b: UmrGraph) -> bool:
    """Same root, same variable->concept map, same edge multiset.

    Edge order is a serialization artifact, so it is ignored here.
    """
    return a.root == b.root and a.nodes == b.nodes and Counter(a.edges) == Counter(b.edges)


def render_random(rng, graph: UmrGraph) -> str:
    """Emit Penman text for the graph with randomized formatting.

    Independent of serialize_graph: whitespace, indentation, and slash
    spacing are randomized, so parsing the result back must recover the
    generator's structure regardless of layout.
    """
    outgoing = {var: [] for var in graph.nodes}
    for edge in graph.edges:
        outgoing[edge.source].append(edge)
    emitted: set[str] = set()

    def ws() -> str:
        return rng.choice([" ", "  ", "\n", "\n    ", " \t ", "\n\t"])

    def render_node(var: str) -> str:
        emitted.add(var)
        slash = rng.choice(["/", " / ", " /", "/ ", f"{ws()}/{ws()}"])
        parts = [f"({var}{slash}{graph.nodes[var]}"]
        for edge in outgoing[var]:
            parts.append(f"{ws()}:{edge.role}{ws()}{render_target(edge.target)}")
        parts.append(rng.choice([")", " )", "\n)"]))
        return "".join(parts)

    def render_target(target) -> str:
        if isinstance(target, Const):
            if target.kind == "string":
                escaped = target.value.replace("\\", "\\\\").replace('"', '\\"')
                return f'"{escaped}"'
            return target.value
        if target.var in emitted:
            return target.var
        return render_node(target.var)

    return render_node(graph.root)


# ---------------------------------------------------------------------------
# Gestalt similarity reference


def ro_longest_block(a: str, b: str) -> tuple[int, int, int]:
    """Longest common block; ties break to smallest i, then smallest j."""
    best_k = best_i = best_j = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best_k:
                best_k, best_i, best_j = k, i, j
    return best_k, best_i, best_j


def ro_matched_total(a: str, b: str) -> int:
    k, i, j = ro_longest_block(a, b)
    if k == 0:
        return 0
    return k + ro_matched_total(a[:i], b[:j]) + ro_matched_total(a[i + k :], b[j + k :])


def gestalt_reference(a: str, b: str) -> float:
    """Brute-force Ratcliff/Obershelp ratio with the canonical role order."""
    x, y = sorted((a, b), key=lambda s: (len(s), s))
    total = len(x) + len(y)
    if total == 0:
        return 1.0
    return 2.0 * ro_matched_total(x, y) / total


# ---------------------------------------------------------------------------
# F-distribution tail reference


def f_density(t: float, d1: int, d2: int) -> float:
    if t <= 0.0:
        return 0.0
    log_c = (
        math.lgamma((d1 + d2) / 2.0)
        - math.lgamma(d1 / 2.0)
        - math.lgamma(d2 / 2.0)
        + (d1 / 2.0) * math.log(d1 / d2)
    )
    log_pdf = log_c + (d1 / 2.0 - 1.0) * math.log(t) - ((d1 + d2) / 2.0) * math.log1p(d1 * t / d2)
    return math.exp(log_pdf)


def f_upper_tail_quadrature(f_stat: float, d1: int, d2: int) -> float:
    """Adaptive quadrature of the F density over (f_stat, inf)."""
    from scipy import integrate

    if f_stat <= 0.0:
        return 1.0
    value, _ = integrate.quad(
        f_density, f_stat, math.inf, args=(d1, d2), epsabs=1e-12, epsrel=1e-12, limit=300
    )
    return value


# ---------------------------------------------------------------------------
# Answer-list reference: a hand-written scanner for the list grammar that
# ``postprocess`` states as regular expressions

_LIST_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "\\": "\\", "'": "'", '"': '"'}


class _Scanner:
    __slots__ = ("text", "pos", "end")

    def __init__(self, text: str, pos: int):
        self.text = text
        self.pos = pos
        self.end = len(text)

    def skip_ws(self) -> None:
        while self.pos < self.end and self.text[self.pos] in " \t\r\n":
            self.pos += 1

    def peek(self) -> str:
        if self.pos < self.end:
            return self.text[self.pos]
        return ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False


def _scan_quoted(sc: _Scanner) -> str | None:
    quote = sc.peek()
    if quote not in "'\"":
        return None
    sc.pos += 1
    out: list[str] = []
    while sc.pos < sc.end:
        ch = sc.text[sc.pos]
        if ch == "\\" and sc.pos + 1 < sc.end:
            nxt = sc.text[sc.pos + 1]
            if nxt in _LIST_ESCAPES:
                out.append(_LIST_ESCAPES[nxt])
            else:
                out.append(ch)
                out.append(nxt)
            sc.pos += 2
            continue
        if ch == quote:
            sc.pos += 1
            return "".join(out)
        if ch == "\n":
            return None  # a quoted element never spans lines
        out.append(ch)
        sc.pos += 1
    return None


def _scan_tuple(sc: _Scanner) -> tuple[str, str] | None:
    if not sc.take("("):
        return None
    sc.skip_ws()
    first = _scan_quoted(sc)
    if first is None:
        return None
    sc.skip_ws()
    if not sc.take(","):
        return None
    sc.skip_ws()
    second = _scan_quoted(sc)
    if second is None:
        return None
    sc.skip_ws()
    if sc.take(","):  # tolerated trailing comma inside the tuple
        sc.skip_ws()
    if not sc.take(")"):
        return None
    return first, second


def scan_list_reference(text: str, start: int) -> tuple[list[tuple[str, str]], int] | None:
    """Try to read a list of quoted 2-tuples beginning at text[start] == '['.

    Tolerates single or double quotes, trailing commas, internal
    whitespace/newlines, and a literal ``...`` element (the templates'
    own example lists end with one).
    """
    sc = _Scanner(text, start + 1)
    sc.skip_ws()
    items: list[tuple[str, str]] = []
    if sc.take("]"):
        return items, sc.pos
    while True:
        sc.skip_ws()
        if sc.text.startswith("...", sc.pos):
            sc.pos += 3
        else:
            item = _scan_tuple(sc)
            if item is None:
                return None
            items.append(item)
        sc.skip_ws()
        if sc.take(","):
            sc.skip_ws()
            if sc.take("]"):
                return items, sc.pos
            continue
        if sc.take("]"):
            return items, sc.pos
        return None
