"""Shared test utilities: random graph generation, independent oracles,
and the files of the committed replay grid.

Apart from ``load_document``, ``GRID_DIGESTS``, ``e2e_grid_toml`` and
``count_parses`` at the end, a loader, the replay grid's pins, a file
builder and a parse counter, everything
here is deliberately written against the raw definitions (no calls
into the implementation paths it checks): the gestalt reference recurses
on longest matching blocks directly, the F tail integrates the density
by adaptive quadrature, the graph renderer emits Penman text straight
from a generated structure, and the list and UMR references scan their
text character by character.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from acsa_harness.umr import (
    Const,
    DanglingReference,
    DocumentFormatError,
    DuplicateVariable,
    Edge,
    EmptyInput,
    MissingConceptSlash,
    NoEntriesFound,
    Ref,
    UmrDocument,
    UmrGraph,
    UmrParseError,
    UnbalancedParens,
    UnterminatedString,
    parse_document,
)

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


_GRAPH_PIECES = (
    "(", ")", "/", "(x / thing", ":", ":ARG0", ":op1", '"', '"a b"', '"(x"', "\\", "x", "x1", "s1p2",
    "thing", "-", " ", "\n", "\t", "\r",
)
_MUTATION_CHARS = '()/:" \\\n\t\rax1-\u00e9\f'
_DOC_LEVEL_BLOCK = """# document level annotation:
(s1s0 / sentence
  :temporal ((s1d0 / document-creation-time)))"""


def mutate_once(rng, text: str) -> str:
    """Delete, insert or replace one character at a random offset."""
    i = rng.randrange(len(text) + 1)
    ch = rng.choice(_MUTATION_CHARS)
    op = rng.randrange(3)
    if op == 1 or i == len(text):
        return text[:i] + ch + text[i:]
    return text[:i] + ("" if op == 0 else ch) + text[i + 1 :]


def random_umr_document(rng) -> str:
    """Corpus-style document text: markers, optional anchors, alignment
    and document-level blocks around randomly rendered graphs."""
    parts = ["# meta-info :: file = demo"]
    for k in range(1, rng.randint(1, 3) + 1):
        lines = [rng.choice([f"# :: snt{k}\tSentence {k}.", f"::snt Sentence {k}."])]
        if rng.random() < 0.5:
            lines.append(f"Words: Sentence {k} .")
        if rng.random() < 0.7:
            lines.append("# sentence level graph:")
        lines.append(render_random(rng, random_graph(rng, max_depth=3)))
        if rng.random() < 0.7:
            lines += ["", "# alignment:", f"s{k}h: 0-0"]
        if rng.random() < 0.5:
            lines += ["", _DOC_LEVEL_BLOCK]
        parts.append("\n".join(lines))
    return "\n\n".join(parts) + "\n"


def umr_parser_inputs(rng, n: int):
    """Yield n (is_document, text) inputs for a differential test of the
    UMR parser: rendered graphs, junk from graph-shaped pieces and
    corpus-style documents, each also as a one-character mutant."""
    for i in range(n):
        roll = i % 4
        if roll == 0:
            text, is_document = render_random(rng, random_graph(rng)), False
        elif roll == 1:
            pieces = rng.choices(_GRAPH_PIECES, k=rng.randrange(12))
            text, is_document = "".join(pieces), False
        elif roll == 2:
            text, is_document = random_umr_document(rng), True
        else:  # a graph or junk as the only entry of a document
            graph = render_random(rng, random_graph(rng, max_depth=2))
            text, is_document = "::snt One.\n" + mutate_once(rng, graph), True
        yield is_document, text
        yield is_document, mutate_once(rng, text)


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


# ---------------------------------------------------------------------------
# UMR graph reference: the character-by-character tokenizer, the
# lookahead parser and the paren scanner that ``umr`` replaced with one
# token pattern


@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "/", "role", "string", "atom"
    value: str
    line: int
    col: int


_DELIMS = frozenset(' \t\r\n()/":')

# Tokens shaped like graph variables: one lowercase letter plus optional
# digits (classic Penman), or letters+digits+trailing alphanumerics (UMR
# sentence variables such as s1p2). Bare value tokens of this shape must
# resolve to an introduced variable; anything else is a symbol constant.
_VAR_SHAPED = re.compile(r"(?:[a-z][0-9]*|[a-z]+[0-9]+[a-z0-9]*)\Z")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_line, start_col = line, col
        if ch in "()/":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        if ch == '"':
            i += 1
            col += 1
            buf: list[str] = []
            while True:
                if i >= n:
                    raise UnterminatedString("unterminated string constant", start_line, start_col)
                c = text[i]
                if c == "\\" and i + 1 < n and text[i + 1] in '\\"':
                    buf.append(text[i + 1])
                    i += 2
                    col += 2
                    continue
                if c == '"':
                    i += 1
                    col += 1
                    break
                if c == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
                buf.append(c)
                i += 1
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        if ch == ":":
            j = i + 1
            while j < n and text[j] not in _DELIMS:
                j += 1
            name = text[i + 1 : j]
            if not name:
                raise UmrParseError("empty role label", start_line, start_col)
            col += j - i
            i = j
            tokens.append(_Token("role", name, start_line, start_col))
            continue
        j = i
        while j < n and text[j] not in _DELIMS:
            j += 1
        tokens.append(_Token("atom", text[i:j], start_line, start_col))
        col += j - i
        i = j
    return tokens


class _Pending:
    """Unquoted value token whose variable-vs-symbol status is resolved last."""

    __slots__ = ("value", "line", "col")

    def __init__(self, value: str, line: int, col: int):
        self.value = value
        self.line = line
        self.col = col


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nodes: dict[str, str] = {}
        self.raw_edges: list = []

    def peek(self) -> _Token | None:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def advance(self) -> _Token | None:
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def parse_node(self) -> str:
        opener = self.advance()
        if opener is None or opener.kind != "(":
            where = opener or self._eof()
            raise UnbalancedParens("expected '('", where.line, where.col)
        var_tok = self.advance()
        if var_tok is None:
            raise UnbalancedParens("unexpected end of input after '('", opener.line, opener.col)
        if var_tok.kind != "atom":
            raise UmrParseError(
                f"expected a variable name after '(', got {var_tok.value!r}",
                var_tok.line,
                var_tok.col,
            )
        var = var_tok.value
        if var in self.nodes:
            raise DuplicateVariable(
                f"variable {var!r} introduced more than once", var_tok.line, var_tok.col
            )
        slash = self.advance()
        if slash is None:
            raise UnbalancedParens("unexpected end of input inside node", var_tok.line, var_tok.col)
        if slash.kind != "/":
            raise MissingConceptSlash(
                f"expected '/' after variable {var!r}", slash.line, slash.col
            )
        concept_tok = self.advance()
        if concept_tok is None:
            raise UnbalancedParens("unexpected end of input after '/'", slash.line, slash.col)
        if concept_tok.kind != "atom":
            raise UmrParseError(
                f"expected a concept label after '/', got {concept_tok.value!r}",
                concept_tok.line,
                concept_tok.col,
            )
        self.nodes[var] = concept_tok.value
        while True:
            tok = self.peek()
            if tok is None:
                raise UnbalancedParens(
                    f"unexpected end of input: node {var!r} is never closed",
                    concept_tok.line,
                    concept_tok.col,
                )
            if tok.kind == ")":
                self.advance()
                return var
            if tok.kind == "role":
                self.advance()
                self._parse_value(var, tok)
                continue
            raise UmrParseError(
                f"expected a role or ')' inside node {var!r}, got {tok.value!r}",
                tok.line,
                tok.col,
            )

    def _parse_value(self, source: str, role_tok: _Token) -> None:
        tok = self.peek()
        if tok is None:
            raise UnbalancedParens(
                f"unexpected end of input after role :{role_tok.value}",
                role_tok.line,
                role_tok.col,
            )
        if tok.kind == "(":
            slot = len(self.raw_edges)
            self.raw_edges.append(None)
            child = self.parse_node()
            self.raw_edges[slot] = (source, role_tok.value, Ref(child))
            return
        if tok.kind == "string":
            self.advance()
            self.raw_edges.append((source, role_tok.value, Const(tok.value, "string")))
            return
        if tok.kind == "atom":
            self.advance()
            self.raw_edges.append((source, role_tok.value, _Pending(tok.value, tok.line, tok.col)))
            return
        raise UmrParseError(
            f"expected a value after role :{role_tok.value}, got {tok.value!r}",
            tok.line,
            tok.col,
        )

    def _eof(self) -> _Token:
        if self.tokens:
            last = self.tokens[-1]
            return _Token("eof", "", last.line, last.col)
        return _Token("eof", "", 1, 1)


def parse_graph_reference(text: str) -> UmrGraph:
    """Parse one parenthesized Penman expression into a UmrGraph.

    Unquoted value tokens resolve to variable references when the variable
    is introduced anywhere in the graph (forward references included);
    variable-shaped tokens that stay unresolved raise DanglingReference,
    everything else becomes a symbol constant.
    """
    if not text or not text.strip():
        raise EmptyInput("input contains no graph text")
    tokens = _tokenize(text)
    parser = _Parser(tokens)
    first = parser.peek()
    if first is None or first.kind != "(":
        where = first or parser._eof()
        raise UnbalancedParens("a graph must start with '('", where.line, where.col)
    root = parser.parse_node()
    trailing = parser.peek()
    if trailing is not None:
        raise UnbalancedParens(
            "unexpected text after the root node closes", trailing.line, trailing.col
        )
    edges = []
    for source, role, target in parser.raw_edges:
        if isinstance(target, _Pending):
            if target.value in parser.nodes:
                target = Ref(target.value)
            elif _VAR_SHAPED.match(target.value):
                raise DanglingReference(
                    f"variable {target.value!r} is referenced but never introduced",
                    target.line,
                    target.col,
                )
            else:
                target = Const(target.value, "symbol")
        edges.append(Edge(source, role, target))
    graph = UmrGraph(root, parser.nodes, tuple(edges))
    graph.validate()
    return graph


_SNT_MARKER = re.compile(r"^\s*(?:#\s*::\s*|::)snt(\d*)(?:[ \t]+(.*))?$")
_GRAPH_HEADER = re.compile(r"^\s*#\s*sentence[- ]level graph\b", re.IGNORECASE)


def _balanced_span(text: str) -> str:
    """Return the substring from the first '(' to its matching ')'."""
    start = text.find("(")
    if start < 0:
        raise UnbalancedParens("no '(' found where a graph block was expected")
    depth = 0
    in_string = False
    i = start
    n = len(text)
    while i < n:
        ch = text[i]
        if in_string:
            if ch == "\\" and i + 1 < n:
                i += 2
                continue
            if ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return text[start : i + 1]
        i += 1
    raise UnbalancedParens("graph block is never closed")


def parse_document_reference(text: str, source_id: str = "<text>") -> UmrDocument:
    """Split corpus text into sentence/graph entries.

    A sentence marker is a line starting with ``::snt`` or ``# :: snt``
    (optionally numbered); the sentence text is the remainder of that
    line. The entry's graph is the first balanced parenthesized block in
    the region below the marker, anchored after a ``# sentence level
    graph`` header when one is present so that alignment and
    document-level blocks are never picked up.
    """
    lines = text.splitlines()
    markers = [(i, m) for i, line in enumerate(lines) if (m := _SNT_MARKER.match(line))]
    if not markers:
        raise NoEntriesFound(f"no sentence markers found in {source_id}")
    entries = []
    for k, (line_index, match) in enumerate(markers):
        sentence = (match.group(2) or "").strip()
        if not sentence:
            raise DocumentFormatError(f"entry {k}: sentence marker has no sentence text")
        region_end = markers[k + 1][0] if k + 1 < len(markers) else len(lines)
        region = lines[line_index + 1 : region_end]
        scan_from = 0
        for ri, region_line in enumerate(region):
            if _GRAPH_HEADER.match(region_line):
                scan_from = ri + 1
                break
        graph_start = None
        for ri in range(scan_from, len(region)):
            if region[ri].lstrip().startswith("("):
                graph_start = ri
                break
        if graph_start is None:
            raise DocumentFormatError(f"entry {k}: no graph block follows the sentence marker")
        block = "\n".join(region[graph_start:])
        try:
            graph = parse_graph_reference(_balanced_span(block))
        except UmrParseError as err:
            raise type(err)(f"entry {k}: {err.raw_message}", err.line, err.col) from err
        entries.append((sentence, graph))
    return UmrDocument(tuple(entries), source_id)


def load_document(path) -> UmrDocument:
    """Parse a UMR corpus file, with its file name as the source id."""
    path = Path(path)
    return parse_document(path.read_text("utf-8"), source_id=path.name)


E2E = Path(__file__).parent / "fixtures" / "e2e"

# results_sha256 of each committed replay grid cell; the benchmark pins
# the same eight values, and CI checks them in an install without test
# extras, so this file imports none
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


def e2e_grid_toml(out_dir: Path, methods=("baseline", "umr")) -> str:
    """A grid file of the committed replay grid's cells, one per dataset
    and method in that order, that writes under ``out_dir``. Model,
    backend, fixtures, seed and cache directory are shared keys."""
    meta = json.loads((E2E / "meta.json").read_text("utf-8"))
    exemplars = [str(E2E.parent.parent.parent / p) for p in meta["exemplars"]]
    lines = [
        f"model_id = {json.dumps(meta['model_id'])}",
        'backend = "replay"',
        f"fixture_dir = {json.dumps(str(E2E / meta['replay_dir']))}",
        f"seed = {meta['seed']}",
        f"cache_dir = {json.dumps(str(out_dir / 'cache'))}",
    ]
    for dataset, path in meta["datasets"].items():
        for method in methods:
            lines += [
                "",
                f"[cells.{dataset}_{method}]",
                f"dataset = {json.dumps(dataset)}",
                f"dataset_path = {json.dumps(str(E2E / path))}",
                f"method = {json.dumps(method)}",
                f"output_path = {json.dumps(str(out_dir / f'{dataset}_{method}.jsonl'))}",
            ]
            if method == "umr":
                lines.append(f"exemplar_paths = {json.dumps(exemplars)}")
    return "\n".join(lines) + "\n"


def count_parses(monkeypatch, datasets) -> list[str]:
    """The names of the files that the loaders of the module ``datasets``
    parse from now on, in call order; ``load_dataset`` reaches them only
    on a split memo miss."""
    parsed: list[str] = []
    for loader in ("load_xml", "load_shoes"):
        original = getattr(datasets, loader)

        def counting(path, *args, _original=original, **kwargs):
            parsed.append(Path(path).name)
            return _original(path, *args, **kwargs)

        monkeypatch.setattr(datasets, loader, counting)
    return parsed
