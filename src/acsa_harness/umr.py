r"""Penman-notation UMR graphs and corpus documents.

Parses sentence-level UMR graphs written in Penman notation, serializes
them back to a canonical indented form, and slices corpus documents into
the sentence/parse pairs used as in-context exemplars. Alignment blocks,
document-level annotation, and other corpus sections are skipped: only
the sentence text and its sentence-level graph matter here.

Graph text is read with one token pattern: space, tab, CR and LF separate
tokens, and every other character belongs to one. A token is ``(``, ``)``,
``/``, a role (``:`` and a non-empty name), a string in double quotes
(``\\`` and ``\"`` stand for ``\`` and ``"``; any other backslash is kept),
or an atom (variable, concept or symbol): a run of characters other than
whitespace and ``()/":``. A ``"`` that nothing closes is an error.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from dataclasses import dataclass
from typing import Union

__all__ = [
    "Const",
    "DanglingReference",
    "DocumentFormatError",
    "DuplicateVariable",
    "Edge",
    "EmptyInput",
    "MissingConceptSlash",
    "NoEntriesFound",
    "Ref",
    "UmrDocument",
    "UmrError",
    "UmrGraph",
    "UmrParseError",
    "UnbalancedParens",
    "UnterminatedString",
    "exemplar_draw_indices",
    "format_exemplars",
    "parse_document",
    "parse_graph",
    "serialize_graph",
    "truncate_document",
]

EXEMPLAR_FILE_COUNT = 5
EXEMPLAR_KEEP = 3
# Deepest node nesting a graph may have. The parser and the serializer
# recurse once per level, so a deeper graph would exhaust the interpreter's
# stack; real UMR graphs nest a few levels (the exemplars nest 3).
MAX_NESTING = 100


class UmrError(Exception):
    """Base class for all UMR graph and document errors."""


class UmrParseError(UmrError):
    """Graph syntax error carrying the source position where it occurred."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.raw_message = message
        self.line = line
        self.col = col
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class EmptyInput(UmrParseError):
    pass


class UnbalancedParens(UmrParseError):
    pass


class UnterminatedString(UmrParseError):
    pass


class MissingConceptSlash(UmrParseError):
    pass


class DuplicateVariable(UmrParseError):
    pass


class DanglingReference(UmrParseError):
    pass


class NoEntriesFound(UmrError):
    """The document text contains no sentence marker lines."""


class DocumentFormatError(UmrError):
    """A sentence entry is structurally broken (blank text, missing graph)."""


@dataclass(frozen=True)
class Ref:
    """Reference to a variable introduced elsewhere in the same graph."""

    var: str


@dataclass(frozen=True)
class Const:
    """Constant in value position: kind is "string" or "symbol"."""

    value: str
    kind: str


Target = Union[Ref, Const]


@dataclass(frozen=True)
class Edge:
    source: str
    role: str  # stored without the leading ':'
    target: Target


@dataclass(frozen=True)
class UmrGraph:
    """Rooted labeled graph: variable->concept nodes plus ordered role edges."""

    root: str
    nodes: dict[str, str]
    edges: tuple[Edge, ...]

    def validate(self) -> None:
        """Raise ValueError unless the graph satisfies its invariants."""
        if not self.nodes:
            raise ValueError("graph has no nodes")
        if self.root not in self.nodes:
            raise ValueError(f"root {self.root!r} is not an introduced variable")
        adjacent = defaultdict(list)
        for edge in self.edges:
            if edge.source not in self.nodes:
                raise ValueError(f"edge source {edge.source!r} is not a node")
            if isinstance(edge.target, Ref):
                if edge.target.var not in self.nodes:
                    raise ValueError(f"edge references unknown variable {edge.target.var!r}")
                adjacent[edge.source].append(edge.target.var)
            elif edge.target.kind == "symbol":
                value = edge.target.value
                if not value or any(c in value for c in ' \t\r\n()/":'):
                    raise ValueError(f"symbol constant {value!r} is not a bare token")
        seen = {self.root}
        stack = [self.root]
        while stack:
            for nxt in adjacent[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = set(self.nodes) - seen
        if unreachable:
            raise ValueError(f"nodes unreachable from root: {sorted(unreachable)}")


@dataclass(frozen=True)
class UmrDocument:
    """Ordered (sentence text, graph) entries from one corpus document."""

    entries: tuple[tuple[str, UmrGraph], ...]
    source_id: str = ""

    def __post_init__(self):
        if not self.entries:
            raise ValueError("document has no entries")
        for i, (text, _graph) in enumerate(self.entries):
            if not text.strip():
                raise ValueError(f"entry {i} has blank sentence text")


# ---------------------------------------------------------------------------
# Parser

_TOKEN = re.compile(
    r"""
      [ \t\r\n]+
    | (?P<punct>[()/])
    | "(?P<string>(?:[^"\\]|\\.)*)"
    | :(?P<role>[^ \t\r\n()/":]*)
    | (?P<atom>[^ \t\r\n()/":]+)
    | (?P<quote>")
    """,
    re.VERBOSE | re.DOTALL,
)
_STRING_ESCAPE = re.compile(r'\\([\\"])')

# Tokens shaped like graph variables: one lowercase letter plus optional
# digits (classic Penman), or letters+digits+trailing alphanumerics (UMR
# sentence variables such as s1p2). Bare value tokens of this shape must
# resolve to an introduced variable; anything else is a symbol constant.
_VAR_SHAPED = re.compile(r"(?:[a-z][0-9]*|[a-z]+[0-9]+[a-z0-9]*)\Z")


def parse_graph(text: str) -> UmrGraph:
    """Parse one parenthesized Penman expression into a UmrGraph.

    Unquoted value tokens resolve to variable references when the variable
    is introduced anywhere in the graph (forward references included);
    variable-shaped tokens that stay unresolved raise DanglingReference,
    everything else becomes a symbol constant.
    """
    if not text or not text.strip():
        raise EmptyInput("input contains no graph text")

    def at(token: tuple[str, str, int]) -> tuple[int, int]:
        offset = token[2]
        return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)

    # every token is read before any is parsed, so a lexical error anywhere
    # wins over a syntax error before it
    tokens: list[tuple[str, str, int]] = []  # (kind, value, offset)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace
            continue
        token = (m[0] if kind == "punct" else kind, m[kind], m.start())
        if kind == "quote":
            raise UnterminatedString("unterminated string constant", *at(token))
        if kind == "role" and not token[1]:
            raise UmrParseError("empty role label", *at(token))
        if kind == "string":
            token = (kind, _STRING_ESCAPE.sub(r"\1", token[1]), token[2])
        tokens.append(token)

    nodes: dict[str, str] = {}
    raw_edges: list = []  # (source, role, target); an atom target waits as its token
    stream = iter(tokens)

    def take(previous: tuple[str, str, int], message: str) -> tuple[str, str, int]:
        """The next token; at the end of input, UnbalancedParens at ``previous``."""
        token = next(stream, None)
        if token is None:
            raise UnbalancedParens(message, *at(previous))
        return token

    def node(opener: tuple[str, str, int], depth: int) -> str:
        if depth > MAX_NESTING:
            raise UmrParseError(f"graph nests deeper than {MAX_NESTING} levels", *at(opener))
        var_tok = take(opener, "unexpected end of input after '('")
        if var_tok[0] != "atom":
            raise UmrParseError(
                f"expected a variable name after '(', got {var_tok[1]!r}", *at(var_tok)
            )
        var = var_tok[1]
        if var in nodes:
            raise DuplicateVariable(f"variable {var!r} introduced more than once", *at(var_tok))
        slash = take(var_tok, "unexpected end of input inside node")
        if slash[0] != "/":
            raise MissingConceptSlash(f"expected '/' after variable {var!r}", *at(slash))
        concept_tok = take(slash, "unexpected end of input after '/'")
        if concept_tok[0] != "atom":
            raise UmrParseError(
                f"expected a concept label after '/', got {concept_tok[1]!r}", *at(concept_tok)
            )
        nodes[var] = concept_tok[1]
        for tok in stream:
            if tok[0] == ")":
                return var
            if tok[0] != "role":
                raise UmrParseError(
                    f"expected a role or ')' inside node {var!r}, got {tok[1]!r}", *at(tok)
                )
            role = tok[1]
            value = take(tok, f"unexpected end of input after role :{role}")
            if value[0] == "(":
                slot = len(raw_edges)
                raw_edges.append(None)
                raw_edges[slot] = (var, role, Ref(node(value, depth + 1)))
            elif value[0] == "string":
                raw_edges.append((var, role, Const(value[1], "string")))
            elif value[0] == "atom":
                raw_edges.append((var, role, value))
            else:
                raise UmrParseError(
                    f"expected a value after role :{role}, got {value[1]!r}", *at(value)
                )
        raise UnbalancedParens(
            f"unexpected end of input: node {var!r} is never closed", *at(concept_tok)
        )

    first = next(stream)  # the text is not blank, so it holds a token
    if first[0] != "(":
        raise UnbalancedParens("a graph must start with '('", *at(first))
    root = node(first, 1)
    trailing = next(stream, None)
    if trailing is not None:
        raise UnbalancedParens("unexpected text after the root node closes", *at(trailing))
    edges = []
    for source, role, target in raw_edges:
        if isinstance(target, tuple):
            value = target[1]
            if value in nodes:
                target = Ref(value)
            elif _VAR_SHAPED.match(value):
                raise DanglingReference(
                    f"variable {value!r} is referenced but never introduced", *at(target)
                )
            else:
                target = Const(value, "symbol")
        edges.append(Edge(source, role, target))
    graph = UmrGraph(root, nodes, tuple(edges))
    graph.validate()
    return graph


# ---------------------------------------------------------------------------
# Serialization


def _quote_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_graph(graph: UmrGraph, indent: str = "  ") -> str:
    """Render the canonical indented Penman form of a valid graph.

    Each node is introduced at its first occurrence in a depth-first walk
    from the root; later occurrences are emitted as bare variables. A graph
    whose canonical form would nest deeper than MAX_NESTING, which a chain
    of references can cause in a shallow graph, raises UmrError.
    """
    graph.validate()
    outgoing: dict[str, list[Edge]] = {var: [] for var in graph.nodes}
    for edge in graph.edges:
        outgoing[edge.source].append(edge)
    emitted: set[str] = set()

    def render_node(var: str, depth: int) -> str:
        if depth >= MAX_NESTING:
            raise UmrError(f"the graph's canonical form nests deeper than {MAX_NESTING} levels")
        emitted.add(var)
        parts = [f"({var} / {graph.nodes[var]}"]
        pad = "\n" + indent * (depth + 1)
        for edge in outgoing[var]:
            parts.append(f"{pad}:{edge.role} {render_target(edge.target, depth)}")
        parts.append(")")
        return "".join(parts)

    def render_target(target: Target, depth: int) -> str:
        if isinstance(target, Const):
            if target.kind == "string":
                return _quote_string(target.value)
            return target.value
        if target.var in emitted:
            return target.var
        return render_node(target.var, depth + 1)

    return render_node(graph.root, 0)


# ---------------------------------------------------------------------------
# Documents

_SNT_MARKER = re.compile(r"^\s*(?:#\s*::\s*|::)snt(\d*)(?:[ \t]+(.*))?$")
_GRAPH_HEADER = re.compile(r"^\s*#\s*sentence[- ]level graph\b", re.IGNORECASE)


def _graph_span(block: str) -> str:
    """The block from its first '(' to the ')' that closes it; parentheses
    inside strings do not count, and nothing after that ')' is tokenized."""
    start = block.find("(")
    depth = 0
    for m in _TOKEN.finditer(block, start):
        if m.lastgroup == "quote":
            break
        if m[0] == "(":
            depth += 1
        elif m[0] == ")":
            depth -= 1
            if depth == 0:
                return block[start : m.end()]
    raise UnbalancedParens("graph block is never closed")


def parse_document(text: str, source_id: str = "<text>") -> UmrDocument:
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
            graph = parse_graph(_graph_span(block))
        except UmrParseError as err:
            raise type(err)(f"entry {k}: {err.raw_message}", err.line, err.col) from err
        entries.append((sentence, graph))
    return UmrDocument(tuple(entries), source_id)


def truncate_document(doc: UmrDocument, n: int) -> UmrDocument:
    """Keep the first min(n, len) entries, preserving order."""
    if n < 1:
        raise ValueError(f"truncation count must be >= 1, got {n}")
    if len(doc.entries) <= n:
        return doc
    return UmrDocument(doc.entries[:n], doc.source_id)


def exemplar_draw_indices(seed: int, n_draws: int, n_choices: int) -> list[int]:
    """Deterministic uniform draws: one PRNG seeded once, advanced per draw."""
    rng = random.Random(seed)
    return [rng.randrange(n_choices) for _ in range(n_draws)]


def format_exemplars(doc: UmrDocument) -> str:
    """Render entries as ``::snt`` lines followed by canonical graphs.

    Entries are separated by one blank line; the result substitutes the
    exemplar slot of the structured prompt and re-parses with
    parse_document.
    """
    blocks = [f"::snt {text}\n{serialize_graph(graph)}" for text, graph in doc.entries]
    return "\n\n".join(blocks)
