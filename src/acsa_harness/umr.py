"""Penman-notation UMR graphs and corpus documents.

Parses sentence-level UMR graphs written in Penman notation, serializes
them back to a canonical indented form, and slices corpus documents into
the sentence/parse pairs used as in-context exemplars. Alignment blocks,
document-level annotation, and other corpus sections are skipped: only
the sentence text and its sentence-level graph matter here.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
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
    "load_document",
    "parse_document",
    "parse_graph",
    "serialize_graph",
    "truncate_document",
]

EXEMPLAR_FILE_COUNT = 5
EXEMPLAR_KEEP = 3


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
# Tokenizer


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


# ---------------------------------------------------------------------------
# Parser


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


def parse_graph(text: str) -> UmrGraph:
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


# ---------------------------------------------------------------------------
# Serialization


def _quote_string(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def serialize_graph(graph: UmrGraph, indent: str = "  ") -> str:
    """Render the canonical indented Penman form of a valid graph.

    Each node is introduced at its first occurrence in a depth-first walk
    from the root; later occurrences are emitted as bare variables.
    """
    graph.validate()
    outgoing: dict[str, list[Edge]] = {var: [] for var in graph.nodes}
    for edge in graph.edges:
        outgoing[edge.source].append(edge)
    emitted: set[str] = set()

    def render_node(var: str, depth: int) -> str:
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
            graph = parse_graph(_balanced_span(block))
        except UmrParseError as err:
            raise type(err)(f"entry {k}: {err.raw_message}", err.line, err.col) from err
        entries.append((sentence, graph))
    return UmrDocument(tuple(entries), source_id)


def load_document(path: str | Path) -> UmrDocument:
    path = Path(path)
    return parse_document(path.read_text("utf-8"), source_id=path.name)


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
