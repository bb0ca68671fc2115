import random
from pathlib import Path

import pytest
from helpers import (
    load_document,
    parse_document_reference,
    parse_graph_reference,
    random_graph,
    render_random,
    structurally_equal,
    umr_parser_inputs,
)

from acsa_harness import cli
from acsa_harness.datasets import load_dataset
from acsa_harness.runner import ConfigError, RunConfig, prepare_jobs
from acsa_harness.umr import (
    EXEMPLAR_KEEP,
    MAX_NESTING,
    Const,
    DanglingReference,
    DocumentFormatError,
    DuplicateVariable,
    Edge,
    EmptyInput,
    MissingConceptSlash,
    NoEntriesFound,
    Ref,
    UmrError,
    UmrGraph,
    UmrParseError,
    UnbalancedParens,
    exemplar_draw_indices,
    format_exemplars,
    parse_document,
    parse_graph,
    serialize_graph,
    truncate_document,
)

PIZZA_SERVICE = """(s1a / and
:op1 (s1h / have-attribute-91
:ARG1 (s1p / pizza
:mod (s1p2 / pepperoni))
:ARG2 (s1d / delicious)
:aspect state)
:op2 (s1h2 / have-attribute-91
:ARG1 (s1s / service)
:ARG2 (s1t / terrible)
:aspect state))"""


class TestParseGraph:
    def test_pizza_service_structure(self):
        g = parse_graph(PIZZA_SERVICE)
        assert g.root == "s1a"
        assert g.nodes == {
            "s1a": "and",
            "s1h": "have-attribute-91",
            "s1p": "pizza",
            "s1p2": "pepperoni",
            "s1d": "delicious",
            "s1h2": "have-attribute-91",
            "s1s": "service",
            "s1t": "terrible",
        }
        assert g.edges == (
            Edge("s1a", "op1", Ref("s1h")),
            Edge("s1h", "ARG1", Ref("s1p")),
            Edge("s1p", "mod", Ref("s1p2")),
            Edge("s1h", "ARG2", Ref("s1d")),
            Edge("s1h", "aspect", Const("state", "symbol")),
            Edge("s1a", "op2", Ref("s1h2")),
            Edge("s1h2", "ARG1", Ref("s1s")),
            Edge("s1h2", "ARG2", Ref("s1t")),
            Edge("s1h2", "aspect", Const("state", "symbol")),
        )

    def test_minimal_graph(self):
        g = parse_graph("(x / thing)")
        assert g.root == "x"
        assert g.nodes == {"x": "thing"}
        assert g.edges == ()

    def test_string_constant(self):
        g = parse_graph('(x / name :op1 "New York")')
        assert g.edges == (Edge("x", "op1", Const("New York", "string")),)

    def test_string_escapes(self):
        g = parse_graph(r'(x / name :op1 "a \"quoted\" \\ value")')
        assert g.edges[0].target == Const('a "quoted" \\ value', "string")

    def test_symbol_constant(self):
        g = parse_graph("(x / thing :aspect state :quant 3 :polarity -)")
        targets = [e.target for e in g.edges]
        assert targets == [
            Const("state", "symbol"),
            Const("3", "symbol"),
            Const("-", "symbol"),
        ]

    def test_reentrant_reference(self):
        g = parse_graph("(a / alpha :op1 (b2 / beta :mod a) :op2 b2)")
        assert Edge("b2", "mod", Ref("a")) in g.edges
        assert Edge("a", "op2", Ref("b2")) in g.edges

    def test_forward_reference(self):
        g = parse_graph("(a / alpha :op1 b2 :op2 (b2 / beta))")
        assert g.edges[0] == Edge("a", "op1", Ref("b2"))

    def test_compact_whitespace(self):
        g = parse_graph("(x/thing :mod(y1/other))")
        assert g.nodes == {"x": "thing", "y1": "other"}

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            parse_graph("")
        with pytest.raises(EmptyInput):
            parse_graph("   \n\t ")

    def test_unbalanced_open(self):
        with pytest.raises(UnbalancedParens):
            parse_graph("(x / thing")

    def test_unbalanced_close(self):
        with pytest.raises(UnbalancedParens):
            parse_graph("(x / thing))")

    def test_not_starting_with_paren(self):
        with pytest.raises(UnbalancedParens):
            parse_graph("x / thing)")

    def test_missing_concept_slash(self):
        with pytest.raises(MissingConceptSlash):
            parse_graph("(x thing)")

    def test_duplicate_variable(self):
        with pytest.raises(DuplicateVariable):
            parse_graph("(x / thing :mod (x / other))")

    def test_dangling_reference(self):
        with pytest.raises(DanglingReference):
            parse_graph("(x / thing :mod y)")
        with pytest.raises(DanglingReference):
            parse_graph("(s1a / thing :op1 s1b)")

    def test_error_carries_position(self):
        with pytest.raises(MissingConceptSlash) as info:
            parse_graph("(x\n  thing)")
        assert info.value.line == 2
        assert "line 2" in str(info.value)

    def test_trailing_junk(self):
        with pytest.raises(UnbalancedParens):
            parse_graph("(x / thing) extra")


class TestSerializeGraph:
    def test_single_node(self):
        assert serialize_graph(parse_graph("(x / thing)")) == "(x / thing)"

    def test_indentation(self):
        text = serialize_graph(parse_graph("(a / and :op1 (b2 / thing :mod c3) :op2 (c3 / other))"))
        assert text == "(a / and\n  :op1 (b2 / thing\n    :mod (c3 / other))\n  :op2 c3)"

    def test_paper_example_round_trip(self):
        g = parse_graph(PIZZA_SERVICE)
        again = parse_graph(serialize_graph(g))
        assert structurally_equal(g, again)

    def test_canonical_form_is_idempotent(self):
        g = parse_graph(PIZZA_SERVICE)
        once = serialize_graph(g)
        assert serialize_graph(parse_graph(once)) == once

    def test_invalid_graph_rejected(self):
        bad = UmrGraph("x", {"x": "thing", "y": "lost"}, ())
        with pytest.raises(ValueError):
            serialize_graph(bad)


class TestGeneratorRoundTrip:
    def test_serializer_round_trip(self):
        rng = random.Random(20240901)
        for _ in range(200):
            g = random_graph(rng)
            again = parse_graph(serialize_graph(g))
            assert structurally_equal(g, again)

    def test_random_rendering_round_trip(self):
        rng = random.Random(4711)
        for _ in range(200):
            g = random_graph(rng)
            again = parse_graph(render_random(rng, g))
            assert structurally_equal(g, again)

    def test_paren_deletion_mutants_rejected(self):
        rng = random.Random(99)
        graphs = [parse_graph(PIZZA_SERVICE)] + [
            random_graph(rng, allow_strings=False) for _ in range(20)
        ]
        for g in graphs:
            text = serialize_graph(g)
            for i, ch in enumerate(text):
                if ch not in "()":
                    continue
                mutant = text[:i] + text[i + 1 :]
                with pytest.raises(UmrParseError):
                    parse_graph(mutant)


def _outcome(parse, text: str):
    """The parsed value, or the error's class, message and position."""
    try:
        return parse(text)
    except UmrError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "col", None)


class TestMatchesReferenceParser:
    """parse_graph and parse_document against the character scanner and
    lookahead parser they replaced (``tests/helpers.py``)."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_graph_or_same_error(self, seed):
        rng = random.Random(seed)
        rejected = 0
        for is_document, text in umr_parser_inputs(rng, 1500):
            if is_document:
                expected = _outcome(parse_document_reference, text)
                assert _outcome(parse_document, text) == expected, text
            else:
                expected = _outcome(parse_graph_reference, text)
                assert _outcome(parse_graph, text) == expected, text
            rejected += isinstance(expected, tuple)
        # both sides of the comparison are exercised
        assert 500 < rejected < 2500

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "(x / thing :name \"a\\\"b\\q\")",
            "(x / thing :name \"open",
            "(x / thing :)",
            "(x / thing ::ARG0 y)",
            "(x\n  / thing :mod (y / z) )\n)",
            "(x / thing :mod (\"s\" / z))",
            "(x / thing :mod (x / z))",
            "(x / thing :mod y\n :ARG0 (y2 / z :op1 \"\\\"\"))",
            "\u00a0(x / thing)",
            "(x / thing\f:mod y)",
        ],
    )
    def test_edge_cases(self, text):
        assert _outcome(parse_graph, text) == _outcome(parse_graph_reference, text)
        document = "::snt One.\n" + text
        assert _outcome(parse_document, document) == _outcome(parse_document_reference, document)

    def test_unterminated_string_in_document_is_unbalanced(self):
        text = '::snt One.\n(x / thing)\n::snt Two.\n(y / thing :name "open)\n# alignment:\n'
        with pytest.raises(UnbalancedParens, match="entry 1: graph block is never closed"):
            parse_document(text)


def _nested(depth: int) -> str:
    """A chain of ``depth`` nodes, each on its own line, each but the last
    holding the next; node k's ``(`` is at line k + 1, column 1."""
    lines = [f"(v{k} / c :op1" for k in range(depth - 1)] + [f"(v{depth - 1} / c)"]
    return "\n".join(lines) + ")" * (depth - 1)


class TestNestingLimit:
    def test_limit_is_accepted_and_every_accepted_depth_round_trips(self):
        for depth in range(1, MAX_NESTING + 1):
            graph = parse_graph(_nested(depth))
            assert len(graph.nodes) == depth
            assert parse_graph(serialize_graph(graph)) == graph
        document = parse_document("::snt Deep.\n" + _nested(MAX_NESTING))
        assert parse_document(format_exemplars(document)) == document

    @pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
    def test_deeper_is_refused_at_the_first_paren_past_the_limit(self, depth):
        with pytest.raises(UmrParseError, match="nests deeper") as info:
            parse_graph(_nested(depth))
        assert type(info.value) is UmrParseError
        assert (info.value.line, info.value.col) == (MAX_NESTING + 1, 1)
        with pytest.raises(UmrParseError, match=r"^entry 1: graph nests deeper") as info:
            parse_document("::snt Flat.\n(x / thing)\n::snt Deep.\n" + _nested(depth))
        assert (info.value.line, info.value.col) == (MAX_NESTING + 1, 1)

    def test_parse_umr_exits_2(self, tmp_path, capsys):
        path = tmp_path / "deep.txt"
        path.write_text(_nested(1200), "utf-8")
        assert cli.main(["parse-umr", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"line {MAX_NESTING + 1}, column 1" in err and "Traceback" not in err

    def test_reference_chain_too_deep_to_serialize(self, tmp_path, capsys):
        # the graph nests 2 deep, but each node refers to the next one, so
        # its canonical form would nest one level per node
        n = MAX_NESTING
        nodes = " ".join(f":op (n{k} / c :r n{k + 1})" for k in range(n))
        text = f"(r / x :r n0 {nodes} :op (n{n} / c))"
        graph = parse_graph(text)
        with pytest.raises(UmrError, match="canonical form nests deeper"):
            serialize_graph(graph)
        path = tmp_path / "chain.txt"
        path.write_text(text, "utf-8")
        assert cli.main(["parse-umr", str(path)]) == 2
        assert "Traceback" not in capsys.readouterr().err


class TestDocuments:
    CORPUS_TEXT = """\
# meta-info :: file = demo
# :: snt1\tThe pizza was great.
Words: The pizza was great .

# sentence level graph:
(s1h / have-attribute-91
  :ARG1 (s1p / pizza)
  :ARG2 (s1g / great)
  :aspect state)

# alignment:
s1h: 0-0

# document level annotation:
(s1s0 / sentence
  :temporal ((s1d0 / document-creation-time)))

# :: snt2\tService was slow.
# sentence level graph:
(s2h / have-attribute-91
  :ARG1 (s2s / service)
  :ARG2 (s2w / slow)
  :aspect state)

# alignment:
s2h: 0-0
"""

    def test_parse_corpus_style(self):
        doc = parse_document(self.CORPUS_TEXT, source_id="demo")
        assert doc.source_id == "demo"
        assert [text for text, _ in doc.entries] == [
            "The pizza was great.",
            "Service was slow.",
        ]
        assert [g.root for _, g in doc.entries] == ["s1h", "s2h"]
        # the document-level annotation block must not leak into entry 1
        assert "sentence" not in doc.entries[0][1].nodes.values()

    def test_parse_plain_style(self):
        text = "::snt First one.\n(x / thing)\n\n::snt Second one.\n(y2 / other)\n"
        doc = parse_document(text)
        assert len(doc.entries) == 2
        assert doc.entries[1][0] == "Second one."

    def test_no_entries(self):
        with pytest.raises(NoEntriesFound):
            parse_document("(x / thing)")

    def test_marker_requires_text(self):
        with pytest.raises(DocumentFormatError):
            parse_document("::snt\n(x / thing)")

    def test_missing_graph_block(self):
        with pytest.raises(DocumentFormatError) as info:
            parse_document("::snt One.\n(x / thing)\n::snt Two.\nno graph here")
        assert "entry 1" in str(info.value)

    def test_graph_error_annotated_with_entry_index(self):
        text = "::snt One.\n(x / thing)\n::snt Two.\n(y y2 / thing)"
        with pytest.raises(MissingConceptSlash) as info:
            parse_document(text)
        assert "entry 1" in str(info.value)

    def test_marker_prefix_not_confused(self):
        # '::sntimental' is not a marker; only exact ::snt / # :: snt lines count
        with pytest.raises(NoEntriesFound):
            parse_document("::sntimental drivel\n(x / thing)")

    def test_format_exemplars_round_trip(self):
        doc = parse_document(self.CORPUS_TEXT, source_id="demo")
        block = format_exemplars(doc)
        again = parse_document(block, source_id="demo")
        assert [t for t, _ in again.entries] == [t for t, _ in doc.entries]
        for (_, g1), (_, g2) in zip(doc.entries, again.entries):
            assert structurally_equal(g1, g2)

    def test_format_exemplars_shape(self):
        doc = parse_document("::snt Only one.\n(x / thing)")
        assert format_exemplars(doc) == "::snt Only one.\n(x / thing)"


class TestTruncation:
    def _doc(self, n):
        entries = tuple((f"Sentence {i}.", parse_graph(f"(v{i} / thing)")) for i in range(n))
        return parse_document(
            "\n\n".join(f"::snt Sentence {i}.\n(v{i} / thing)" for i in range(n))
        )

    def test_truncate_to_three(self):
        doc = self._doc(5)
        out = truncate_document(doc, 3)
        assert len(out.entries) == 3
        assert out.entries == doc.entries[:3]

    def test_truncate_beyond_length(self):
        doc = self._doc(2)
        assert truncate_document(doc, 3) is doc

    def test_truncate_to_one(self):
        doc = self._doc(3)
        assert truncate_document(doc, 1).entries == doc.entries[:1]

    def test_truncate_idempotent(self):
        doc = self._doc(6)
        once = truncate_document(doc, 3)
        assert truncate_document(once, 3) == once

    def test_truncate_requires_positive(self):
        with pytest.raises(ValueError):
            truncate_document(self._doc(2), 0)


E2E = Path(__file__).parent / "fixtures" / "e2e"


class TestExemplarSampling:
    """Exemplar draws as a run makes them: one PRNG stream indexed by
    sample position, each drawn file parsed and truncated."""

    def _write_files(self, tmp_path, n=5, entries=4):
        paths = []
        for f in range(n):
            text = "\n\n".join(
                f"::snt File {f} sentence {i}.\n(f{f}s{i} / thing)" for i in range(entries)
            )
            path = tmp_path / f"exemplar{f}.umr"
            path.write_text(text, "utf-8")
            paths.append(str(path))
        return paths

    def _config(self, tmp_path, paths, seed):
        config = RunConfig(
            dataset="Laptop16",
            dataset_path=str(E2E / "datasets" / "laptop16_test.xml"),
            method="umr",
            model_id="unit-model",
            backend="replay",
            fixture_dir=str(E2E / "replay"),
            exemplar_paths=tuple(paths),
            seed=seed,
            output_path=str(tmp_path / "out.jsonl"),
        )
        config.validate()
        return config

    def _jobs(self, tmp_path, paths, seed):
        config = self._config(tmp_path, paths, seed)
        return prepare_jobs(config, load_dataset(config.dataset, config.dataset_path))

    def test_deterministic(self, tmp_path):
        paths = self._write_files(tmp_path)
        a = self._jobs(tmp_path, paths, seed=7)
        b = self._jobs(tmp_path, paths, seed=7)
        assert [(j.exemplar_file_id, j.request) for j in a] == [
            (j.exemplar_file_id, j.request) for j in b
        ]
        index = exemplar_draw_indices(seed=7, n_draws=13, n_choices=5)[12]
        doc = truncate_document(load_document(paths[index]), EXEMPLAR_KEEP)
        assert doc == truncate_document(load_document(paths[index]), EXEMPLAR_KEEP)

    def test_truncated_to_three(self, tmp_path):
        paths = self._write_files(tmp_path, entries=5)
        doc = truncate_document(load_document(paths[0]), EXEMPLAR_KEEP)
        assert len(doc.entries) == 3
        for job in self._jobs(tmp_path, paths, seed=1):
            prompt = job.request.user
            assert "sentence 2." in prompt and "sentence 3." not in prompt

    def test_records_file_id(self, tmp_path):
        paths = self._write_files(tmp_path)
        assert load_document(paths[2]).source_id == "exemplar2.umr"
        ids = {job.exemplar_file_id for job in self._jobs(tmp_path, paths, seed=3)}
        assert ids <= {f"exemplar{i}.umr" for i in range(5)}

    def test_wrong_file_count(self, tmp_path):
        paths = self._write_files(tmp_path, n=4)
        with pytest.raises(ConfigError, match="exactly 5 exemplar_paths"):
            self._config(tmp_path, paths, seed=0)

    def test_single_distinct_file_repeated(self, tmp_path):
        path = self._write_files(tmp_path, n=1)[0]
        jobs = self._jobs(tmp_path, [path] * 5, seed=11)
        assert {job.exemplar_file_id for job in jobs} == {"exemplar0.umr"}

    def test_matches_draw_indices_stream(self, tmp_path):
        paths = self._write_files(tmp_path)
        jobs = self._jobs(tmp_path, paths, seed=5)
        stream = exemplar_draw_indices(seed=5, n_draws=len(jobs), n_choices=5)
        assert [job.exemplar_file_id for job in jobs] == [f"exemplar{k}.umr" for k in stream]
        assert len(set(stream)) > 1

    def test_draws_are_roughly_uniform(self):
        # 10000 draws over 5 files: expected 2000 each, binomial sd = 40
        counts = [0] * 5
        for index in exemplar_draw_indices(seed=2024, n_draws=10000, n_choices=5):
            counts[index] += 1
        assert sum(counts) == 10000
        for count in counts:
            assert 1850 <= count <= 2150
