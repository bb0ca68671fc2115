import re
from pathlib import Path

import pytest

from acsa_harness import prompts
from acsa_harness.prompts import (
    PLACEHOLDERS,
    SYSTEM_INSTRUCTION,
    EmptyCategories,
    EmptyExemplars,
    PromptError,
    baseline_template,
    build_baseline_prompt,
    build_umr_prompt,
    render_categories,
    substitute,
    template_version,
    umr_template,
)

FIXTURES = Path(__file__).parent / "fixtures" / "templates"


class TestTemplateFidelity:
    def test_baseline_matches_fixture_bytes(self):
        assert baseline_template() == (FIXTURES / "baseline.txt").read_text("utf-8")

    def test_umr_matches_fixture_bytes(self):
        assert umr_template() == (FIXTURES / "umr.txt").read_text("utf-8")

    def test_identity_substitution_reproduces_baseline(self):
        identity = {
            "<CATEGORIES>": "<CATEGORIES>",
            "<REVIEW_TEXT>": "<REVIEW_TEXT>",
        }
        assert substitute(baseline_template(), identity) == baseline_template()

    def test_identity_substitution_reproduces_umr(self):
        identity = {
            "<CATEGORIES>": "<CATEGORIES>",
            "<UMR_EXAMPLES>": "<UMR_EXAMPLES>",
            "<NEW_TEXT>": "<NEW_TEXT>",
            "<DOMAIN>": "<DOMAIN>",
        }
        assert substitute(umr_template(), identity) == umr_template()

    @pytest.mark.parametrize(
        "data,message",
        [
            (b"\xef\xbb\xbfCategories: <CATEGORIES>", "the file starts with a byte-order mark"),
            (b"Categories: caf\xe9 <CATEGORIES>", "not UTF-8: invalid continuation byte at byte"),
        ],
        ids=["bom", "not-utf8"],
    )
    def test_template_file_is_read_as_utf8_without_bom(self, tmp_path, monkeypatch, data, message):
        (tmp_path / "baseline.txt").write_bytes(data)
        monkeypatch.setattr(prompts, "_TEMPLATES", tmp_path)
        prompts._template.cache_clear()
        try:
            with pytest.raises(PromptError, match=f"^{re.escape(str(tmp_path / 'baseline.txt'))}: {message}"):
                baseline_template()
        finally:
            prompts._template.cache_clear()

    def test_baseline_fixed_sentences_present(self):
        text = baseline_template()
        assert "Please provide one Python type list of tuples such as" in text
        assert "The sentiment is either 'positive', 'neutral' or 'negative'." in text

    def test_umr_step_headers_present(self):
        text = umr_template()
        assert "Step 1: UMR Parsing" in text
        assert "Step 2: Aspect and Opinion Extraction" in text
        assert "Step 3: Aspect Categorization" in text
        assert "Step 4: Sentiment Classification and Python List Output" in text
        assert '"::snt"' in text


class TestBaselineBuilder:
    def test_byte_level_substitution_oracle(self):
        # hand-built expected string, including a double quote in the review
        categories = ["Food", "Service"]
        review = 'The "best" pizza in town'
        expected = baseline_template().replace(
            "<CATEGORIES>", "'Food', 'Service'"
        ).replace("<REVIEW_TEXT>", review)
        bundle = build_baseline_prompt(categories, review)
        assert bundle.user == expected
        assert f'review "{review}"?' in bundle.user

    def test_single_category(self):
        bundle = build_baseline_prompt(["Food"], "Nice.")
        assert "following set:\n'Food'.\n" in bundle.user

    def test_inventory_order_preserved(self):
        bundle = build_baseline_prompt(["B", "A", "C"], "x")
        assert "'B', 'A', 'C'" in bundle.user

    def test_no_placeholder_survives(self):
        bundle = build_baseline_prompt(["Food"], "Great pizza")
        for token in PLACEHOLDERS:
            assert token not in bundle.user

    def test_empty_categories(self):
        with pytest.raises(EmptyCategories):
            build_baseline_prompt([], "review")

    def test_empty_review(self):
        with pytest.raises(PromptError):
            build_baseline_prompt(["Food"], "")

    def test_deterministic(self):
        a = build_baseline_prompt(["Food"], "Great pizza")
        b = build_baseline_prompt(["Food"], "Great pizza")
        assert a == b

    def test_metadata(self):
        bundle = build_baseline_prompt(["Food"], "Great pizza")
        assert bundle.system == SYSTEM_INSTRUCTION


class TestUmrBuilder:
    EXEMPLARS = "::snt The pizza was great.\n(s1h / have-attribute-91\n  :ARG1 (s1p / pizza))"

    def test_all_placeholders_filled(self):
        bundle = build_umr_prompt(
            self.EXEMPLARS, "New review text.", "restaurant", ["FOOD#QUALITY"]
        )
        for token in PLACEHOLDERS:
            assert token not in bundle.user
        assert self.EXEMPLARS in bundle.user
        assert "New Text:\nNew review text.\n" in bundle.user
        assert 'the "restaurant" domain' in bundle.user
        assert "Categories:\n'FOOD#QUALITY'\n" in bundle.user

    def test_step4_closing_instruction(self):
        bundle = build_umr_prompt(self.EXEMPLARS, "x", "laptop", ["A"])
        assert "Step 4: Sentiment Classification and Python List Output" in bundle.user
        assert bundle.user.rstrip().endswith("('example_category_2', 'negative'), ...]")

    def test_empty_exemplars(self):
        with pytest.raises(EmptyExemplars):
            build_umr_prompt("   ", "x", "shoes", ["A"])

    def test_empty_categories(self):
        with pytest.raises(EmptyCategories):
            build_umr_prompt(self.EXEMPLARS, "x", "shoes", [])

    def test_empty_domain(self):
        with pytest.raises(PromptError):
            build_umr_prompt(self.EXEMPLARS, "x", "", ["A"])

    def test_system_identical_across_methods(self):
        a = build_baseline_prompt(["A"], "x")
        b = build_umr_prompt(self.EXEMPLARS, "x", "shoes", ["A"])
        assert a.system == b.system


class TestRendering:
    def test_render_categories(self):
        assert render_categories(["FOOD#QUALITY", "SERVICE#GENERAL"]) == (
            "'FOOD#QUALITY', 'SERVICE#GENERAL'"
        )

    def test_substitute_single_pass(self):
        # a substituted value containing a placeholder token is not rescanned
        out = substitute("A <X> B", {"<X>": "<X> and more"})
        assert out == "A <X> and more B"

    def test_template_version_stable(self):
        assert template_version() == template_version()
        assert len(template_version()) == 12
