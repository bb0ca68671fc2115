"""Prompt construction for the two chat strategies.

The user-message templates are text files in ``templates/`` next to
this module, read by path, and are substituted verbatim: builders only
fill the placeholder slots, so a prompt built from identity placeholder
values reproduces the template byte for byte (the fidelity tests rely
on this).
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Sequence

from .llm import read_text

_TEMPLATES = Path(__file__).with_name("templates")

PLACEHOLDERS = ("<CATEGORIES>", "<REVIEW_TEXT>", "<UMR_EXAMPLES>", "<NEW_TEXT>", "<DOMAIN>")

# Fixed framing shared by both methods so that the user prompt is the only
# varying factor between them.
SYSTEM_INSTRUCTION = (
    "You are an expert assistant for aspect-based sentiment analysis. "
    "Be concise and accurate. Follow the requested output format exactly."
)


class PromptError(Exception):
    pass


class EmptyCategories(PromptError):
    pass


class EmptyExemplars(PromptError):
    pass


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str


@lru_cache(maxsize=None)
def _template(name: str) -> str:
    return read_text(_TEMPLATES / f"{name}.txt", PromptError)


def baseline_template() -> str:
    return _template("baseline")


def umr_template() -> str:
    return _template("umr")


@lru_cache(maxsize=1)
def template_version() -> str:
    digest = hashlib.sha256(
        "\0".join([baseline_template(), umr_template(), SYSTEM_INSTRUCTION]).encode("utf-8")
    ).hexdigest()
    return digest[:12]


def substitute(template: str, values: Mapping[str, str]) -> str:
    """Replace all placeholder tokens simultaneously.

    A single pass means substituted values are never rescanned, so a value
    that happens to contain a placeholder token cannot trigger a second
    substitution.
    """
    return _pattern(tuple(values)).sub(lambda m: values[m.group(0)], template)


@lru_cache(maxsize=16)
def _pattern(placeholders: tuple[str, ...]) -> re.Pattern:
    """The alternation of ``placeholders``, compiled once per tuple."""
    return re.compile("|".join(map(re.escape, placeholders)))


def render_categories(categories: Sequence[str]) -> str:
    """Comma-separated single-quoted categories, in inventory order."""
    return _rendered(tuple(categories))


@lru_cache(maxsize=16)
def _rendered(categories: tuple[str, ...]) -> str:
    """``render_categories``, built once per category tuple."""
    return ", ".join(f"'{c}'" for c in categories)


def build_baseline_prompt(categories: Sequence[str], review: str) -> PromptBundle:
    """Fill the direct one-step prompt with the inventory and review text."""
    if not categories:
        raise EmptyCategories("the category inventory must not be empty")
    if not review:
        raise PromptError("review text must not be empty")
    user = substitute(
        baseline_template(),
        {"<CATEGORIES>": render_categories(categories), "<REVIEW_TEXT>": review},
    )
    return PromptBundle(SYSTEM_INSTRUCTION, user)


def build_umr_prompt(
    exemplars: str,
    new_text: str,
    domain: str,
    categories: Sequence[str],
) -> PromptBundle:
    """Fill the four-step structured prompt.

    ``exemplars`` is the formatted sentence/parse block, normally produced
    by umr.format_exemplars.
    """
    if not categories:
        raise EmptyCategories("the category inventory must not be empty")
    if not exemplars.strip():
        raise EmptyExemplars("the exemplar block must not be empty")
    if not new_text:
        raise PromptError("new text must not be empty")
    if not domain:
        raise PromptError("domain must not be empty")
    user = substitute(
        umr_template(),
        {
            "<UMR_EXAMPLES>": exemplars,
            "<NEW_TEXT>": new_text,
            "<DOMAIN>": domain,
            "<CATEGORIES>": render_categories(categories),
        },
    )
    return PromptBundle(SYSTEM_INSTRUCTION, user)
