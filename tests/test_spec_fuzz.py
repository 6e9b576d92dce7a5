"""Fuzz suite for the field description parser.

Each example takes one of the four builtin spec texts and mutates a single
line: drops it, rewrites what follows its keyword (with short text or a
fragment repeated up to 2000 times), swaps in another directive, splices
characters into it, or replaces it with arbitrary text.
parse_field_spec must return a spec or raise ValueError, which the command
line turns into exit 2; any other exception is a crash.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify.pfield import PartialFieldSpec, builtin_specs, parse_field_spec

KEYWORDS = (
    "field", "k", "vars", "gen", "seed", "gf5map", "gf5gen", "h2hom", "prime",
    "modvar", "extrabound", "candidates-include-zero",
)
# Characters the format gives meaning to, so mutants get past the tokenizer.
ALPHABET = "abci0123456789 +-*/^(),#_"

TEXTS = {name: spec.source_text for name, spec in builtin_specs().items()}
_LINES = [
    (name, index)
    for name, text in sorted(TEXTS.items())
    for index in range(len(text.splitlines()))
]


def _replacements(line: str):
    keyword = line.split()[0]
    rest = st.text(ALPHABET, max_size=30)
    splice = st.tuples(
        st.integers(0, len(line)), st.integers(0, 3), st.text(ALPHABET, max_size=4)
    ).map(lambda t: line[: t[0]] + t[2] + line[t[0] + t[1]:])
    repeated = st.tuples(
        st.text(ALPHABET, min_size=1, max_size=3), st.integers(1, 2000)
    )
    return st.one_of(
        st.just(None),
        rest.map(lambda r: f"{keyword} {r}"),
        repeated.map(lambda t: f"{keyword} {t[0] * t[1]}"),
        st.tuples(st.sampled_from(KEYWORDS), rest).map(" ".join),
        splice,
        st.text(max_size=30),
    )


@st.composite
def mutants(draw) -> str:
    name, index = draw(st.sampled_from(_LINES))
    lines = TEXTS[name].splitlines()
    new = draw(_replacements(lines[index]))
    lines[index: index + 1] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=2000)
@given(mutants())
def test_parse_field_spec_returns_a_spec_or_raises_value_error(text) -> None:
    try:
        spec = parse_field_spec(text)
    except ValueError:
        return
    assert isinstance(spec, PartialFieldSpec)
