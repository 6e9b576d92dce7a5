"""Consistency checks for the lift construction of the one-variable field.

The one-variable field arises as a lift of GF(5): four cross-ratio
generator tuples get a symbol each, three product-one triples of tuples
impose polynomial relations on those symbols, and solving the relations
expresses every symbol in the single variable.  This module re-verifies
the construction: the triples multiply to (1,1,1) coordinatewise, and the
solved expressions make every relation vanish identically.

One printed solution line is typographically ambiguous; both readings are
tested against the relations and against the GF(5) images, and the unique
reading that satisfies both is the one exported.
"""

from __future__ import annotations

from functools import cache

from .exact import (
    RatFunc,
    ratfunc_from_text,
    ratfunc_is_zero,
    ratfunc_subst,
)
from .pfield import (
    VerificationError,
    builtin_specs,
    factor_over_generators,
    fundamental_table,
    hom_gf5,
)

__all__ = [
    "CROSS_RATIO_GENERATORS",
    "PQR_TRIPLES",
    "SYMBOLS",
    "check_triples",
    "relation_residuals",
    "solved_values",
    "triple_products",
]

GFTuple = tuple[int, ...]

CROSS_RATIO_GENERATORS: tuple[GFTuple, ...] = (
    (2, 2, 3),
    (2, 3, 2),
    (2, 3, 3),
    (2, 3, 4),
)

PQR_TRIPLES: tuple[tuple[GFTuple, GFTuple, GFTuple], ...] = (
    ((4, 3, 2), (3, 3, 4), (3, 4, 2)),
    ((3, 4, 3), (3, 2, 4), (4, 2, 3)),
    ((3, 4, 2), (3, 2, 4), (4, 2, 2)),
)

SYMBOLS = ("s223", "s232", "s233", "s234")

RELATION_TEXTS = (
    "s223*s234 - (1 - s234)*(s223 - 1)*(s234 - 1)",
    "(1 - s234)*s234*s232 - (s232 - 1)",
    "s234*s234*(1 - s233) - (s234 - 1)",
)

UNAMBIGUOUS_SOLUTION_TEXTS = {
    "s232": "1/(1 - a + a^2)",
    "s233": "(1 - a + a^2)/a^2",
    "s234": "a",
}

AMBIGUOUS_S223_TEXTS = (
    "(1 - a)/(1 - a + a^2)",
    "1 - a/(1 - a + a^2)",
)


def triple_products(
    triples: tuple[tuple[GFTuple, GFTuple, GFTuple], ...] = PQR_TRIPLES,
) -> list[GFTuple]:
    """Coordinatewise product of each triple, mod 5."""
    out = []
    for p, q, r in triples:
        out.append(tuple(x * y * z % 5 for x, y, z in zip(p, q, r)))
    return out


def check_triples(
    triples: tuple[tuple[GFTuple, GFTuple, GFTuple], ...] = PQR_TRIPLES,
) -> bool:
    """True when every triple multiplies to the all-ones tuple."""
    return all(p == (1,) * len(p) for p in triple_products(triples))


@cache
def _relations() -> tuple[RatFunc, ...]:
    return tuple(ratfunc_from_text(t, SYMBOLS) for t in RELATION_TEXTS)


def relation_residuals(values: dict[str, RatFunc]) -> list[RatFunc]:
    """Each relation with the given symbol values substituted in."""
    ordered = [values[name] for name in SYMBOLS]
    return [ratfunc_subst(rel, ordered) for rel in _relations()]


def _candidate_values(s223: RatFunc) -> dict[str, RatFunc]:
    values = {
        name: ratfunc_from_text(text, ("a",))
        for name, text in UNAMBIGUOUS_SOLUTION_TEXTS.items()
    }
    values["s223"] = s223
    return values


def _candidate_ok(values: dict[str, RatFunc]) -> bool:
    if not all(ratfunc_is_zero(r) for r in relation_residuals(values)):
        return False
    spec = builtin_specs()["H3"]
    table = fundamental_table(spec)
    for name, target in zip(SYMBOLS, CROSS_RATIO_GENERATORS):
        try:
            fe = factor_over_generators(spec, values[name])
        except ValueError:
            return False
        if fe not in table.by_element or hom_gf5(spec, fe) != target:
            return False
    return True


@cache
def _resolved_s223_text() -> str:
    winners = [
        text
        for text in AMBIGUOUS_S223_TEXTS
        if _candidate_ok(_candidate_values(ratfunc_from_text(text, ("a",))))
    ]
    if len(winners) != 1:
        raise VerificationError(
            f"ambiguous solution line has {len(winners)} valid readings"
        )
    return winners[0]


def solved_values() -> dict[str, RatFunc]:
    """The solved symbol values, with the ambiguous line resolved to the
    unique reading that satisfies the relations and the GF(5) images."""
    return _candidate_values(ratfunc_from_text(_resolved_s223_text(), ("a",)))
