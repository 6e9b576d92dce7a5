"""Automorphism search over the fundamental tables.

A symmetry of a field is determined by where it sends the indeterminates,
and it permutes the coordinates of the GF(5) homomorphism.  So candidates
are read off the table: for each permutation of the coordinates, each
indeterminate goes to the nonzero-one fundamental whose GF(5) image is the
indeterminate's own image, permuted.  That misses no symmetry once the
coordinates are every homomorphism to GF(5), which is checked exactly
first by evaluating the generators mod 5.  Each candidate then passes one
exact check: the images substituted into every generator must factor into
nonzero units, and exponent arithmetic must permute the table.  The GF(5)
images only propose; the exact check decides.  Symmetries are stored
through the factored images of all generators, which makes applying and
composing them integer arithmetic on exponent vectors.

The Gaussian field has no indeterminates; its two candidate symmetries
(identity and conjugation) give the generator images by conjugating
values, and then pass the same exact check.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import permutations, product

from .exact import (
    GaussDyadic,
    RatFunc,
    gauss_conj,
    ratfunc_eval_mod,
    ratfunc_subst,
)
from .pfield import (
    FactoredElement,
    FundamentalTable,
    PartialFieldSpec,
    TableEntry,
    VerificationError,
    canonical_element,
    factor_over_generators,
    fundamental_table,
    hom_gf5,
    memo_by_spec,
)

__all__ = [
    "Automorphism",
    "AutGroup",
    "FactoredElement",
    "apply_automorphism",
    "compose_gen_images",
    "confirm_candidate",
    "find_automorphisms",
]


@dataclass(eq=False)
class Automorphism:
    """One symmetry: where the indeterminates go, the factored images of
    every generator, and the induced GF(5) coordinate permutation.

    The sign generator maps to itself under every symmetry, and its image
    is stored as itself (exponent one on its own slot), so gen_images[j]
    is always unit vector j for the identity."""

    var_images: tuple[TableEntry, ...]
    gen_images: tuple[FactoredElement, ...]
    coord_perm: tuple[int, ...]


@dataclass(eq=False)
class AutGroup:
    """All symmetries of one field, in discovery order."""

    spec: PartialFieldSpec
    table: FundamentalTable
    elements: tuple[Automorphism, ...]
    by_gen_images: dict
    identity_index: int


# ---------------------------------------------------------------------------
# Exact check


def _confirm(
    spec: PartialFieldSpec,
    table: FundamentalTable,
    var_images: tuple[TableEntry, ...],
    gen_values: Iterable[RatFunc | GaussDyadic],
) -> Automorphism | None:
    """The symmetry sending generators 1.. to gen_values, or None.  Each
    value, taken lazily, must factor into a nonzero unit, and exponent
    arithmetic through the factored images must permute the table.  A
    confirmed symmetry whose GF(5) images match no coordinate permutation
    is a VerificationError."""
    gen_fes = [_sign_gen_image(spec)]
    for value in gen_values:
        try:
            fe = factor_over_generators(spec, value)
        except ValueError:
            return None
        if fe.sign == 0:
            return None
        gen_fes.append(fe)
    aut = Automorphism(var_images, tuple(gen_fes), coord_perm=())
    if not _permutes_table(table, aut):
        return None
    aut.coord_perm = _induced_perm(spec, aut.gen_images)
    return aut


def confirm_candidate(
    spec: PartialFieldSpec, table: FundamentalTable, entries: tuple[TableEntry, ...]
) -> Automorphism | None:
    """Exact confirmation: the symmetry sending the indeterminates to the
    candidate images, or None when there is none.  Each generator's image
    is the generator with the indeterminates replaced by the images."""
    images = [e.value for e in entries]
    gen_values = (ratfunc_subst(gen, images) for gen in spec.generators[1:])
    return _confirm(spec, table, tuple(entries), gen_values)


# ---------------------------------------------------------------------------
# Symmetry arithmetic


def _base_columns(spec: PartialFieldSpec) -> list[tuple[int, ...]]:
    width = spec.gf5_width
    cols = [
        tuple(row[k] for row in spec.gf5_gen_images) for k in range(width)
    ]
    if len(set(cols)) != width:
        raise VerificationError(
            f"{spec.name}: generator image columns are not pairwise distinct"
        )
    return cols


def _induced_perm(
    spec: PartialFieldSpec, gen_images: tuple[FactoredElement, ...]
) -> tuple[int, ...]:
    """The unique coordinate permutation matching the generator images'
    GF(5) columns to the base columns."""
    base = _base_columns(spec)
    rows = [hom_gf5(spec, fe) for fe in gen_images]
    perm = []
    for k in range(spec.gf5_width):
        col = tuple(row[k] for row in rows)
        if col not in base:
            raise VerificationError(
                f"{spec.name}: no coordinate permutation matches column {k}"
            )
        perm.append(base.index(col))
    if len(set(perm)) != spec.gf5_width:
        raise VerificationError(f"{spec.name}: induced map is not a permutation")
    return tuple(perm)


def apply_automorphism(aut: Automorphism, fe: FactoredElement) -> FactoredElement:
    """Image of a factored element, by exponent arithmetic.

    Exact when the generators are multiplicatively independent; the
    Gaussian generators are not, so images go through canonical_element
    afterwards."""
    if fe.sign == 0:
        return fe
    sign = fe.sign
    exps = [0] * len(fe.exps)
    for e, gfe in zip(fe.exps, aut.gen_images):
        if not e:
            continue
        if e % 2 and gfe.sign < 0:
            sign = -sign
        for j, x in enumerate(gfe.exps):
            if x:
                exps[j] += e * x
    return FactoredElement(sign, tuple(exps))


def _permutes_table(table: FundamentalTable, aut: Automorphism) -> bool:
    images = {
        canonical_element(table.spec, apply_automorphism(aut, e.element))
        for e in table.entries
    }
    return images == set(table.by_element)


def _sign_gen_image(spec: PartialFieldSpec) -> FactoredElement:
    n = len(spec.generators)
    return FactoredElement(1, tuple(int(j == 0) for j in range(n)))


def compose_gen_images(
    group: AutGroup, outer: Automorphism, inner: Automorphism
) -> tuple[FactoredElement, ...]:
    """Generator images of outer . inner (apply inner first).

    The sign generator's image stays the unit-vector convention value, so
    only the other slots need Gaussian recanonicalizing."""
    out = [apply_automorphism(outer, inner.gen_images[0])]
    for fe in inner.gen_images[1:]:
        out.append(canonical_element(group.spec, apply_automorphism(outer, fe)))
    return tuple(out)


# ---------------------------------------------------------------------------
# Search


def _gf5_homomorphisms(spec: PartialFieldSpec) -> list[tuple[int, ...]]:
    """The points of {2, 3, 4}^arity at which no generator has residue 0
    mod 5, each checked to be a coordinate point (a column of
    gf5_var_images); the first that is not is a VerificationError.

    Every homomorphism to GF(5) is such a point: it sends each generator to
    a unit and each indeterminate, a nonzero-one fundamental, to neither 0
    nor 1.  A vanishing denominator decides nothing, so the point is kept:
    the list can only be too long, never too short."""
    columns = set(zip(*spec.gf5_var_images))
    points = [
        point
        for point in product((2, 3, 4), repeat=spec.arity)
        if all(ratfunc_eval_mod(gen, point, 5) != 0 for gen in spec.generators)
    ]
    for point in points:
        if point not in columns:
            at = ", ".join(f"{v} = {x}" for v, x in zip(spec.var_names, point))
            raise VerificationError(
                f"{spec.name}: the GF(5) homomorphism at {at} "
                "is no gf5map coordinate"
            )
    return points


def _candidate_tuples(
    spec: PartialFieldSpec, table: FundamentalTable
) -> list[tuple[int, ...]]:
    """Sorted tuples of distinct indices into table.nonzero_one, in
    variable order: one per permutation pi of the GF(5) coordinates,
    sending indeterminate v to the entry whose GF(5) image is v's gf5map
    row read through pi.  A permutation whose images are missing from the
    table or repeated proposes nothing.

    No symmetry is missed, once _gf5_homomorphisms has checked that the
    coordinates are every homomorphism to GF(5).  Take a symmetry sigma
    and a coordinate k.  At the point (hom_k(sigma(x_v)))_v every
    generator g takes the value hom_k(sigma(g)), nonzero because sigma(g)
    is a unit, so the point is some coordinate pi(k).  pi is injective,
    since sigma permutes the table and two distinct coordinates differ on
    some indeterminate.  So hom(sigma(x_v)) is v's row read through pi, and
    as the table's GF(5) images are pairwise distinct, sigma(x_v) is the
    candidate for pi."""
    _gf5_homomorphisms(spec)
    by_image = {e.gf5_image: i for i, e in enumerate(table.nonzero_one)}
    tuples = []
    for pi in permutations(range(spec.gf5_width)):
        picked = tuple(
            by_image.get(tuple(row[k] for k in pi)) for row in spec.gf5_var_images
        )
        if None not in picked and len(set(picked)) == spec.arity:
            tuples.append(picked)
    return sorted(tuples)


def _find_gauss_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    table = fundamental_table(spec)
    elements = []
    for mapper in (lambda v: v, gauss_conj):
        aut = _confirm(spec, table, (), [mapper(g) for g in spec.generators[1:]])
        if aut is not None:
            elements.append(aut)
    return _finish_group(spec, table, elements)


def _finish_group(
    spec: PartialFieldSpec, table: FundamentalTable, elements: list[Automorphism]
) -> AutGroup:
    by_gen_images = {aut.gen_images: i for i, aut in enumerate(elements)}
    if len(by_gen_images) != len(elements):
        raise VerificationError(f"{spec.name}: duplicate symmetries found")
    n = len(spec.generators)
    identity = tuple(
        FactoredElement(1, tuple(int(i == j) for j in range(n))) for i in range(n)
    )
    if identity not in by_gen_images:
        raise VerificationError(f"{spec.name}: identity symmetry missing")
    return AutGroup(
        spec=spec,
        table=table,
        elements=tuple(elements),
        by_gen_images=by_gen_images,
        identity_index=by_gen_images[identity],
    )


def _search_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    table = fundamental_table(spec)
    entries = table.nonzero_one
    elements = []
    for t in _candidate_tuples(spec, table):
        aut = confirm_candidate(spec, table, tuple(entries[i] for i in t))
        if aut is not None:
            elements.append(aut)
    return _finish_group(spec, table, elements)


@memo_by_spec
def find_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    """All symmetries of the field, cached per spec text.

    Over indeterminates, one image tuple per GF(5) coordinate permutation
    is proposed, and the exact check decides every one; the symmetries come
    out in the order of their image tuples.
    The Gaussian field's two candidate symmetries get the same exact check."""
    if spec.is_gauss:
        return _find_gauss_automorphisms(spec)
    return _search_automorphisms(spec)
