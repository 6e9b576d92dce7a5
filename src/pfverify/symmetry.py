"""Automorphism search over the fundamental tables.

A symmetry of a field is determined by where it sends the indeterminates,
and it permutes the coordinates of the GF(5) homomorphism.  So candidates
are read off the table: for each permutation of the coordinates, each
indeterminate goes to the nonzero-one fundamental whose GF(5) image is the
indeterminate's own image, permuted.  That misses no symmetry once the
coordinates are every homomorphism to GF(5), which is checked exactly
first by evaluating the generators mod 5.  Symmetries are stored through
the factored images of all generators, which makes applying and composing
them integer arithmetic on exponent vectors.

The group is built from generators (Dimino's algorithm; Butler,
Fundamental Algorithms for Permutation Groups, LNCS 559, 1991).  The
candidates are visited in order, and one the group built so far already
holds is skipped.  Any other passes one exact check: its images are
substituted into every generator, each result must factor as a nonzero
unit, and exponent arithmetic through those units must permute the table.
The GF(5) images only propose; the exact check decides.  A confirmed
candidate joins the generators, and the group is extended by composing
exponent vectors.  A product of maps that each permute the table permutes
it too, so the group is closed by construction, and every element is a
symmetry.  Every product must also be a candidate, or the completeness
argument is false for the spec, which is a VerificationError.

The Gaussian field has no indeterminates: its two candidate symmetries
(identity and conjugation) give the generator values by conjugating, and
then pass the same exact check.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import permutations, product
from typing import NamedTuple

from .exact import (
    GaussDyadic,
    RatFunc,
    gauss_conj,
    ratfunc_eval_mod,
    ratfunc_subst,
    ratfunc_var,
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


class Automorphism(NamedTuple):
    """One symmetry: where the indeterminates go, the factored images of
    every generator, and the induced GF(5) coordinate permutation.

    The sign generator maps to itself under every symmetry, and its image
    is stored as itself (exponent one on its own slot), so gen_images[j]
    is always unit vector j for the identity."""

    var_images: tuple[TableEntry, ...]
    gen_images: tuple[FactoredElement, ...]
    coord_perm: tuple[int, ...]


class AutGroup(NamedTuple):
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
    gen_images: list[FactoredElement] | None,
) -> Automorphism | None:
    """The symmetry with these factored generator images, slot 0 first, or
    None when there is none: the images are None, or exponent arithmetic
    through them does not permute the table.  A confirmed symmetry whose
    GF(5) images match no coordinate permutation is a VerificationError."""
    if gen_images is None or not _permutes_table(table, gen_images):
        return None
    return Automorphism(
        var_images, tuple(gen_images), _induced_perm(spec, gen_images)
    )


def _factored_images(
    spec: PartialFieldSpec, gen_values: Iterable[RatFunc | GaussDyadic]
) -> list[FactoredElement] | None:
    """The sign generator's image, then the values of generators 1..,
    taken lazily and factored; None at the first that is no nonzero unit."""
    gen_fes = [_identity_images(spec)[0]]
    for value in gen_values:
        try:
            fe = factor_over_generators(spec, value)
        except ValueError:
            return None
        if fe.sign == 0:
            return None
        gen_fes.append(fe)
    return gen_fes


def confirm_candidate(
    spec: PartialFieldSpec, table: FundamentalTable, entries: tuple[TableEntry, ...]
) -> Automorphism | None:
    """Exact confirmation: the symmetry sending the indeterminates to the
    candidate images, or None when there is none.  The images are
    substituted into each generator and the results factored; each must be
    a nonzero unit, and exponent arithmetic through them must permute the
    table."""
    values = [e.value for e in entries]
    gen_images = _factored_images(
        spec, (ratfunc_subst(gen, values) for gen in spec.generators[1:])
    )
    return _confirm(spec, table, tuple(entries), gen_images)


# ---------------------------------------------------------------------------
# Symmetry arithmetic


@memo_by_spec
def _base_columns(spec: PartialFieldSpec) -> dict[tuple[int, ...], int]:
    """Each GF(5) coordinate's column of generator images, mapped to the
    coordinate; a repeated column is a VerificationError."""
    width = spec.gf5_width
    cols = {
        tuple(row[k] for row in spec.gf5_gen_images): k for k in range(width)
    }
    if len(cols) != width:
        raise VerificationError(
            f"{spec.name}: generator image columns are not pairwise distinct"
        )
    return cols


def _induced_perm(
    spec: PartialFieldSpec, gen_images: Sequence[FactoredElement]
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
        perm.append(base[col])
    if len(set(perm)) != spec.gf5_width:
        raise VerificationError(f"{spec.name}: induced map is not a permutation")
    return tuple(perm)


def apply_automorphism(aut: Automorphism, fe: FactoredElement) -> FactoredElement:
    """Image of a factored element, by exponent arithmetic.

    Exact when the generators are multiplicatively independent; the
    Gaussian generators are not, so images go through canonical_element
    afterwards."""
    return _map_element(aut.gen_images, fe)


def _map_element(
    gen_images: Sequence[FactoredElement], fe: FactoredElement
) -> FactoredElement:
    """sign * prod(gen_images ** exps)."""
    if fe.sign == 0:
        return fe
    sign = fe.sign
    exps = [0] * len(fe.exps)
    for e, gfe in zip(fe.exps, gen_images):
        if not e:
            continue
        if e % 2 and gfe.sign < 0:
            sign = -sign
        for j, x in enumerate(gfe.exps):
            if x:
                exps[j] += e * x
    return FactoredElement(sign, tuple(exps))


def _permutes_table(
    table: FundamentalTable, gen_images: Sequence[FactoredElement]
) -> bool:
    images = {
        canonical_element(table.spec, _map_element(gen_images, e.element))
        for e in table.entries
    }
    return images == set(table.by_element)


def _identity_images(spec: PartialFieldSpec) -> tuple[FactoredElement, ...]:
    """The identity's generator images: unit vector j for generator j."""
    n = len(spec.generators)
    return tuple(
        FactoredElement(1, tuple(int(i == j) for j in range(n))) for i in range(n)
    )


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
        gen_images = _factored_images(spec, [mapper(g) for g in spec.generators[1:]])
        aut = _confirm(spec, table, (), gen_images)
        if aut is not None:
            elements.append(aut)
    return _finish_group(spec, table, elements)


def _finish_group(
    spec: PartialFieldSpec, table: FundamentalTable, elements: list[Automorphism]
) -> AutGroup:
    by_gen_images = {aut.gen_images: i for i, aut in enumerate(elements)}
    if len(by_gen_images) != len(elements):
        raise VerificationError(f"{spec.name}: duplicate symmetries found")
    identity = _identity_images(spec)
    if identity not in by_gen_images:
        raise VerificationError(f"{spec.name}: identity symmetry missing")
    return AutGroup(
        spec=spec,
        table=table,
        elements=tuple(elements),
        by_gen_images=by_gen_images,
        identity_index=by_gen_images[identity],
    )


# Widest GF(5) map whose width! coordinate permutations are walked: about
# 0.2 s at width 8 and 2 s at 9; the builtins use at most 6.
MAX_GF5_WIDTH = 8


def _search_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    table = fundamental_table(spec)
    # Repeated or too many coordinates fail here, before their permutations.
    _base_columns(spec)
    if spec.gf5_width > MAX_GF5_WIDTH:
        raise VerificationError(
            f"{spec.name}: gf5map width {spec.gf5_width} is more than "
            f"{MAX_GF5_WIDTH}, too many coordinate permutations to walk"
        )
    candidates = _candidate_tuples(spec, table)
    proposed = set(candidates)
    entries = table.nonzero_one
    index_of = {e.element: i for i, e in enumerate(entries)}

    def key_of(images: Sequence[FactoredElement]) -> tuple:
        return tuple(index_of.get(fe) for fe in images)

    def element(images: Sequence[FactoredElement], gen_images, coord_perm):
        """The symmetry with these indeterminate images, keyed by its
        candidate tuple; images that no candidate proposes fail the field."""
        t = key_of(images)
        if t not in proposed:
            raise VerificationError(
                f"{spec.name}: the symmetry sending the indeterminates to "
                f"{list(images)} is no candidate"
            )
        return t, Automorphism(tuple(entries[i] for i in t), gen_images, coord_perm)

    def var_images(outer: Automorphism, inner: Automorphism):
        """Where outer . inner sends the indeterminates."""
        return [_map_element(outer.gen_images, e.element) for e in inner.var_images]

    def compose(outer: Automorphism, inner: Automorphism):
        """outer . inner (apply inner first), by exponent arithmetic."""
        return element(
            var_images(outer, inner),
            tuple(_map_element(outer.gen_images, fe) for fe in inner.gen_images),
            tuple(inner.coord_perm[k] for k in outer.coord_perm),
        )

    var_fes = []
    for v, name in enumerate(spec.var_names):
        try:
            fe = factor_over_generators(spec, ratfunc_var(spec.arity, v))
        except ValueError:
            fe = None
        if fe not in index_of:
            raise VerificationError(
                f"{spec.name}: indeterminate {name} is no nonzero-one fundamental"
            )
        var_fes.append(fe)
    key, identity = element(
        var_fes, _identity_images(spec), tuple(range(spec.gf5_width))
    )
    group = {key: identity}
    gens: list[Automorphism] = []
    for t in candidates:
        if t in group:
            continue
        gen = confirm_candidate(spec, table, tuple(entries[i] for i in t))
        if gen is None:
            continue
        # Extend the group H by gen, one right coset H . r at a time, until
        # r . g is in the group for every coset representative r and
        # generator g; the group is then closed under composition.  A key
        # already in the group was proposed, so only a new r . g is built.
        gens.append(gen)
        subgroup = list(group.values())
        reps = [identity]
        for r in reps:
            for g in gens:
                if key_of(var_images(r, g)) in group:
                    continue
                _, rep = compose(r, g)
                reps.append(rep)
                group.update(compose(h, rep) for h in subgroup)
    return _finish_group(spec, table, [group[t] for t in candidates if t in group])


@memo_by_spec
def find_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    """All symmetries of the field, cached per spec text.

    Over indeterminates, one image tuple per GF(5) coordinate permutation
    is proposed.  Walking them in order, the exact check decides each tuple
    that the group generated so far lacks, and each confirmed one extends
    the group by composition; the symmetries come out in the order of
    their image tuples.  The Gaussian field's two candidate symmetries get
    the same exact check."""
    if spec.is_gauss:
        return _find_gauss_automorphisms(spec)
    return _search_automorphisms(spec)
