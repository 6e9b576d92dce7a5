"""Automorphism search over the fundamental tables.

A symmetry of a field is determined by where it sends the indeterminates,
and it permutes the coordinates of the GF(5) homomorphism.  So candidates
are read off the table: for each permutation of the coordinates, each
indeterminate goes to the nonzero-one fundamental whose GF(5) image is the
indeterminate's own image, permuted.  That misses no symmetry once the
coordinates are every homomorphism to GF(5), which is checked exactly
first by evaluating the generators mod 5.  Then a symmetry is the
candidate of its own coordinate permutation, so the group is held as a
permutation group: each element is its indeterminate images and its
permutation, and exact data is kept for the generators only (Seress,
Permutation Group Algorithms, 2003).

The candidates are visited in order, and one whose permutation the group
built so far holds is skipped.  Any other passes one exact check: its
images are substituted into every generator, each result must factor as
a nonzero unit, and exponent arithmetic through those units must permute
the table.  The GF(5) images only propose; the exact check decides.  The
group is then closed one product g . h at a time, g a confirmed
generator; a product of maps that each permute the table permutes it
too, so every element is a symmetry.  A product with a new permutation
gets its indeterminate images from g's generator images by exponent
arithmetic, and they must be the candidate its permutation proposes, or
the completeness argument is false for the spec, which is a
VerificationError.

The Gaussian field has no indeterminates: its two candidate symmetries
(identity and conjugation) give the generator values by conjugating, and
then pass the same exact check.

The `auts` command's payload and text are built here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import cache
from itertools import permutations, product
from operator import itemgetter

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
)

__all__ = [
    "Automorphism",
    "AutGroup",
    "FactoredElement",
    "auts_payload",
    "auts_text",
    "confirm_candidate",
    "find_automorphisms",
]


class Automorphism(namedtuple("Automorphism", "var_images coord_perm")):
    """One symmetry: where the indeterminates go, and the induced GF(5)
    coordinate permutation, which determines it.

    var_images: tuple[TableEntry, ...].  coord_perm: tuple[int, ...].
    """

    __slots__ = ()


class AutGroup(namedtuple("AutGroup", "spec table elements")):
    """All symmetries of one field, in the order of their indeterminate
    images' candidate tuples.

    spec: PartialFieldSpec.  table: FundamentalTable.
    elements: tuple[Automorphism, ...].
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Exact check


def _confirmed_images(
    spec: PartialFieldSpec,
    table: FundamentalTable,
    gen_values: Iterable[RatFunc | GaussDyadic],
) -> tuple[FactoredElement, ...] | None:
    """The sign generator's image (itself), then the values of generators
    1.., taken lazily and factored; None at the first that is no nonzero
    unit, or when exponent arithmetic through the images does not permute
    the table."""
    n = len(spec.generators)
    gen_images = [FactoredElement(1, tuple(int(j == 0) for j in range(n)))]
    for value in gen_values:
        try:
            fe = factor_over_generators(spec, value)
        except ValueError:
            return None
        if fe.sign == 0:
            return None
        gen_images.append(fe)
    images = {
        canonical_element(spec, _map_element(gen_images, e.element))
        for e in table.entries
    }
    return tuple(gen_images) if images == set(table.by_element) else None


def confirm_candidate(
    spec: PartialFieldSpec, table: FundamentalTable, entries: tuple[TableEntry, ...]
) -> tuple[FactoredElement, ...] | None:
    """Exact confirmation: the factored generator images of the symmetry
    sending the indeterminates to the candidate images, slot 0 first, or
    None when there is none.  The images are substituted into each
    generator and the results factored; each must be a nonzero unit, and
    exponent arithmetic through them must permute the table."""
    values = [e.value for e in entries]
    return _confirmed_images(
        spec, table, (ratfunc_subst(gen, values) for gen in spec.generators[1:])
    )


# ---------------------------------------------------------------------------
# Symmetry arithmetic


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


def _map_element(
    gen_images: Sequence[FactoredElement], fe: FactoredElement
) -> FactoredElement:
    """sign * prod(gen_images ** exps), by exponent arithmetic.

    Exact when the generators are multiplicatively independent; the
    Gaussian generators are not, so images go through canonical_element
    afterwards."""
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


# ---------------------------------------------------------------------------
# Search


def _gf5_homomorphisms(spec: PartialFieldSpec) -> list[tuple[int, ...]]:
    """The points of {2, 3, 4}^arity at which no generator has residue 0
    mod 5, each checked to be a coordinate point (a column of
    gf5_var_images) as it is met; the first that is not is a
    VerificationError.

    Every homomorphism to GF(5) is such a point: it sends each generator to
    a unit and each indeterminate, a nonzero-one fundamental, to neither 0
    nor 1.  A vanishing denominator decides nothing, so the point is kept:
    the list can only be too long, never too short."""
    columns = set(zip(*spec.gf5_var_images))
    points = []
    for point in product((2, 3, 4), repeat=spec.arity):
        if any(ratfunc_eval_mod(gen, point, 5) == 0 for gen in spec.generators):
            continue
        if point not in columns:
            at = ", ".join(f"{v} = {x}" for v, x in zip(spec.var_names, point))
            raise VerificationError(
                f"{spec.name}: the GF(5) homomorphism at {at} "
                "is no gf5map coordinate"
            )
        points.append(point)
    return points


def _candidate_tuples(
    spec: PartialFieldSpec, table: FundamentalTable
) -> dict[tuple[int, ...], tuple[int, ...]]:
    """The proposal map: each permutation pi of the GF(5) coordinates to
    its tuple of distinct indices into table.nonzero_one, in variable
    order, sending indeterminate v to the entry whose GF(5) image is v's
    gf5map row read through pi.  A permutation whose images are missing
    from the table or repeated proposes nothing.

    No symmetry is missed, once _gf5_homomorphisms has checked that the
    coordinates are every homomorphism to GF(5).  Take a symmetry sigma
    and a coordinate k.  At the point (hom_k(sigma(x_v)))_v every
    generator g takes the value hom_k(sigma(g)), nonzero because sigma(g)
    is a unit, so the point is some coordinate pi(k).  pi is injective,
    since sigma permutes the table and two distinct coordinates differ on
    some indeterminate.  So hom(sigma(x_v)) is v's row read through pi, and
    as the table's GF(5) images are pairwise distinct, sigma(x_v) is the
    candidate for pi.  So two symmetries with one permutation are equal."""
    _gf5_homomorphisms(spec)
    by_image = {e.gf5_image: i for i, e in enumerate(table.nonzero_one)}
    proposals = {}
    for pi in permutations(range(spec.gf5_width)):
        picked = tuple(
            by_image.get(tuple(row[k] for k in pi)) for row in spec.gf5_var_images
        )
        if None not in picked and len(set(picked)) == spec.arity:
            proposals[pi] = picked
    return proposals


def _find_gauss_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    table = fundamental_table(spec)
    perms = []
    for mapper in (lambda v: v, gauss_conj):
        gen_images = _confirmed_images(spec, table, map(mapper, spec.generators[1:]))
        if gen_images is not None:
            perms.append(_induced_perm(spec, gen_images))
    if len(set(perms)) != len(perms):
        raise VerificationError(f"{spec.name}: duplicate symmetries found")
    if tuple(range(spec.gf5_width)) not in perms:
        raise VerificationError(f"{spec.name}: identity symmetry missing")
    return AutGroup(spec, table, tuple(Automorphism((), perm) for perm in perms))


# Widest GF(5) map whose width! coordinate permutations are walked: about
# 0.2 s at width 8 and 2 s at 9; the builtins use at most 6.
MAX_GF5_WIDTH = 8
# Most indeterminates whose 3^arity GF(5) points are walked: with H3's four
# generators, walking every point takes about 0.06 s at arity 8, 0.2 s at 9
# and 0.6 s at 10; the builtins use at most 3.
MAX_GF5_ARITY = 8


def _search_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    table = fundamental_table(spec)
    # Repeated or too many coordinates fail here, before their permutations,
    # and too many indeterminates before their GF(5) points.
    _base_columns(spec)
    if spec.gf5_width > MAX_GF5_WIDTH:
        raise VerificationError(
            f"{spec.name}: gf5map width {spec.gf5_width} is more than "
            f"{MAX_GF5_WIDTH}, too many coordinate permutations to walk"
        )
    if spec.arity > MAX_GF5_ARITY:
        raise VerificationError(
            f"{spec.name}: {spec.arity} indeterminates are more than "
            f"{MAX_GF5_ARITY}, too many GF(5) points to walk"
        )
    proposals = _candidate_tuples(spec, table)
    entries = table.nonzero_one
    index_of = {e.element: i for i, e in enumerate(entries)}
    group: dict[tuple[int, ...], tuple[int, ...]] = {}

    def add(perm: tuple[int, ...], images: Sequence[FactoredElement]) -> None:
        """Hold the symmetry with this permutation and these indeterminate
        images; images other than the permutation's candidate fail the
        field."""
        t = tuple(index_of.get(fe) for fe in images)
        if proposals.get(perm) != t:
            raise VerificationError(
                f"{spec.name}: the symmetry sending the indeterminates to "
                f"{list(images)} is no candidate"
            )
        group[perm] = t

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
    add(tuple(range(spec.gf5_width)), var_fes)
    gens: list[tuple[tuple[FactoredElement, ...], tuple[int, ...]]] = []
    for pi, t in sorted(proposals.items(), key=itemgetter(1)):
        if pi in group:
            continue
        gen_images = confirm_candidate(spec, table, tuple(entries[i] for i in t))
        if gen_images is None:
            continue
        gens.append((gen_images, _induced_perm(spec, gen_images)))
        # Close the group under g . h (apply h first) for every generator g
        # and every element h, those found meanwhile included.
        held = list(group.items())
        for h_perm, h_tuple in held:
            for g, g_perm in gens:
                perm = tuple(h_perm[k] for k in g_perm)
                # A permutation the group holds needs no exact work: by the
                # lemma in _candidate_tuples, the symmetry g . h is the one
                # candidate that permutation proposes, already held.
                if perm not in group:
                    add(perm, [_map_element(g, entries[i].element) for i in h_tuple])
                    held.append((perm, group[perm]))
    ordered = sorted(group.items(), key=itemgetter(1))
    elements = tuple(Automorphism(tuple(entries[i] for i in t), p) for p, t in ordered)
    return AutGroup(spec, table, elements)


@cache
def find_automorphisms(spec: PartialFieldSpec) -> AutGroup:
    """All symmetries of the field, cached per spec object.

    Over indeterminates, one image tuple per GF(5) coordinate permutation
    is proposed.  Walking them in order, the exact check decides each tuple
    whose permutation the group generated so far lacks, and each confirmed
    one extends the group by composing permutations; the symmetries come
    out in the order of their image tuples.  The Gaussian field's two
    candidate symmetries get the same exact check."""
    if spec.is_gauss:
        return _find_gauss_automorphisms(spec)
    return _search_automorphisms(spec)


# ---------------------------------------------------------------------------
# Command output: the `auts` payload (a dict that doubles as the JSON
# output) and text


def auts_payload(spec: PartialFieldSpec) -> dict:
    """The group order and its induced coordinate permutations, sorted."""
    group = find_automorphisms(spec)
    perms = sorted(aut.coord_perm for aut in group.elements)
    return {
        "field": spec.name,
        "order": len(group.elements),
        "coord_perms": [list(p) for p in perms],
        "verdict": "PASS",
    }


def auts_text(payload: dict) -> list[str]:
    perms = ", ".join(str(tuple(p)) for p in payload["coord_perms"])
    return [
        f"{payload['field']}: symmetry group of order {payload['order']}",
        f"  induced coordinate permutations: {perms}",
    ]
