"""Exponent-box bounding and the modular fingerprint sieve.

Every unit of a field is sign * prod(generators ** exps).  Mapping the
indeterminates to Gaussian dyadic units turns each generator into a unit
whose norm is a power of two, so every such map yields one integer row r
of log2-norms with |r . exps| <= 2.  Each exponent is bounded in the real
relaxation of those rows by one simplex in exact integer arithmetic, a
phase 1 first if the origin violates a row; rows closed under negation
need only the upper ends.  One pruned enumeration inside those outer
ranges then lists the integer points of the rows: every exponent vector
that can be fundamental.  The box is their bounding box.

Each candidate gets a fingerprint (its residue under the spec's modular
map, or its exact value for the Gaussian field).  No other module chooses
a fingerprint prime or computes a fingerprint.  Each prime tried is
decided in one pass (_collision): the fingerprints of the whole box are
distinct iff no nonzero d in the difference box of the slot ranges has
prod r_i^(2 d_i) = 1 mod p, which a meet-in-the-middle search over two
halves of that box decides in |D_A| + |D_B| products, not |B|, and a hit
names its d.  The quotient sign * g^d, sign = r^d = +-1 mod p, is then
screened and, if it passes, checked exactly: 1 means the generators are
dependent (a FAIL naming two equal candidates), anything else an unlucky
prime (advance to the next one, up to a fixed count).  The search starts
at the spec prime: a generator residue that vanishes there is a FAIL
naming the generator, and a later prime where one vanishes is skipped.
The sieve itself fingerprints only the points, both signs, and zero,
holding one plain dict from each point's residue (sign 1) to the point:
the fingerprint of sign -1 is p minus that residue.  A candidate survives
iff the fingerprint of 1 - candidate is also among them.  Survivors are
cross-checked exactly, once per pair {s, 1 - s}, in ascending fingerprint
order; the sieve sorts nothing up front, so a check that fails on an early
pair leaves the rest of the survivors unordered.  Then the two routes must
have found the same factored elements, and a FAIL names the first survivor
the closure lacks, or else the first closure element the sieve lacks.

The `bounds` command's payload and text are built here.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cache
from heapq import heapify, heappop
from itertools import chain, product
from math import gcd, prod
from operator import add, getitem

from .exact import (
    GAUSS_ONE,
    GaussDyadic,
    ModMap,
    RatFunc,
    gauss_conj,
    gauss_is_unit,
    gauss_is_zero,
    gauss_log2_norm,
    gauss_sub,
    mod_eval,
    next_prime,
    poly_arith,
    ratfunc_eval_gauss,
)
from .pfield import (
    FactoredElement,
    PartialFieldSpec,
    VerificationError,
    complement,
    expand_element,
    factor_over_generators,
    generator_products,
    value_eq,
)


class CandidateBox(
    namedtuple("CandidateBox", "ranges include_zero points", defaults=(None,))
):
    """Integer exponent ranges per generator slot; slot 0 is pinned to 0.
    points are the exponent vectors the sieve fingerprints; the Gaussian
    box, whose candidates are expanded exactly, has none.

    ranges: tuple[tuple[int, int], ...].  include_zero: bool.
    points: tuple[tuple[int, ...], ...] | None, default None.
    """

    __slots__ = ()


class SieveResult(
    namedtuple("SieveResult", "mod_map fingerprints distinct_count candidate_count")
):
    """Sieve output: surviving fingerprints mapped to factored elements, in
    ascending fingerprint order.  candidate_count and distinct_count (0
    included) count the whole box, not only the fingerprinted points.

    mod_map: ModMap | None.  fingerprints: Mapping (a dict from exact
    values for the Gaussian field, otherwise a _Survivors over the residue
    dict of resolve_mod_map).
    distinct_count, candidate_count: int.
    """

    __slots__ = ()


# ---------------------------------------------------------------------------
# Unit-norm rows


def lognorm_rows(spec: PartialFieldSpec) -> list[tuple[int, ...]]:
    """One integer log2-norm row per Gaussian-unit map of the indeterminates;
    a generator that is no unit at a map is a VerificationError naming
    both.  The generators have integer coefficients, so g(conj P) is
    conj g(P), of the same norm and unit verdict: a map whose point or its
    conjugate came earlier reuses that row, and the first map to fail is
    still the one named."""
    rows, seen = [], {}
    for i, images in enumerate(spec.h2_hom_images):
        row = seen.get(images)
        if row is None:
            row = []
            for expr, gen in zip(spec.generator_exprs, spec.generators):
                try:
                    row.append(gauss_log2_norm(ratfunc_eval_gauss(gen, images)))
                except ValueError:
                    raise VerificationError(
                        f"generator {expr!r} is not a unit at h2hom row {i + 1} "
                        f"({', '.join(spec.h2_hom_exprs[i])})"
                    ) from None
            row = tuple(row)
            seen[images] = seen[tuple(map(gauss_conj, images))] = row
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Exact LP bounds on integer rows.
#
# A row (coeffs, rhs) stands for coeffs . exps <= rhs with integer coeffs
# and rhs whose common gcd is 1, so the right-hand side stays exact.


def _dedup(rows):
    """Keep, per primitive coefficient direction, the tightest right side."""
    best: dict[tuple[int, ...], tuple] = {}
    for coeffs, rhs in rows:
        g = gcd(*coeffs)
        if not g:
            if rhs < 0:
                raise VerificationError("exponent constraints are infeasible")
            continue
        common = gcd(g, rhs)
        if common > 1:
            coeffs = tuple(c // common for c in coeffs)
            rhs //= common
            g //= common
        key = coeffs if g == 1 else tuple(c // g for c in coeffs)
        cur = best.get(key)
        # Along one direction the bound is rhs / g; compare cross-multiplied.
        if cur is None or rhs * cur[2] < cur[1] * g:
            best[key] = (coeffs, rhs, g)
    return [(c, r) for c, r, _ in best.values()]


class _IntegerSimplex:
    """Primal simplex for max +-x_j over rows a_i . x <= b_i with x free,
    in exact integer arithmetic.

    The state is a vertex x with n linearly independent tight rows, the
    basis M; it carries over from one objective to the next, so each later
    objective starts at the last optimum.  Over one positive integer D, the
    tableau holds D (a_i M^-1 | slack_i) for every row and D (M^-1 | -x) for
    the coordinates; with D = |det M| every entry is an integer (Cramer's
    rule).  A pivot is the integer-preserving update of Bareiss and
    Edmonds, whose division by the old D is exact.  The search starts at
    the given point, which must satisfy every row, with the n coordinate
    hyperplanes through it standing in for tight rows (basis entries
    -1 - k).  A basis entry leaves when its multiplier is negative, or, for
    a stand-in, nonzero; stand-ins first, then the lowest row index.  The
    entering row is the first hit along the edge, ties to the lowest index.
    Stand-ins never come back, and with exact arithmetic this rule (Bland's)
    cannot cycle."""

    def __init__(self, rows, start) -> None:
        n = len(start)
        self.rows = [
            [*coeffs, rhs - sum(c * s for c, s in zip(coeffs, start))]
            for coeffs, rhs in rows
        ]
        self.inverse = [
            [int(i == k) for k in range(n)] + [-x] for i, x in enumerate(start)
        ]
        self.basis = [-1 - k for k in range(n)]
        self.det = 1

    def maximise(self, j: int, sign: int) -> bool:
        """Pivot to a vertex where sign * x_j is largest; False, with the
        vertex kept, if no row bounds it."""
        basis, rows = self.basis, self.rows
        # The multipliers y with y M = sign e_j are sign times row j of
        # M^-1.
        y = self.inverse[j]
        while True:
            leaving = [
                (r, k)
                for k, r in enumerate(basis)
                if sign * y[k] < 0 or (r < 0 and y[k])
            ]
            if not leaving:
                return True
            _, k = min(leaving)
            # Edge direction d = step * M^-1 e_k, along which sign * x_j grows;
            # row i rises at step times its entry k.
            step = 1 if sign * y[k] > 0 else -1
            entering = None
            for i, row in enumerate(rows):
                rate = step * row[k]
                if rate > 0 and (entering is None or row[-1] * best < room * rate):
                    entering, room, best = i, row[-1], rate
            if entering is None:
                return False
            # Basis entry k becomes the entering row.
            alpha = rows[entering][:]
            pivot, old = abs(alpha[k]), self.det
            for row in chain(rows, self.inverse):
                f = row[k] if alpha[k] > 0 else -row[k]
                # With f = 0 and pivot = old the update is the identity.
                if f or pivot != old:
                    row[:] = [(pivot * v - f * a) // old for v, a in zip(row, alpha)]
                    row[k] = f
            self.det = pivot
            basis[k] = entering


def _lp_ranges(int_rows, width: int) -> list[tuple[int, int]]:
    """Integer range of every slot but the pinned slot 0 over the real
    relaxation of the rows: each end is floor(max +-x_j), an exact LP
    optimum.  An unbounded slot, the lowest first, or rows that no real
    point satisfies, are a VerificationError.

    The simplex starts at the origin.  If that violates a row, a phase 1
    first adds a column t >= 0 that relaxes the violated rows, starts at
    t = the largest violation and maximises -t; t > 0 at the optimum means
    no point satisfies the rows.  Otherwise the row t <= 0 joins, read off
    the tableau with slack 0, and the bounds are taken from that vertex.

    Rows closed under negation bound a polytope P = -P, so each lower end
    is minus the upper end and only the upper ends are maximised.  Such
    rows either admit the origin or no real point, so this changes neither
    phase 1 nor which slot is named unbounded."""
    rows = [(c[1:], r) for c, r in int_rows]
    n = width - 1
    violation = -min([0] + [r for _, r in rows])
    if not violation:
        simplex = _IntegerSimplex(rows, [0] * n)
    else:
        simplex = _IntegerSimplex(
            [((*c, -(r < 0)), r) for c, r in rows] + [((0,) * n + (-1,), 0)],
            [0] * n + [violation],
        )
        simplex.maximise(n, -1)
        if simplex.inverse[n][-1]:
            raise VerificationError("exponent constraints are infeasible")
        simplex.rows.append(simplex.inverse[n][:])
    symmetric = set(rows) == {(tuple(-c for c in cs), r) for cs, r in rows}
    ends, unbounded = {}, []
    # All upper ends, then all lower ends: where both are needed this order
    # takes fewer pivots than alternating the two ends of a slot.
    for sign in (1,) if symmetric else (1, -1):
        for j in range(n):
            if simplex.maximise(j, sign):
                # floor(sign * x_j) at the optimal vertex, which is the dual
                # bound y . b of the basis rows' multipliers.
                ends[j, sign] = -sign * simplex.inverse[j][-1] // simplex.det
            else:
                unbounded.append(j + 1)
    if unbounded:
        raise VerificationError(f"exponent slot {min(unbounded)} is unbounded")
    if symmetric:
        return [(-ends[j, 1], ends[j, 1]) for j in range(n)]
    return [(-ends[j, -1], ends[j, 1]) for j in range(n)]


def _integer_points(int_rows, ranges) -> list[tuple[int, ...]]:
    """Every integer point of the ranges that satisfies all rows, in
    mixed-radix order (last slot fastest).

    The points are extended one slot at a time.  Each partial point keeps
    every row's slack: the right side minus the row's partial sum and the
    least the unfixed slots can still add.  Fixing a slot only spends
    slack, so a partial point with a negative slack has no completion and
    is cut, and a full point is kept iff no slack is negative: the result
    is exact.  The slacks are packed into one int, a field per row holding
    a guard bit over the slack; every slack and cost is below the guard,
    so subtracting a packed cost borrows across no field, and a slack is
    negative iff its guard bit is clear."""
    least = [
        [min(c * lo, c * hi) for c, (lo, hi) in zip(coeffs, ranges)]
        for coeffs, _ in int_rows
    ]
    slack = [rhs - sum(m) for (_, rhs), m in zip(int_rows, least)]
    if min(slack, default=0) < 0:
        return []
    # Per slot and value, what fixing the slot there costs each row.
    levels = [
        [
            (e, [coeffs[j] * e - m[j] for (coeffs, _), m in zip(int_rows, least)])
            for e in range(lo, hi + 1)
        ]
        for j, (lo, hi) in enumerate(ranges)
    ]
    spends = (c for level in levels for _, cost in level for c in cost)
    top = max([*slack, *spends], default=0)
    field = top.bit_length() + 1

    def pack(values) -> int:
        return sum(v << (field * i) for i, v in enumerate(values))

    guards = pack([1 << (field - 1)] * len(int_rows))
    partial = [(pack(slack) + guards, ())]
    for level in levels:
        costs = [(e, pack(cost)) for e, cost in level]
        partial = [
            (rest, point + (e,))
            for total, point in partial
            for e, cost in costs
            if (rest := total - cost) & guards == guards
        ]
    return [point for _, point in partial]


def _inequalities(rows, extra_bounds, width: int) -> list[tuple[tuple[int, ...], int]]:
    """Integer inequalities: each log2-norm row r gives +-r . exps <= 2, and
    each extra bound lo <= exps[slot] <= hi gives two unit rows."""
    int_rows = []
    for row in rows:
        int_rows.append((tuple(row), 2))
        int_rows.append((tuple(-c for c in row), 2))
    for slot, lo_extra, hi_extra in extra_bounds:
        unit = [0] * width
        unit[slot] = 1
        int_rows.append((tuple(unit), hi_extra))
        int_rows.append((tuple(-u for u in unit), -lo_extra))
    return int_rows


# Most exponent vectors the outer LP ranges may hold before the integer
# points are enumerated inside them; the H5 box holds 32,805.
MAX_BOX_VECTORS = 1 << 20


def bound_exponents(rows, extra_bounds, include_zero: bool) -> CandidateBox:
    """Integer exponent box from integer log2-norm rows.

    The rows and their negations are deduplicated, and each slot is
    bounded in their real relaxation by an exact integer simplex (see
    _lp_ranges).  Only the validity of these outer bounds
    matters: one enumeration inside them lists the integer points of the
    rows, and the box is their bounding box, carrying the points.  That
    loses no fundamental element: every fundamental element satisfies every
    norm row, so it is one of the points, and the rows are the only source
    of the box.  Extra per-slot bounds join the system.  An unbounded slot,
    outer ranges of more than MAX_BOX_VECTORS vectors, or a system without
    integer points, is a VerificationError."""
    if not rows:
        raise VerificationError("no norm rows, so no exponent slot is bounded")
    width = len(rows[0])
    int_rows = _dedup(_inequalities(rows, extra_bounds, width))
    ranges = [(0, 0)] + _lp_ranges(int_rows, width)
    size = prod(max(hi - lo + 1, 0) for lo, hi in ranges)
    if size > MAX_BOX_VECTORS:
        raise VerificationError(
            f"the exponent box holds {size} vectors, more than {MAX_BOX_VECTORS}"
        )
    points = _integer_points(int_rows, ranges)
    if not points:
        raise VerificationError("exponent constraints are infeasible")
    ranges = tuple((min(column), max(column)) for column in zip(*points))
    return CandidateBox(ranges, include_zero, tuple(points))


@cache
def candidate_box(spec: PartialFieldSpec) -> CandidateBox:
    """Exponent box containing every fundamental element of the field."""
    if spec.is_gauss:
        # Units of norm 1/4 to 4: 2-exponent in [-1, 1], i-exponent a
        # phase in [0, 3], and (1 - i)-exponent in [0, 1].
        return CandidateBox(((0, 0), (-1, 1), (0, 3), (0, 1)), True)
    try:
        return bound_exponents(
            lognorm_rows(spec), spec.extra_bounds, spec.include_zero_candidate
        )
    except VerificationError as exc:
        raise VerificationError(f"{spec.name}: {exc}") from exc


# ---------------------------------------------------------------------------
# Candidates


def _box_size(box: CandidateBox) -> int:
    """Exponent vectors in the box."""
    return prod(hi - lo + 1 for lo, hi in box.ranges)


def candidate_count(box: CandidateBox) -> int:
    """Candidates in the box: both signs of every exponent vector, plus the
    zero candidate if the box includes it."""
    return 2 * _box_size(box) + box.include_zero


def enumerate_candidates(box: CandidateBox) -> list[FactoredElement]:
    """All (sign, exponent) tuples in the box, in a fixed order: sign +1
    before -1, then the exponent vectors in mixed-radix order with the last
    slot varying fastest, then the zero candidate if the box includes it."""
    out = []
    for sign in (1, -1):
        stack = [()]
        for lo, hi in box.ranges:
            stack = [exps + (e,) for exps in stack for e in range(lo, hi + 1)]
        out.extend(FactoredElement(sign, exps) for exps in stack)
    if box.include_zero:
        out.append(FactoredElement(0, (0,) * len(box.ranges)))
    return out


# ---------------------------------------------------------------------------
# Fingerprint sieve


# Most fingerprint primes one prime search tries before it gives up.
MAX_PRIMES_TRIED = 256


def _products(p: int, residues, ranges) -> Iterator[int]:
    """Every product of one power per slot of the slot's residue mod p, in
    mixed-radix order (last slot fastest).  Each slot multiplies every
    partial product by each of its powers, so no exponent tuple is built,
    and the last slot's products are yielded as they are made, never held
    in a list."""
    *head, last = (
        [pow(r, e, p) for e in range(lo, hi + 1)]
        for r, (lo, hi) in zip(residues, ranges)
    )
    partial = [1]
    for table in head:
        partial = [f * t % p for f in partial for t in table]
    return (f * t % p for f in partial for t in last)


def _collision(mm: ModMap, box: CandidateBox) -> tuple[int, ...] | None:
    """None if mm gives every candidate of the box, and 0, its own residue.
    Otherwise a relation that rules it out: a nonzero d, one entry per slot,
    with |d_i| < w_i for the slot widths w_i and prod r_i^(2 d_i) = 1 mod p;
    or () where no search is needed.

    For p > 2, separation holds iff the squares of the exponent vectors'
    residues are distinct: sigma r(e) = sigma' r(e') forces r(e)^2 =
    r(e')^2; r(e)^2 = r(e')^2 with e != e' gives r(e) = +-r(e'), a
    collision; and the two signs of one vector would need 2 r(e) = 0.  No
    unit's residue is 0.  For odd p there are only (p - 1)/2 nonzero
    squares, so at p <= 2|B| the |B| squares cannot all be distinct; at
    p = 2, 1 = -1.  Either way the result is () without computing a square.
    So is a zero residue on a slot whose range is not {0}: a positive power
    gives two candidates the residue 0, and a negative power does not exist.

    With h_i = r_i^2, h^e = h^e' iff h^(e - e') = 1, and e - e' ranges over
    exactly the difference box D = prod [-(w_i - 1), w_i - 1].  So the
    squares are distinct iff no nonzero d in D has h^d = 1, which is
    checked meet-in-the-middle: the slots split, in order, into D_A x D_B
    at the prefix that minimises |D_A| + |D_B|.  D_B is symmetric, so its
    products are closed under inverses, and a nonzero relation (d_A, d_B)
    exists iff 1 occurs more than once among the products over D_A, or more
    than once among those over D_B, or some value v other than 1 occurs in
    both.  Only D_A's values other than 1 are held, in one set; D_B's are
    streamed against it.  On H3 / H4 / H5 that is 94 / 910 / 4,250 products
    against |B| = 175 / 6,615 / 32,805.  Only a hit is decoded, by streaming
    a half again up to the first nonzero vector with the hit's value: a
    second 1 gives (d_A, 0) or (0, d_B), and h^d_A = v = h^d_B gives
    (d_A, -d_B)."""
    p = mm.prime
    if p <= 2 * _box_size(box):
        return ()
    squares, spans = [], []
    for r, (lo, hi) in zip(mm.gen_residues, box.ranges):
        if r % p == 0 and (lo, hi) != (0, 0):
            return ()
        squares.append(r * r % p)
        spans.append((lo - hi, hi - lo))
    n, sizes = len(spans), [hi - lo + 1 for lo, hi in spans]
    k = min(range(1, n + 1), key=lambda j: prod(sizes[:j]) + prod(sizes[j:]))

    def first(j0: int, j1: int, target: int) -> tuple[int, ...]:
        """The first nonzero vector over spans[j0:j1] whose product is target."""
        vectors = product(*(range(lo, hi + 1) for lo, hi in spans[j0:j1]))
        values = _products(p, squares[j0:j1], spans[j0:j1])
        return next(d for d, v in zip(vectors, values) if v == target and any(d))

    held, ones = set(), 0
    for v in _products(p, squares[:k], spans[:k]):
        if v == 1:
            ones += 1
        else:
            held.add(v)
    if ones > 1:
        return first(0, k, 1) + (0,) * (n - k)
    if k == n:
        return None
    ones = 0
    for v in _products(p, squares[k:], spans[k:]):
        if v == 1:
            ones += 1
            if ones > 1:
                return (0,) * k + first(k, n, 1)
        elif v in held:
            return first(0, k, v) + tuple(-x for x in first(k, n, v))
    return None


def _is_one_at_modvar_point(spec: PartialFieldSpec, fe: FactoredElement) -> bool:
    """Whether fe is exactly 1 at the modvar point, comparing its integer
    numerator and denominator there, products of generator values.  Then it
    is 1 mod every prime where the generators are units, so no prime
    separates.  Only called once a prime has given every generator a unit
    residue, so no generator's value there is 0."""
    point = spec.mod_var_residues

    def at_point(poly) -> int:
        return sum(c * prod(x**e for x, e in zip(point, m)) for m, c in poly.items())

    values = [at_point(g.num) ** abs(e) for g, e in zip(spec.generators, fe.exps)]
    over = prod(v for v, e in zip(values, fe.exps) if e > 0)
    return fe.sign * over == prod(v for v, e in zip(values, fe.exps) if e < 0)


def resolve_mod_map(spec: PartialFieldSpec, box: CandidateBox) -> tuple[ModMap, dict]:
    """Modular map whose fingerprints separate all candidates and 0, and
    the residue of each of the box's points under it, sign 1, mapped to
    the point.  The fingerprints are those residues r, their negatives
    p - r (sign -1), and 0.

    The primes are tried upward from the spec prime, at most
    MAX_PRIMES_TRIED of them.  At the spec prime a vanishing generator
    residue raises the ValueError naming the generator; a later prime where
    one vanishes is skipped.  Every other prime is decided by one
    _collision call, which also rules out p <= 2|B|.  A relation d it
    returns names the quotient (sign, d), sign = r^d = +-1 mod p, which is
    first evaluated exactly at the modvar point.  If it is not 1 there it
    is not identically 1 either, and the search advances to the next prime.
    If it is, it is compared with 1 once, exactly, as the polynomial
    identity prod g_i^max(d_i, 0) = sign * prod g_i^max(-d_i, 0).  Exactly 1
    means the generators are dependent, which no prime separates, and the
    FAIL names the two equal candidates (1, e) and (sign, e + d) with
    e_i = lo_i + max(-d_i, 0), both in the box ranges.  Otherwise the FAIL
    names the modvar point and the relation, which holds mod every prime.
    """
    start = p = spec.mod_prime
    if len(box.ranges) != len(spec.generators):
        raise ValueError("exponent vector length mismatch")
    count = candidate_count(box)
    for _ in range(MAX_PRIMES_TRIED):
        try:
            mm = spec.mod_map(p)
        except ValueError:
            if p == start:
                raise
            mm = None
        d = () if mm is None else _collision(mm, box)
        if d is None:
            # One table of powers per slot; a point's residue is the product
            # of its slots' entries.
            powers = [
                {e: pow(r, e, p) for e in range(lo, hi + 1)}
                for r, (lo, hi) in zip(mm.gen_residues, box.ranges)
            ]
            return mm, {
                prod(map(getitem, powers, point)) % p: point for point in box.points
            }
        if d:
            sign = 1 if mod_eval(mm, 1, d) == 1 else -1
            quotient = FactoredElement(sign, d)
            if _is_one_at_modvar_point(spec, quotient):
                over, under = ([max(x, 0) for x in d], [max(-x, 0) for x in d])
                over, under = generator_products(spec, ((1, over), (sign, under)))
                if over == under:
                    e = tuple(lo + max(-x, 0) for (lo, _), x in zip(box.ranges, d))
                    first = FactoredElement(1, e)
                    second = FactoredElement(sign, tuple(a + x for a, x in zip(e, d)))
                    raise VerificationError(
                        f"{spec.name}: candidates {first} and {second} are exactly "
                        "equal, so their quotient is a relation among the generators"
                    )
                at = ", ".join(
                    f"{v} = {x}" for v, x in zip(spec.var_names, spec.mod_var_residues)
                )
                raise VerificationError(
                    f"{spec.name}: the generator values at the modvar point {at} "
                    f"satisfy {quotient} = 1, so no fingerprint prime separates "
                    "the candidates"
                )
        p = next_prime(p)
    raise VerificationError(
        f"{spec.name}: no fingerprint prime among {MAX_PRIMES_TRIED} from "
        f"{start} separates the {count} candidates"
    )


def _gauss_sieve(spec: PartialFieldSpec, candidates) -> SieveResult:
    values: dict[GaussDyadic, None] = {}
    for fe in candidates:
        values.setdefault(expand_element(spec, fe), None)
    window = []
    for v in values:
        if gauss_is_zero(v):
            window.append(v)
        elif gauss_is_unit(v) and abs(gauss_log2_norm(v)) <= 2:
            window.append(v)
    in_window = set(window)
    survivors = [v for v in window if gauss_sub(GAUSS_ONE, v) in in_window]
    # By real part, then imaginary part, both over the largest denominator.
    scale = max((v.two_exp for v in survivors), default=0)
    survivors.sort(
        key=lambda v: (v.re_num << (scale - v.two_exp), v.im_num << (scale - v.two_exp))
    )
    fingerprints = {v: factor_over_generators(spec, v) for v in survivors}
    return SieveResult(None, fingerprints, len(window), len(candidates))


class _Survivors(Mapping):
    """The fingerprints fp over the box's points, both signs, and 0 with
    (1 - fp) mod p also among them, mapped to their factored elements, in
    ascending fingerprint order.  Only the residues of sign 1 are held,
    each mapped to its point; a fingerprint fp of sign -1 is found at
    p - fp.  Nothing is filtered or sorted up front, and an element is
    built only when it is read: iteration pops every fingerprint off a
    heap and yields the survivors, so a check that stops at an early pair
    orders nothing more.  The order is kept once an iteration has run to
    the end."""

    __slots__ = ("_residues", "_p", "_width", "_order")

    def __init__(self, residues: dict, p: int, width: int) -> None:
        self._residues, self._p, self._width = residues, p, width
        self._order = None

    def _is_fingerprint(self, fp: int) -> bool:
        """Whether fp is 0, a residue r, or p - r."""
        return fp == 0 or fp in self._residues or self._p - fp in self._residues

    def __getitem__(self, fp: int) -> FactoredElement:
        if not (self._is_fingerprint(fp) and self._is_fingerprint((1 - fp) % self._p)):
            raise KeyError(fp)
        if fp == 0:
            return FactoredElement(0, (0,) * self._width)
        if (point := self._residues.get(fp)) is not None:
            return FactoredElement(1, point)
        return FactoredElement(-1, self._residues[self._p - fp])

    def __iter__(self) -> Iterator[int]:
        if self._order is not None:
            yield from self._order
            return
        p, order = self._p, []
        heap = [0, *self._residues, *(p - r for r in self._residues)]
        heapify(heap)
        while heap:
            fp = heappop(heap)
            if self._is_fingerprint((1 - fp) % p):
                order.append(fp)
                yield fp
        self._order = order

    def __len__(self) -> int:
        if self._order is None:
            for _ in self:  # a full iteration keeps the order
                pass
        return len(self._order)


def fingerprint_sieve(spec: PartialFieldSpec, box: CandidateBox) -> SieveResult:
    """Keep the points c, of both signs, and 0, with both c and 1 - c among
    their fingerprints.  The prime and the residues come from
    resolve_mod_map; the survivors are ordered only as they are read.  The
    fingerprints separate the whole box, and a unit's residue is never 0,
    so 0 is a new fingerprint unless the box has it."""
    if spec.is_gauss:
        return _gauss_sieve(spec, enumerate_candidates(box))
    mm, residues = resolve_mod_map(spec, box)
    count = candidate_count(box)
    survivors = _Survivors(residues, mm.prime, len(box.ranges))
    return SieveResult(mm, survivors, count + (not box.include_zero), count)


# ---------------------------------------------------------------------------
# Exact verification of the survivors


def _is_one_minus(spec: PartialFieldSpec, s, t) -> bool:
    """Whether 1 - s = t exactly for factored s and t (see verify_survivors)."""
    if spec.is_gauss:
        one_minus_s = complement(expand_element(spec, s))
        return value_eq(one_minus_s, expand_element(spec, t))
    m = [max(0, -e, -f) for e, f in zip(s.exps, t.exps)]
    m_, m_s, m_t = generator_products(
        spec, ((1, m), (s.sign, map(add, m, s.exps)), (t.sign, map(add, m, t.exps)))
    )
    return poly_arith(m_, m_s, "sub") == m_t


def verify_survivors(
    spec: PartialFieldSpec,
    result: SieveResult,
    elements: list[tuple[FactoredElement, RatFunc | GaussDyadic]],
) -> None:
    """Cross-check sieve survivors against the associate-closure route.

    Checks that every survivor s has a partner, the survivor at the
    fingerprint of 1 - s, and that 1 - s is exactly that partner, once per
    pair {s, t}, since 1 - s = t iff 1 - t = s; then that the two routes
    found the same factored elements.  The pairs come first, so a prime too
    small to separate the fundamentals is named as the cause.  Raises
    VerificationError otherwise, naming the fingerprint prime and the
    first survivor, in ascending fingerprint order, that the closure lacks,
    or failing that the first closure element that the sieve lacks.

    Gaussian pairs are compared as values.  Otherwise, for s = (sigma, e)
    and t = (tau, f), M = prod g_i^max(0, -e_i, -f_i) is not 0, and M, M*s
    and M*t are products of generator powers, so polynomials: 1 - s = t iff
    M - M*s = M*t, an exact identity with no rational function.
    """
    mm = result.mod_map
    at = "" if mm is None else f" at fingerprint prime {mm.prime}"
    survivors = result.fingerprints
    checked = set()  # fingerprints of partners already checked exactly
    for fp, fe in survivors.items():
        # A Gaussian value is its own fingerprint.
        partner_fp = gauss_sub(GAUSS_ONE, fp) if mm is None else (1 - fp) % mm.prime
        partner = survivors.get(partner_fp)
        if partner is None:
            raise VerificationError(
                f"{spec.name}: survivor {fe} has no partner for 1 - s{at}"
            )
        if fp in checked:
            continue
        checked.add(partner_fp)
        if not _is_one_minus(spec, fe, partner):
            raise VerificationError(
                f"{spec.name}: 1 - s is not exactly the paired survivor "
                f"for {fe}{at}"
            )
    closed = {fe for fe, _ in elements}
    sieved = set(survivors.values())
    if sieved != closed:
        for fe in survivors.values():
            if fe not in closed:
                raise VerificationError(
                    f"{spec.name}: survivor {fe} is not in the closure{at}"
                )
        missing = next(fe for fe, _ in elements if fe not in sieved)
        raise VerificationError(
            f"{spec.name}: closure element {missing} is missing from the sieve{at}"
        )


# ---------------------------------------------------------------------------
# Command output: the `bounds` payload (a dict that doubles as the JSON
# output) and text


def bounds_payload(spec: PartialFieldSpec) -> dict:
    """The exponent box's slot ranges and its candidate count."""
    box = candidate_box(spec)
    return {
        "field": spec.name,
        "ranges": [list(r) for r in box.ranges],
        "include_zero": box.include_zero,
        "candidates": candidate_count(box),
        "verdict": "PASS",
    }


def bounds_text(payload: dict) -> list[str]:
    ranges = ", ".join(f"[{lo}, {hi}]" for lo, hi in payload["ranges"])
    zero = "with" if payload["include_zero"] else "without"
    return [
        f"{payload['field']}: exponent ranges {ranges} "
        f"({zero} the zero candidate)",
        f"  {payload['candidates']} candidates",
    ]
