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
The sieve itself fingerprints only the points, both signs, and zero: a
candidate survives iff the fingerprint of 1 - candidate is also among
them.  Survivors are cross-checked exactly, once per pair {s, 1 - s}.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain, product
from math import gcd, prod
from operator import getitem
from typing import NamedTuple

from .exact import (
    GAUSS_ONE,
    SCREEN_PRIME,
    GaussDyadic,
    ModMap,
    RatFunc,
    gauss_is_unit,
    gauss_is_zero,
    gauss_log2_norm,
    gauss_sub,
    mod_eval,
    next_prime,
    ratfunc_arith,
    ratfunc_const,
    ratfunc_eval_gauss,
)
from .pfield import (
    FactoredElement,
    PartialFieldSpec,
    VerificationError,
    expand_element,
    factor_over_generators,
    memo_by_spec,
    value_eq,
)


class CandidateBox(NamedTuple):
    """Integer exponent ranges per generator slot; slot 0 is pinned to 0.
    points are the exponent vectors the sieve fingerprints; the Gaussian
    box, whose candidates are expanded exactly, has none."""

    ranges: tuple[tuple[int, int], ...]
    include_zero: bool
    points: tuple[tuple[int, ...], ...] | None = None


class SieveResult(NamedTuple):
    """Sieve output: surviving fingerprints mapped to factored elements.
    candidate_count and distinct_count (0 included) count the whole box,
    not only the fingerprinted points."""

    mod_map: ModMap | None
    fingerprints: dict
    distinct_count: int
    candidate_count: int


# ---------------------------------------------------------------------------
# Unit-norm rows


def lognorm_rows(spec: PartialFieldSpec) -> list[tuple[int, ...]]:
    """One integer log2-norm row per Gaussian-unit map of the indeterminates;
    a generator that is no unit at a map is a VerificationError naming
    both."""
    rows = []
    for i, images in enumerate(spec.h2_hom_images):
        row = []
        for expr, gen in zip(spec.generator_exprs, spec.generators):
            try:
                row.append(gauss_log2_norm(ratfunc_eval_gauss(gen, images)))
            except ValueError:
                raise VerificationError(
                    f"generator {expr!r} is not a unit at h2hom row {i + 1} "
                    f"({', '.join(spec.h2_hom_exprs[i])})"
                ) from None
        rows.append(tuple(row))
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


@memo_by_spec
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


def _is_one(spec: PartialFieldSpec, fe: FactoredElement) -> bool:
    """Whether fe is exactly 1.  Its numerator and denominator are first
    evaluated from the generators' screen residues, with no inverse, as
    ratfunc_eq screens; only if they agree is fe expanded and compared."""
    num, den = fe.sign, 1
    for gen, e in zip(spec.generators, fe.exps):
        top, bottom = gen.screen_residues
        if e < 0:
            top, bottom, e = bottom, top, -e
        num = num * pow(top, e, SCREEN_PRIME) % SCREEN_PRIME
        den = den * pow(bottom, e, SCREEN_PRIME) % SCREEN_PRIME
    if (num - den) % SCREEN_PRIME:
        return False
    return value_eq(expand_element(spec, fe), ratfunc_const(spec.arity, 1))


def _is_one_at_modvar_point(spec: PartialFieldSpec, fe: FactoredElement) -> bool:
    """Whether fe is exactly 1 at the modvar point, comparing its integer
    numerator and denominator there.  Then it is 1 mod every prime where
    the generators are units, so no prime separates.  Only called once a
    prime has given every generator a unit residue, so no value there is 0
    or has a vanishing denominator."""
    point = spec.mod_var_residues

    def at_point(poly) -> int:
        return sum(c * prod(x**e for x, e in zip(point, m)) for m, c in poly.items())

    num, den = fe.sign, 1
    for gen, e in zip(spec.generators, fe.exps):
        if e:
            top, bottom = at_point(gen.num), at_point(gen.den)
            if e < 0:
                top, bottom, e = bottom, top, -e
            num *= top**e
            den *= bottom**e
    return num == den


def resolve_mod_map(
    spec: PartialFieldSpec, box: CandidateBox
) -> tuple[ModMap, dict, int]:
    """Modular map whose fingerprints separate all candidates and 0; its
    fingerprint -> factored element dict over the box's points, both signs,
    and 0; and the number of distinct fingerprints in the whole box, 0
    included.

    The primes are tried upward from the spec prime, at most
    MAX_PRIMES_TRIED of them.  At the spec prime a vanishing generator
    residue raises the ValueError naming the generator; a later prime where
    one vanishes is skipped.  Every other prime is decided by one
    _collision call, which also rules out p <= 2|B|.  A relation d it
    returns names the quotient (sign, d), sign = r^d = +-1 mod p, which
    _is_one checks exactly: if it is 1 the generators are dependent, which
    no prime separates, and the FAIL names the two equal candidates (1, e)
    and (sign, e + d) with e_i = lo_i + max(-d_i, 0), both in the box
    ranges.  If it is 1 at the modvar point alone, the FAIL names the point
    and the relation, which holds mod every prime; otherwise the search
    advances to the next prime.
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
            fps = {0: FactoredElement(0, (0,) * len(box.ranges))}
            for point in box.points:
                fp = prod(map(getitem, powers, point)) % p
                fps[fp] = FactoredElement(1, point)
                fps[p - fp] = FactoredElement(-1, point)
            # A unit's residue is never 0, so 0 is new unless the box has it.
            return mm, fps, count + (not box.include_zero)
        if d:
            sign = 1 if mod_eval(mm, 1, d) == 1 else -1
            quotient = FactoredElement(sign, d)
            if _is_one(spec, quotient):
                e = tuple(lo + max(-x, 0) for (lo, _), x in zip(box.ranges, d))
                first = FactoredElement(1, e)
                second = FactoredElement(sign, tuple(a + x for a, x in zip(e, d)))
                raise VerificationError(
                    f"{spec.name}: candidates {first} and {second} are exactly "
                    "equal, so their quotient is a relation among the generators"
                )
            if _is_one_at_modvar_point(spec, quotient):
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


def fingerprint_sieve(spec: PartialFieldSpec, box: CandidateBox) -> SieveResult:
    """Keep the points c, of both signs, and 0, with both c and 1 - c among
    their fingerprints.  The prime and the fingerprints come from
    resolve_mod_map."""
    if spec.is_gauss:
        return _gauss_sieve(spec, enumerate_candidates(box))
    mm, fps, distinct = resolve_mod_map(spec, box)
    p = mm.prime
    survivors = {fp: fps[fp] for fp in sorted(fp for fp in fps if (1 - fp) % p in fps)}
    return SieveResult(mm, survivors, distinct, candidate_count(box))


# ---------------------------------------------------------------------------
# Exact verification of the survivors


def _exact_complement(spec: PartialFieldSpec, value):
    if isinstance(value, GaussDyadic):
        return gauss_sub(GAUSS_ONE, value)
    return ratfunc_arith(ratfunc_const(spec.arity, 1), value, "sub")


def verify_survivors(
    spec: PartialFieldSpec,
    result: SieveResult,
    elements: list[tuple[FactoredElement, RatFunc | GaussDyadic]],
) -> None:
    """Cross-check sieve survivors against the associate-closure route.

    Checks that every survivor s has a partner, the survivor at the
    fingerprint of 1 - s, and that 1 - s is exactly that partner, once per
    pair {s, t}, since 1 - s = t iff 1 - t = s; then that the counts match,
    and that fingerprints put the two routes in elementwise bijection.  A
    survivor that fails either check comes first, so a prime too small to
    separate the fundamentals is named as the cause.  Raises
    VerificationError otherwise, naming the fingerprint prime.
    """
    mm = result.mod_map
    at = "" if mm is None else f" at fingerprint prime {mm.prime}"
    checked = set()  # fingerprints of partners already checked exactly
    for fp, fe in result.fingerprints.items():
        if isinstance(fp, GaussDyadic):
            partner_fp = gauss_sub(GAUSS_ONE, fp)
        else:
            assert mm is not None
            partner_fp = (1 - fp) % mm.prime
        partner = result.fingerprints.get(partner_fp)
        if partner is None:
            raise VerificationError(
                f"{spec.name}: survivor {fe} has no partner for 1 - s{at}"
            )
        if fp in checked:
            continue
        checked.add(partner_fp)
        complement = _exact_complement(spec, expand_element(spec, fe))
        if not value_eq(complement, expand_element(spec, partner)):
            raise VerificationError(
                f"{spec.name}: 1 - s is not exactly the paired survivor "
                f"for {fe}{at}"
            )
    if len(result.fingerprints) != len(elements):
        raise VerificationError(
            f"{spec.name}: sieve found {len(result.fingerprints)} survivors, "
            f"closure found {len(elements)}{at}"
        )
    for fe, value in elements:
        # A Gaussian value is its own fingerprint.
        fp = value if mm is None else mod_eval(mm, fe.sign, fe.exps)
        survivor = result.fingerprints.get(fp)
        if survivor is None:
            raise VerificationError(
                f"{spec.name}: closure element {fe} missing from the sieve{at}"
            )
        if survivor != fe:
            raise VerificationError(
                f"{spec.name}: routes disagree at fingerprint {fp}: "
                f"{survivor} vs {fe}{at}"
            )
