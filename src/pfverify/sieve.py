"""Exponent-box bounding and the modular fingerprint sieve.

Every unit of a field is sign * prod(generators ** exps).  Mapping the
indeterminates to Gaussian dyadic units turns each generator into a unit
whose log2-norm is an exact half-integer, so every such map yields one
linear row r with |r . exps| <= 1.  Doubling the rows makes them integer
rows.  Each exponent is bounded in the real relaxation of those rows by an
LP dual certificate: a float simplex picks the tight rows, and exact
integer arithmetic solves for their multipliers and checks them.  A slot
without a checked certificate is bounded by exact Fourier-Motzkin
elimination instead.  One pruned enumeration inside those outer ranges then
lists the integer points of the rows: every exponent vector that can be
fundamental.  The box is their bounding box.

Each candidate gets a fingerprint (its residue under the spec's modular
map, or its exact value for the Gaussian field).  No other module chooses
a fingerprint prime or computes a fingerprint.  For each prime tried, the
fingerprints of the whole box are checked to be distinct as the size of a
set, built in one mixed-radix pass in enumerate_candidates order: start
from the two sign residues and, slot by slot, multiply each partial product
by every residue power the slot takes.  Only on a collision is the
colliding pair found by index and decoded; an exact check tells a
dependent generator set (a FAIL) from an unlucky prime (advance to the
next one, up to a fixed count).  The search starts at the spec prime: a
generator residue that vanishes there is a FAIL naming the generator, and
a later prime where one vanishes is skipped.  The sieve itself
fingerprints only the points, both signs, and zero: a candidate survives
iff the fingerprint of 1 - candidate is also among them.  Survivors are
cross-checked exactly.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import chain, product
from math import gcd, prod
from typing import NamedTuple

from .exact import (
    GAUSS_ONE,
    GaussDyadic,
    ModMap,
    RatFunc,
    gauss_is_unit,
    gauss_is_zero,
    gauss_lognorm,
    gauss_re_im,
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
    points are the exponent vectors the sieve fingerprints; None, for a
    box built without rows, stands for every vector of the ranges."""

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


def lognorm_rows(spec: PartialFieldSpec) -> list[tuple[Fraction, ...]]:
    """One log2-norm row per Gaussian-unit map of the indeterminates; a
    generator that is no unit at a map is a VerificationError naming both."""
    rows = []
    for i, images in enumerate(spec.h2_hom_images):
        row = []
        for expr, gen in zip(spec.generator_exprs, spec.generators):
            try:
                row.append(gauss_lognorm(ratfunc_eval_gauss(gen, images)))
            except ValueError:
                raise VerificationError(
                    f"generator {expr!r} is not a unit at h2hom row {i + 1} "
                    f"({', '.join(spec.h2_hom_exprs[i])})"
                ) from None
        rows.append(tuple(row))
    return rows


# ---------------------------------------------------------------------------
# Fourier-Motzkin bounding on doubled integer rows: the exact fallback for
# a slot without LP certificates, and the reference the tests compare them
# against.
#
# A row (coeffs, rhs, hist) stands for coeffs . exps <= rhs with integer
# coeffs and rhs whose common gcd is 1, so the right-hand side stays exact;
# hist is the bitmask of the original rows it was combined from.


def _dedup(rows):
    """Keep, per primitive coefficient direction, the tightest right side."""
    best: dict[tuple[int, ...], tuple] = {}
    for coeffs, rhs, hist in rows:
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
        if cur is None:
            best[key] = (coeffs, rhs, hist, g)
            continue
        lhs, rhs_cur = rhs * cur[3], cur[1] * g
        if lhs < rhs_cur or (
            lhs == rhs_cur and hist.bit_count() < cur[2].bit_count()
        ):
            best[key] = (coeffs, rhs, hist, g)
    return [(c, r, h) for c, r, h, _ in best.values()]


def _eliminate(rows, j: int, max_hist: int):
    """One Fourier-Motzkin step.  Combinations drawing on more than
    max_hist original rows are redundant (Imbert) and dropped."""
    pos, neg, rest = [], [], []
    for row in rows:
        c = row[0][j]
        if c > 0:
            pos.append(row)
        elif c < 0:
            neg.append(row)
        else:
            rest.append(row)
    for pc, pr, ph in pos:
        a = pc[j]
        for nc, nr, nh in neg:
            hist = ph | nh
            if hist.bit_count() > max_hist:
                continue
            b = -nc[j]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            rest.append((coeffs, b * pr + a * nr, hist))
    return _dedup(rest)


def _fm_bounds(int_rows, target: int, width: int) -> tuple[int, int]:
    """Integer range of one slot over the real relaxation of the rows."""
    cur = _dedup([(c, r, 1 << i) for i, (c, r) in enumerate(int_rows)])
    remaining = [j for j in range(1, width) if j != target]
    eliminated = 0
    while remaining:
        eliminated += 1

        def fill(j: int) -> int:
            p = sum(1 for row in cur if row[0][j] > 0)
            n = sum(1 for row in cur if row[0][j] < 0)
            return p * n - p - n

        j = min(remaining, key=fill)
        remaining.remove(j)
        cur = _eliminate(cur, j, eliminated + 1)
    lo = hi = None
    for coeffs, rhs, _ in cur:
        c = coeffs[target]
        if c > 0:
            bound = rhs // c
            hi = bound if hi is None else min(hi, bound)
        elif c < 0:
            bound = -(rhs // -c)
            lo = bound if lo is None else max(lo, bound)
    if lo is None or hi is None:
        raise VerificationError(f"exponent slot {target} is unbounded")
    return lo, hi


# ---------------------------------------------------------------------------
# Exact LP certificates
#
# By LP duality, y >= 0 with sum y_i a_i = s e_j proves s x_j <= y . b for
# every real point of the rows a_i . x <= b_i.  A float simplex proposes the
# rows y rests on; the multipliers are then solved for and checked in exact
# integer arithmetic, so a float error can cost a fallback to Fourier-Motzkin
# but never a wrong bound.

# Float tolerance of the simplex.  It only steers the search: every bound
# it leads to is checked exactly.
_EPS = 1e-9

# Pivots one objective may take before the float search gives it up.
_MAX_PIVOTS = 1000


class _VertexSimplex:
    """Primal simplex for max +-x_j over rows a_i . x <= b_i with x free.

    The state is a vertex, kept as the slack of every row, with n linearly
    independent tight rows (the basis B); it carries over from one
    objective to the next, so each later objective starts at the last
    optimum.  The tableau holds a_i B^-1 for every row,
    followed by the rows of B^-1.  The search starts at the origin, which
    must be feasible, with the n coordinate hyperplanes through it standing
    in for tight rows (basis entries -1 - k); Bland's rule moves those out
    first and never lets them back.  A basis row leaves when its multiplier
    is negative, the lowest row index first, and the entering row is the
    first hit along the edge, ties to the lowest index."""

    def __init__(self, rows) -> None:
        n = len(rows[0][0])
        self.tableau = [[float(c) for c in coeffs] for coeffs, _ in rows] + [
            [float(i == k) for k in range(n)] for i in range(n)
        ]
        self.slack = [float(rhs) for _, rhs in rows]
        self.basis = [-1 - k for k in range(n)]

    def maximise(self, j: int, sign: int) -> list[int] | None:
        """Row indices of an optimal basis for max sign * x_j, or None if
        the objective looks unbounded or the pivot budget runs out."""
        basis, tableau, slack = self.basis, self.tableau, self.slack
        m = len(slack)
        for _ in range(_MAX_PIVOTS):
            # The multipliers y with y B = sign e_j are sign times row j of
            # B^-1.
            y = tableau[m + j]
            leaving = [
                (r, k) for k, r in enumerate(basis) if r < 0 or sign * y[k] < -_EPS
            ]
            if not leaving:
                return list(basis)
            _, k = min(leaving)
            # Edge direction d = step * B^-1 e_k, along which sign * d_j >= 0.
            step = 1.0 if basis[k] < 0 and sign * y[k] >= 0 else -1.0
            rates = [step * row[k] for row in tableau[:m]]
            entering, t = None, 0.0
            for i, (rate, room) in enumerate(zip(rates, slack)):
                if rate > _EPS and i not in basis:
                    ratio = max(room, 0.0) / rate
                    if entering is None or ratio < t - _EPS:
                        entering, t = i, ratio
            if entering is None:
                return None
            # Basis row k becomes the entering row.
            alpha = list(tableau[entering])
            pivot = alpha[k]
            for row in tableau:
                f = row[k] / pivot
                if f:
                    row[:] = [v - f * a for v, a in zip(row, alpha)]
                row[k] = f
            slack[:] = [room - t * rate for room, rate in zip(slack, rates)]
            basis[k] = entering
        return None


def _fraction_free_solve(m: list[list[int]]) -> tuple[int, list[int]] | None:
    """Fraction-free (Bareiss) Gauss-Jordan elimination on the integer
    n x (n + 1) augmented matrix m, in place.  Returns (d, nums) with the
    solution nums[i] / d and d != 0, or None if the matrix is singular.
    Every division is exact."""
    n = len(m)
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if m[i][k]), None)
        if p is None:
            return None
        m[k], m[p] = m[p], m[k]
        pivot_row = m[k]
        pk = pivot_row[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pk * v - f * w) // prev for v, w in zip(m[i], pivot_row)]
        prev = pk
    return prev, [row[n] for row in m]


def _certified_bound(rows, basis, j: int, sign: int) -> int | None:
    """floor(y . b) for the multipliers y >= 0 of the basis rows with
    sum y_i a_i = sign * e_j, or None if the basis gives no such y.

    The multipliers are solved for exactly and the certificate is checked
    term by term, so the result bounds sign * x_j on every real point."""
    n = len(basis)
    basis_rows = [rows[r][0] for r in basis]
    target = [sign * (i == j) for i in range(n)]
    solved = _fraction_free_solve(
        [[row[i] for row in basis_rows] + [target[i]] for i in range(n)]
    )
    if solved is None:
        return None
    d, nums = solved
    if d < 0:
        d, nums = -d, [-v for v in nums]
    if min(nums) < 0:
        return None
    for i in range(n):
        if sum(v * row[i] for v, row in zip(nums, basis_rows)) != d * target[i]:
            return None
    return sum(v * rows[r][1] for v, r in zip(nums, basis)) // d


def _certified_ranges(int_rows, width: int) -> list[tuple[int, int]]:
    """Integer range of every slot but the pinned slot 0 over the real
    relaxation, each end from an exactly checked LP certificate.  A slot
    that does not get both certificates gets _fm_bounds, which also raises
    the unbounded and infeasible errors."""
    rows = [(c[1:], r) for c, r, _ in _dedup([(c, r, 0) for c, r in int_rows])]
    n = width - 1
    ends = {}
    if rows and min(r for _, r in rows) >= 0:
        simplex = _VertexSimplex(rows)
        # All upper ends, then all lower ends: on the builtin fields this
        # order takes fewer pivots than alternating the two ends of a slot.
        for sign in (1, -1):
            for j in range(n):
                basis = simplex.maximise(j, sign)
                if basis is not None:
                    ends[j, sign] = _certified_bound(rows, basis, j, sign)
    ranges = []
    for j in range(n):
        hi, neg_lo = ends.get((j, 1)), ends.get((j, -1))
        if hi is None or neg_lo is None:
            ranges.append(_fm_bounds(int_rows, j + 1, width))
        else:
            ranges.append((-neg_lo, hi))
    return ranges


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


def _doubled_rows(rows, extra_bounds, width: int) -> list[tuple[tuple[int, ...], int]]:
    """Integer inequalities: each half-integer norm row r gives
    +-2r . exps <= 2, and each extra bound lo <= exps[slot] <= hi gives
    two unit rows."""
    int_rows = []
    for i, row in enumerate(rows):
        doubled = [2 * Fraction(c) for c in row]
        if any(c.denominator != 1 for c in doubled):
            raise VerificationError(f"norm row {i} is not a half-integer row")
        coeffs = tuple(int(c) for c in doubled)
        int_rows.append((coeffs, 2))
        int_rows.append((tuple(-c for c in coeffs), 2))
    for slot, lo_extra, hi_extra in extra_bounds:
        unit = [0] * width
        unit[slot] = 1
        int_rows.append((tuple(unit), hi_extra))
        int_rows.append((tuple(-u for u in unit), -lo_extra))
    return int_rows


def bound_exponents(rows, extra_bounds, include_zero: bool) -> CandidateBox:
    """Integer exponent box from norm rows.

    The half-integer norm rows are doubled into integer rows, and each
    slot is bounded in their real relaxation: each end by an LP dual
    certificate that a float simplex proposes and exact integer arithmetic
    checks, or, for a slot whose certificates fail, by Fourier-Motzkin
    elimination (gcd-normalised, exact right sides, Imbert's history
    bound).  Only the validity of these outer bounds matters: one
    enumeration inside them lists the integer points of the deduplicated
    rows, and the box is their bounding box, carrying the points.  That
    loses no fundamental element: every fundamental element satisfies every
    norm row, so it is one of the points, and the rows are the only source
    of the box.  Extra per-slot bounds join the system.  An unbounded slot,
    or a system without integer points, is a VerificationError."""
    if not rows:
        raise VerificationError("no norm rows, so no exponent slot is bounded")
    width = len(rows[0])
    int_rows = _doubled_rows(rows, extra_bounds, width)
    int_rows = [(c, r) for c, r, _ in _dedup([(c, r, 0) for c, r in int_rows])]
    points = _integer_points(int_rows, [(0, 0)] + _certified_ranges(int_rows, width))
    if not points:
        raise VerificationError("exponent constraints are infeasible")
    ranges = tuple((min(column), max(column)) for column in zip(*points))
    return CandidateBox(ranges, include_zero, tuple(points))


@memo_by_spec
def candidate_box(spec: PartialFieldSpec) -> CandidateBox:
    """Exponent box containing every fundamental element of the field."""
    if spec.is_gauss:
        # Units with |log2 norm| <= 1: 2-exponent in [-1, 1], i-exponent a
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


def candidate_at(box: CandidateBox, index: int) -> FactoredElement:
    """The candidate at index in enumerate_candidates order, decoded from
    its mixed-radix digits.  The index just past the signed candidates is
    always the zero element, whether or not the box includes it."""
    size = _box_size(box)
    if index == 2 * size:
        return FactoredElement(0, (0,) * len(box.ranges))
    sign_digit, rest = divmod(index, size)
    exps = []
    for lo, hi in reversed(box.ranges):
        rest, digit = divmod(rest, hi - lo + 1)
        exps.append(lo + digit)
    return FactoredElement(-1 if sign_digit else 1, tuple(reversed(exps)))


# ---------------------------------------------------------------------------
# Fingerprint sieve


# Most fingerprint primes one prime search tries before it gives up.
MAX_PRIMES_TRIED = 256


def box_fingerprints(mm: ModMap, box: CandidateBox) -> Iterator[int]:
    """Residue of every candidate under mm, in enumerate_candidates order.

    Mixed-radix evaluation: start from the two sign residues and, slot by
    slot, multiply every partial product by each of the slot's residue
    powers, so no candidate tuple is built.  The products with the last
    slot's powers are yielded as they are made, never held in a list."""
    p = mm.prime
    *head, last = (
        [pow(r, e, p) for e in range(lo, hi + 1)]
        for r, (lo, hi) in zip(mm.gen_residues, box.ranges)
    )
    fps = [1, p - 1]
    for table in head:
        fps = [f * t % p for f in fps for t in table]
    return chain((f * t % p for f in fps for t in last), [0] * box.include_zero)


def resolve_mod_map(
    spec: PartialFieldSpec, box: CandidateBox
) -> tuple[ModMap, dict, int]:
    """Modular map whose fingerprints separate all candidates and 0; its
    fingerprint -> factored element dict over the box's points, both signs,
    and 0; and the number of distinct fingerprints in the whole box, 0
    included.

    Separation is checked as the size of the set of box_fingerprints; only
    a collision looks up the colliding pair by index (see candidate_at).
    At the spec prime a vanishing generator residue raises the ValueError
    naming the generator.  A collision advances to the next prime, and a
    later prime where a generator vanishes is skipped, for at most
    MAX_PRIMES_TRIED primes.  A collision is checked exactly: two equal
    candidates mean the generators are dependent, which no prime separates.
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
            p = next_prime(p)
            continue
        assert mm is not None
        if len(set(box_fingerprints(mm, box))) == count:
            points = box.points
            if points is None:
                points = product(*(range(lo, hi + 1) for lo, hi in box.ranges))
            fps = {0: FactoredElement(0, (0,) * len(box.ranges))}
            for point in points:
                fp = mod_eval(mm, 1, point)
                fps[fp] = FactoredElement(1, point)
                fps[p - fp] = FactoredElement(-1, point)
            # A unit's residue is never 0, so 0 is new unless the box has it.
            return mm, fps, count + (not box.include_zero)
        seen: dict = {}
        for i, fp in enumerate(box_fingerprints(mm, box)):
            j = seen.setdefault(fp, i)
            if j != i:
                break
        first, second = candidate_at(box, j), candidate_at(box, i)
        if value_eq(expand_element(spec, first), expand_element(spec, second)):
            raise VerificationError(
                f"{spec.name}: candidates {first} and {second} are exactly "
                "equal, so their quotient is a relation among the generators"
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
        elif gauss_is_unit(v) and abs(gauss_lognorm(v)) <= 1:
            window.append(v)
    in_window = set(window)
    survivors = [v for v in window if gauss_sub(GAUSS_ONE, v) in in_window]
    survivors.sort(key=gauss_re_im)
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
) -> dict[FactoredElement, FactoredElement]:
    """Cross-check sieve survivors against the associate-closure route.

    Checks that the counts match, that 1 - s is exactly the survivor the
    fingerprint arithmetic pairs it with, and that fingerprints put the two
    routes in elementwise bijection.  Raises VerificationError otherwise.
    Returns the checked pairing, s -> 1 - s, on factored forms.
    """
    if len(result.fingerprints) != len(elements):
        raise VerificationError(
            f"{spec.name}: sieve found {len(result.fingerprints)} survivors, "
            f"closure found {len(elements)}"
        )
    mm = result.mod_map
    partner_of = {}
    for fp, fe in result.fingerprints.items():
        value = expand_element(spec, fe)
        if isinstance(fp, GaussDyadic):
            partner_fp = gauss_sub(GAUSS_ONE, fp)
        else:
            assert mm is not None
            partner_fp = (1 - fp) % mm.prime
        partner = result.fingerprints.get(partner_fp)
        if partner is None:
            raise VerificationError(
                f"{spec.name}: survivor {fe} has no partner for 1 - s"
            )
        complement = _exact_complement(spec, value)
        if not value_eq(complement, expand_element(spec, partner)):
            raise VerificationError(
                f"{spec.name}: 1 - s is not exactly the paired survivor for {fe}"
            )
        partner_of[fe] = partner
    for fe, value in elements:
        # A Gaussian value is its own fingerprint.
        fp = value if mm is None else mod_eval(mm, fe.sign, fe.exps)
        survivor = result.fingerprints.get(fp)
        if survivor is None:
            raise VerificationError(
                f"{spec.name}: closure element {fe} missing from the sieve"
            )
        if survivor != fe:
            raise VerificationError(
                f"{spec.name}: routes disagree at fingerprint {fp}: "
                f"{survivor} vs {fe}"
            )
    return partner_of
