"""Tests for the exponent-box bounding and modular fingerprint sieve."""

from __future__ import annotations

import functools
import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfverify import closure, sieve
from pfverify.exact import (
    ModMap,
    RatFunc,
    gauss_from_text,
    gauss_log2_norm,
    make_const,
    mod_eval,
    next_prime,
    poly_arith,
    poly_pow,
    ratfunc_const,
    ratfunc_eval_gauss,
)
from pfverify.pfield import (
    H3_SPEC_TEXT,
    FactoredElement,
    VerificationError,
    builtin_specs,
    complement,
    expand_element,
    fundamental_table,
    parse_field_spec,
    value_eq,
)
from conftest import h3_with_only_h2hom_i_and_wide_bounds, run_cold


@pytest.fixture(scope="module")
def specs():
    return builtin_specs()


@pytest.fixture(scope="module")
def h3_result(specs):
    box = sieve.candidate_box(specs["H3"])
    return sieve.enumerate_candidates(box), sieve.fingerprint_sieve(specs["H3"], box)


# ---------------------------------------------------------------------------
# Unit-norm rows


def test_single_variable_norm_rows(specs) -> None:
    assert sieve.lognorm_rows(specs["H3"]) == [
        (0, 0, 1, 0),
        (0, 1, 0, 0),
        (0, -1, -1, -2),
    ]


def test_two_variable_norm_rows(specs) -> None:
    r0 = (0, 0, 0, 1, 1, 2, 3)
    r1 = (0, 0, -1, 1, -1, -1, -1)
    r2 = (0, -1, 0, -1, 1, -1, -1)
    r4 = (0, 1, 1, 0, 0, 0, 2)
    r5 = (0, 1, -2, 0, -2, -1, -2)
    r10 = (0, -2, 1, -2, 0, -1, -2)
    assert sieve.lognorm_rows(specs["H4"]) == [
        r0, r1, r2, r2, r4, r5, r4, r5, r1, r0, r10, r10,
    ]


def test_three_variable_norm_rows_first_and_last(specs) -> None:
    rows = sieve.lognorm_rows(specs["H5"])
    assert len(rows) == 30
    assert rows[0] == (0, 0, 1, 0, 2, 0, 1, 1, 0, 1)
    assert rows[-1] == (0, 2, 1, 1, 0, 0, 0, 1, 1, 0)


def _rows_point_by_point(spec) -> list[tuple[int, ...]]:
    """The reference: every generator evaluated at every h2hom point."""
    return [
        tuple(
            gauss_log2_norm(ratfunc_eval_gauss(gen, images)) for gen in spec.generators
        )
        for images in spec.h2_hom_images
    ]


def _counting_evaluations(monkeypatch) -> list:
    calls = []
    evaluate = sieve.ratfunc_eval_gauss
    monkeypatch.setattr(
        sieve, "ratfunc_eval_gauss", lambda *a: calls.append(a[1]) or evaluate(*a)
    )
    return calls


@pytest.mark.parametrize("name, points", [("H3", 3), ("H4", 6), ("H5", 15)])
def test_norm_rows_are_evaluated_once_per_conjugate_pair(
    specs, monkeypatch, name, points
) -> None:
    spec = specs[name]
    calls = _counting_evaluations(monkeypatch)
    rows = sieve.lognorm_rows(spec)
    assert rows == _rows_point_by_point(spec)
    assert len(calls) == points * len(spec.generators)


def test_repeated_and_self_conjugate_points_reuse_their_rows(monkeypatch) -> None:
    # Generators -1, a and 1 - a are units at the real points -1 and 2,
    # which are their own conjugates; -i is the conjugate of i, and i
    # comes again.
    text = H3_SPEC_TEXT.replace("gen a^2 - a + 1\n", "").replace(
        "h2hom 1 - i\nh2hom (1 - i)/2\n", "h2hom -1\nh2hom -i\nh2hom 2\nh2hom i\n"
    )
    spec = parse_field_spec(text)
    assert spec.h2_hom_exprs == (("i",), ("-1",), ("-i",), ("2",), ("i",))
    calls = _counting_evaluations(monkeypatch)
    rows = sieve.lognorm_rows(spec)
    assert rows == _rows_point_by_point(spec)
    assert rows == [(0, 0, 1), (0, 0, 2), (0, 0, 1), (0, 2, 0), (0, 0, 1)]
    assert calls[::3] == [spec.h2_hom_images[k] for k in (0, 1, 3)]


def test_the_first_failing_point_is_named_before_its_conjugate() -> None:
    # a^2 - 5a is no unit at -i or at its conjugate i; the row named is the
    # first, whichever of the two comes first.
    text = H3_SPEC_TEXT.replace("h2hom i\n", "h2hom -i\nh2hom i\n")
    spec = parse_field_spec(text + "gen a^2 - 5*a\n")
    named = r"^generator 'a\^2 - 5\*a' is not a unit at h2hom row 1 \(-i\)$"
    with pytest.raises(VerificationError, match=named):
        sieve.lognorm_rows(spec)


# ---------------------------------------------------------------------------
# Exponent bounding


def test_single_variable_box(specs) -> None:
    box = sieve.candidate_box(specs["H3"])
    assert box.ranges == ((0, 0), (-2, 2), (-2, 2), (-3, 3))
    assert box.include_zero


def test_two_variable_box(specs) -> None:
    box = sieve.candidate_box(specs["H4"])
    assert box.ranges == (
        (0, 0), (-1, 1), (-1, 1), (-3, 3), (-3, 3), (-1, 1), (-2, 2),
    )
    assert not box.include_zero


def test_three_variable_box(specs) -> None:
    box = sieve.candidate_box(specs["H5"])
    expected = [(0, 0)] + [(-1, 1)] * 9
    expected[7] = (-2, 2)
    assert box.ranges == tuple(expected)


def test_gaussian_box(specs) -> None:
    box = sieve.candidate_box(specs["H2"])
    assert box.ranges == ((0, 0), (-1, 1), (0, 3), (0, 1))
    assert box.include_zero


def test_pinned_coordinate_in_a_trivial_system() -> None:
    # A single row (0, 2) forces the second exponent to [-1, 1] and leaves
    # nothing to bound the first, which must be reported.
    box = sieve.bound_exponents([(0, 2)], (), False)
    assert box.ranges[1] == (-1, 1)


def test_unbounded_exponent_is_an_error() -> None:
    with pytest.raises(VerificationError):
        sieve.bound_exponents([(0, 2, 0)], (), False)


def test_no_norm_rows_is_an_error() -> None:
    with pytest.raises(VerificationError):
        sieve.bound_exponents([], (), False)


@pytest.mark.parametrize(
    "rows, extra",
    [
        ([(0, 2)], [(1, 2, 2)]),
        ([(0, 2, 2)], [(1, 2, 2), (2, 2, 2)]),
        (
            [(0, 3, 6, 6), (0, 0, 2, 0), (0, 0, 0, 2)],
            [(1, 1, 1)],
        ),
    ],
    ids=["one-slot", "two-slots", "no-integer-point"],
)
def test_empty_slot_range_is_infeasible(rows, extra) -> None:
    # No integer point satisfies the rows, and Fourier-Motzkin elimination
    # does not raise on them: it shows the contradiction only as a slot
    # range with lo > hi, or as outer ranges that hold no integer point of
    # the rows.  The last input forces x1 = 1 and -5/6 <= x2 + x3 <= -1/6,
    # which no integers meet.  The LP's phase 1 finds that the first two
    # have no real point; the enumeration finds the last one empty.
    width = len(rows[0])
    int_rows = sieve._inequalities(rows, extra, width)
    assert not _points_by_brute_force(int_rows, _fm_outer(int_rows, width))
    with pytest.raises(
        VerificationError, match="^exponent constraints are infeasible$"
    ):
        sieve.bound_exponents(rows, extra, False)


FROZEN_RANGES = {
    "H3": ((0, 0), (-2, 2), (-2, 2), (-3, 3)),
    "H4": ((0, 0), (-1, 1), (-1, 1), (-3, 3), (-3, 3), (-1, 1), (-2, 2)),
    "H5": ((0, 0),) + ((-1, 1),) * 6 + ((-2, 2),) + ((-1, 1),) * 2,
}


# Deduplicated norm rows and their negations, and their integer points;
# the boxes hold 175 / 6,615 / 32,805 exponent vectors.
ROWS_AND_POINTS = {"H3": (6, 63), "H4": (18, 243), "H5": (30, 433)}


def test_one_enumeration_lists_the_integer_points(specs, monkeypatch) -> None:
    enumerations = []
    real_integer_points = sieve._integer_points

    def counted(int_rows, ranges):
        enumerations.append(len(int_rows))
        return real_integer_points(int_rows, ranges)

    monkeypatch.setattr(sieve, "_integer_points", counted)
    for name, (rows, points) in ROWS_AND_POINTS.items():
        spec = specs[name]
        enumerations.clear()
        box = sieve.bound_exponents(
            sieve.lognorm_rows(spec), spec.extra_bounds, spec.include_zero_candidate
        )
        assert enumerations == [rows]
        assert box.ranges == FROZEN_RANGES[name]
        assert len(box.points) == points


def test_rows_closed_under_negation_take_one_lp_pass(specs, monkeypatch) -> None:
    # Every builtin system is closed under negation, so each lower end is
    # minus the upper end and the simplex maximises upper ends only.
    signs = []
    real_maximise = sieve._IntegerSimplex.maximise

    def recorded(self, j, sign):
        signs.append(sign)
        return real_maximise(self, j, sign)

    monkeypatch.setattr(sieve._IntegerSimplex, "maximise", recorded)
    for name, (_, points) in ROWS_AND_POINTS.items():
        spec = specs[name]
        signs.clear()
        box = sieve.bound_exponents(
            sieve.lognorm_rows(spec), spec.extra_bounds, spec.include_zero_candidate
        )
        assert signs == [1] * (len(FROZEN_RANGES[name]) - 1)
        assert box.ranges == FROZEN_RANGES[name]
        assert len(box.points) == points


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination: the reference for the exact LP ranges.
#
# A row (coeffs, rhs, hist) is an integer row, as in the sieve, with
# hist the bitmask of the original rows it was combined from.


def _fm_dedup(rows):
    """sieve._dedup, keeping the history of each kept row; between two
    equally tight rows, the one drawn from fewer original rows."""
    best: dict[tuple[int, ...], tuple] = {}
    for coeffs, rhs, hist in rows:
        g = math.gcd(*coeffs)
        if not g:
            if rhs < 0:
                raise VerificationError("exponent constraints are infeasible")
            continue
        common = math.gcd(g, rhs)
        coeffs = tuple(c // common for c in coeffs)
        rhs //= common
        g //= common
        key = tuple(c // g for c in coeffs)
        cur = best.get(key)
        if cur is None:
            best[key] = (coeffs, rhs, hist, g)
            continue
        lhs, rhs_cur = rhs * cur[3], cur[1] * g
        if lhs < rhs_cur or (lhs == rhs_cur and hist.bit_count() < cur[2].bit_count()):
            best[key] = (coeffs, rhs, hist, g)
    return [(c, r, h) for c, r, h, _ in best.values()]


def _eliminate(rows, j: int, max_hist: int):
    """One Fourier-Motzkin step.  Combinations drawing on more than
    max_hist original rows are redundant (Imbert) and dropped."""
    pos = [row for row in rows if row[0][j] > 0]
    neg = [row for row in rows if row[0][j] < 0]
    rest = [row for row in rows if not row[0][j]]
    for pc, pr, ph in pos:
        a = pc[j]
        for nc, nr, nh in neg:
            hist = ph | nh
            if hist.bit_count() > max_hist:
                continue
            b = -nc[j]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            rest.append((coeffs, b * pr + a * nr, hist))
    return _fm_dedup(rest)


def _fm_bounds(int_rows, target: int, width: int) -> tuple[int, int]:
    """Integer range of one slot over the real relaxation of the rows, slot
    0 pinned to 0, by eliminating every other slot."""
    cur = _fm_dedup([(c, r, 1 << i) for i, (c, r) in enumerate(int_rows)])
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
    uppers = [rhs // c[target] for c, rhs, _ in cur if c[target] > 0]
    lowers = [-(rhs // -c[target]) for c, rhs, _ in cur if c[target] < 0]
    if not uppers or not lowers:
        raise VerificationError(f"exponent slot {target} is unbounded")
    return max(lowers), min(uppers)


def _fm_outer(int_rows, width: int) -> list[tuple[int, int]]:
    return [(0, 0)] + [_fm_bounds(int_rows, j, width) for j in range(1, width)]


@st.composite
def _norm_systems(draw):
    """Integer rows made the way bound_exponents makes them, as (int_rows,
    width): integer log2-norm rows with slot 0's coefficient 0, each giving
    a +- pair with right side 2, and extra-bound pairs whose range may
    exclude 0 or be empty, so the rows may or may not be closed under
    negation.  Nothing makes the rows span every slot."""
    width = draw(st.integers(2, 5))
    coeffs = st.integers(-6, 6)
    rows = [
        (0, *row)
        for row in draw(st.lists(st.tuples(*[coeffs] * (width - 1)), max_size=6))
    ]
    bounds = st.tuples(st.integers(1, width - 1), st.integers(-4, 4), st.integers(-1, 4))
    extra = [
        (slot, lo, lo + span)
        for slot, lo, span in draw(st.lists(bounds, max_size=4))
    ]
    return sieve._inequalities(rows, extra, width), width


def _lp_outer(int_rows, width: int) -> list[tuple[int, int]]:
    return [(0, 0)] + sieve._lp_ranges(sieve._dedup(int_rows), width)


def _outcome(outer, int_rows, width: int):
    """The outer ranges, or the message of the VerificationError."""
    try:
        return outer(int_rows, width)
    except VerificationError as exc:
        return str(exc)


INFEASIBLE = "exponent constraints are infeasible"


@settings(max_examples=300, deadline=None)
@given(_norm_systems())
def test_certified_bounds_equal_fourier_motzkin(system) -> None:
    got, want = _outcome(_lp_outer, *system), _outcome(_fm_outer, *system)
    if got == INFEASIBLE and want != INFEASIBLE:
        # No real point satisfies the rows; elimination may show that only
        # as an empty range.
        assert not isinstance(want, str) and any(lo > hi for lo, hi in want)
    else:
        assert got == want


def _satisfies(int_rows, point) -> bool:
    return all(
        sum(c * e for c, e in zip(coeffs, point)) <= rhs for coeffs, rhs in int_rows
    )


def _points_by_brute_force(int_rows, outer):
    """The integer points of the outer box satisfying every row."""
    return [
        point
        for point in itertools.product(*(range(lo, hi + 1) for lo, hi in outer))
        if _satisfies(int_rows, point)
    ]


@pytest.mark.parametrize(
    "name, extra, count",
    [("H3", "", 63), ("H4", "", 243), ("H4", "extrabound 3 1 1\n", 56)],
    # The last box excludes the origin, so the LP starts with a phase 1.
    ids=["H3", "H4", "H4-slot-3-at-1"],
)
def test_box_is_the_bounding_box_of_the_integer_points(
    specs, name, extra, count
) -> None:
    spec = parse_field_spec(specs[name].source_text + extra) if extra else specs[name]
    rows = sieve.lognorm_rows(spec)
    width = len(rows[0])
    int_rows = sieve._inequalities(rows, spec.extra_bounds, width)
    points = _points_by_brute_force(int_rows, _fm_outer(int_rows, width))
    box = sieve.candidate_box(spec)
    assert box.ranges == tuple((min(column), max(column)) for column in zip(*points))
    assert list(box.points) == points
    assert len(points) == count


@st.composite
def _small_systems(draw):
    width = draw(st.integers(1, 4))
    ranges = []
    for _ in range(width):
        lo = draw(st.integers(-3, 1))
        ranges.append((lo, lo + draw(st.integers(0, 4))))
    int_rows = draw(
        st.lists(
            st.tuples(
                st.tuples(*[st.integers(-3, 3)] * width), st.integers(-4, 6)
            ),
            max_size=6,
        )
    )
    return int_rows, ranges


@settings(max_examples=300, deadline=None)
@given(_small_systems())
def test_integer_points_equal_the_brute_force_filter(system) -> None:
    int_rows, ranges = system
    assert sieve._integer_points(int_rows, ranges) == _points_by_brute_force(
        int_rows, ranges
    )


# ---------------------------------------------------------------------------
# Candidate enumeration


def candidate_at(box, index: int) -> FactoredElement:
    """The candidate at index in enumerate_candidates order, decoded from
    its mixed-radix digits.  The index just past the signed candidates is
    always the zero element, whether or not the box includes it."""
    size = sieve._box_size(box)
    if index == 2 * size:
        return FactoredElement(0, (0,) * len(box.ranges))
    sign_digit, rest = divmod(index, size)
    exps = []
    for lo, hi in reversed(box.ranges):
        rest, digit = divmod(rest, hi - lo + 1)
        exps.append(lo + digit)
    return FactoredElement(-1 if sign_digit else 1, tuple(reversed(exps)))


def box_fingerprints(mm, box) -> list[int]:
    """Residue of every candidate under mm, in enumerate_candidates order:
    the products from the two sign residues, then 0 if the box has it."""
    p = mm.prime
    fps = [1, p - 1]
    for r, (lo, hi) in zip(mm.gen_residues, box.ranges):
        table = [pow(r, e, p) for e in range(lo, hi + 1)]
        fps = [f * t % p for f in fps for t in table]
    return fps + [0] * box.include_zero


def test_candidate_counts(specs) -> None:
    counts = {"H3": 351, "H4": 13230, "H5": 65610}
    for name, expected in counts.items():
        box = sieve.candidate_box(specs[name])
        assert len(sieve.enumerate_candidates(box)) == expected
        assert sieve.candidate_count(box) == expected


@pytest.mark.parametrize("name", ["H2", "H3", "H4", "H5"])
def test_candidate_at_decodes_the_enumeration_order(specs, name) -> None:
    box = sieve.candidate_box(specs[name])
    for boxed in (box, box._replace(include_zero=not box.include_zero)):
        candidates = sieve.enumerate_candidates(boxed)
        assert sieve.candidate_count(boxed) == len(candidates)
        assert [candidate_at(boxed, i) for i in range(len(candidates))] == candidates


def test_candidate_enumeration_is_deterministic(specs) -> None:
    box = sieve.candidate_box(specs["H3"])
    assert sieve.enumerate_candidates(box) == sieve.enumerate_candidates(box)


def test_zero_candidate_present_only_when_requested(specs) -> None:
    h3 = sieve.enumerate_candidates(sieve.candidate_box(specs["H3"]))
    h4 = sieve.enumerate_candidates(sieve.candidate_box(specs["H4"]))
    assert sum(1 for fe in h3 if fe.sign == 0) == 1
    assert all(fe.sign != 0 for fe in h4)


# ---------------------------------------------------------------------------
# Fingerprint sieve


def test_single_variable_sieve_distinct_count(h3_result) -> None:
    candidates, result = h3_result
    assert len(candidates) == 351
    assert result.distinct_count == 351
    assert result.mod_map.prime == 1299709


def test_single_variable_survivor_residues(h3_result) -> None:
    _, result = h3_result
    assert list(result.fingerprints) == [
        0, 1, 5, 21, 123783, 259942, 259946, 311931, 324922, 324927, 495128,
        568624, 584869, 618910, 680800, 714841, 731086, 804582, 974783,
        974788, 987779, 1039764, 1039768, 1175927, 1299689, 1299705,
    ]


def test_two_variable_sieve_counts(specs) -> None:
    result = sieve.fingerprint_sieve(specs["H4"], sieve.candidate_box(specs["H4"]))
    assert result.distinct_count == 13231
    assert len(result.fingerprints) == 56


def test_three_variable_sieve_counts(specs) -> None:
    result = sieve.fingerprint_sieve(specs["H5"], sieve.candidate_box(specs["H5"]))
    assert result.distinct_count == 65611
    assert len(result.fingerprints) == 92


def test_gaussian_sieve_survivors(specs) -> None:
    result = sieve.fingerprint_sieve(specs["H2"], sieve.candidate_box(specs["H2"]))
    assert result.mod_map is None
    assert result.distinct_count == 21
    expected = {
        "-1", "0", "-i", "i", "1/2", "(1 - i)/2", "(1 + i)/2", "1", "1 - i",
        "1 + i", "2",
    }
    assert set(result.fingerprints) == {gauss_from_text(t) for t in expected}


def test_survivors_are_sorted_by_fingerprint(h3_result) -> None:
    _, result = h3_result
    keys = list(result.fingerprints)
    assert keys == sorted(keys)


def test_sieve_is_deterministic(specs) -> None:
    box = sieve.candidate_box(specs["H3"])
    first = sieve.fingerprint_sieve(specs["H3"], box)
    second = sieve.fingerprint_sieve(specs["H3"], box)
    assert list(first.fingerprints) == list(second.fingerprints)
    assert first.mod_map == second.mod_map


def _at_prime(spec, prime: int):
    """The spec with its prime line rewritten, as --prime-start does."""
    return parse_field_spec(
        spec.source_text.replace(f"prime {spec.mod_prime}\n", f"prime {prime}\n")
    )


# An H3 box of 54 candidate units, too many for distinct residues mod 59.
SMALL_BOX = sieve.CandidateBox(
    ((0, 0), (-1, 1), (-1, 1), (-1, 1)),
    False,
    tuple((0, *v) for v in itertools.product((-1, 0, 1), repeat=3)),
)


def test_prime_advances_until_fingerprints_separate(specs) -> None:
    # The sieve must walk past 59 to a larger prime on its own.
    assert sieve.candidate_count(SMALL_BOX) == 54
    spec = _at_prime(specs["H3"], 59)
    mm, _ = sieve.resolve_mod_map(spec, SMALL_BOX)
    assert mm.prime > 59
    assert sieve.fingerprint_sieve(spec, SMALL_BOX).distinct_count == 55


def _h3_vanishing_at_61(prime: int):
    # a^2 - a + 1 is 183 = 3 * 61 at a = 14; no generator vanishes mod 59.
    text = H3_SPEC_TEXT.replace("modvar a 5\n", "modvar a 14\n")
    return parse_field_spec(text.replace("prime 1299709\n", f"prime {prime}\n"))


def test_a_generator_vanishing_at_the_spec_prime_is_named() -> None:
    with pytest.raises(
        ValueError, match=r"^H3: generator 'a\^2 - a \+ 1' vanishes mod 61 "
    ):
        sieve.resolve_mod_map(_h3_vanishing_at_61(61), SMALL_BOX)


def test_a_later_prime_where_a_generator_vanishes_is_skipped(monkeypatch) -> None:
    spec = _h3_vanishing_at_61(59)
    with pytest.raises(ValueError, match="vanishes mod 61"):
        spec.mod_map(61)
    # 59 has a collision, so the search reaches 61, skips it and goes on.
    mm, _ = sieve.resolve_mod_map(spec, SMALL_BOX)
    assert mm.prime > 61
    assert sieve.fingerprint_sieve(spec, SMALL_BOX).distinct_count == 55
    # The skipped prime counts against the cap: 59 and 61 are two tries.
    monkeypatch.setattr(sieve, "MAX_PRIMES_TRIED", 2)
    with pytest.raises(VerificationError, match="among 2 from 59 "):
        sieve.resolve_mod_map(spec, SMALL_BOX)


@pytest.mark.parametrize("name", ["H3", "H4"])
@pytest.mark.parametrize("prime_start", [None, 100000000003])
def test_table_fingerprints_equal_mod_eval(specs, name, prime_start) -> None:
    spec = specs[name]
    if prime_start is not None:
        spec = _at_prime(spec, prime_start)
    box = sieve.candidate_box(spec)
    candidates = sieve.enumerate_candidates(box)
    mm, residues = sieve.resolve_mod_map(spec, box)
    assert mm.prime >= spec.mod_prime
    fps = box_fingerprints(mm, box)
    assert len(fps) == len(candidates)
    for fp, fe in zip(fps, candidates):
        assert fp == mod_eval(mm, fe.sign, fe.exps)
    result = sieve.fingerprint_sieve(spec, box)
    assert result.distinct_count == len(set(fps) | {0})
    # The residues hold each point once, at its own sign-1 fingerprint; with
    # their negatives and 0 they are distinct fingerprints of the box or 0.
    assert len(residues) == len(box.points)
    assert set(residues.values()) == set(box.points)
    for r, point in residues.items():
        assert r == mod_eval(mm, 1, point)
        assert mm.prime - r == mod_eval(mm, -1, point)
    everything = {0, *residues, *(mm.prime - r for r in residues)}
    assert len(everything) == 2 * len(box.points) + 1
    assert everything <= set(fps) | {0}
    # Each survivor is read at its own fingerprint.
    for fp, fe in result.fingerprints.items():
        assert fp == mod_eval(mm, fe.sign, fe.exps)


@pytest.mark.parametrize(
    "name, prime",
    [("H2", None), ("H3", None), ("H4", None), ("H5", None), ("H4", 100000000003)],
)
def test_table_entries_carry_the_survivor_fingerprints(specs, name, prime) -> None:
    spec = specs[name] if prime is None else _at_prime(specs[name], prime)
    table = fundamental_table(spec)
    fps = [e.fingerprint for e in table.entries]
    for e in table.entries:
        if spec.is_gauss:
            assert e.fingerprint == e.value
        else:
            assert e.fingerprint == mod_eval(
                table.mod_map, e.element.sign, e.element.exps
            )
    if spec.is_gauss:
        # By real part, then imaginary part.
        fps = [
            (Fraction(fp.re_num, 1 << fp.two_exp), Fraction(fp.im_num, 1 << fp.two_exp))
            for fp in fps
        ]
    assert all(a < b for a, b in zip(fps, fps[1:]))


def _sieve_by_enumeration(spec, box):
    """Survivors computed one candidate at a time, with mod_eval, over
    enumerate_candidates at the prime the sieve resolved."""
    mm = sieve.fingerprint_sieve(spec, box).mod_map
    fps = {}
    for fe in sieve.enumerate_candidates(box):
        fps.setdefault(mod_eval(mm, fe.sign, fe.exps), fe)
    fps.setdefault(0, FactoredElement(0, (0,) * len(box.ranges)))
    p = mm.prime
    return {fp: fps[fp] for fp in sorted(fp for fp in fps if (1 - fp) % p in fps)}


@pytest.mark.parametrize("name", ["H3", "H4", "H5"])
def test_survivors_equal_the_candidate_by_candidate_sieve(specs, name) -> None:
    box = sieve.candidate_box(specs[name])
    result = sieve.fingerprint_sieve(specs[name], box)
    expected = _sieve_by_enumeration(specs[name], box)
    assert list(result.fingerprints.items()) == list(expected.items())


def _box_wide_sieve(spec, box):
    """The survivor scan over the whole box, the reference for the sieve over
    the points: for each prime from the spec's, a fingerprint -> index dict
    over every candidate in enumerate_candidates order, advancing past a
    collision; then every candidate whose 1 - fp is also in the dict
    survives, decoded by index.  The Gaussian field keeps its one path."""
    if spec.is_gauss:
        return sieve._gauss_sieve(spec, sieve.enumerate_candidates(box))
    p = spec.mod_prime
    while True:
        try:
            mm = spec.mod_map(p)
        except ValueError:
            p = next_prime(p)
            continue
        fps = box_fingerprints(mm, box)
        index: dict = {}
        for i, fp in enumerate(fps):
            if index.setdefault(fp, i) != i:
                break
        else:
            index.setdefault(0, len(fps) - box.include_zero)
            survivors = {
                fp: candidate_at(box, index[fp])
                for fp in sorted(fp for fp in index if (1 - fp) % p in index)
            }
            return sieve.SieveResult(mm, survivors, len(index), len(fps))
        p = next_prime(p)


@pytest.mark.parametrize(
    "name, prime_start",
    [(name, None) for name in ("H2", "H3", "H4", "H5")]
    + [
        (name, start)
        for start in (100000000003, 523456789011)
        for name in ("H3", "H4")
    ],
)
def test_survivors_equal_the_box_wide_scan(specs, name, prime_start) -> None:
    spec = specs[name]
    if prime_start is not None:
        spec = _at_prime(spec, next_prime(prime_start - 1))
    box = sieve.candidate_box(spec)
    result = sieve.fingerprint_sieve(spec, box)
    expected = _box_wide_sieve(spec, box)
    assert result.mod_map == expected.mod_map
    assert list(result.fingerprints.items()) == list(expected.fingerprints.items())
    assert result.distinct_count == expected.distinct_count
    assert result.candidate_count == expected.candidate_count


def test_the_sieve_decodes_no_index_without_a_collision(specs, monkeypatch) -> None:
    # At a separating prime no relation is decoded, so no generator power
    # is multiplied out.
    def refused(*args):
        raise AssertionError("generator_products ran")

    monkeypatch.setattr(sieve, "generator_products", refused)
    for name in ("H3", "H4", "H5"):
        for spec in (specs[name], _at_prime(specs[name], 100000000003)):
            result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
            assert result.mod_map.prime == spec.mod_prime


def _separated_by_the_box_wide_set(mm, box) -> bool:
    return len(set(box_fingerprints(mm, box))) == sieve.candidate_count(box)


def test_squared_residues_separate_exactly_when_the_fingerprints_do(specs) -> None:
    h3 = specs["H3"]
    box = sieve.candidate_box(h3)
    tried = separated = 0
    for p in range(2, 2000):
        if not all(p % d for d in range(2, math.isqrt(p) + 1)):
            continue
        try:
            mm = h3.mod_map(p)
        except ValueError:
            continue
        got = sieve._collision(mm, box) is None
        assert got == _separated_by_the_box_wide_set(mm, box)
        tried += 1
        separated += got
    assert tried > 250 and 0 < separated < tried
    h4 = specs["H4"]
    box = sieve.candidate_box(h4)
    # The shipped prime, colliding primes, and a separating prime among them.
    for p, want in (
        (h4.mod_prime, True), (10007, False), (100003, False),
        (100103, True), (100129, False),
    ):
        mm = h4.mod_map(p)
        got = sieve._collision(mm, box) is None
        assert got == _separated_by_the_box_wide_set(mm, box)
        assert got == want


@pytest.mark.parametrize(
    "name, start, count", [("H4", 10**6, 20), ("H5", 10**8, 30)]
)
def test_the_split_separates_exactly_when_the_box_wide_set_does(
    specs, name, start, count
) -> None:
    spec = specs[name]
    box = sieve.candidate_box(spec)
    outcomes = set()
    p = start
    for _ in range(count):
        p = next_prime(p)
        mm = spec.mod_map(p)
        got = sieve._collision(mm, box) is None
        assert got == _separated_by_the_box_wide_set(mm, box), p
        outcomes.add(got)
    assert outcomes == {False, True}


def _hand_built_map(prime: int, residues) -> ModMap:
    """A ModMap that skips the constructor's check, so a residue may be 0."""
    mm = object.__new__(ModMap)
    mm.prime, mm.gen_residues = prime, tuple(residues)
    return mm


_SPLIT_PRIMES = [2, 3, 5, 7, 11, 13, 31, 61, 127, 257, 1021, 4099, 16411, 65537]


@st.composite
def _small_maps_and_boxes(draw):
    p = draw(st.sampled_from(_SPLIT_PRIMES))
    slots = draw(st.integers(1, 5))
    ranges = []
    for _ in range(slots):
        lo = draw(st.integers(-3, 3))
        ranges.append((lo, lo + draw(st.integers(0, 5))))
    residue = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    residues = draw(st.lists(residue, min_size=slots, max_size=slots))
    return _hand_built_map(p, residues), sieve.CandidateBox(tuple(ranges), False)


@settings(max_examples=400, deadline=None)
@given(_small_maps_and_boxes())
def test_the_split_equals_the_box_wide_set_on_small_boxes(map_and_box) -> None:
    mm, box = map_and_box
    try:
        want = _separated_by_the_box_wide_set(mm, box)
    except ValueError:
        # A zero residue has no negative powers: no such map separates.
        want = False
    got = sieve._collision(mm, box)
    assert (got is None) == want
    if got:
        _assert_relation(mm, box, got)


def _assert_relation(mm, box, d) -> None:
    """d is a nonzero difference vector of the box, 0 on width-1 slots,
    with prod r_i^(2 d_i) = 1 mod p."""
    p = mm.prime
    assert len(d) == len(box.ranges) and any(d)
    assert all(abs(x) <= hi - lo for x, (lo, hi) in zip(d, box.ranges))
    assert math.prod(pow(r, 2 * x, p) for r, x in zip(mm.gen_residues, d)) % p == 1


@pytest.mark.parametrize("name, bound", [("H3", 94), ("H4", 910), ("H5", 4250)])
def test_one_separation_proof_takes_few_products(
    specs, monkeypatch, name, bound
) -> None:
    # Against |B| = 175 / 6,615 / 32,805 products for the box-wide set.
    made = []

    def counting_products(*args):
        for value in products(*args):
            made.append(value)
            yield value

    products = sieve._products
    monkeypatch.setattr(sieve, "_products", counting_products)
    spec = specs[name]
    mm = spec.mod_map(spec.mod_prime)
    assert sieve._collision(mm, sieve.candidate_box(spec)) is None
    assert 0 < len(made) <= bound


def test_a_colliding_prime_is_decided_and_decoded_in_few_products(
    specs, monkeypatch
) -> None:
    # The decision and the decoding of its hit, against 13,230 fingerprints
    # for a walk of the box's candidates.
    made = []

    def counting_products(*args):
        for value in products(*args):
            made.append(value)
            yield value

    products = sieve._products
    monkeypatch.setattr(sieve, "_products", counting_products)
    spec = specs["H4"]
    box = sieve.candidate_box(spec)
    mm = spec.mod_map(100003)
    d = sieve._collision(mm, box)
    assert d
    _assert_relation(mm, box, d)
    assert 0 < len(made) <= 2 * 910


def test_the_h5_sieve_holds_no_box_wide_set(specs) -> None:
    spec = specs["H5"]
    box = sieve.candidate_box(spec)
    tracemalloc.start()
    try:
        sieve.fingerprint_sieve(spec, box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A set of the 32,805 squared residues alone peaks above 3 MiB.
    assert peak < 1 << 20


def test_no_squares_are_computed_where_the_box_cannot_separate(
    specs, monkeypatch
) -> None:
    # At p <= 2|B| there are fewer nonzero squares than exponent vectors.
    passes = []

    def counting_products(*args):
        passes.append(args[0])
        return products(*args)

    products = sieve._products
    monkeypatch.setattr(sieve, "_products", counting_products)
    h3 = specs["H3"]
    box = sieve.candidate_box(h3)
    assert 2 * sieve._box_size(box) == 350
    tried = 0
    for p in range(2, 400):
        if not all(p % d for d in range(2, math.isqrt(p) + 1)):
            continue
        try:
            mm = h3.mod_map(p)
        except ValueError:
            continue
        got = sieve._collision(mm, box)
        if p <= 350:
            assert got == ()
            tried += 1
    assert tried > 60
    assert passes and min(passes) > 350


@pytest.mark.parametrize(
    "ranges, at_three",
    [(((0, 0),) * 4, True), (SMALL_BOX.ranges, False)],
    ids=["one-vector", "small-box"],
)
def test_squared_residues_never_separate_at_two(ranges, at_three) -> None:
    # Mod 2, 1 = -1, so the two signs of every vector collide, even in a box
    # of one vector, whose one square is trivially distinct.
    box = sieve.CandidateBox(ranges, False)
    for mm, separates in (
        (ModMap(2, (1,) * 4), False),
        (ModMap(3, (2, 1, 1, 1)), at_three),
    ):
        assert (sieve._collision(mm, box) is None) == separates
        assert _separated_by_the_box_wide_set(mm, box) == separates


def test_survivor_pairs_are_checked_exactly_once(specs, monkeypatch) -> None:
    checks = []

    def counting_check(spec, s, t):
        checks.append((s, t))
        return is_one_minus(spec, s, t)

    is_one_minus = sieve._is_one_minus
    monkeypatch.setattr(sieve, "_is_one_minus", counting_check)
    for name, pairs in (("H2", 6), ("H3", 13), ("H4", 28), ("H5", 46)):
        spec = specs[name]
        table = fundamental_table(spec)
        result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
        elements = [(e.element, e.value) for e in table.entries]
        checks.clear()
        sieve.verify_survivors(spec, result, elements)
        assert len(checks) == pairs
        assert 2 * pairs - len(result.fingerprints) in (0, 1)


def _expanded(spec, fe) -> RatFunc:
    """The reference expansion: one rational function, multiplying in each
    generator's numerator and denominator, crosswise for a negative power."""
    if fe.sign == 0:
        return ratfunc_const(spec.arity, 0)
    num, den = make_const(spec.arity, fe.sign), make_const(spec.arity, 1)
    for gen, e in zip(spec.generators, fe.exps):
        top, bottom = (gen.num, gen.den) if e > 0 else (gen.den, gen.num)
        num = poly_arith(num, poly_pow(top, abs(e)), "mul")
        den = poly_arith(den, poly_pow(bottom, abs(e)), "mul")
    return RatFunc(num, den)


def _is_one_minus_expanded(spec, s, t) -> bool:
    return value_eq(complement(_expanded(spec, s)), _expanded(spec, t))


_FIELDS_WITH_INDETERMINATES = ("H3", "H4", "H5")


@functools.cache
def _survivor_pairs(name: str) -> list:
    """Every ordered pair (s, t) of survivors with t at the fingerprint of
    1 - s."""
    spec = builtin_specs()[name]
    fps = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec)).fingerprints
    p = spec.mod_prime
    return [(fe, fps[(1 - fp) % p]) for fp, fe in fps.items()]


@st.composite
def _element_pairs(draw):
    """A field of H3..H5 and two elements: each a random sign with exponents
    from the box, or zero, or a survivor pair, its partner perhaps with the
    sign turned or one exponent moved by one."""
    name = draw(st.sampled_from(_FIELDS_WITH_INDETERMINATES))
    spec = builtin_specs()[name]
    ranges = sieve.candidate_box(spec).ranges

    def element() -> FactoredElement:
        sign = draw(st.sampled_from((1, -1, 0)))
        if sign == 0:
            return FactoredElement(0, (0,) * len(ranges))
        return FactoredElement(sign, tuple(draw(st.integers(*r)) for r in ranges))

    if not draw(st.booleans()):
        return spec, element(), element()
    s, t = draw(st.sampled_from(_survivor_pairs(name)))
    change = draw(st.sampled_from(("none", "sign", "exponent")))
    if change == "sign":
        t = FactoredElement(-t.sign, t.exps)
    elif change == "exponent" and t.sign:
        slot = draw(st.integers(1, len(ranges) - 1))
        step = draw(st.sampled_from((1, -1)))
        t = t._replace(exps=tuple(e + step * (i == slot) for i, e in enumerate(t.exps)))
    return spec, s, t


@settings(max_examples=300, deadline=None)
@given(_element_pairs())
def test_the_pair_identity_agrees_with_the_expanded_values(case) -> None:
    # M - M*s = M*t over generator powers decides 1 - s = t as the rational
    # functions do, and the expansion over generator_products is the old one.
    spec, s, t = case
    assert sieve._is_one_minus(spec, s, t) == _is_one_minus_expanded(spec, s, t)
    for fe in (s, t):
        got, want = expand_element(spec, fe), _expanded(spec, fe)
        assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("name", _FIELDS_WITH_INDETERMINATES)
def test_every_survivor_pair_is_an_identity_and_a_turned_sign_is_not(name) -> None:
    spec = builtin_specs()[name]
    assert len(_survivor_pairs(name)) == {"H3": 26, "H4": 56, "H5": 92}[name]
    for s, t in _survivor_pairs(name):
        assert sieve._is_one_minus(spec, s, t)
        assert _is_one_minus_expanded(spec, s, t)
        if t.sign:
            turned = FactoredElement(-t.sign, t.exps)
            assert not sieve._is_one_minus(spec, s, turned)


def test_prime_search_is_capped(specs, monkeypatch) -> None:
    box = sieve.candidate_box(specs["H3"])
    monkeypatch.setattr(sieve, "MAX_PRIMES_TRIED", 3)
    with pytest.raises(VerificationError, match="no fingerprint prime"):
        sieve.resolve_mod_map(_at_prime(specs["H3"], 59), box)


@pytest.mark.parametrize(
    "name, wide",
    [("H3", False), ("H4", False), ("H5", False), ("H3", True)],
    ids=["H3", "H4", "H5", "H3-wide"],
)
def test_the_fingerprint_index_is_the_mod_eval_index(specs, name, wide) -> None:
    # The index multiplies per-slot power tables; mod_eval, one point at a
    # time, is the reference, down to the order of the entries.
    spec = specs[name]
    if wide:  # 8,405 points
        spec = parse_field_spec(h3_with_only_h2hom_i_and_wide_bounds(20))
    box = sieve.candidate_box(spec)
    mm, residues = sieve.resolve_mod_map(spec, box)
    want = {mod_eval(mm, 1, point): point for point in box.points}
    assert list(residues.items()) == list(want.items())
    # The survivors read a fingerprint of either sign, or 0, as mod_eval
    # does, and only where 1 - fp is a fingerprint too.
    p = mm.prime
    fps = _fingerprints(want, p, len(box.ranges))
    survivors = sieve._Survivors(residues, p, len(box.ranges))
    for fp, fe in fps.items():
        assert survivors.get(fp) == (fe if (1 - fp) % p in fps else None)


def _fingerprints(residues, p: int, width: int) -> dict:
    """Fingerprint -> factored element over the points of the residue dict,
    both signs, and 0, in the order 0, then (r, p - r) per residue r."""
    fps = {0: FactoredElement(0, (0,) * width)}
    for r, point in residues.items():
        fps[r] = FactoredElement(1, point)
        fps[p - r] = FactoredElement(-1, point)
    return fps


def test_the_index_builds_an_element_only_when_one_is_read(specs, monkeypatch) -> None:
    spec = specs["H5"]
    box = sieve.candidate_box(spec)
    built = []
    monkeypatch.setattr(
        sieve, "FactoredElement", lambda *a: built.append(a) or FactoredElement(*a)
    )
    mm, residues = sieve.resolve_mod_map(spec, box)
    p = mm.prime
    survivors = sieve._Survivors(residues, p, len(box.ranges))
    assert len(survivors) == 92 and not built
    fp = next(fp for fp in survivors if p - fp in residues)  # a survivor of sign -1
    point = residues[p - fp]
    assert fp == mod_eval(mm, -1, point)
    assert survivors[fp] == FactoredElement(-1, point)
    assert built == [(-1, point)]
    # Neither a fingerprint that does not survive nor a residue that is no
    # fingerprint builds an element.
    order = set(survivors)
    dropped = next(r for r in residues if r not in order)
    absent = next(r for r in range(1, p) if r not in residues and p - r not in residues)
    for fp in (dropped, absent):
        with pytest.raises(KeyError):
            survivors[fp]
    assert built == [(-1, point)]


def _spec_with_repeated_generator() -> str:
    # A second copy of the generator a makes a/a' and 1 exactly equal
    # candidates, which no fingerprint prime can separate.
    text = H3_SPEC_TEXT.replace("gen a\n", "gen a\ngen a\n", 1)
    return text + "extrabound 1 -1 1\nextrabound 2 -1 1\n"


_NAMED_ELEMENT = re.compile(r"FactoredElement\(sign=(-?\d+), exps=\(([-\d, ]*)\)\)")


def test_equal_candidates_are_a_verification_error() -> None:
    spec = parse_field_spec(_spec_with_repeated_generator())
    box = sieve.candidate_box(spec)
    with pytest.raises(VerificationError, match="exactly equal") as failure:
        sieve.resolve_mod_map(spec, box)
    # Both named candidates carry an int sign and lie in the box, and they
    # are distinct vectors with exactly equal values.
    named = [
        FactoredElement(int(sign), tuple(int(e) for e in exps.split(",")))
        for sign, exps in _NAMED_ELEMENT.findall(str(failure.value))
    ]
    assert len(named) == 2
    first, second = named
    assert first.exps != second.exps
    for fe in named:
        assert fe.sign in (1, -1)
        assert all(lo <= e <= hi for e, (lo, hi) in zip(fe.exps, box.ranges))
    assert value_eq(_expanded(spec, first), _expanded(spec, second))


def test_repeated_generator_spec_fails_without_hanging(tmp_path) -> None:
    path = tmp_path / "repeated.pfs"
    path.write_text(_spec_with_repeated_generator())
    proc = run_cold("-m", "pfverify.cli", "funs", "--spec", str(path), timeout=30)
    assert proc.returncode == 1
    fail = [line for line in proc.stdout.splitlines() if line.startswith("FAIL:")]
    assert len(fail) == 1
    assert "exactly equal" in fail[0]
    assert fail[0].count("FactoredElement") == 2


# ---------------------------------------------------------------------------
# Survivor verification


def _h3_elements(specs):
    table = fundamental_table(specs["H3"])
    return [(e.element, e.value) for e in table.entries]


def test_verify_survivors_accepts_the_real_sieve(specs, h3_result) -> None:
    _, result = h3_result
    sieve.verify_survivors(specs["H3"], result, _h3_elements(specs))


def test_a_failing_pair_ends_the_check_before_the_survivors_are_ordered(
    monkeypatch,
) -> None:
    # 32,805 points: 65,611 fingerprints, 3,122 of them spurious survivors
    # at prime 1,299,709.  The exact check fails on an early pair, and the
    # survivors are ordered only as far as that pair, with the FAIL of the
    # fully ordered table.
    spec = parse_field_spec(h3_with_only_h2hom_i_and_wide_bounds(40))
    result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
    elements = closure._closure_elements(spec)
    pops = []
    heappop = sieve.heappop
    monkeypatch.setattr(sieve, "heappop", lambda heap: pops.append(1) or heappop(heap))
    with pytest.raises(VerificationError) as lazy:
        sieve.verify_survivors(spec, result, elements)
    monkeypatch.undo()
    ordered = result._replace(fingerprints=dict(result.fingerprints))
    assert list(ordered.fingerprints) == sorted(ordered.fingerprints)
    with pytest.raises(VerificationError) as eager:
        sieve.verify_survivors(spec, ordered, elements)
    assert str(lazy.value) == str(eager.value)
    assert "1 - s is not exactly the paired survivor" in str(lazy.value)
    assert 0 < len(pops) < 100 < len(ordered.fingerprints)


def test_survivor_lookups_and_order_match_a_sorted_dict(specs) -> None:
    # The survivors answer lookups and their count before they are ordered,
    # and iterate in the order of the eager filter and sort.
    for name in ("H3", "H4", "H5"):
        spec = specs[name]
        box = sieve.candidate_box(spec)
        mm, residues = sieve.resolve_mod_map(spec, box)
        p = mm.prime
        fps = _fingerprints(residues, p, len(box.ranges))
        want = {fp: fps[fp] for fp in sorted(fp for fp in fps if (1 - fp) % p in fps)}
        survivors = sieve.fingerprint_sieve(spec, box).fingerprints
        assert all(survivors.get(fp) == want.get(fp) for fp in fps)
        assert len(survivors) == len(want)
        assert list(survivors.items()) == list(want.items())
        fresh = sieve.fingerprint_sieve(spec, box).fingerprints
        assert list(fresh.items()) == list(want.items()) == list(fresh.items())


def test_verify_survivors_rejects_a_corrupted_fingerprint(specs, h3_result) -> None:
    _, result = h3_result
    fps = dict(result.fingerprints)
    victim = list(fps)[3]
    fps[victim + 1] = fps.pop(victim)
    corrupted = result._replace(fingerprints=fps)
    with pytest.raises(VerificationError):
        sieve.verify_survivors(specs["H3"], corrupted, _h3_elements(specs))


def test_verify_survivors_rejects_a_dropped_entry(specs, h3_result) -> None:
    _, result = h3_result
    fps = dict(result.fingerprints)
    fps.pop(list(fps)[5])
    corrupted = result._replace(fingerprints=fps)
    with pytest.raises(VerificationError):
        sieve.verify_survivors(specs["H3"], corrupted, _h3_elements(specs))
