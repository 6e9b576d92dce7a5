"""Partial-field descriptions and fundamental-element machinery.

A field description lists multiplicative generators (always including -1),
seed elements, images of the generators in GF(5)^m, and the data a modular
fingerprint needs (a prime and residues for the indeterminates).  From that
this module derives the full table of fundamental elements: the closure of
the seeds under the associate operation, cross-checked against an
independently computed exponent-box sieve, with every table entry carrying
its factored form, exact value, fingerprint, and GF(5)^m image.
"""

from __future__ import annotations

import hashlib
import operator
from collections.abc import Iterator, Mapping
from functools import partial, wraps
from typing import NamedTuple

from .exact import (
    PRIME_LIMIT,
    SCREEN_PRIME,
    GaussDyadic,
    GAUSS_ONE,
    GAUSS_ZERO,
    ModMap,
    Poly,
    RatFunc,
    gauss_div,
    gauss_eq,
    gauss_from_text,
    gauss_is_unit,
    gauss_is_zero,
    gauss_log2_norm,
    gauss_mul,
    gauss_neg,
    gauss_pow,
    gauss_sub,
    gauss_to_str,
    grlex_key,
    is_prime,
    make_const,
    poly_arith,
    poly_arity,
    poly_pow,
    ratfunc_arith,
    ratfunc_const,
    ratfunc_eq,
    ratfunc_eval_mod,
    ratfunc_from_text,
    ratfunc_to_str,
)


class VerificationError(Exception):
    """A cross-check between two independent computation routes failed."""


class FactoredElement(NamedTuple):
    """A field element written as sign * prod(generators[i] ** exps[i]).

    sign 0 encodes the zero element; its exponent vector is all zeros.
    """

    sign: int
    exps: tuple[int, ...]


class PartialFieldSpec(NamedTuple):
    """Parsed description of one partial field; source_hash is the SHA-256
    of source_text."""

    name: str
    report_index: int
    var_names: tuple[str, ...]
    generator_exprs: tuple[str, ...]
    generators: tuple[RatFunc | GaussDyadic, ...]
    seed_exprs: tuple[str, ...]
    seeds: tuple[RatFunc | GaussDyadic, ...]
    gf5_width: int
    gf5_var_images: tuple[tuple[int, ...], ...]
    gf5_gen_images: tuple[tuple[int, ...], ...]
    h2_hom_exprs: tuple[tuple[str, ...], ...]
    h2_hom_images: tuple[tuple[GaussDyadic, ...], ...]
    mod_prime: int | None
    mod_var_residues: tuple[int, ...]
    extra_bounds: tuple[tuple[int, int, int], ...]
    include_zero_candidate: bool
    source_text: str
    source_hash: str

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def is_gauss(self) -> bool:
        return self.arity == 0

    def mod_map(self, prime: int | None = None) -> ModMap | None:
        """Modular fingerprint map at the spec prime or an override."""
        if self.is_gauss:
            return None
        p = self.mod_prime if prime is None else prime
        if p is None:
            raise ValueError(f"{self.name}: no fingerprint prime configured")
        residues = []
        for expr, gen in zip(self.generator_exprs, self.generators):
            r = ratfunc_eval_mod(gen, self.mod_var_residues, p)
            if not r:
                what = "vanishes" if r == 0 else "has a vanishing denominator"
                raise ValueError(
                    f"{self.name}: generator {expr!r} {what} mod {p} "
                    "at the fingerprint residues"
                )
            residues.append(r)
        return ModMap(p, tuple(residues))


def parse_field_spec(text: str) -> PartialFieldSpec:
    """Parse the line-oriented field description format."""
    name = ""
    report_index = 0
    var_names: list[str] = []
    gen_exprs: list[str] = []
    seed_exprs: list[str] = []
    gf5_var_images: dict[str, tuple[int, ...]] = {}
    gf5_gen_rows: list[tuple[int, ...]] = []
    hom_rows: list[tuple[str, ...]] = []
    prime: int | None = None
    var_residues: dict[str, int] = {}
    extra_bounds: list[tuple[int, int, int]] = []
    include_zero = False

    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, rest = line.partition(" ")
        rest = rest.strip()
        if keyword == "field":
            name = rest
        elif keyword == "k":
            report_index = int(rest)
        elif keyword == "vars":
            var_names = rest.split()
        elif keyword == "gen":
            gen_exprs.append(rest)
        elif keyword == "seed":
            seed_exprs.append(rest)
        elif keyword == "gf5map":
            var, *coords = rest.split()
            gf5_var_images[var] = tuple(int(c) for c in coords)
        elif keyword == "gf5gen":
            gf5_gen_rows.append(tuple(int(c) for c in rest.split()))
        elif keyword == "h2hom":
            hom_rows.append(tuple(part.strip() for part in rest.split(",")))
        elif keyword == "prime":
            prime = int(rest)
            if not (prime < PRIME_LIMIT and is_prime(prime)):
                raise ValueError(
                    f"fingerprint prime {prime} is not a prime below 3.3e24"
                )
        elif keyword == "modvar":
            var, value = rest.split()
            var_residues[var] = int(value)
        elif keyword == "extrabound":
            slot, lo, hi = rest.split()
            extra_bounds.append((int(slot), int(lo), int(hi)))
        elif keyword == "candidates-include-zero":
            include_zero = True
        else:
            raise ValueError(f"unknown directive: {keyword!r}")

    if not name or not report_index:
        raise ValueError("field description needs 'field' and 'k' lines")
    if not gen_exprs or not seed_exprs:
        raise ValueError("field description needs generators and seeds")

    arity = len(var_names)
    if arity == 0:
        generators: tuple = tuple(gauss_from_text(e) for e in gen_exprs)
        seeds: tuple = tuple(gauss_from_text(e) for e in seed_exprs)
        if not gauss_eq(generators[0], gauss_neg(GAUSS_ONE)):
            raise ValueError("the first generator must be -1")
        if len(gf5_gen_rows) != len(gen_exprs):
            raise ValueError("need one gf5gen row per generator")
        widths = {len(r) for r in gf5_gen_rows}
        if len(widths) != 1:
            raise ValueError("gf5gen rows must share one width")
        width = widths.pop()
        gen_images = tuple(gf5_gen_rows)
        var_images: tuple[tuple[int, ...], ...] = ()
        hom_images: tuple[tuple[GaussDyadic, ...], ...] = ()
        residues: tuple[int, ...] = ()
        if hom_rows or prime is not None or var_residues:
            raise ValueError("h2hom/prime/modvar lines need indeterminates")
    else:
        vt = tuple(var_names)
        generators = tuple(ratfunc_from_text(e, vt) for e in gen_exprs)
        seeds = tuple(ratfunc_from_text(e, vt) for e in seed_exprs)
        if not ratfunc_eq(generators[0], ratfunc_const(arity, -1)):
            raise ValueError("the first generator must be -1")
        if set(gf5_var_images) != set(var_names):
            raise ValueError("need one gf5map row per indeterminate")
        widths = {len(v) for v in gf5_var_images.values()}
        if len(widths) != 1:
            raise ValueError("gf5map rows must share one width")
        width = widths.pop()
        var_images = tuple(gf5_var_images[v] for v in var_names)
        gen_images = tuple(
            tuple(
                ratfunc_eval_mod(gen, [images[j] for images in var_images], 5)
                for j in range(width)
            )
            for gen in generators
        )
        for expr, row in zip(gen_exprs, gen_images):
            if not all(row):
                raise ValueError(f"generator {expr!r} has no unit image in GF(5)")
        for row in hom_rows:
            if len(row) != arity:
                raise ValueError("h2hom rows must give one value per indeterminate")
        # Each distinct text is parsed once, in the order the rows name them.
        texts = dict.fromkeys(e for row in hom_rows for e in row)
        value_of = {e: gauss_from_text(e) for e in texts}
        hom_images = tuple(tuple(value_of[e] for e in row) for row in hom_rows)
        if prime is None:
            raise ValueError("fields with indeterminates need a fingerprint prime")
        if set(var_residues) != set(var_names):
            raise ValueError("need one modvar row per indeterminate")
        residues = tuple(var_residues[v] for v in var_names)

    for slot, lo, hi in extra_bounds:
        if not 1 <= slot < len(gen_exprs) or lo > hi:
            raise ValueError(f"bad extrabound line: {slot} {lo} {hi}")

    return PartialFieldSpec(
        name=name,
        report_index=report_index,
        var_names=tuple(var_names),
        generator_exprs=tuple(gen_exprs),
        generators=generators,
        seed_exprs=tuple(seed_exprs),
        seeds=seeds,
        gf5_width=width,
        gf5_var_images=var_images,
        gf5_gen_images=gen_images,
        h2_hom_exprs=tuple(hom_rows),
        h2_hom_images=hom_images,
        mod_prime=prime,
        mod_var_residues=residues,
        extra_bounds=tuple(extra_bounds),
        include_zero_candidate=include_zero,
        source_text=text,
        source_hash=hashlib.sha256(text.encode()).hexdigest(),
    )


H2_SPEC_TEXT = """\
field H2
k 2
gen -1
gen 2
gen i
gen 1 - i
seed 0
seed 1
seed 2
seed i
gf5gen 4 4
gf5gen 2 2
gf5gen 2 3
gf5gen 4 3
"""

H3_SPEC_TEXT = """\
field H3
k 3
vars a
gen -1
gen a
gen 1 - a
gen a^2 - a + 1
seed 1
seed a
seed a^2 - a + 1
seed a^2/(a - 1)
seed -a/((a - 1)^2)
gf5map a 2 3 4
prime 1299709
modvar a 5
h2hom i
h2hom 1 - i
h2hom (1 - i)/2
candidates-include-zero
"""

H4_SPEC_TEXT = """\
field H4
k 4
vars a b
gen -1
gen a
gen b
gen 1 - a
gen 1 - b
gen a*b - 1
gen a + b - 2*a*b
seed 1
seed a
seed b
seed a*b
seed (a - 1)/(a*b - 1)
seed (b - 1)/(a*b - 1)
seed -a*(b - 1)/(b*(a - 1))
seed (a - 1)*(b - 1)/(1 - a*b)
seed a*(b - 1)^2/(b*(a*b - 1))
seed b*(a - 1)^2/(a*(a*b - 1))
gf5map a 2 3 3 4
gf5map b 2 3 4 3
prime 179424673
modvar a 11
modvar b 19
h2hom -i, -i
h2hom -i, i*(1 - i)/2
h2hom (1 - i)/2, i
h2hom i*(1 - i)/2, -i
h2hom 1 - i, i*(1 - i)
h2hom 1 - i, 1/2
h2hom i*(1 - i), 1 - i
h2hom i*(1 - i), 1/2
h2hom i, (1 - i)/2
h2hom i, i
h2hom 1/2, 1 - i
h2hom 1/2, i*(1 - i)
extrabound 1 -1 1
extrabound 2 -1 1
extrabound 5 -1 1
"""

H5_SPEC_TEXT = """\
field H5
k 5
vars a b c
gen -1
gen a
gen b
gen c
gen 1 - a
gen 1 - b
gen 1 - c
gen a - c
gen c - a*b
gen (1 - c) - (1 - a)*b
seed 1
seed a
seed b
seed c
seed a*b/c
seed a/c
seed (1 - a)*c/(c - a)
seed (a - 1)*b/(c - 1)
seed (a - 1)/(c - 1)
seed (c - a)/(c - a*b)
seed (b - 1)*(c - 1)/(b*(c - a))
seed b*(c - a)/(c - a*b)
seed (a - 1)*(b - 1)/(c - a)
seed b*(c - a)/((1 - c)*(c - a*b))
seed (1 - a)*(c - a*b)/(c - a)
seed (1 - b)/(c - a*b)
gf5map a 4 3 3 4 2 2
gf5map b 3 2 2 4 3 4
gf5map c 3 2 4 2 3 4
prime 22801763489
modvar a 17
modvar b 47
modvar c 53
h2hom -1, 1 - i, i
h2hom -1, 1 + i, -i
h2hom -i, (1 - i)/2, -1
h2hom -i, (1 - i)/2, (1 - i)/2
h2hom -i, i, 1 - i
h2hom -i, i, i
h2hom (1 - i)/2, -1, (1 + i)/2
h2hom (1 - i)/2, 1 - i, 1 - i
h2hom (1 - i)/2, 1 + i, -i
h2hom (1 - i)/2, 1/2, 1/2
h2hom (1 + i)/2, -1, (1 - i)/2
h2hom (1 + i)/2, 1 - i, i
h2hom (1 + i)/2, 1 + i, 1 + i
h2hom (1 + i)/2, 1/2, 1/2
h2hom 1 - i, -i, -i
h2hom 1 - i, -i, 1 + i
h2hom 1 - i, (1 + i)/2, (1 - i)/2
h2hom 1 - i, (1 + i)/2, 2
h2hom 1 + i, (1 - i)/2, (1 + i)/2
h2hom 1 + i, (1 - i)/2, 2
h2hom 1 + i, i, 1 - i
h2hom 1 + i, i, i
h2hom i, -i, -i
h2hom i, -i, 1 + i
h2hom i, (1 + i)/2, -1
h2hom i, (1 + i)/2, (1 + i)/2
h2hom 1/2, 2, (1 - i)/2
h2hom 1/2, 2, (1 + i)/2
h2hom 2, 1 - i, 1 - i
h2hom 2, 1 + i, 1 + i
"""

BUILTIN_TEXTS = {
    "H2": H2_SPEC_TEXT,
    "H3": H3_SPEC_TEXT,
    "H4": H4_SPEC_TEXT,
    "H5": H5_SPEC_TEXT,
}


class _BuiltinSpecs(Mapping):
    """Read-only name -> spec over BUILTIN_TEXTS; each field is parsed on
    its first lookup, and that parse is kept."""

    def __init__(self) -> None:
        self._parsed: dict[str, PartialFieldSpec] = {}

    def __getitem__(self, name: str) -> PartialFieldSpec:
        if name not in self._parsed:
            self._parsed[name] = parse_field_spec(BUILTIN_TEXTS[name])
        return self._parsed[name]

    def __iter__(self) -> Iterator[str]:
        return iter(BUILTIN_TEXTS)

    def __len__(self) -> int:
        return len(BUILTIN_TEXTS)


_BUILTIN_SPECS = _BuiltinSpecs()


def builtin_specs() -> Mapping[str, PartialFieldSpec]:
    """The four built-in field descriptions, each parsed once, on first use."""
    return _BUILTIN_SPECS


# One memo for every computation made from a whole spec, keyed by the
# computation and the hash of the spec text, so a spec parsed again from the
# same text reuses the results.
_memo: dict[tuple, object] = {}


def memo_by_spec(compute):
    """Decorator: compute(spec) runs once per spec text.  The wrapper's
    cache_clear() forgets that computation's results for every spec."""

    @wraps(compute)
    def memoised(spec: PartialFieldSpec):
        key = (compute, spec.source_hash)
        if key not in _memo:
            _memo[key] = compute(spec)
        return _memo[key]

    def cache_clear() -> None:
        for key in [key for key in _memo if key[0] is compute]:
            del _memo[key]

    memoised.cache_clear = cache_clear
    return memoised


# ---------------------------------------------------------------------------
# Associates


# The associate maps e_0..e_5 (x, 1 - x, 1/(1 - x), x/(x - 1), (x - 1)/x,
# 1/x), one op sequence each, form the anharmonic group S3: e_i(e_j(x)) =
# e_k(x) with k = _S3[i][j] for x not in {0, 1}.  A literal: no import work.
_ASSOCIATE_OPS = (
    lambda p, one, sub, div: p,
    lambda p, one, sub, div: sub(one, p),
    lambda p, one, sub, div: div(one, sub(one, p)),
    lambda p, one, sub, div: div(p, sub(p, one)),
    lambda p, one, sub, div: div(sub(p, one), p),
    lambda p, one, sub, div: div(one, p),
)
_S3 = (
    (0, 1, 2, 3, 4, 5), (1, 0, 3, 2, 5, 4), (2, 5, 4, 1, 0, 3),
    (3, 4, 5, 0, 1, 2), (4, 3, 0, 5, 2, 1), (5, 2, 1, 4, 3, 0),
)


def _value_ops(p) -> tuple:
    """zero, one, subtraction, division and equality for p's kind of value:
    a GaussDyadic, a RatFunc or a Fraction."""
    if isinstance(p, GaussDyadic):
        return GAUSS_ZERO, GAUSS_ONE, gauss_sub, gauss_div, gauss_eq
    if isinstance(p, RatFunc):
        zero, one = (ratfunc_const(poly_arity(p.den) or 0, c) for c in (0, 1))
        sub, div = (partial(ratfunc_arith, kind=kind) for kind in ("sub", "div"))
        return zero, one, sub, div, ratfunc_eq
    rational = type(p)
    return rational(0), rational(1), operator.sub, operator.truediv, operator.eq


# Subtraction and division of screen residue pairs (num, den) as unreduced
# fractions mod SCREEN_PRIME.
def _screen_sub(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return (x[0] * y[1] - y[0] * x[1]) % SCREEN_PRIME, x[1] * y[1] % SCREEN_PRIME


def _screen_div(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[1] % SCREEN_PRIME, x[1] * y[0] % SCREEN_PRIME


def _orbit(p, zero, one, sub, div, eq) -> tuple[list, tuple[int, ...] | None]:
    """e_0(p)..e_5(p) and each one's first equal e_j(p); ([zero, one], None)
    at 0, 1.  Of a rational function only p and 1 - p are always built: the
    others are built, and compared by eq, only where their screens agree.
    A screen is e_k run on p's screen residues as an unreduced fraction (a
    polynomial identity), so two screens with nonzero denominators whose
    cross-multiplication differs are two different values.  The other
    entries of the list are None until built."""
    if eq(p, zero) or eq(p, one):
        return [zero, one], None
    forms = [p, sub(one, p), None, None, None, None]
    if isinstance(p, RatFunc):
        pair = p.screen_residues
        screens = [op(pair, (1, 1), _screen_sub, _screen_div) for op in _ASSOCIATE_OPS]
    else:  # Gaussian and rational values are compared exactly.
        screens = [(0, 0)] * 6

    def equal(k: int, j: int) -> bool:
        (a, b), (c, d) = screens[k], screens[j]
        if b and d and (a * d - c * b) % SCREEN_PRIME:
            return False
        for i in (k, j):
            if forms[i] is None:
                forms[i] = _ASSOCIATE_OPS[i](p, one, sub, div)
        return eq(forms[k], forms[j])

    classes = [next((j for j in range(k) if equal(k, j)), k) for k in range(6)]
    return forms, tuple(classes)


def associates(p):
    """The associate set of p: {p, 1-p, 1/(1-p), p/(p-1), (p-1)/p, 1/p}.

    p is a GaussDyadic, a RatFunc, or a rational number (an int or a
    Fraction).  0 and 1 are each other's only associates.  Coincident
    members are deduplicated by exact equality, preserving first
    appearance.  Each kind of value brings its own zero, one, subtraction,
    division and equality.
    """
    if not isinstance(p, (GaussDyadic, RatFunc)):
        from fractions import Fraction

        p = Fraction(p)
    zero, one, sub, div, eq = _value_ops(p)
    forms, classes = _orbit(p, zero, one, sub, div, eq)
    if classes is None:
        return forms
    return [
        _ASSOCIATE_OPS[k](p, one, sub, div) if forms[k] is None else forms[k]
        for k in range(6)
        if classes[k] == k
    ]


# ---------------------------------------------------------------------------
# Factoring values over the generators


def poly_divexact(a: Poly, g: Poly) -> Poly | None:
    """Quotient a/g when g divides a exactly over the integers, else None."""
    if not a:
        return {}
    g_lead = max(g, key=grlex_key)
    g_lc = g[g_lead]
    rem = dict(a)
    quot: Poly = {}
    while rem:
        lead = max(rem, key=grlex_key)
        lc = rem[lead]
        mono = tuple(map(operator.sub, lead, g_lead))
        if any(m < 0 for m in mono) or lc % g_lc:
            return None
        c = lc // g_lc
        quot[mono] = c
        for e, gc in g.items():
            key = tuple(map(operator.add, mono, e))
            nv = rem.get(key, 0) - c * gc
            if nv:
                rem[key] = nv
            else:
                rem.pop(key, None)
    return quot


def _strip_generator(poly: Poly, gen: Poly) -> tuple[Poly, int]:
    count = 0
    while True:
        q = poly_divexact(poly, gen)
        if q is None:
            return poly, count
        poly = q
        count += 1


_GAUSS_UNIT_PHASES = {
    (1, 0): (1, 0),
    (0, 1): (1, 1),
    (-1, 0): (-1, 0),
    (0, -1): (-1, 1),
}


def _factor_gauss(spec: PartialFieldSpec, x: GaussDyadic) -> FactoredElement:
    n = len(spec.generators)
    if gauss_is_zero(x):
        return FactoredElement(0, (0,) * n)
    if not gauss_is_unit(x):
        raise ValueError(f"not expressible as a unit: {x}")
    # log2 N(x) = 2y + v, as N(2) = 4 and N(1 - i) = 2.
    log2_norm = gauss_log2_norm(x)
    v = log2_norm % 2
    y = (log2_norm - v) // 2
    base = GAUSS_ONE
    for gen, e in zip(spec.generators[1:], (y, 0, v)):
        base = gauss_mul(base, gauss_pow(gen, e))
    phase = gauss_div(x, base)
    if phase.two_exp != 0 or (phase.re_num, phase.im_num) not in _GAUSS_UNIT_PHASES:
        raise ValueError(f"not expressible as a unit: {x}")
    sign, z = _GAUSS_UNIT_PHASES[(phase.re_num, phase.im_num)]
    return FactoredElement(sign, (0, y, z, v))


def factor_over_generators(
    spec: PartialFieldSpec, x: RatFunc | GaussDyadic
) -> FactoredElement:
    """Write x as sign * prod(generators**exps), or raise ValueError."""
    if isinstance(x, GaussDyadic):
        return _factor_gauss(spec, x)
    n = len(spec.generators)
    num: Poly = dict(x.num)
    den: Poly = dict(x.den)
    if not num:
        return FactoredElement(0, (0,) * n)
    exps = [0] * n
    for i, gen in enumerate(spec.generators[1:], start=1):
        num, up = _strip_generator(num, gen.num)
        den, down = _strip_generator(den, gen.num)
        exps[i] = up - down
    # What is left is +-1 written as a quotient, possibly with a common
    # factor that is no generator, as in a*(a + 1)/(a + 1).
    if num == den:
        sign = 1
    elif num == {mono: -c for mono, c in den.items()}:
        sign = -1
    else:
        raise ValueError("not expressible as a unit over the generators")
    return FactoredElement(sign, tuple(exps))


def expand_element(
    spec: PartialFieldSpec, fe: FactoredElement
) -> RatFunc | GaussDyadic:
    """Exact value of a factored element."""
    if spec.is_gauss:
        if fe.sign == 0:
            return GAUSS_ZERO
        acc = GAUSS_ONE if fe.sign > 0 else gauss_neg(GAUSS_ONE)
        for gen, e in zip(spec.generators, fe.exps):
            if e:
                acc = gauss_mul(acc, gauss_pow(gen, e))
        return acc
    arity = spec.arity
    if fe.sign == 0:
        return ratfunc_const(arity, 0)
    num = make_const(arity, fe.sign)
    den = make_const(arity, 1)
    for gen, e in zip(spec.generators, fe.exps):
        if e > 0:
            num = poly_arith(num, poly_pow(gen.num, e), "mul")
            den = poly_arith(den, poly_pow(gen.den, e), "mul")
        elif e < 0:
            num = poly_arith(num, poly_pow(gen.den, -e), "mul")
            den = poly_arith(den, poly_pow(gen.num, -e), "mul")
    return RatFunc(num, den)


def canonical_element(spec: PartialFieldSpec, fe: FactoredElement) -> FactoredElement:
    """fe in canonical form: refactored from its exact value when the
    generators are dependent (the Gaussian field), else fe itself."""
    if spec.is_gauss:
        return factor_over_generators(spec, expand_element(spec, fe))
    return fe


# ---------------------------------------------------------------------------
# Homomorphism to GF(5)^m


def hom_gf5(spec: PartialFieldSpec, fe: FactoredElement) -> tuple[int, ...]:
    """Image of a factored element in GF(5)^m, coordinatewise."""
    width = spec.gf5_width
    if fe.sign == 0:
        return (0,) * width
    acc = list(spec.gf5_gen_images[0]) if fe.sign < 0 else [1] * width
    for img, e in zip(spec.gf5_gen_images, fe.exps):
        if e % 4:
            k = e % 4
            acc = [x * pow(g, k, 5) % 5 for x, g in zip(acc, img)]
    return tuple(acc)


# ---------------------------------------------------------------------------
# Fundamental tables


class TableEntry(NamedTuple):
    """One fundamental element with all its derived forms."""

    element: FactoredElement
    value: RatFunc | GaussDyadic
    fingerprint: int | GaussDyadic
    gf5_image: tuple[int, ...]


class FundamentalTable(NamedTuple):
    """All fundamental elements of one field, ascending by fingerprint."""

    spec: PartialFieldSpec
    mod_map: ModMap | None
    entries: tuple[TableEntry, ...]
    by_element: dict
    nonzero_one: tuple[TableEntry, ...]


def value_eq(a: RatFunc | GaussDyadic, b: RatFunc | GaussDyadic) -> bool:
    """Exact equality of two values of one field: == for Gaussian values,
    ratfunc_eq for rational functions."""
    if isinstance(a, GaussDyadic):
        return a == b
    return ratfunc_eq(a, b)


def _closure_of_seeds(
    spec: PartialFieldSpec,
) -> tuple[list, list[tuple[int, int]], dict[int, RatFunc | GaussDyadic]]:
    """Distinct values reachable from the seeds by taking associates, in the
    depth-first order of a stack of labels (parent index, map k, root seed x,
    g in S3) for e_g(x) = e_k(parent).  A popped label that no kept value of
    x settles gets a form, built from its parent's, and is kept, pushing its
    associates(), unless value_eq finds it among the kept values sharing its
    screen key.  Soundness: for x not in {0, 1}, e_i(e_j(x)) = e_{_S3[i][j]}(x),
    so e_g(x) = e_h(x) iff g and h share a class of _orbit(x), which the
    screens and value_eq compute once per root.  Across roots, and in the
    orbit {0, 1} of a seed 0 or 1, value_eq decides.

    Returns the values, each value's label (x, g), where in the orbit
    {0, 1} g is the value itself, and 1 - x for each root x outside {0, 1},
    the form _orbit builds.
    """
    zero, one, sub, div, eq = _value_ops(spec.seeds[0])
    values: list = []
    labels: list[tuple[int, int]] = []  # the (root seed, g) of each kept value
    classes: dict[int, tuple[int, ...] | None] = {}  # _orbit classes per root
    complements: dict = {}  # 1 - x per root x outside {0, 1}
    kept: set[tuple[int, int]] = set()  # (root, class of g) of kept values
    buckets: dict = {}
    stack = [(None, 0, r, 0) for r in range(len(spec.seeds))]
    while stack:
        parent, k, root, g = stack.pop()
        cls = classes.get(root)
        if cls is not None and (root, cls[g]) in kept:
            continue
        if parent is None:
            v = spec.seeds[root]
        elif cls is None:
            v = (zero, one)[k]
        else:
            v = _ASSOCIATE_OPS[k](values[parent], one, sub, div)
        if spec.is_gauss:
            key = v
        else:
            num, den = v.screen_residues
            key = num * pow(den, -1, SCREEN_PRIME) % SCREEN_PRIME if den else None
        if key is None:
            probe = range(len(values))
        else:
            probe = buckets.get(key, []) + buckets.get(None, [])
        if any(
            value_eq(values[i], v) for i in probe if not cls or labels[i][0] != root
        ):
            continue
        i = len(values)
        if parent is None:
            forms, cls = _orbit(v, zero, one, sub, div, eq)
            classes[root] = cls
            if cls is None:
                g = int(not eq(v, zero))
            else:
                complements[root] = forms[1]
        buckets.setdefault(key, []).append(i)
        values.append(v)
        labels.append((root, g))
        if cls is None:
            stack += [(i, j, root, j) for j in (0, 1)]
            continue
        kept.add((root, cls[g]))
        pushes: dict = {}  # the first associate of each class, in map order
        for j, h in enumerate(row[g] for row in _S3):
            pushes.setdefault(cls[h], (i, j, root, h))
        stack += pushes.values()
    return values, labels, complements


def value_text(spec: PartialFieldSpec, value: RatFunc | GaussDyadic) -> str:
    """A table value rendered in the spec's variable names."""
    if isinstance(value, GaussDyadic):
        return gauss_to_str(value)
    return ratfunc_to_str(value, spec.var_names)


def _factor_table_value(
    spec: PartialFieldSpec,
    x: RatFunc | GaussDyadic,
    stage: str,
    text: str | None = None,
) -> FactoredElement:
    """factor_over_generators, failing with the field, the stage and the
    element named: by its spec text if given, else rendered."""
    try:
        return factor_over_generators(spec, x)
    except ValueError:
        if text is None:
            text = value_text(spec, x)
        raise VerificationError(
            f"{spec.name}: {stage} {text!r} is not a unit over the generators"
        ) from None


def _closure_elements(
    spec: PartialFieldSpec,
) -> list[tuple[FactoredElement, RatFunc | GaussDyadic]]:
    """Route one: the closure values, each with its factored form.

    Only the seeds and each root's 1 - x are factored, and a non-unit among
    them fails naming it.  With x = (s, e) and 1 - x = (t, f), the other
    forms follow exactly: 1/(1 - x) = (t, -f), x/(x - 1) = (-st, e - f),
    (x - 1)/x = (-st, f - e) and 1/x = (s, -e).  The value k of the orbit
    {0, 1} is (k, 0)."""
    # A seed that is no unit fails here, before its associates, which can be
    # far larger than the seed, are built and compared.
    seeds = [
        _factor_table_value(spec, seed, f"seed {i}", text)
        for i, (text, seed) in enumerate(zip(spec.seed_exprs, spec.seeds), start=1)
    ]
    values, labels, complements = _closure_of_seeds(spec)
    orbits = {}
    for root, complement in complements.items():
        s, e = seeds[root]
        t, f = _factor_table_value(spec, complement, "closure element")
        d = tuple(x - y for x, y in zip(e, f))
        orbits[root] = [
            (s, e), (t, f), (t, tuple(-y for y in f)),
            (-s * t, d), (-s * t, tuple(-x for x in d)), (s, tuple(-x for x in e)),
        ]
    zeros = (0,) * len(spec.generators)
    return [
        (
            canonical_element(spec, FactoredElement(*orbits[root][g]))
            if root in orbits
            else FactoredElement(g, zeros),
            v,
        )
        for v, (root, g) in zip(values, labels)
    ]


def build_fundamental_table(spec: PartialFieldSpec) -> FundamentalTable:
    """Construct the fundamental table by two routes and cross-check them.

    Route one closes the seeds under associates and factors the seeds and
    each root's 1 - x over the generators, deriving every other value's
    form by exponent arithmetic (see _closure_elements).  Route two
    enumerates the integer points of the exponent box's norm rows and
    sieves them by fingerprint.  The routes must agree elementwise; then
    each survivor, in the sieve's ascending fingerprint order, becomes one
    entry valued by the closure element with its factored form.
    """
    from . import sieve

    elements = _closure_elements(spec)
    result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
    sieve.verify_survivors(spec, result, elements)

    value_of = dict(elements)
    image_of = {fe: hom_gf5(spec, fe) for fe in value_of}
    for keys, what in (
        (value_of, "factored forms"),
        (set(image_of.values()), "GF(5) images"),
    ):
        if len(keys) != len(elements):
            raise VerificationError(f"{spec.name}: {what} are not pairwise distinct")
    entries = [
        TableEntry(fe, value_of[fe], fp, image_of[fe])
        for fp, fe in result.fingerprints.items()
    ]
    by_element = {e.element: e for e in entries}
    one = FactoredElement(1, (0,) * len(spec.generators))
    nonzero_one = tuple(
        e for e in entries if e.element.sign != 0 and e.element != one
    )
    return FundamentalTable(
        spec=spec,
        mod_map=result.mod_map,
        entries=tuple(entries),
        by_element=by_element,
        nonzero_one=nonzero_one,
    )


@memo_by_spec
def fundamental_table(spec: PartialFieldSpec) -> FundamentalTable:
    """Cached fundamental table for a spec."""
    return build_fundamental_table(spec)


def is_fundamental_exact(
    spec: PartialFieldSpec, x: RatFunc | GaussDyadic
) -> bool:
    """Exact membership test against the fundamental table: value_eq with
    some entry (whose screen residues reject nearly every other entry)."""
    return any(value_eq(x, e.value) for e in fundamental_table(spec).entries)
