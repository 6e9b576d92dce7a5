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
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial, wraps
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
    gauss_lognorm,
    gauss_mul,
    gauss_neg,
    gauss_pow,
    gauss_re_im,
    gauss_sub,
    gauss_to_str,
    grlex_key,
    is_prime,
    make_const,
    mod_eval,
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


@dataclass(frozen=True, eq=False)
class PartialFieldSpec:
    """Parsed description of one partial field."""

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

    @property
    def arity(self) -> int:
        return len(self.var_names)

    @property
    def is_gauss(self) -> bool:
        return self.arity == 0

    @property
    def source_hash(self) -> str:
        return hashlib.sha256(self.source_text.encode()).hexdigest()

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
        hom_images = tuple(tuple(gauss_from_text(e) for e in row) for row in hom_rows)
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

_BUILTIN_TEXTS = {
    "H2": H2_SPEC_TEXT,
    "H3": H3_SPEC_TEXT,
    "H4": H4_SPEC_TEXT,
    "H5": H5_SPEC_TEXT,
}


@cache
def builtin_specs() -> Mapping[str, PartialFieldSpec]:
    """The four built-in field descriptions, parsed once; read-only."""
    return MappingProxyType(
        {name: parse_field_spec(text) for name, text in _BUILTIN_TEXTS.items()}
    )


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


def associates(p: Fraction | int | GaussDyadic | RatFunc):
    """The associate set of p: {p, 1-p, 1/(1-p), p/(p-1), (p-1)/p, 1/p}.

    0 and 1 are each other's only associates.  Coincident members are
    deduplicated by exact equality, preserving first appearance.  Each kind
    of value brings its own zero, one, subtraction, division and equality.
    """
    if isinstance(p, GaussDyadic):
        zero, one, sub, div, eq = GAUSS_ZERO, GAUSS_ONE, gauss_sub, gauss_div, gauss_eq
    elif isinstance(p, RatFunc):
        arity = poly_arity(p.den)
        assert arity is not None
        zero, one = ratfunc_const(arity, 0), ratfunc_const(arity, 1)
        sub = partial(ratfunc_arith, kind="sub")
        div, eq = partial(ratfunc_arith, kind="div"), ratfunc_eq
    else:
        p, zero, one = Fraction(p), Fraction(0), Fraction(1)
        sub, div, eq = operator.sub, operator.truediv, operator.eq
    if eq(p, zero) or eq(p, one):
        return [zero, one]
    q, p_minus_one = sub(one, p), sub(p, one)
    out: list = []
    for c in (p, q, div(one, q), div(p, p_minus_one), div(p_minus_one, p), div(one, p)):
        if not any(eq(c, seen) for seen in out):
            out.append(c)
    return out


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
        mono = tuple(x - y for x, y in zip(lead, g_lead))
        if any(m < 0 for m in mono) or lc % g_lc:
            return None
        c = lc // g_lc
        quot[mono] = c
        for e, gc in g.items():
            key = tuple(x + y for x, y in zip(mono, e))
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
    lognorm = gauss_lognorm(x)
    v = 1 if lognorm.denominator == 2 else 0
    y = int(lognorm - Fraction(v, 2))
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


@dataclass(eq=False)
class TableEntry:
    """One fundamental element with all its derived forms."""

    element: FactoredElement
    value: RatFunc | GaussDyadic
    fingerprint: int | GaussDyadic
    gf5_image: tuple[int, ...]


@dataclass(eq=False)
class FundamentalTable:
    """All fundamental elements of one field, ascending by fingerprint."""

    spec: PartialFieldSpec
    mod_map: ModMap | None
    entries: tuple[TableEntry, ...]
    by_element: dict
    nonzero_one: tuple[TableEntry, ...]


def fingerprint_sort_key(fp: int | GaussDyadic):
    if isinstance(fp, GaussDyadic):
        return gauss_re_im(fp)
    return fp


def element_fingerprint(
    spec: PartialFieldSpec,
    mm: ModMap | None,
    fe: FactoredElement,
    value: RatFunc | GaussDyadic,
) -> int | GaussDyadic:
    """Fingerprint: the exact value itself for the Gaussian field, else the
    residue of the factored form under the modular map."""
    if spec.is_gauss:
        return value
    assert mm is not None
    return mod_eval(mm, fe.sign, fe.exps)


def value_eq(a: RatFunc | GaussDyadic, b: RatFunc | GaussDyadic) -> bool:
    """Exact equality of two values of one field: == for Gaussian values,
    ratfunc_eq for rational functions."""
    if isinstance(a, GaussDyadic):
        return a == b
    return ratfunc_eq(a, b)


def _value_key(v: RatFunc | GaussDyadic) -> int | GaussDyadic | None:
    """A hashable key on which exactly equal values agree: a Gaussian value
    itself, else num/den at ratfunc_eq's screen point mod SCREEN_PRIME, or
    None where that denominator residue is 0."""
    if isinstance(v, GaussDyadic):
        return v
    num, den = v.screen_residues
    return num * pow(den, -1, SCREEN_PRIME) % SCREEN_PRIME if den else None


def _closure_of_seeds(spec: PartialFieldSpec) -> list[RatFunc | GaussDyadic]:
    """Distinct values reachable from the seeds by taking associates, told
    apart by value_eq among the kept values that share the _value_key."""
    values: list = []
    buckets: dict = {}
    queue = list(spec.seeds)
    while queue:
        v = queue.pop()
        key = _value_key(v)
        if key is None:
            probe = range(len(values))
        else:
            probe = buckets.get(key, []) + buckets.get(None, [])
        if any(value_eq(values[i], v) for i in probe):
            continue
        buckets.setdefault(key, []).append(len(values))
        values.append(v)
        queue.extend(associates(v))
    return values


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


def build_fundamental_table(spec: PartialFieldSpec) -> FundamentalTable:
    """Construct the fundamental table by two routes and cross-check them.

    Route one closes the seeds under associates and factors every value over
    the generators.  Route two enumerates the exponent box and sieves by
    fingerprint.  The routes must agree elementwise.
    """
    from . import sieve

    # A seed that is no unit fails here, before its associates, which can be
    # far larger than the seed, are built and compared.
    for i, (text, seed) in enumerate(zip(spec.seed_exprs, spec.seeds), start=1):
        _factor_table_value(spec, seed, f"seed {i}", text)
    elements = [
        (_factor_table_value(spec, v, "closure element"), v)
        for v in _closure_of_seeds(spec)
    ]

    result = sieve.fingerprint_sieve(spec, sieve.candidate_box(spec))
    sieve.verify_survivors(spec, result, elements)

    mm = result.mod_map
    entries = []
    for fe, value in elements:
        fp = element_fingerprint(spec, mm, fe, value)
        entries.append(TableEntry(fe, value, fp, hom_gf5(spec, fe)))
    entries.sort(key=lambda e: fingerprint_sort_key(e.fingerprint))

    by_element = {e.element: e for e in entries}
    for keys, what in (
        ({e.fingerprint for e in entries}, "fingerprints"),
        (by_element, "factored forms"),
        ({e.gf5_image for e in entries}, "GF(5) images"),
    ):
        if len(keys) != len(entries):
            raise VerificationError(f"{spec.name}: {what} are not pairwise distinct")
    one = FactoredElement(1, (0,) * len(spec.generators))
    nonzero_one = tuple(
        e for e in entries if e.element.sign != 0 and e.element != one
    )
    return FundamentalTable(
        spec=spec,
        mod_map=mm,
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
