"""Partial-field descriptions and fundamental-element machinery.

A field description lists multiplicative generators (always including -1),
seed elements, images of the generators in GF(5)^m, and the data a modular
fingerprint needs (a prime and residues for the indeterminates).  From that
this module derives the full table of fundamental elements: the closure of
the seeds under the associate operation (route one, in `closure`),
cross-checked against an independently computed exponent-box sieve (route
two, in `sieve`), with every table entry carrying its factored form, exact
value, fingerprint, and GF(5)^m image.  Both routes run only when a table
is built; the associate maps, factoring and exact membership they share
stay here.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterator, Mapping
from functools import cache, partial

from .exact import (
    PRIME_LIMIT,
    SCREEN_PRIME,
    GaussDyadic,
    GAUSS_I,
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
    is_prime,
    make_const,
    next_prime,
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


class FactoredElement(namedtuple("FactoredElement", "sign exps")):
    """A field element written as sign * prod(generators[i] ** exps[i]).

    sign: int; 0 encodes the zero element, whose exps are all zeros.
    exps: tuple[int, ...].
    """

    __slots__ = ()


class PartialFieldSpec(
    namedtuple(
        "PartialFieldSpec",
        "name report_index var_names generator_exprs generators seed_exprs "
        "seeds gf5_width gf5_var_images gf5_gen_images h2_hom_exprs "
        "h2_hom_images mod_prime mod_var_residues extra_bounds "
        "include_zero_candidate source_text",
    )
):
    """Parsed description of one partial field.

    name, source_text: str.  report_index, gf5_width: int.
    var_names, generator_exprs, seed_exprs: tuple[str, ...].
    generators, seeds: tuple[RatFunc | GaussDyadic, ...].
    gf5_var_images, gf5_gen_images: tuple[tuple[int, ...], ...].
    h2_hom_exprs: tuple[tuple[str, ...], ...].
    h2_hom_images: tuple[tuple[GaussDyadic, ...], ...].
    mod_prime: int | None.  mod_var_residues: tuple[int, ...].
    extra_bounds: tuple[tuple[int, int, int], ...].
    include_zero_candidate: bool.
    """

    __slots__ = ()

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
            if not r:  # every generator is a polynomial, so r is never None
                raise ValueError(
                    f"{self.name}: generator {expr!r} vanishes mod {p} "
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
            for i, var in enumerate(var_names):
                if var in var_names[:i]:
                    raise ValueError(f"indeterminate {var!r} is named twice: {line!r}")
        elif keyword == "gen":
            gen_exprs.append(rest)
        elif keyword == "seed":
            seed_exprs.append(rest)
        elif keyword == "gf5map":
            var, *coords = rest.split()
            gf5_var_images[var] = _gf5_row(line, coords)
        elif keyword == "gf5gen":
            gf5_gen_rows.append(_gf5_row(line, rest.split()))
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
        # _factor_gauss and the Gaussian box read the generators in this
        # layout, in which they generate every unit i^k (1 + i)^m: the field
        # is H2, and its fundamentals are sieve.h2_fundamentals.
        layout = "the Gaussian generators are -1, a unit of norm 4, i and one of norm 2"
        for expr, g, norm in zip(gen_exprs[1:], generators[1:], (2, 0, 1)):
            unit = gauss_is_unit(g) and gauss_log2_norm(g) == norm
            if not unit or (norm == 0 and g != GAUSS_I):
                raise ValueError(f"generator {expr!r} is out of place: {layout}")
        if len(generators) != 4:
            raise ValueError(f"{layout}, not {len(generators)} generators")
        if len(gf5_gen_rows) != len(gen_exprs):
            raise ValueError("need one gf5gen row per generator")
        widths = {len(r) for r in gf5_gen_rows}
        if len(widths) != 1:
            raise ValueError("gf5gen rows must share one width")
        width = widths.pop()
        gen_images = tuple(gf5_gen_rows)
        # Each column must be a homomorphism: the generators at i = r in
        # GF(5) for a root r of -1 there.  A wrong column names the first
        # generator at which it has left both roots' images.
        at_roots = [
            tuple(
                (g.re_num + g.im_num * r) * pow(2, -g.two_exp, 5) % 5
                for g in generators
            )
            for r in (2, 3)
        ]
        for j in range(width):
            column = tuple(row[j] for row in gen_images)
            if column not in at_roots:
                k = max(
                    next(k for k, (c, v) in enumerate(zip(column, at)) if c != v)
                    for at in at_roots
                )
                raise ValueError(
                    f"gf5gen column {j + 1} is not the generators at i = 2 or "
                    f"i = 3 mod 5: generator {gen_exprs[k]!r} maps to {column[k]}"
                )
        var_images: tuple[tuple[int, ...], ...] = ()
        hom_images: tuple[tuple[GaussDyadic, ...], ...] = ()
        residues: tuple[int, ...] = ()
        if hom_rows or prime is not None or var_residues:
            raise ValueError("h2hom/prime/modvar lines need indeterminates")
        if extra_bounds:
            raise ValueError("extrabound lines need indeterminates")
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
        # Factoring strips each generator until a division by it fails, which
        # never happens for 1 or -1, and it and the survivor check multiply
        # polynomials only, so each generator is kept as its exact quotient.
        units = (make_const(arity, 1), make_const(arity, -1))
        quotients = [poly_divexact(gen.num, gen.den) for gen in generators]
        for i, (expr, gen, q) in enumerate(zip(gen_exprs, generators, quotients)):
            if i and (gen.num in units or q in units):
                raise ValueError(f"generator {expr!r} has numerator 1 or -1")
            if q is None:
                raise ValueError(f"generator {expr!r} is not a polynomial")
        generators = tuple(RatFunc(q, units[0]) for q in quotients)
        gen_images = tuple(
            tuple(
                ratfunc_eval_mod(gen, [images[j] for images in var_images], 5)
                for j in range(width)
            )
            for gen in generators
        )
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

    for expr, row in zip(gen_exprs, gen_images):
        if not all(row):
            raise ValueError(f"generator {expr!r} has no unit image in GF(5)")
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


def _gf5_row(line: str, coords) -> tuple[int, ...]:
    """The GF(5) entries of a gf5map or gf5gen line, each in 0..4."""
    row = tuple(int(c) for c in coords)
    for c in row:
        if not 0 <= c <= 4:
            raise ValueError(f"GF(5) entry {c} is not in 0..4: {line!r}")
    return row


def reprime(spec: PartialFieldSpec, start: int | None) -> PartialFieldSpec:
    """spec declaring the first prime at or after start its fingerprint
    prime, or spec itself without a start or for the Gaussian field, which
    has no prime line.  Nothing is parsed again, so re-primings at one prime
    are equal specs holding the same values and share every per-spec cache.
    The text has each prime line rewritten and its lines joined without a
    trailing newline, as the fingerprints always were.  PRIME_LIMIT - 1 is
    prime, so a start below PRIME_LIMIT gives a prime below it.  The sieve
    holds that prime to the rule for any declared prime."""
    if start is None or spec.is_gauss:
        return spec
    prime = next_prime(start - 1)
    text = "\n".join(
        f"prime {prime}" if line.split()[:1] == ["prime"] else line
        for line in spec.source_text.splitlines()
    )
    return spec._replace(mod_prime=prime, source_text=text)


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


def complement(value):
    """1 - value, exactly, for any kind of value _value_ops knows."""
    _, one, sub, _, _ = _value_ops(value)
    return sub(one, value)


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
    """Quotient a/g when g divides a exactly over the integers, else None.

    Leading terms are lex-largest, in plain tuple order, which max()
    compares in C.  Division is exact in any monomial order: a = q*g gives
    lead(a) = lead(q)*lead(g), so a multiple never fails, and a quotient is
    returned only for an empty remainder.  Each step lowers the leading
    term, and a multiple's quotient terms have degree <= deg a - deg g, so
    a step past that fails: at most as many steps as such monomials.  The
    lex-least terms give trail(a) = trail(q)*trail(g), checked at entry."""
    if not a:
        return {}
    a_trail, g_trail = min(a), min(g)
    if min(map(operator.sub, a_trail, g_trail)) < 0 or a[a_trail] % g[g_trail]:
        return None
    g_lead = max(g)
    g_lc = g[g_lead]
    top = max(map(sum, a)) - max(map(sum, g))
    rem = dict(a)
    quot: Poly = {}
    while rem:
        lead = max(rem)
        lc = rem[lead]
        mono = tuple(map(operator.sub, lead, g_lead))
        if min(mono) < 0 or sum(mono) > top or lc % g_lc:
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
    while (q := poly_divexact(poly, gen)) is not None:
        poly, count = q, count + 1
    return poly, count


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


def generator_products(spec: PartialFieldSpec, factors) -> Iterator[Poly]:
    """sign * prod(generators[i] ** exps[i]) for each (sign, exps) of
    factors, every exponent >= 0: a polynomial, as every generator of a field
    with indeterminates is one.  Powers are kept for this call only."""
    power = cache(lambda i, e: poly_pow(spec.generators[i].num, e))
    for sign, exps in factors:
        acc = make_const(spec.arity, sign)
        for i, e in enumerate(exps):
            if e:
                acc = poly_arith(acc, power(i, e), "mul")
        yield acc


def expand_element(
    spec: PartialFieldSpec, fe: FactoredElement
) -> RatFunc | GaussDyadic:
    """Exact value of a factored element: with indeterminates, a quotient
    of generator_products, the powers of positive and of negative exponents."""
    if spec.is_gauss:
        if fe.sign == 0:
            return GAUSS_ZERO
        acc = GAUSS_ONE if fe.sign > 0 else gauss_neg(GAUSS_ONE)
        for gen, e in zip(spec.generators, fe.exps):
            if e:
                acc = gauss_mul(acc, gauss_pow(gen, e))
        return acc
    over, under = ([max(x, 0) for x in fe.exps], [max(-x, 0) for x in fe.exps])
    return RatFunc(*generator_products(spec, ((fe.sign, over), (1, under))))


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


class TableEntry(namedtuple("TableEntry", "element value fingerprint gf5_image")):
    """One fundamental element with all its derived forms.

    element: FactoredElement.  value: RatFunc | GaussDyadic.
    fingerprint: int | GaussDyadic.  gf5_image: tuple[int, ...].
    """

    __slots__ = ()


class FundamentalTable(
    namedtuple("FundamentalTable", "spec mod_map entries by_element nonzero_one")
):
    """All fundamental elements of one field, ascending by fingerprint.

    spec: PartialFieldSpec.  mod_map: ModMap | None.
    entries, nonzero_one: tuple[TableEntry, ...].
    by_element: dict from FactoredElement to TableEntry.
    """

    __slots__ = ()


def value_eq(a: RatFunc | GaussDyadic, b: RatFunc | GaussDyadic) -> bool:
    """Exact equality of two values of one field: == for Gaussian values,
    ratfunc_eq for rational functions."""
    if isinstance(a, GaussDyadic):
        return a == b
    return ratfunc_eq(a, b)


def value_text(spec: PartialFieldSpec, value: RatFunc | GaussDyadic) -> str:
    """A table value rendered in the spec's variable names."""
    if isinstance(value, GaussDyadic):
        return gauss_to_str(value)
    return ratfunc_to_str(value, spec.var_names)


def build_fundamental_table(spec: PartialFieldSpec) -> FundamentalTable:
    """Construct the fundamental table by two routes and cross-check them.

    Route one closes the seeds under associates and factors the seeds and
    each root's 1 - x over the generators, deriving every other value's
    form by exponent arithmetic (closure._closure_elements).  Route two
    enumerates the integer points of the exponent box's norm rows and
    sieves them by fingerprint (sieve).  The routes must agree elementwise;
    then each survivor, in the sieve's ascending fingerprint order, becomes
    one entry valued by the closure element with its factored form.
    """
    from . import closure, sieve

    elements = closure._closure_elements(spec)
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


@cache
def fundamental_table(spec: PartialFieldSpec) -> FundamentalTable:
    """The fundamental table of a spec, built once per spec object."""
    return build_fundamental_table(spec)


def is_fundamental_exact(
    spec: PartialFieldSpec, x: RatFunc | GaussDyadic
) -> bool:
    """Exact membership by definition: x and 1 - x both factor over the
    generators (zero factors, with sign 0).  Reads no table."""
    try:
        factor_over_generators(spec, x)
        factor_over_generators(spec, complement(x))
    except ValueError:
        return False
    return True
