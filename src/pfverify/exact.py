"""Exact arithmetic kernels: sparse integer polynomials, rational functions,
Gaussian dyadic numbers, and modular evaluation.

A polynomial is a dictionary mapping monomial exponent tuples to integer
coefficients:

  Poly = dict[Exponent, int]
  Exponent = tuple[int, ...]   (one entry per variable, giving its degree)

Zero-coefficient terms are never stored; the zero polynomial is {}.  The
canonical term order for printing and serialization is graded lexicographic.

Rational functions are unreduced numerator/denominator pairs; equality is
decided by cross-multiplication, so no multivariate GCD is ever needed.  A
residue of both cross-products at one fixed point modulo a large prime is
compared first: different residues prove inequality, and equal ones fall
through to the exact comparison.

Gaussian dyadic numbers are elements of Z[1/2, i], stored as
(re_num + im_num*i) / 2^two_exp in lowest dyadic terms.

All values are immutable after construction and every function is pure.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from operator import add

Exponent = tuple[int, ...]

# Polynomial type: maps each monomial to its integer coefficient.
Poly = dict[Exponent, int]


# ---------------------------------------------------------------------------
# Polynomials


def canonicalize(poly: Poly) -> Poly:
    """Drop any monomials with coefficient zero."""
    return {mono: coeff for mono, coeff in poly.items() if coeff != 0}


def make_zero() -> Poly:
    """Return the zero polynomial."""
    return {}


def make_const(arity: int, value: int) -> Poly:
    """Return the constant polynomial `value` in `arity` variables."""
    if value == 0:
        return {}
    return {(0,) * arity: value}


def make_var(arity: int, idx: int) -> Poly:
    """Return the polynomial consisting of the single variable with index idx."""
    if not 0 <= idx < arity:
        raise ValueError(f"variable index {idx} out of range for arity {arity}")
    exp = [0] * arity
    exp[idx] = 1
    return {tuple(exp): 1}


def poly_arity(poly: Poly) -> int | None:
    """Return the arity of a nonzero polynomial, or None for the zero polynomial."""
    for mono in poly:
        return len(mono)
    return None


def _check_same_arity(a: Poly, b: Poly) -> None:
    if a and b and (aa := len(next(iter(a)))) != (ab := len(next(iter(b)))):
        raise ValueError(f"arity mismatch: {aa} vs {ab}")


def poly_arith(a: Poly, b: Poly, kind: str) -> Poly:
    """Return a+b, a-b, or a*b according to kind ('add' | 'sub' | 'mul')."""
    _check_same_arity(a, b)
    if kind == "add":
        out = dict(a)
        for mono, coeff in b.items():
            out[mono] = out.get(mono, 0) + coeff
        return canonicalize(out)
    if kind == "sub":
        out = dict(a)
        for mono, coeff in b.items():
            out[mono] = out.get(mono, 0) - coeff
        return canonicalize(out)
    if kind == "mul":
        if not a or not b:
            return {}
        # A constant operand scales the other one, in the other one's key
        # order, as the loop below would.  No stored term is zero, so a
        # constant 1 copies the other operand.
        for const, other in ((a, b), (b, a)):
            if len(const) == 1:
                ((mono, c),) = const.items()
                if not any(mono):
                    if c == 1:
                        return dict(other)
                    return {m: v for m, coeff in other.items() if (v := c * coeff)}
        out = {}
        get, b_terms = out.get, b.items()
        for mono_a, coeff_a in a.items():
            for mono_b, coeff_b in b_terms:
                mono = tuple(map(add, mono_a, mono_b))
                out[mono] = get(mono, 0) + coeff_a * coeff_b
        return {mono: coeff for mono, coeff in out.items() if coeff}
    raise ValueError(f"unknown kind {kind!r}")


def poly_neg(a: Poly) -> Poly:
    """Return -a."""
    return {mono: -coeff for mono, coeff in a.items()}


def poly_pow(a: Poly, n: int) -> Poly:
    """Return a**n for n >= 0."""
    if n < 0:
        raise ValueError("negative power of a polynomial")
    arity = poly_arity(a)
    result = make_const(arity if arity is not None else 0, 1)
    for _ in range(n):
        result = poly_arith(result, a, "mul")
    return result


def sorted_terms(poly: Poly) -> list[tuple[Exponent, int]]:
    """Terms in descending graded-lex order (total degree, then the
    exponents); the canonical serialization order."""
    return sorted(poly.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def poly_to_str(poly: Poly, var_names: Sequence[str]) -> str:
    """Render a polynomial deterministically in descending graded-lex order."""
    if not poly:
        return "0"
    parts: list[str] = []
    for mono, coeff in sorted_terms(poly):
        factors = [
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(var_names, mono)
            if e != 0
        ]
        magnitude = abs(coeff)
        if not factors:
            body = str(magnitude)
        elif magnitude == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(magnitude), *factors])
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign} {body}")
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def poly_eval_mod(poly: Poly, var_residues: Sequence[int], p: int) -> int:
    """Evaluate a polynomial at the given variable residues, mod p."""
    total = 0
    for mono, coeff in poly.items():
        term = coeff % p
        for r, e in zip(var_residues, mono):
            if e == 1:
                term = term * r % p
            elif e:
                term = term * pow(r, e, p) % p
        total = (total + term) % p
    return total


def poly_subst(poly: Poly, values: Sequence["RatFunc"]) -> "RatFunc":
    """Evaluate a polynomial at rational-function arguments.

    All terms are put over the single common denominator prod(den_i^maxdeg_i),
    which keeps the result size linear in the term count.
    """
    arity = poly_arity(poly)
    if arity is None:
        target = poly_arity(values[0].den) if values else 0
        return RatFunc(make_zero(), make_const(target or 0, 1))
    if len(values) != arity:
        raise ValueError(f"expected {arity} values, got {len(values)}")
    max_deg = [0] * arity
    for mono in poly:
        for i, e in enumerate(mono):
            max_deg[i] = max(max_deg[i], e)
    num_pows = [_pow_table(v.num, max_deg[i]) for i, v in enumerate(values)]
    den_pows = [_pow_table(v.den, max_deg[i]) for i, v in enumerate(values)]
    total = make_zero()
    for mono, coeff in poly.items():
        inner_arity = poly_arity(values[0].den)
        term = make_const(inner_arity if inner_arity is not None else 0, coeff)
        for i, e in enumerate(mono):
            term = poly_arith(term, num_pows[i][e], "mul")
            term = poly_arith(term, den_pows[i][max_deg[i] - e], "mul")
        total = poly_arith(total, term, "add")
    denominator = None
    for i in range(arity):
        denominator = (
            den_pows[i][max_deg[i]]
            if denominator is None
            else poly_arith(denominator, den_pows[i][max_deg[i]], "mul")
        )
    assert denominator is not None
    return RatFunc(total, denominator)


def _pow_table(poly: Poly, max_power: int) -> list[Poly]:
    arity = poly_arity(poly)
    table = [make_const(arity if arity is not None else 0, 1)]
    for _ in range(max_power):
        table.append(poly_arith(table[-1], poly, "mul"))
    return table


# ---------------------------------------------------------------------------
# Rational functions

# ratfunc_eq's screen evaluates at one point modulo this prime, 2^61 - 1.  A
# nonzero cross-product difference of degree d vanishes at a random point
# with probability at most d / SCREEN_PRIME (Schwartz-Zippel); where it does
# vanish, the exact comparison still decides, so the screen never changes a
# verdict.
SCREEN_PRIME = (1 << 61) - 1


def screen_point(arity: int) -> tuple[int, ...]:
    """The screen's residue for each variable, derived from its index, so
    any number of variables has one."""
    return tuple(
        (0x9E3779B97F4A7C15 * (j + 1)) % SCREEN_PRIME for j in range(arity)
    )


class RatFunc:
    """An unreduced quotient of two polynomials; compare with ratfunc_eq only."""

    __slots__ = ("num", "den", "_screen")

    def __init__(self, num: Poly, den: Poly) -> None:
        if not den:
            raise ValueError("zero denominator")
        _check_same_arity(num, den)
        self.num = num
        self.den = den
        self._screen: tuple[int, int] | None = None

    @property
    def screen_residues(self) -> tuple[int, int]:
        """Numerator and denominator residues at screen_point, mod
        SCREEN_PRIME; computed once per object."""
        if self._screen is None:
            point = screen_point(poly_arity(self.den) or 0)
            self._screen = (
                poly_eval_mod(self.num, point, SCREEN_PRIME),
                poly_eval_mod(self.den, point, SCREEN_PRIME),
            )
        return self._screen


def ratfunc_const(arity: int, value: int) -> RatFunc:
    """Return the constant rational function `value`."""
    return RatFunc(make_const(arity, value), make_const(arity, 1))


def ratfunc_var(arity: int, idx: int) -> RatFunc:
    """Return the rational function consisting of a single variable."""
    return RatFunc(make_var(arity, idx), make_const(arity, 1))


def ratfunc_eq(a: RatFunc, b: RatFunc) -> bool:
    """True iff a.num*b.den - b.num*a.den is the zero polynomial.

    One object is equal to itself; otherwise a nonzero residue of that
    difference at the screen point proves it nonzero, and failing that the
    two cross-products are compared exactly."""
    if a is b:
        return True
    _check_same_arity(a.den, b.den)
    a_num, a_den = a.screen_residues
    b_num, b_den = b.screen_residues
    if (a_num * b_den - b_num * a_den) % SCREEN_PRIME:
        return False
    lhs = poly_arith(a.num, b.den, "mul")
    rhs = poly_arith(b.num, a.den, "mul")
    return lhs == rhs


def ratfunc_arith(a: RatFunc, b: RatFunc, kind: str) -> RatFunc:
    """Return a+b, a-b, a*b, or a/b ('add' | 'sub' | 'mul' | 'div'), unreduced."""
    if kind in ("add", "sub"):
        num = poly_arith(
            poly_arith(a.num, b.den, "mul"),
            poly_arith(b.num, a.den, "mul"),
            kind,
        )
        return RatFunc(num, poly_arith(a.den, b.den, "mul"))
    if kind == "mul":
        return RatFunc(
            poly_arith(a.num, b.num, "mul"), poly_arith(a.den, b.den, "mul")
        )
    if kind == "div":
        if not b.num:
            raise ValueError("division by the zero rational function")
        return RatFunc(
            poly_arith(a.num, b.den, "mul"), poly_arith(a.den, b.num, "mul")
        )
    raise ValueError(f"unknown kind {kind!r}")


def ratfunc_subst(x: RatFunc, values: Sequence[RatFunc]) -> RatFunc:
    """x at rational-function values: num and den substituted, divided once."""
    return ratfunc_arith(poly_subst(x.num, values), poly_subst(x.den, values), "div")


def ratfunc_neg(a: RatFunc) -> RatFunc:
    """Return -a."""
    return RatFunc(poly_neg(a.num), a.den)


def ratfunc_is_zero(a: RatFunc) -> bool:
    """True iff a equals 0."""
    return not a.num


def ratfunc_to_str(a: RatFunc, var_names: Sequence[str]) -> str:
    """Render num/den, eliding a denominator equal to 1."""
    num = poly_to_str(a.num, var_names)
    if a.den == make_const(len(var_names), 1):
        return num
    return f"({num})/({poly_to_str(a.den, var_names)})"


# ---------------------------------------------------------------------------
# Gaussian dyadic numbers: (re_num + im_num*i) / 2^two_exp


class GaussDyadic(namedtuple("GaussDyadic", "re_num im_num two_exp")):
    """An element of Z[1/2, i]; always construct through gauss_make.
    Fields (int each): re_num, im_num, two_exp."""

    __slots__ = ()


def gauss_make(re_num: int, im_num: int, two_exp: int = 0) -> GaussDyadic:
    """Construct a GaussDyadic in canonical form (minimal two_exp >= 0)."""
    if two_exp < 0:
        re_num <<= -two_exp
        im_num <<= -two_exp
        two_exp = 0
    if re_num == 0 and im_num == 0:
        return GaussDyadic(0, 0, 0)
    while two_exp > 0 and re_num % 2 == 0 and im_num % 2 == 0:
        re_num //= 2
        im_num //= 2
        two_exp -= 1
    return GaussDyadic(re_num, im_num, two_exp)


GAUSS_ZERO = gauss_make(0, 0)
GAUSS_ONE = gauss_make(1, 0)
GAUSS_I = gauss_make(0, 1)


def gauss_eq(a: GaussDyadic, b: GaussDyadic) -> bool:
    """Exact equality (canonical forms are structurally unique)."""
    return a == b


def gauss_is_zero(a: GaussDyadic) -> bool:
    return a.re_num == 0 and a.im_num == 0


def gauss_add(a: GaussDyadic, b: GaussDyadic) -> GaussDyadic:
    k = max(a.two_exp, b.two_exp)
    sa, sb = 1 << (k - a.two_exp), 1 << (k - b.two_exp)
    return gauss_make(a.re_num * sa + b.re_num * sb, a.im_num * sa + b.im_num * sb, k)


def gauss_sub(a: GaussDyadic, b: GaussDyadic) -> GaussDyadic:
    return gauss_add(a, gauss_neg(b))


def gauss_neg(a: GaussDyadic) -> GaussDyadic:
    return GaussDyadic(-a.re_num, -a.im_num, a.two_exp)


def gauss_conj(a: GaussDyadic) -> GaussDyadic:
    return GaussDyadic(a.re_num, -a.im_num, a.two_exp)


def gauss_mul(a: GaussDyadic, b: GaussDyadic) -> GaussDyadic:
    re = a.re_num * b.re_num - a.im_num * b.im_num
    im = a.re_num * b.im_num + a.im_num * b.re_num
    return gauss_make(re, im, a.two_exp + b.two_exp)


def gauss_div(a: GaussDyadic, b: GaussDyadic) -> GaussDyadic:
    """Exact division in Z[1/2, i]; raises if the quotient leaves the ring."""
    if gauss_is_zero(b):
        raise ValueError("division by zero")
    # a/b = a * conj(b) / (re^2 + im^2), with the 2-power part absorbed
    # into two_exp and the odd part required to divide exactly.
    numer = gauss_mul(a, GaussDyadic(b.re_num, -b.im_num, 0))
    norm = b.re_num * b.re_num + b.im_num * b.im_num
    twos = 0
    while norm % 2 == 0:
        norm //= 2
        twos += 1
    if numer.re_num % norm or numer.im_num % norm:
        raise ValueError("quotient is not a Gaussian dyadic number")
    return gauss_make(
        numer.re_num // norm, numer.im_num // norm, numer.two_exp + twos - b.two_exp
    )


def gauss_pow(base: GaussDyadic, e: int) -> GaussDyadic:
    """base**e for any integer e; a negative e divides exactly."""
    acc = GAUSS_ONE
    for _ in range(abs(e)):
        acc = gauss_mul(acc, base) if e > 0 else gauss_div(acc, base)
    return acc


def _poly_eval_gauss(poly: Poly, point: Sequence[GaussDyadic]) -> GaussDyadic:
    total = GAUSS_ZERO
    for mono, coeff in poly.items():
        term = gauss_make(coeff, 0)
        for value, e in zip(point, mono):
            if e:
                term = gauss_mul(term, gauss_pow(value, e))
        total = gauss_add(total, term)
    return total


def ratfunc_eval_gauss(x: RatFunc, point: Sequence[GaussDyadic]) -> GaussDyadic:
    """Value of x with its variables replaced by the point's Gaussian dyadic
    numbers: numerator over denominator in one exact division, which raises
    ValueError when the denominator vanishes or the quotient leaves
    Z[1/2, i]."""
    return gauss_div(_poly_eval_gauss(x.num, point), _poly_eval_gauss(x.den, point))


def gauss_is_unit(a: GaussDyadic) -> bool:
    """True iff a is invertible in Z[1/2, i] (its norm is a power of two)."""
    n = a.re_num * a.re_num + a.im_num * a.im_num
    return n > 0 and n & (n - 1) == 0


def gauss_log2_norm(a: GaussDyadic) -> int:
    """log2 of the norm |a|^2 = (re^2 + im^2) / 4^two_exp of a unit, an
    integer.  Raises for non-units."""
    n = a.re_num * a.re_num + a.im_num * a.im_num
    if n <= 0 or n & (n - 1):
        raise ValueError(f"not a unit of Z[1/2, i]: {gauss_to_str(a)}")
    return n.bit_length() - 1 - 2 * a.two_exp


def gauss_to_str(a: GaussDyadic) -> str:
    """Render like '(1 - i)/2', '-i', '2'."""
    re, im = a.re_num, a.im_num
    if re == 0 and im == 0:
        return "0"
    if im == 0:
        body = str(re)
        wrap = re < 0
    elif re == 0:
        body = {1: "i", -1: "-i"}.get(im, f"{im}*i")
        wrap = im < 0 or abs(im) != 1
    else:
        im_part = {1: "i", -1: "i"}.get(im, f"{abs(im)}*i")
        op = "-" if im < 0 else "+"
        body = f"{re} {op} {im_part}"
        wrap = True
    if a.two_exp == 0:
        return body
    if wrap:
        body = f"({body})"
    return f"{body}/{1 << a.two_exp}" if a.two_exp == 1 else f"{body}/2^{a.two_exp}"


# ---------------------------------------------------------------------------
# Modular evaluation


class ModMap:
    """A prime together with one residue per partial-field generator; two
    maps are equal when their primes and residues are."""

    __slots__ = ("prime", "gen_residues")

    def __init__(self, prime: int, gen_residues: tuple[int, ...]) -> None:
        for r in gen_residues:
            if r % prime == 0:
                raise ValueError(f"generator residue divisible by {prime}")
        self.prime = prime
        self.gen_residues = gen_residues

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModMap):
            return NotImplemented
        return (self.prime, self.gen_residues) == (other.prime, other.gen_residues)

    def __hash__(self) -> int:
        return hash((self.prime, self.gen_residues))


def ratfunc_eval_mod(x: RatFunc, point: Sequence[int], p: int) -> int | None:
    """Residue of x with its variables replaced by the point's residues,
    mod the prime p, or None when the denominator vanishes there."""
    den = poly_eval_mod(x.den, point, p)
    if den == 0:
        return None
    num = poly_eval_mod(x.num, point, p)
    return num if den == 1 else num * pow(den, -1, p) % p


def mod_eval(m: ModMap, sign: int, exps: Sequence[int]) -> int:
    """Residue of sign * prod(gen_residues[i]^exps[i]) mod prime."""
    if sign == 0:
        return 0
    if len(exps) != len(m.gen_residues):
        raise ValueError("exponent vector length mismatch")
    total = 1 if sign > 0 else m.prime - 1
    for r, e in zip(m.gen_residues, exps):
        if e:
            total = total * pow(r, e, m.prime) % m.prime
    return total


# The first thirteen primes as Miller-Rabin witnesses.  The smallest strong
# pseudoprime to all of them is 3317044064679887385961981; without 41 it
# would be 318665857834031151167461.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# is_prime is proven deterministic below this bound.
PRIME_LIMIT = 33 * 10**23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n below PRIME_LIMIT."""
    if n < 2:
        return False
    for w in _MR_WITNESSES:
        if n % w == 0:
            return n == w
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for w in _MR_WITNESSES:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    candidate = n + 1
    while not is_prime(candidate):
        candidate += 1
    return candidate


# ---------------------------------------------------------------------------
# Expression parsing (ASCII math for the declarative field format)

# Caps on one expression.  Nesting counts parentheses and unary minus, the
# only recursion in the parser.  Degree bounds the numerator and denominator
# of every value the parser builds; each operation's bound is checked before
# the operation is carried out.  The term cap bounds the product of the
# operands' term counts in every polynomial product the parser forms, each
# step of a power included, again before the product is formed.  The
# builtin fields reach nesting 2, degree 3 and 6 terms; (a + b + c + 1)^8,
# 165 terms, reaches a bound of 480.
MAX_NESTING = 32
MAX_DEGREE = 8
MAX_TERMS = 1024


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        else:
            raise ValueError(f"unexpected character {ch!r} in {text!r}")
    return tokens


def _capped(num: int, den: int) -> tuple[int, int]:
    if max(num, den) > MAX_DEGREE:
        raise ValueError(f"expression degree exceeds {MAX_DEGREE}")
    return num, den


def _capped_arith(a: RatFunc, b: RatFunc, op: str) -> RatFunc:
    """ratfunc_arith(a, b, op), refused before it runs if one of the
    polynomial products it forms could exceed MAX_TERMS terms."""
    if op == "mul":
        products = ((a.num, b.num), (a.den, b.den))
    elif op == "div":
        products = ((a.num, b.den), (a.den, b.num))
    else:
        products = ((a.num, b.den), (b.num, a.den), (a.den, b.den))
    if any(len(x) * len(y) > MAX_TERMS for x, y in products):
        raise ValueError(f"expression term bound exceeds {MAX_TERMS}")
    return ratfunc_arith(a, b, op)


class _Parser:
    """Recursive descent that builds values as it reads: each parse method
    returns a RatFunc over var_names with the degree bounds (numerator,
    denominator) of the value it expands to.  A power x^k counts k times
    the degree of x and at least k, so powers of constants are bounded too.
    Along a chain the bounds only grow, so a chain is over the cap exactly
    when one of its steps is."""

    def __init__(self, tokens: list[str], var_names: Sequence[str]):
        self.tokens = tokens
        self.var_names = var_names
        self.pos = 0
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of expression")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.take()
        if got != tok:
            raise ValueError(f"expected {tok!r}, got {got!r}")

    def nested(self, parse) -> tuple[RatFunc, tuple[int, int]]:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
        parsed = parse()
        self.nesting -= 1
        return parsed

    def parse_chain(
        self, parse_operand, ops: dict[str, str]
    ) -> tuple[RatFunc, tuple[int, int]]:
        acc, (num, den) = parse_operand()
        while self.peek() in ops:
            op = ops[self.take()]
            value, (n, d) = parse_operand()
            if op == "mul":
                num, den = _capped(num + n, den + d)
            elif op == "div":
                num, den = _capped(num + d, den + n)
            else:
                num, den = _capped(max(num + d, n + den), den + d)
            acc = _capped_arith(acc, value, op)
        return acc, (num, den)

    def parse_sum(self) -> tuple[RatFunc, tuple[int, int]]:
        return self.parse_chain(self.parse_term, {"+": "add", "-": "sub"})

    def parse_term(self) -> tuple[RatFunc, tuple[int, int]]:
        return self.parse_chain(self.parse_unary, {"*": "mul", "/": "div"})

    def parse_unary(self) -> tuple[RatFunc, tuple[int, int]]:
        if self.peek() == "-":
            self.take()
            value, degrees = self.nested(self.parse_unary)
            return ratfunc_neg(value), degrees
        return self.parse_power()

    def parse_power(self) -> tuple[RatFunc, tuple[int, int]]:
        base, (num, den) = self.parse_atom()
        if self.peek() != "^":
            return base, (num, den)
        self.take()
        exponent = self.take()
        if not exponent.isdigit():
            raise ValueError(f"expected integer exponent, got {exponent!r}")
        k = int(exponent)
        degrees = _capped(k * max(num, 1), k * den)
        value = ratfunc_const(len(self.var_names), 1)
        for _ in range(k):
            value = _capped_arith(value, base, "mul")
        return value, degrees

    def parse_atom(self) -> tuple[RatFunc, tuple[int, int]]:
        tok = self.take()
        if tok == "(":
            parsed = self.nested(self.parse_sum)
            self.expect(")")
            return parsed
        arity = len(self.var_names)
        if tok.isdigit():
            return ratfunc_const(arity, int(tok)), (0, 0)
        if tok[0].isalpha() or tok[0] == "_":
            if tok not in self.var_names:
                raise ValueError(f"unknown variable {tok!r}")
            return ratfunc_var(arity, self.var_names.index(tok)), (1, 0)
        raise ValueError(f"unexpected token {tok!r}")


def ratfunc_from_text(text: str, var_names: Sequence[str]) -> RatFunc:
    """Parse ASCII math (+ - * / ^ and parentheses) into a rational function
    over the named variables; raises ValueError on malformed text or on an
    expression over a cap."""
    parser = _Parser(_tokenize(text), var_names)
    value, _ = parser.parse_sum()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in {text!r}")
    return value


def gauss_from_text(text: str) -> GaussDyadic:
    """Parse ASCII math in the one name 'i' into a Gaussian dyadic number."""
    return ratfunc_eval_gauss(ratfunc_from_text(text, ("i",)), (GAUSS_I,))
