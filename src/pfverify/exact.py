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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Sequence

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
    aa, ab = poly_arity(a), poly_arity(b)
    if aa is not None and ab is not None and aa != ab:
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
        out = {}
        for mono_a, coeff_a in a.items():
            for mono_b, coeff_b in b.items():
                mono = tuple(x + y for x, y in zip(mono_a, mono_b))
                out[mono] = out.get(mono, 0) + coeff_a * coeff_b
        return canonicalize(out)
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


def grlex_key(mono: Exponent) -> tuple[int, Exponent]:
    """Graded lexicographic sort key (total degree first, then lexicographic)."""
    return (sum(mono), mono)


def sorted_terms(poly: Poly) -> list[tuple[Exponent, int]]:
    """Terms in descending graded-lex order; the canonical serialization order."""
    return sorted(poly.items(), key=lambda item: grlex_key(item[0]), reverse=True)


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


@dataclass(frozen=True, eq=False)
class RatFunc:
    """An unreduced quotient of two polynomials; compare with ratfunc_eq only."""

    num: Poly
    den: Poly

    def __post_init__(self) -> None:
        if not self.den:
            raise ValueError("zero denominator")
        _check_same_arity(self.num, self.den)

    @cached_property
    def screen_residues(self) -> tuple[int, int]:
        """Numerator and denominator residues at screen_point, mod
        SCREEN_PRIME; computed once per object."""
        point = screen_point(poly_arity(self.den) or 0)
        return (
            poly_eval_mod(self.num, point, SCREEN_PRIME),
            poly_eval_mod(self.den, point, SCREEN_PRIME),
        )


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


class GaussDyadic(NamedTuple):
    """An element of Z[1/2, i]; always construct through gauss_make."""

    re_num: int
    im_num: int
    two_exp: int


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


def gauss_lognorm(a: GaussDyadic) -> Fraction:
    """log2 of |a| for a unit; an exact half-integer.  Raises for non-units."""
    n = a.re_num * a.re_num + a.im_num * a.im_num
    if n <= 0 or n & (n - 1):
        raise ValueError(f"not a unit of Z[1/2, i]: {gauss_to_str(a)}")
    return Fraction(n.bit_length() - 1, 2) - a.two_exp


def gauss_re_im(a: GaussDyadic) -> tuple[Fraction, Fraction]:
    """Return (real part, imaginary part) as exact Fractions."""
    scale = 1 << a.two_exp
    return Fraction(a.re_num, scale), Fraction(a.im_num, scale)


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


@dataclass(frozen=True)
class ModMap:
    """A prime together with one residue per partial-field generator."""

    prime: int
    gen_residues: tuple[int, ...]

    def __post_init__(self) -> None:
        for r in self.gen_residues:
            if r % self.prime == 0:
                raise ValueError(f"generator residue divisible by {self.prime}")


def ratfunc_eval_mod(x: RatFunc, point: Sequence[int], p: int) -> int | None:
    """Residue of x with its variables replaced by the point's residues,
    mod the prime p, or None when the denominator vanishes there."""
    den = poly_eval_mod(x.den, point, p)
    if den == 0:
        return None
    num = poly_eval_mod(x.num, point, p)
    return num if den == 1 else num * pow(den, -1, p) % p


def _mod_pow(r: int, e: int, p: int) -> int:
    """r**e mod p, resolving negative exponents through the Fermat inverse."""
    if e < 0:
        return pow(pow(r, p - 2, p), -e, p)
    return pow(r, e, p)


def mod_eval(m: ModMap, sign: int, exps: Sequence[int]) -> int:
    """Residue of sign * prod(gen_residues[i]^exps[i]) mod prime."""
    if sign == 0:
        return 0
    if len(exps) != len(m.gen_residues):
        raise ValueError("exponent vector length mismatch")
    total = 1 if sign > 0 else m.prime - 1
    for r, e in zip(m.gen_residues, exps):
        if e:
            total = total * _mod_pow(r, e, m.prime) % m.prime
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


_GF5_INVERSE = {1: 1, 2: 3, 3: 2, 4: 4}


def to_gf5(x: Fraction | int) -> int:
    """Reduce an exact rational to GF(5); rejects denominators divisible by 5."""
    x = Fraction(x)
    den = x.denominator % 5
    if den == 0:
        raise ValueError(f"no GF(5) image: denominator of {x} is divisible by 5")
    return x.numerator * _GF5_INVERSE[den] % 5


# ---------------------------------------------------------------------------
# Expression parsing (ASCII math for the declarative field format)

# AST nodes: ('num', int) | ('var', str) | ('neg', e) | ('pow', e, int)
#            | ('chain', e, ((op, e), ...)) with op 'add'|'sub'|'mul'|'div',
#              a left-to-right run of one precedence level, kept flat so
#              that a long run adds no recursion depth
Expr = tuple

# Caps on one expression, checked before anything is expanded.  Nesting
# counts parentheses and unary minus, the only recursion in the parser and
# in the walks over its output.  Degree bounds the rational function the
# expression expands to.  The builtin fields reach nesting 2 and degree 3.
MAX_NESTING = 32
MAX_DEGREE = 8


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


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
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

    def nested(self, parse) -> Expr:
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise ValueError(f"expression nests deeper than {MAX_NESTING} levels")
        node = parse()
        self.nesting -= 1
        return node

    def parse_chain(self, parse_operand, ops: dict[str, str]) -> Expr:
        first = parse_operand()
        rest = []
        while self.peek() in ops:
            op = ops[self.take()]
            rest.append((op, parse_operand()))
        return ("chain", first, tuple(rest)) if rest else first

    def parse_expr(self) -> Expr:
        return self.parse_chain(self.parse_term, {"+": "add", "-": "sub"})

    def parse_term(self) -> Expr:
        return self.parse_chain(self.parse_unary, {"*": "mul", "/": "div"})

    def parse_unary(self) -> Expr:
        if self.peek() == "-":
            self.take()
            return ("neg", self.nested(self.parse_unary))
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.peek() == "^":
            self.take()
            exponent = self.take()
            if not exponent.isdigit():
                raise ValueError(f"expected integer exponent, got {exponent!r}")
            return ("pow", base, int(exponent))
        return base

    def parse_atom(self) -> Expr:
        tok = self.take()
        if tok == "(":
            node = self.nested(self.parse_expr)
            self.expect(")")
            return node
        if tok.isdigit():
            return ("num", int(tok))
        if tok[0].isalpha() or tok[0] == "_":
            return ("var", tok)
        raise ValueError(f"unexpected token {tok!r}")


def _degrees(expr: Expr) -> tuple[int, int]:
    """Degree bounds of the numerator and denominator that expr_to_ratfunc
    builds, raising ValueError where any subexpression exceeds MAX_DEGREE.
    A power x^k counts k times the degree of x and at least k, so powers of
    constants are bounded too."""
    kind = expr[0]
    if kind == "num":
        num, den = 0, 0
    elif kind == "var":
        num, den = 1, 0
    elif kind == "neg":
        num, den = _degrees(expr[1])
    elif kind == "pow":
        num, den = _degrees(expr[1])
        num, den = expr[2] * max(num, 1), expr[2] * den
    else:
        num, den = _degrees(expr[1])
        for op, operand in expr[2]:
            n, d = _degrees(operand)
            if op == "mul":
                num, den = num + n, den + d
            elif op == "div":
                num, den = num + d, den + n
            else:
                num, den = max(num + d, n + den), den + d
    if max(num, den) > MAX_DEGREE:
        raise ValueError(f"expression degree exceeds {MAX_DEGREE}")
    return num, den


def parse_expr(text: str) -> Expr:
    """Parse ASCII math (+ - * / ^ and parentheses) into an AST; raises
    ValueError on malformed text or on an expression over a cap."""
    parser = _Parser(_tokenize(text))
    node = parser.parse_expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in {text!r}")
    _degrees(node)
    return node


def expr_to_ratfunc(expr: Expr, var_names: Sequence[str]) -> RatFunc:
    """Evaluate an AST over rational functions in the named variables."""
    arity = len(var_names)
    kind = expr[0]
    if kind == "num":
        return ratfunc_const(arity, expr[1])
    if kind == "var":
        if expr[1] not in var_names:
            raise ValueError(f"unknown variable {expr[1]!r}")
        return ratfunc_var(arity, var_names.index(expr[1]))
    if kind == "neg":
        return ratfunc_neg(expr_to_ratfunc(expr[1], var_names))
    if kind == "pow":
        base = expr_to_ratfunc(expr[1], var_names)
        return RatFunc(poly_pow(base.num, expr[2]), poly_pow(base.den, expr[2]))
    acc = expr_to_ratfunc(expr[1], var_names)
    for op, operand in expr[2]:
        acc = ratfunc_arith(acc, expr_to_ratfunc(operand, var_names), op)
    return acc


def ratfunc_from_text(text: str, var_names: Sequence[str]) -> RatFunc:
    """Parse ASCII math into a rational function over the named variables."""
    return expr_to_ratfunc(parse_expr(text), var_names)


def gauss_from_text(text: str) -> GaussDyadic:
    """Parse ASCII math in the one name 'i' into a Gaussian dyadic number."""
    return ratfunc_eval_gauss(ratfunc_from_text(text, ("i",)), (GAUSS_I,))
