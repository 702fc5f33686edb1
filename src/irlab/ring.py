"""Polynomial rings over Z/p, the grevlex order, polynomials, parsing and printing.

A ring is its prime characteristic p and its ordered variable names, both
checked by `ring`, the one place that says what valid ring input is; the
parser reads ASCII tokens by the same name rule.  Field elements are ints in
[0, p).  Monomials are dense exponent tuples (one slot per ambient variable).
A polynomial is a map from exponent tuples to nonzero field elements; the zero
polynomial is the empty map.  All values are immutable after construction and
safe to share.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import combinations_with_replacement

from .errors import PolynomialParseError, RingMismatchError

DEFAULT_CHARACTERISTIC = 32003
# Dense elimination runs in int64 with a reduction after each product, exact
# only while (p - 1)^2 fits; the bound also keeps trial division short.
MAX_CHARACTERISTIC = 2**31


@lru_cache(maxsize=None)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# The one rule for variable names, shared by `ring` and the tokenizer: anything
# the parser cannot read back would print ambiguously.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)


# ---------------------------------------------------------------------------
# The one monomial order: graded reverse lexicographic, variables in ring
# order (x_1 > ... > x_n).  Bigger key == bigger monomial.

def grevlex_key(expo):
    return (sum(expo), tuple(-e for e in reversed(expo)))


_RING_CACHE: dict = {}


class Ring:
    """Ambient polynomial ring: the prime characteristic p and ordered variable names.

    Instances are interned: `ring(...)` with equal arguments returns the same
    object, so identity comparison is safe.
    """

    __slots__ = ("p", "variables", "nvars", "_var_index")

    def __init__(self, variables, p):
        self.p = p
        self.variables = tuple(variables)
        self.nvars = len(self.variables)
        self._var_index = {v: i for i, v in enumerate(self.variables)}

    # -- polynomial constructors -------------------------------------------
    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c %= self.p
        return Poly(self, {(0,) * self.nvars: c} if c else {})

    def variable(self, name_or_index):
        i = name_or_index if isinstance(name_or_index, int) else self._var_index[name_or_index]
        expo = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Poly(self, {expo: 1})

    def gens(self):
        return [self.variable(i) for i in range(self.nvars)]

    def monomial(self, expo, coeff=1):
        coeff %= self.p
        if len(expo) != self.nvars:
            raise ValueError("exponent length does not match variable count")
        return Poly(self, {tuple(expo): coeff} if coeff else {})

    def parse(self, text):
        return parse_polynomial(text, self)

    def __repr__(self):
        return f"F{self.p}[{','.join(self.variables)}]"


def ring(variables, p: int = DEFAULT_CHARACTERISTIC) -> Ring:
    """The interned ring F_p[variables].

    ValueError unless the names are distinct and each matches
    [A-Za-z_][A-Za-z0-9_]*, and p is a prime with 2 <= p < 2^31.
    """
    key = (tuple(variables), p)
    R = _RING_CACHE.get(key)
    if R is None:
        names = key[0]
        if len(set(names)) != len(names):
            raise ValueError("variables must be distinct")
        for v in names:
            if not _NAME_RE.fullmatch(v):
                raise ValueError(f"variable name {v!r:.60} must match {_NAME}")
        if not 2 <= p < MAX_CHARACTERISTIC:
            raise ValueError(f"characteristic {p} is outside the supported range "
                             f"2 <= p < 2^31")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        R = _RING_CACHE[key] = Ring(names, p)
    return R


# ---------------------------------------------------------------------------

class Poly:
    """Immutable multivariate polynomial over a prime field.

    `terms` maps exponent tuples to coefficients in [1, p); no zero
    coefficients are ever stored.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring_, terms):
        self.ring = ring_
        self.terms = terms
        self._hash = None

    # -- predicates ----------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and not any(next(iter(self.terms))))

    def is_monomial(self):
        return len(self.terms) == 1

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e in self.terms}
        return len(degs) == 1

    def lead_monomial(self):
        return max(self.terms, key=grevlex_key)

    # -- arithmetic ----------------------------------------------------------
    def _check(self, other):
        if self.ring is not other.ring:
            raise RingMismatchError(f"operands over {self.ring} and {other.ring}")

    def __add__(self, other):
        self._check(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) + c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Poly(self.ring, res)

    def __sub__(self, other):
        self._check(other)
        p = self.ring.p
        res = dict(self.terms)
        for m, c in other.terms.items():
            v = (res.get(m, 0) - c) % p
            if v:
                res[m] = v
            else:
                res.pop(m, None)
        return Poly(self.ring, res)

    def __neg__(self):
        p = self.ring.p
        return Poly(self.ring, {m: p - c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check(other)
        p = self.ring.p
        res = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = (res.get(m, 0) + c1 * c2) % p
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
        return Poly(self.ring, res)

    __rmul__ = __mul__

    def scale(self, c):
        p = self.ring.p
        c %= p
        if c == 0:
            return self.ring.zero()
        if c == 1:
            return self
        return Poly(self.ring, {m: (v * c) % p for m, v in self.terms.items()})

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        for _ in range(k):
            out = out * self
        return out

    def term_mul(self, expo, coeff):
        """Multiply by the single term coeff * x^expo."""
        p = self.ring.p
        coeff %= p
        if coeff == 0:
            return self.ring.zero()
        return Poly(self.ring, {tuple(a + b for a, b in zip(m, expo)): (c * coeff) % p
                                for m, c in self.terms.items()})

    # -- identity ------------------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((id(self.ring), frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"<{format_polynomial(self)}>"


# ---------------------------------------------------------------------------
# Canonical printing: terms in descending grevlex order, explicit `*` products,
# `^` powers, balanced coefficient representatives.

def _monomial_str(expo, variables):
    parts = []
    for v, e in zip(variables, expo):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts)


def format_polynomial(f: Poly) -> str:
    if not f.terms:
        return "0"
    ringv = f.ring.variables
    half = f.ring.p // 2
    pieces = []
    for expo in sorted(f.terms, key=grevlex_key, reverse=True):
        c = f.terms[expo]
        signed = c if c <= half else c - f.ring.p
        mono = _monomial_str(expo, ringv)
        mag = abs(signed)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if signed < 0 else "+", body))
    sign, body = pieces[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# ---------------------------------------------------------------------------
# Parsing.  Grammar: poly := [sign] term (sign term)* ; term := factor ('*' factor)* ;
# factor := INT | VAR ['^' INT].  Tokens are ASCII: INT is [0-9]+ and VAR a
# name by the rule of `ring`.  Whitespace is free.  Errors carry positions,
# and the first character outside every token is reported before any grammar
# error.

_INT, _VAR, _OP, _BAD, _END = 1, 2, 3, 4, 5
_TOKEN = re.compile(rf"([0-9]+)|({_NAME})|([-+*^])|(\S)")


def _int(text, at):
    try:
        return int(text)
    except ValueError:  # longer than the interpreter converts
        raise PolynomialParseError(f"integer literal of {len(text)} digits is too long",
                                   at) from None


def parse_polynomial(text: str, ring_: Ring) -> Poly:
    """Parse a polynomial in the canonical grammar over the given ring."""
    tokens = [(m.lastindex, m.group(), m.start()) for m in _TOKEN.finditer(text)]
    for kind, tok, at in tokens:
        if kind == _BAD:
            raise PolynomialParseError(f"unexpected character {tok!r}", at)
    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    if tokens[0][1] not in ("+", "-"):
        tokens.insert(0, (_OP, "+", 0))
    tokens.append((_END, None, len(text)))
    p, index = ring_.p, ring_._var_index
    terms: dict = {}
    i = 0
    while tokens[i][0] != _END:
        kind, tok, at = tokens[i]
        if tok not in ("+", "-"):
            raise PolynomialParseError(f"expected '+' or '-', found {tok!r}", at)
        coeff, expo = -1 if tok == "-" else 1, [0] * ring_.nvars
        while True:  # tokens[i] is the sign or the '*' before a factor
            i += 1
            kind, tok, at = tokens[i]
            if kind == _VAR:
                v = index.get(tok)
                if v is None:
                    raise PolynomialParseError(f"unknown variable {tok!r}", at)
            elif kind == _INT:
                c = _int(tok, at)
            else:
                raise PolynomialParseError("expected a coefficient or variable", at)
            k = 1
            if tokens[i + 1][1] == "^":
                i += 2
                if tokens[i][0] != _INT:
                    raise PolynomialParseError("expected an integer exponent after '^'",
                                               tokens[i][2])
                k = _int(*tokens[i][1:])
            if kind == _VAR:
                expo[v] += k
            else:
                coeff = coeff * pow(c, k, p) % p
            i += 1
            if tokens[i][1] != "*":
                break
        key = tuple(expo)
        terms[key] = (terms.get(key, 0) + coeff) % p
    return Poly(ring_, {m: c for m, c in terms.items() if c})


# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple:
    """All exponent tuples of total degree exactly d, ascending in grevlex.

    Count is C(d + nvars - 1, nvars - 1).  The tuple is built and sorted once
    per (nvars, d) and shared by every caller.
    """
    if d < 0:
        raise ValueError("degree must be non-negative")
    if nvars == 0:
        return ((),) if d == 0 else ()
    out = []
    for combo in combinations_with_replacement(range(nvars), d):
        expo = [0] * nvars
        for i in combo:
            expo[i] += 1
        out.append(tuple(expo))
    out.sort(key=grevlex_key)
    return tuple(out)
