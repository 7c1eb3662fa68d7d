"""Exact scalar arithmetic for the whole engine.

Scalars are canonical rational functions over Q in a fixed, ordered set of
named parameters.  Two parameters carry algebraic square rules (s^2 -> a/2,
I^2 -> -1); their exponents are reduced on the fly, so monomials never hold
a squared algebraic variable.  Canonical form: numerator and denominator
share no common factor, the denominator is monic in graded lexicographic
order and free of algebraic variables (cleared by conjugation).  Equality
of canonical forms is therefore literal equality, which every exactness
guarantee downstream relies on.

Normalization has one rule: after conjugation, numerator and denominator
are each split once into a positive rational content times a primitive
integer polynomial (`_int_poly`), the two integer parts are divided by
their gcd (`_poly_gcd`), and only the last step scales them back by the
contents, over a monic denominator.  That gcd takes one path for
every pair: GCDHEU on integer images, with a primitive PRS as its exact
fallback.  Only the two polynomials and the parameter registry take part,
so a Scalar's form does not depend on what was computed before it.

Every coefficient, in a Scalar and in each dict-poly below one, is an
`int` when it is integral and a `Fraction` with denominator > 1 otherwise.
Nearly every coefficient the engine meets is an integer, and int
arithmetic costs a fraction of `Fraction` arithmetic, so integer terms add
and multiply as Python ints with no conversion at any layer.  Only a
`Fraction` result can break the rule, by coming out integral, and `_q`
turns it back into its int wherever Fraction arithmetic can produce one.
Python's `int` and `Fraction` compare and hash by value, so the format
changes no canonical value, printed form or hash.  `to_fraction` alone
hands out a `Fraction`, since dividing two ints would give a float.

Below Scalar, a polynomial is a dict {monomial: coefficient} with no zero
coefficient.  Every sum of them, a sum of two polynomial Scalars
included, goes through one in-place accumulate, `_poly_acc`, which drops
zero sums.  Below that, the gcd runs on integer polynomials, dict-polys
whose coefficients are all ints: they sum through the same `_poly_acc`,
multiply through `_int_mul`, which adds exponents and applies no square
rule, and divide through `_int_quo`, the one exact division, which serves
GCDHEU's check, the PRS's content and the final cancellation.  Every
view of a polynomial as univariate in a variable (the gcd's PRS and
`decompose`) goes through `_uni_view`.

The unit denominator is one shared tuple, `_ONE_ITEMS`: every Scalar whose
denominator is 1 holds that very object, so the hot paths test it with
`is`.  `ONE` is likewise one object, and multiplying by it returns the
other operand unchanged.  A constant int n with |n| <= `_SMALL_INT` is
likewise its one `_INT_CACHE` Scalar.

Three `functools` caches memoize what repeats, and they are the module's
only memos.  `_mono_key` and `_mono_mul` are unbounded: they are keyed by
monomials and monomial pairs, and a run meets few of those (the 14
algebra builds, the 11 builtins and a big4 and a Virasoro axiom suite
meet 12 monomials and 24 products).  The operations that normalize
go through `_reduced`, an `lru_cache` keyed by the operator and the two
operands: a sum past both polynomial fast paths, a product with a
denominator other than 1, and every nonzero quotient.  Parametric
structure constants such as the big N=4 family's, with denominators a,
a+1 and their products, repeat the same few hundred operand pairs
thousands of times per check.  Sharing a cached result is exact, because
a Scalar's form depends only on its operands and Scalars are immutable.
`_reduced` holds at most `_REDUCED_MEMO_SIZE` entries, a fixed bound.
`declare_parameter` empties all three through `cache_clear()`, and
`cache_info()` reads their hits, misses and sizes.  The plain-rational and
unit-denominator paths are not cached: their operands rarely repeat.  A
polynomial sum accumulates the second term tuple into a dict of the first
through `_poly_acc` and sorts the result once by `_mono_key`.

Long sums of products skip the per-term Scalars altogether.  The
enveloping engine adds up hundreds of thousands of products f * c * v (an
int f, two Scalars) per pass, most of them onto a key that already holds
a value, and a Scalar product and sum per term would allocate two
Scalars each time.  `_raw_acc` adds each product whose factors have
denominator 1 into a raw sum {monomial: int | Fraction}, and
`_raw_scalar` then builds the result once: it drops the zero sums, passes
each coefficient through `_q`, orders the terms through `_items`, and
gives a constant as its `_constant` Scalar.  This is exact.  Ints and
Fractions add and multiply exactly, a scale that is not an int is refused
(so no float enters), and nothing divides the raw sums.  Monomials
multiply through `_mono_mul` and its square rules.  So the result has the
canonical form that term-by-term `*` and `+` reach.

Scalar text, the one way to give a coefficient from outside the code, is
Python's expression syntax with `^` for `**`, parsed by `ast` and
evaluated over a whitelist of nodes that `parse_scalar` lists: nothing is
run by Python, the precedence is Python's (`c*-c^2` is -c^3), Python's
spellings `c**2`, `1_000` and `0x10` are read and `007` is refused.  Past
CPython's parser limits the text raises ValueError.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from functools import cache, lru_cache
from math import comb as _comb, gcd as _int_gcd, lcm as _int_lcm

# the rational type; benchmark records report its name as the backend
_Q = Fraction

__all__ = [
    "Scalar",
    "declare_parameter",
    "parameter_names",
    "parse_scalar",
    "ZERO",
    "ONE",
]


# ---------------------------------------------------------------------------
# parameter registry

_PARAMS: list[str] = []
_PARAM_INDEX: dict[str, int] = {}
# var index -> replacement dict-poly for var^2
_SQUARE_RULES: dict[int, dict] = {}


def declare_parameter(name: str, square=None) -> None:
    """Register a parameter name; optional square rule var^2 -> polynomial.

    The square polynomial must only involve previously declared parameters.
    Re-declaring with the same rule is a no-op; conflicting rules raise.
    The name must be one that parse_scalar reads back as itself, so no
    Python keyword and nothing that NFKC normalization changes.
    """
    try:
        node = ast.parse(name, mode="eval").body
    except SyntaxError:
        node = None
    if not (isinstance(node, ast.Name) and node.id == name):
        raise ValueError(f"bad parameter name: {name!r}")
    rule = None
    if square is not None:
        sq = _coerce(square)
        if sq._den is not _ONE_ITEMS:
            raise ValueError("square rule must be polynomial")
        rule = dict(sq._num)
    if name in _PARAM_INDEX:
        idx = _PARAM_INDEX[name]
        old = _SQUARE_RULES.get(idx)
        if (old is None) != (rule is None) or (old is not None and old != rule):
            raise ValueError(f"parameter {name!r} already declared differently")
        return
    idx = len(_PARAMS)
    if rule is not None and any(v >= idx for mono in rule for v, _ in mono):
        raise ValueError("square rule may only use earlier parameters")
    _PARAMS.append(name)
    _PARAM_INDEX[name] = idx
    if rule is not None:
        _SQUARE_RULES[idx] = rule
    # cached keys embed the registry size, cached products and normalized
    # results its square rules
    _mono_key.cache_clear()
    _mono_mul.cache_clear()
    _reduced.cache_clear()


def parameter_names() -> tuple[str, ...]:
    return tuple(_PARAMS)


def _param_index(name: str) -> int:
    """The registry index of a declared parameter name."""
    idx = _PARAM_INDEX.get(name)
    if idx is None:
        raise KeyError(f"undeclared parameter {name!r}")
    return idx


# ---------------------------------------------------------------------------
# raw polynomial layer: dict {monomial: coefficient}, monomial = ((var, exp), ...)


def _q(x):
    """The coefficient x in canonical type: an int when integral, else x."""
    return x.numerator if x.denominator == 1 else x


@cache
def _mono_key(mono):
    # graded-lex key: total degree first, then exponents in registry order
    dense = [0] * len(_PARAMS)
    for v, e in mono:
        dense[v] = e
    return sum(dense), tuple(dense)


def _reduce_mono(exps: dict[int, int], coeff) -> dict:
    """Reduce square-ruled exponents; returns dict-poly.

    Terminates because a rule only mentions strictly earlier parameters, so
    each substitution lowers the exponent vector in the well-founded order
    (highest ruled variable first).
    """
    for v in sorted(exps, reverse=True):
        if exps[v] >= 2 and v in _SQUARE_RULES:
            base = dict(exps)
            base[v] -= 2
            out: dict = {}
            for rm, rc in _SQUARE_RULES[v].items():
                merged = dict(base)
                for vv, ee in rm:
                    merged[vv] = merged.get(vv, 0) + ee
                _poly_acc(out, _reduce_mono(merged, _q(coeff * rc)).items())
            return out
    mono = tuple(sorted((v, e) for v, e in exps.items() if e))
    return {mono: coeff}


@cache
def _mono_mul(m1, m2):
    """Multiply two monomials, applying square rules.  Returns dict-poly.

    The result is shared by every caller, so none may change it.
    """
    exps: dict[int, int] = {}
    for v, e in m1:
        exps[v] = exps.get(v, 0) + e
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return _reduce_mono(exps, 1)


def _poly_acc(out, terms, f=None):
    """Add f times each (monomial, coefficient) of terms into out in place.

    terms is a dict-poly's items() or a Scalar's sorted tuple, free of zero
    coefficients; f None adds them as they are, else f must be nonzero.  A
    zero sum drops its monomial, so out stays a dict-poly.
    """
    get = out.get
    for m, c in terms:
        if f is not None:
            c = _q(c * f)
        cur = get(m)
        if cur is None:
            out[m] = c
        else:
            c = _q(cur + c)
            if c:
                out[m] = c
            else:
                del out[m]


def _poly_mul(p, q):
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _poly_acc(out, _mono_mul(m1, m2).items(), _q(c1 * c2))
    return out


def _poly_lead(p):
    return max(p, key=_mono_key)


def _poly_vars(p):
    vs = set()
    for m in p:
        for v, _ in m:
            vs.add(v)
    return vs


def _mono_divide(m1, m2):
    # m1 / m2 or None when not divisible
    e2 = dict(m2)
    out = []
    for v, e in m1:
        d = e - e2.pop(v, 0)
        if d < 0:
            return None
        if d:
            out.append((v, d))
    if e2:
        return None
    return tuple(out)


def _uni_view(p, v):
    """View p as univariate in v: {exponent: dict-poly coefficient}.

    Each monomial is a power of v times a v-free part, and monomials are
    unique, so no coefficient is ever summed.
    """
    out: dict = {}
    for m, c in p.items():
        rest = tuple(ve for ve in m if ve[0] != v)
        out.setdefault(dict(m).get(v, 0), {})[rest] = c
    return out


def _uni_build(u, v):
    # inverse of _uni_view
    out: dict = {}
    for e, coeff in u.items():
        for m, c in coeff.items():
            out[tuple(sorted(m + ((v, e),))) if e else m] = c
    return out


# ---------------------------------------------------------------------------
# the gcd's integer polynomial layer: dict-polys with int coefficients, no
# square rules


def _int_poly(p):
    """(content, part) of a dict-poly p: p = content * part.

    The content is a positive Fraction and the part a primitive integer
    polynomial, its coefficients ints with gcd 1.
    """
    n = _int_gcd(*[c.numerator for c in p.values()])
    d = _int_lcm(*[c.denominator for c in p.values()])
    part = {m: c.numerator * (d // c.denominator) // n for m, c in p.items()}
    return Fraction(n, d), part


def _q_poly(p, q):
    """The dict-poly of the integer polynomial p times the Fraction q."""
    if q == 1:
        return p
    return {m: _q(c * q) for m, c in p.items()}


def _mono_add(m1, m2):
    # the monomial m1 * m2 with no square rule
    e = dict(m1)
    for v, x in m2:
        e[v] = e.get(v, 0) + x
    return tuple(sorted(e.items()))


def _int_mul(p, q):
    """The product of two integer polynomials, exponents simply added."""
    out: dict = {}
    _poly_acc(
        out,
        ((_mono_add(m1, m2), c1 * c2) for m1, c1 in p.items() for m2, c2 in q.items()),
    )
    return out


def _int_quo(p, d):
    """The integer polynomial p / d, or None when d does not divide p.

    Long division by d's lead; an inexact integer quotient ends it, since
    for a primitive d any quotient over Q has integer coefficients.
    """
    rem = dict(p)
    out: dict = {}
    lead_d = _poly_lead(d)
    cd = d[lead_d]
    while rem:
        lead_r = _poly_lead(rem)
        qm = _mono_divide(lead_r, lead_d)
        if qm is None:
            return None
        qc, r = divmod(rem[lead_r], cd)
        if r:
            return None
        # the lead of rem falls at every step, so qm is a new monomial
        out[qm] = qc
        _poly_acc(rem, [(_mono_add(qm, m), c) for m, c in d.items()], -qc)
    return out


def _poly_gcd(p, q):
    """Gcd in Z[x] of two nonzero integer polynomials, positive leading term.

    The integer contents take part, so the gcd of two primitive
    polynomials is primitive.  Every pair takes one path, whatever its
    variables: the heuristic gcd `_heu_gcd` on integer images first, which
    handles any number of variables and any overlap of the two sets, and
    when it gives up a primitive euclidean PRS in the highest variable of
    either polynomial, whose content recursion comes back here with one
    variable less.  The PRS alone is exact but its coefficients can grow
    large; the heuristic's answer is confirmed by exact division, so either
    way the gcd is exact.  Products here add exponents and apply no square
    rule: algebraic variables never reach here with exponent > 1 and are
    treated like ordinary variables; callers keep denominators free of them.
    """
    g = _heu_gcd(p, q)
    if g is None:
        v = max(_poly_vars(p) | _poly_vars(q))
        cont_p, a = _uni_content_pp(_uni_view(p, v))
        cont_q, b = _uni_content_pp(_uni_view(q, v))
        while b:
            r = _uni_prem(a, b, v)
            a = b
            if r:
                _, r = _uni_content_pp(r)
            b = r
        g = _int_mul(_poly_gcd(cont_p, cont_q), _uni_build(a, v))
    return g if g[_poly_lead(g)] > 0 else {m: -c for m, c in g.items()}


# evaluation points `_heu_gcd` tries before it gives up
_HEU_TRIES = 6


def _heu_gcd(f, g):
    """gcd of two nonzero integer polynomials by GCDHEU, or None.

    Polynomials here are dicts {monomial: int}.  GCDHEU (Char, Geddes and
    Gonnet, J. Symbolic Comput. 1989) evaluates one variable v at an
    integer xi, takes the gcd of the two images, which have one variable
    less (an integer gcd at the bottom), and reads a candidate back from
    the balanced base-xi digits of its coefficients.  For primitive f and g
    and xi >= 2*min(|f|, |g|) + 2 (|.| the largest coefficient), a candidate
    whose primitive part divides both f and g is their gcd.  Every xi here
    meets that bound, and every candidate is checked by exact division, so
    an answer is exact; after `_HEU_TRIES` points that fail, or when an
    image's gcd fails, it returns None.
    """
    cf, cg = _int_gcd(*f.values()), _int_gcd(*g.values())
    cont = _int_gcd(cf, cg)
    vs = _poly_vars(f) | _poly_vars(g)
    if not vs:
        return {tuple(): cont}
    f = {m: c // cf for m, c in f.items()}
    g = {m: c // cg for m, c in g.items()}
    v = max(vs)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(_HEU_TRIES):
        fe, ge = _int_eval(f, v, xi), _int_eval(g, v, xi)
        if fe and ge:
            h = _heu_gcd(fe, ge)
            if h is None:
                return None
            cand = _int_digits(h, v, xi)
            ch = _int_gcd(*cand.values())
            cand = {m: c // ch for m, c in cand.items()}
            if _int_quo(f, cand) is not None and _int_quo(g, cand) is not None:
                return {m: c * cont for m, c in cand.items()}
        # the step Char, Geddes and Gonnet use, to avoid a periodic pattern
        xi = xi * 73794 // 27011
    return None


def _int_eval(p, v, xi):
    """p with the variable v set to the integer xi."""
    out: dict = {}
    for m, c in p.items():
        e = 0
        rest = m
        for i, (w, x) in enumerate(m):
            if w == v:
                e, rest = x, m[:i] + m[i + 1 :]
                break
        c = out.get(rest, 0) + c * xi**e
        if c:
            out[rest] = c
        else:
            del out[rest]
    return out


def _int_digits(h, v, xi):
    """The polynomial in v whose balanced base-xi digits are h's coefficients."""
    out: dict = {}
    half = xi // 2
    for m, c in h.items():
        e = 0
        while c:
            d = c % xi
            if d > half:
                d -= xi
            if d:
                out[tuple(sorted(m + ((v, e),))) if e else m] = d
            c = (c - d) // xi
            e += 1
    return out


def _uni_content_pp(u):
    """(content, primitive part) of a univariate view u, u = content * part.

    The content is the gcd in Z[x] of u's coefficients, so the part's
    coefficients are integer polynomials with no common factor, not even an
    integer; a pseudo-remainder sequence over these parts stays small.
    """
    cont = None
    for coeff in u.values():
        cont = coeff if cont is None else _poly_gcd(cont, coeff)
    return cont, {e: _int_quo(c, cont) for e, c in u.items()}


def _uni_prem(a, b, v):
    """Pseudo-remainder of univariate views with integer coefficients."""
    db = max(b)
    lb = b[db]
    r = a
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        # r <- lb*r - lr * v^(dr-db) * b
        new = {e: _int_mul(lb, c) for e, c in r.items()}
        for e, c in b.items():
            _poly_acc(new.setdefault(e + dr - db, {}), _int_mul(lr, c).items(), -1)
        r = {e: c for e, c in new.items() if c}
    return r


def _conjugate_poly(p, v):
    """Flip the sign of algebraic variable v (sound: v^2 is v-free)."""
    out = {}
    for m, c in p.items():
        if any(vv == v for vv, _ in m):
            out[m] = -c
        else:
            out[m] = c
    return out


# ---------------------------------------------------------------------------
# Scalar

def _items(p) -> tuple:
    return tuple(sorted(p.items(), key=lambda mc: _mono_key(mc[0])))


_ONE_ITEMS = (((), 1),)
# the constant Scalars of the ints with |n| <= _SMALL_INT are shared objects
_SMALL_INT = 256
_INT_CACHE: dict = {}
# about 6x the most distinct normalizing operand pairs a big4 pass makes (647)
_REDUCED_MEMO_SIZE = 4096
# terms a power may reach before __pow__ refuses it; stored ones reach 3
_POW_TERM_LIMIT = 1000
# monomial products __pow__ may spend, counted by _pow_work
_POW_WORK_LIMIT = 50_000


def _pow_work(e: int, t: int) -> int:
    """Monomial products of __pow__'s squarings for the e-th power of t terms.

    Each product of a k-th and an l-th power is counted at its most terms,
    comb(k + t - 1, t - 1) times comb(l + t - 1, t - 1).
    """
    work, have, square = 0, 0, 1
    while e:
        if e & 1:
            work += _comb(have + t - 1, t - 1) * _comb(square + t - 1, t - 1)
            have += square
        e >>= 1
        if e:
            work += _comb(square + t - 1, t - 1) ** 2
            square *= 2
    return work


class Scalar:
    """Canonical rational function; immutable and hashable."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = {(): 1}
        if _canonical:
            self._num = num
            self._den = den
            self._hash = None
            return
        num, den = _normalize(dict(num), dict(den))
        self._num = _items(num)
        den = _items(den)
        # the unit denominator is interned: `is _ONE_ITEMS` decides it
        self._den = _ONE_ITEMS if den == _ONE_ITEMS else den
        self._hash = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_fraction(f) -> "Scalar":
        # Fraction(0.1) is a binary float's value, not one tenth
        if not isinstance(f, (int, Fraction)):
            name = type(f).__name__
            raise TypeError(f"from_fraction takes an int or a Fraction, not {name}")
        return _constant(f)

    @staticmethod
    def from_int(n: int) -> "Scalar":
        # a float or Fraction equal to a cached int would find its Scalar
        if type(n) is not int:
            raise TypeError(f"from_int takes an int, not {type(n).__name__}")
        cached = _INT_CACHE.get(n)
        if cached is not None:
            return cached
        return Scalar.from_fraction(n)

    @staticmethod
    def param(name: str) -> "Scalar":
        return Scalar({((_param_index(name), 1),): 1})

    # -- views -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def is_polynomial(self) -> bool:
        return self._den is _ONE_ITEMS

    def parameters(self) -> set[str]:
        vs = _poly_vars(dict(self._num)) | _poly_vars(dict(self._den))
        return {_PARAMS[v] for v in vs}

    def to_fraction(self) -> Fraction:
        if self.parameters():
            raise ValueError(f"scalar {self} is not a plain rational")
        if not self._num:
            return Fraction(0)
        # a constant's denominator is 1
        return Fraction(self._num[0][1])

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self._num:
            return other
        if not other._num:
            return self
        if self._den is _ONE_ITEMS and other._den is _ONE_ITEMS:
            sn, on = self._num, other._num
            if len(sn) == 1 and len(on) == 1 and not sn[0][0] and not on[0][0]:
                return _constant(sn[0][1] + on[0][1])
            # polynomial sum stays canonical: no new monomials appear
            num = dict(sn)
            _poly_acc(num, on)
            if not num:
                return ZERO
            return Scalar(_items(num), _ONE_ITEMS, _canonical=True)
        return _reduced("+", self, other)

    __radd__ = __add__

    def __neg__(self):
        # negation keeps the monomials and so their order
        return Scalar(
            tuple((m, -c) for m, c in self._num), self._den, _canonical=True
        )

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other is ONE:
            return self
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ONE:
            return other
        if not self._num or not other._num:
            return ZERO
        # scaling x by a plain rational y keeps the canonical form
        x, y = self, other
        if x._den is _ONE_ITEMS and len(x._num) == 1 and not x._num[0][0]:
            x, y = y, x
        if y._den is _ONE_ITEMS and len(y._num) == 1 and not y._num[0][0]:
            q = y._num[0][1]
            xn = x._num
            if x._den is _ONE_ITEMS and len(xn) == 1 and not xn[0][0]:
                return _constant(xn[0][1] * q)
            return Scalar(
                tuple([(m, _q(c * q)) for m, c in xn]), x._den, _canonical=True
            )
        if self._den is _ONE_ITEMS and other._den is _ONE_ITEMS:
            # product of canonical polynomials is canonical (unit denominator)
            num = _poly_mul(dict(self._num), dict(other._num))
            if not num:
                return ZERO
            return Scalar(_items(num), _ONE_ITEMS, _canonical=True)
        return _reduced("*", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_zero():
            return ZERO
        return _reduced("/", self, other)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int):
        # the e-th power of t terms has up to comb(e + t - 1, t - 1) terms
        t = max(len(self._num), len(self._den))
        if _comb(abs(n) + t - 1, t - 1) > _POW_TERM_LIMIT:
            raise ValueError(
                f"power {n} of a {t}-term polynomial could exceed "
                f"{_POW_TERM_LIMIT} terms"
            )
        if _pow_work(abs(n), t) > _POW_WORK_LIMIT:
            raise ValueError(
                f"power {n} of a {t}-term polynomial could take more than "
                f"{_POW_WORK_LIMIT} monomial products"
            )
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    # -- structure ----------------------------------------------------------
    def substitute(self, assignment: dict) -> "Scalar":
        """Evaluate with parameters replaced by scalars; others kept."""
        repl = {}
        for name, val in assignment.items():
            repl[_param_index(name)] = _coerce(val)
        num = _eval_poly(dict(self._num), repl)
        den = _eval_poly(dict(self._den), repl)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes denominator vanish")
        return num / den

    def decompose(self, name: str) -> dict[int, "Scalar"]:
        """Split by powers of a parameter the denominator must not contain."""
        v = _param_index(name)
        if v in _poly_vars(dict(self._den)):
            raise ValueError(f"denominator involves {name}")
        den = dict(self._den)
        out: dict[int, Scalar] = {}
        for e, coeff in _uni_view(dict(self._num), v).items():
            out[e] = Scalar(coeff, dict(den))
        return out

    # -- comparisons / hashing ----------------------------------------------
    def __eq__(self, other):
        # a Scalar equals only Scalars, ints and Fractions, the values a
        # constant hashes like
        if type(other) is not Scalar:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = Scalar.from_fraction(other)
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            num = self._num
            # a constant hashes as the int or Fraction it equals
            if self._den is _ONE_ITEMS and (not num or len(num) == 1 and not num[0][0]):
                self._hash = hash(num[0][1] if num else 0)
            else:
                self._hash = hash((num, self._den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- printing -------------------------------------------------------------
    def __str__(self):
        if not self._num:
            return "0"
        num = _poly_str(self._num)
        if self._den is _ONE_ITEMS:
            return num
        den = _poly_str(self._den)
        if len(self._num) > 1:
            num = f"({num})"
        if len(self._den) > 1 or not _is_plain_term(self._den[0]):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar({self})"


def _constant(q) -> Scalar:
    """The Scalar of the rational q; a small int is the _INT_CACHE one."""
    q = _q(q)
    hit = _INT_CACHE.get(q) if type(q) is int else None
    if hit is not None:
        return hit
    return Scalar((((), q),), _ONE_ITEMS, _canonical=True)


def _raw_acc(sums: dict, f: int, c: Scalar, vec: dict) -> list:
    """Add f * c * vec into sums, {key: raw sum}, in place.

    A raw sum is a dict {monomial: int | Fraction}; vec is a vector of
    Scalars and f an int.  Only products with denominator 1 are added: the
    keys left out are returned, all of vec's unless c has denominator 1.
    Coefficients are taken as stored, so integer terms sum as ints; a sum
    may reach zero, which `_raw_scalar` drops, or an integral Fraction,
    which it turns into its int.
    """
    if type(f) is not int:
        raise TypeError(f"raw sums take int scales, not {type(f).__name__}")
    if c._den is not _ONE_ITEMS:
        return list(vec)
    cs = [(m, f * q) for m, q in c._num]
    # a constant c, the common case, scales each coefficient of vec
    scale = cs[0][1] if len(cs) == 1 and not cs[0][0] else None
    left = []
    get = sums.get
    for k, v in vec.items():
        if v._den is not _ONE_ITEMS:
            left.append(k)
            continue
        raw = get(k)
        if raw is None:
            raw = sums[k] = {}
        rget = raw.get
        for my, cy in v._num:
            if scale is not None:
                raw[my] = rget(my, 0) + scale * cy
                continue
            for mx, cx in cs:
                if not mx or not my:
                    m = my or mx
                    raw[m] = rget(m, 0) + cx * cy
                    continue
                for m, cm in _mono_mul(mx, my).items():
                    raw[m] = rget(m, 0) + cx * cy * cm
    return left


def _raw_scalar(raw: dict) -> Scalar:
    """The canonical Scalar of a raw sum: zeros dropped, _mono_key order."""
    num = {m: _q(c) for m, c in raw.items() if c}
    if not num:
        return ZERO
    if len(num) == 1 and () in num:
        return _constant(num[()])
    return Scalar(_items(num), _ONE_ITEMS, _canonical=True)


@lru_cache(maxsize=_REDUCED_MEMO_SIZE)
def _reduced(op, x, y):
    """x + y, x * y or x / y (op "+", "*", "/") through gcd normalization.

    The three Scalar operations that normalize end here once their fast
    paths are passed; both operands are nonzero.
    """
    xn, xd, yn, yd = dict(x._num), dict(x._den), dict(y._num), dict(y._den)
    if op == "+":
        if x._den == y._den:
            _poly_acc(xn, y._num)
            return Scalar(xn, xd)
        num = _poly_mul(xn, yd)
        _poly_acc(num, _poly_mul(yn, xd).items())
        return Scalar(num, _poly_mul(xd, yd))
    if op == "*":
        return Scalar(_poly_mul(xn, yn), _poly_mul(xd, yd))
    return Scalar(_poly_mul(xn, yd), _poly_mul(xd, yn))


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction)):
        return Scalar.from_fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    return NotImplemented


def _eval_poly(p, repl) -> Scalar:
    total = ZERO
    for m, c in p.items():
        term = Scalar.from_fraction(c)
        for v, e in m:
            if v in repl:
                term = term * repl[v] ** e
            else:
                term = term * Scalar({((v, 1),): 1}) ** e
        total = total + term
    return total


def _normalize(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    # Fraction(0.1) is a binary float's value, not one tenth
    for c in (*num.values(), *den.values()):
        if not isinstance(c, (int, Fraction)):
            name = type(c).__name__
            raise TypeError(f"Scalar takes int or Fraction coefficients, not {name}")
    num = {m: c for m, c in num.items() if c}
    den = {m: c for m, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {(): 1}
    # clear algebraic variables out of the denominator by conjugation
    for v in sorted(_SQUARE_RULES):
        if v in _poly_vars(den):
            conj = _conjugate_poly(den, v)
            num = _poly_mul(num, conj)
            den = _poly_mul(den, conj)
    # a constant denominator d shares no factor: scale the numerator by 1/d
    if len(den) == 1 and () in den:
        inv = 1 / Fraction(den[()])
        return {m: _q(c * inv) for m, c in num.items()}, {(): 1}
    qn, num = _int_poly(num)
    qd, den = _int_poly(den)
    g = _poly_gcd(num, den)
    if len(g) > 1 or tuple() not in g:
        num, den = _int_quo(num, g), _int_quo(den, g)
    lc = den[_poly_lead(den)]
    return _q_poly(num, qn / (qd * lc)), _q_poly(den, Fraction(1, lc))


def _is_plain_term(item):
    mono, coeff = item
    return coeff == 1 and len(mono) <= 1 and all(e == 1 for _, e in mono)


def _poly_str(items) -> str:
    parts = []
    for mono, coeff in sorted(items, key=lambda mc: _mono_key(mc[0]), reverse=True):
        factors = []
        for v, e in mono:
            name = _PARAMS[v]
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# parser: Python's expression grammar over a whitelist of nodes

_FOLD = {ast.Add: Scalar.__add__, ast.Sub: Scalar.__sub__,
         ast.Mult: Scalar.__mul__, ast.Div: Scalar.__truediv__}


def _eval_node(node) -> Scalar:
    """The Scalar of a whitelisted expression node; ValueError otherwise."""
    # a left-deep chain x op y op z ... folds in a loop, since a recursion
    # would stop near a thousand terms
    chain = []
    while isinstance(node, ast.BinOp) and type(node.op) in _FOLD:
        chain.append(node)
        node = node.left
    if isinstance(node, ast.Constant) and type(node.value) is int:
        value = Scalar.from_int(node.value)
    elif isinstance(node, ast.Name):
        value = Scalar.param(node.id)
    elif isinstance(node, ast.UnaryOp) and type(node.op) in (ast.UAdd, ast.USub):
        value = _eval_node(node.operand)
        value = -value if type(node.op) is ast.USub else value
    elif isinstance(node, ast.BinOp) and type(node.op) is ast.Pow:
        e = node.right
        sign = -1 if isinstance(e, ast.UnaryOp) and type(e.op) is ast.USub else 1
        e = e.operand if sign < 0 else e
        if not (isinstance(e, ast.Constant) and type(e.value) is int):
            raise ValueError("exponent must be an integer literal")
        value = _eval_node(node.left) ** (sign * e.value)
    else:
        kind = type(getattr(node, "op", node)).__name__
        raise ValueError(f"{kind} is not allowed in a scalar expression")
    for op in reversed(chain):
        value = _FOLD[type(op.op)](value, _eval_node(op.right))
    return value


def parse_scalar(text: str) -> Scalar:
    """Parse an expression over declared parameters into a Scalar.

    Python's expression syntax with `^` read as `**`; whitespace, newlines
    included, only separates.  Allowed: int literals, declared parameter
    names (an undeclared one raises KeyError), unary + and -, binary
    + - * / and powers by an int literal or a negated one.  Any other node
    raises ValueError, and so does text past CPython's parser limits
    (about 3,000 terms in one chain, 200 nested parentheses) or with about
    1,000 nested signs.
    """
    try:
        tree = ast.parse(" ".join(text.split()).replace("^", "**"), mode="eval")
        return _eval_node(tree.body)
    except (SyntaxError, RecursionError) as err:
        raise ValueError(f"cannot parse scalar {text!r}: {err}") from None


# ---------------------------------------------------------------------------
# default registry: engine-wide parameter order is part of canonical printing

ZERO = None  # placeholder, replaced below
ONE = None

# gamma0 and gamma keep their registry slots: variable indices order the
# monomials of every canonical form
declare_parameter("c")
declare_parameter("a")
declare_parameter("gamma0")
declare_parameter("gamma")
declare_parameter("k")

ZERO = Scalar({})
ONE = Scalar(_ONE_ITEMS, _ONE_ITEMS, _canonical=True)
_INT_CACHE.update(
    {n: Scalar((((), n),), _ONE_ITEMS, _canonical=True)
     for n in range(-_SMALL_INT, _SMALL_INT + 1) if n not in (0, 1)}
)
_INT_CACHE[0] = ZERO
_INT_CACHE[1] = ONE

declare_parameter("s", square=Scalar.param("a") / 2)
declare_parameter("I", square=Scalar.from_int(-1))
