"""Exact scalar arithmetic for the whole engine.

Scalars are canonical rational functions over Q in a fixed, ordered set of
named parameters.  Two parameters carry algebraic square rules (s^2 -> a/2,
I^2 -> -1); their exponents are reduced on the fly, so monomials never hold
a squared algebraic variable.  Canonical form: numerator and denominator
share no common factor, the denominator is monic in graded lexicographic
order and free of algebraic variables (cleared by conjugation).  Equality
of canonical forms is therefore literal equality, which every exactness
guarantee downstream relies on.

Normalization has one rule: after conjugation, a fraction is divided by
the gcd of its numerator and denominator (`_poly_gcd`), then made monic.
Only the two polynomials and the parameter registry take part, so a
Scalar's form does not depend on what was computed before it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

# the rational type; benchmark records report its name as the backend
_Q = Fraction

__all__ = [
    "Scalar",
    "FormalSeries",
    "declare_parameter",
    "parameter_names",
    "bernoulli_plus",
    "fn_coeff",
    "u_coefficients",
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
    """
    if not name.isidentifier():
        raise ValueError(f"bad parameter name: {name!r}")
    rule = None
    if square is not None:
        sq = _coerce(square)
        if sq._den != _ONE_ITEMS:
            raise ValueError("square rule must be polynomial")
        rule = dict(sq._num)
    if name in _PARAM_INDEX:
        idx = _PARAM_INDEX[name]
        old = _SQUARE_RULES.get(idx)
        if (old is None) != (rule is None) or (old is not None and old != rule):
            raise ValueError(f"parameter {name!r} already declared differently")
        return
    idx = len(_PARAMS)
    _PARAMS.append(name)
    _PARAM_INDEX[name] = idx
    if rule is not None:
        for mono in rule:
            for v, _ in mono:
                if v >= idx:
                    raise ValueError("square rule may only use earlier parameters")
        _SQUARE_RULES[idx] = rule
    # cached keys embed the registry size, cached products its square rules
    _MONO_KEY_CACHE.clear()
    _MONO_MUL_CACHE.clear()


def parameter_names() -> tuple[str, ...]:
    return tuple(_PARAMS)


# ---------------------------------------------------------------------------
# raw polynomial layer: dict {monomial: Fraction}, monomial = ((var, exp), ...)

_ZERO_POLY: dict = {}


_MONO_KEY_CACHE: dict = {}


def _mono_key(mono):
    # graded-lex key: total degree first, then exponents in registry order
    hit = _MONO_KEY_CACHE.get(mono)
    if hit is not None:
        return hit
    deg = sum(e for _, e in mono)
    dense = [0] * len(_PARAMS)
    for v, e in mono:
        dense[v] = e
    key = (deg, tuple(dense))
    _MONO_KEY_CACHE[mono] = key
    return key


def _reduce_mono(exps: dict[int, int], coeff: Fraction) -> dict:
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
                for m, c in _reduce_mono(merged, coeff * rc).items():
                    nc = out.get(m, 0) + c
                    if nc:
                        out[m] = nc
                    else:
                        out.pop(m, None)
            return out
    mono = tuple(sorted((v, e) for v, e in exps.items() if e))
    return {mono: coeff}


_MONO_MUL_CACHE: dict = {}


def _mono_mul(m1, m2):
    """Multiply two monomials, applying square rules.  Returns dict-poly."""
    hit = _MONO_MUL_CACHE.get((m1, m2))
    if hit is not None:
        return hit
    exps: dict[int, int] = {}
    for v, e in m1:
        exps[v] = exps.get(v, 0) + e
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    res = _reduce_mono(exps, Fraction(1))
    _MONO_MUL_CACHE[(m1, m2)] = res
    return res


def _poly_add(p, q):
    if not p:
        return dict(q)
    if not q:
        return dict(p)
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def _poly_neg(p):
    return {m: -c for m, c in p.items()}

def _poly_scale(p, f):
    if not f:
        return {}
    return {m: c * f for m, c in p.items()}


def _poly_mul(p, q):
    if not p or not q:
        return {}
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            c = c1 * c2
            piece = _mono_mul(m1, m2)
            for m, pc in piece.items():
                nc = out.get(m, 0) + c * pc
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
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


def _poly_divexact(p, d):
    """Exact multivariate division; raises if not exact."""
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    rem = dict(p)
    out: dict = {}
    lead_d = _poly_lead(d) if d else None
    cd = d[lead_d]
    while rem:
        lead_r = _poly_lead(rem)
        qm = _mono_divide(lead_r, lead_d)
        if qm is None:
            raise ArithmeticError("inexact polynomial division")
        qc = rem[lead_r] / cd
        out[qm] = out.get(qm, 0) + qc
        piece = _poly_mul({qm: qc}, d)
        rem = _poly_add(rem, _poly_neg(piece))
    return {m: c for m, c in out.items() if c}


def _rat_content(p):
    """Positive rational making p integer-primitive; sign of leading term."""
    num_gcd = 0
    den_lcm = 1
    for c in p.values():
        num_gcd = _int_gcd(num_gcd, abs(c.numerator))
        den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
    cont = Fraction(num_gcd, den_lcm)
    if p[_poly_lead(p)] < 0:
        cont = -cont
    return cont


def _uni_view(p, v):
    """View p as univariate in v with dict-poly coefficients."""
    out: dict[int, dict] = {}
    for m, c in p.items():
        e = 0
        rest = []
        for vv, ee in m:
            if vv == v:
                e = ee
            else:
                rest.append((vv, ee))
        coeff = out.setdefault(e, {})
        key = tuple(rest)
        nc = coeff.get(key, 0) + c
        if nc:
            coeff[key] = nc
        else:
            coeff.pop(key, None)
    return {e: c for e, c in out.items() if c}


def _uni_build(u, v):
    out: dict = {}
    for e, coeff in u.items():
        for m, c in coeff.items():
            if e:
                mono = tuple(sorted(list(m) + [(v, e)]))
            else:
                mono = m
            out[mono] = out.get(mono, 0) + c
    return {m: c for m, c in out.items() if c}


def _poly_gcd(p, q):
    """Multivariate gcd over Q, primitive with positive leading coefficient.

    A common factor lives in the variables p and q share.  So when their
    variable sets differ, the gcd is that of every coefficient of p and of q
    over that side's unshared variables, and it stops at the first constant.
    One variable runs Euclid on dense coefficient lists; more run a primitive
    euclidean PRS, whose content recursion reaches both rules again.
    Algebraic variables (square-ruled) never reach here with exponent > 1
    and are treated like ordinary variables; callers keep denominators free
    of them.
    """
    if not p:
        return _make_primitive(q)
    if not q:
        return _make_primitive(p)
    vp, vq = _poly_vars(p), _poly_vars(q)
    if vp != vq:
        shared = vp & vq
        g: dict = {}
        for part in _coeffs_over(p, shared) + _coeffs_over(q, shared):
            g = _poly_gcd(g, part)
            if tuple() in g and len(g) == 1:
                return g
        return g
    if not vp:
        return {tuple(): Fraction(1)}
    if len(vp) == 1:
        (v,) = vp
        return _uni_gcd(p, q, v)
    v = max(vp)
    pu, qu = _uni_view(p, v), _uni_view(q, v)
    cont_p, pp_p = _uni_content_pp(pu)
    cont_q, pp_q = _uni_content_pp(qu)
    cont = _poly_gcd(cont_p, cont_q)
    a, b = pp_p, pp_q
    while b:
        r = _uni_prem(a, b, v)
        a = b
        if r:
            _, r = _uni_content_pp(r)
        b = r
    gu = _uni_build(a, v)
    g = _poly_mul(cont, _make_primitive(gu))
    return _make_primitive(g)


def _coeffs_over(p, keep):
    """Coefficients of p, as dict-polys in `keep`, over the other variables."""
    out: dict = {}
    for m, c in p.items():
        rest = tuple(ve for ve in m if ve[0] not in keep)
        kept = tuple(ve for ve in m if ve[0] in keep)
        out.setdefault(rest, {})[kept] = c
    return list(out.values())


def _uni_gcd(p, q, v):
    """Euclid over Q for p, q in the one variable v, remainders kept monic."""
    a, b = _dense(p), _dense(q)
    while b:
        a, b = b, _dense_rem(a, b)
    return _make_primitive(
        {((v, e),) if e else tuple(): c for e, c in enumerate(a) if c}
    )


def _dense(p):
    # monic coefficient list, constant term first; every monomial is v^e or 1
    out = [Fraction(0)] * (1 + max(m[0][1] if m else 0 for m in p))
    for m, c in p.items():
        out[m[0][1] if m else 0] = c
    inv = 1 / out[-1]
    return [c * inv for c in out]


def _dense_rem(a, b):
    # remainder of a by the monic b, made monic
    a = list(a)
    while len(a) >= len(b):
        f = a[-1]
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] -= f * c
        a.pop()
        while a and not a[-1]:
            a.pop()
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


def _make_primitive(p):
    if not p:
        return {}
    cont = _rat_content(p)
    return {m: c / cont for m, c in p.items()}


def _uni_content_pp(u):
    cont: dict = {}
    for coeff in u.values():
        cont = _poly_gcd(cont, coeff)
    pp = {e: _poly_divexact(c, cont) for e, c in u.items()}
    return cont, pp


def _uni_prem(a, b, v):
    """Pseudo-remainder of univariate views (dict-poly coefficients)."""
    da, db = max(a), max(b)
    lb = b[db]
    r = {e: dict(c) for e, c in a.items()}
    while r:
        dr = max(r)
        if dr < db:
            break
        lr = r[dr]
        # r <- lb*r - lr * v^(dr-db) * b
        new: dict[int, dict] = {}
        for e, c in r.items():
            new[e] = _poly_mul(lb, c)
        for e, c in b.items():
            t = _poly_mul(lr, c)
            ee = e + dr - db
            new[ee] = _poly_add(new.get(ee, {}), _poly_neg(t))
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


_ONE_ITEMS = ((tuple(), Fraction(1)),)
_INT_CACHE: dict = {}


class Scalar:
    """Canonical rational function; immutable and hashable."""

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, num, den=None, _canonical=False):
        if den is None:
            den = {tuple(): Fraction(1)}
        if _canonical:
            self._num = num
            self._den = den
            self._hash = None
            return
        num, den = _normalize(dict(num), dict(den))
        self._num = _items(num)
        self._den = _items(den)
        self._hash = None

    # -- constructors ------------------------------------------------------
    @staticmethod
    def from_fraction(f) -> "Scalar":
        f = Fraction(f)
        if not f:
            return ZERO
        return Scalar(((tuple(), f),), _ONE_ITEMS, _canonical=True)

    @staticmethod
    def from_int(n: int) -> "Scalar":
        cached = _INT_CACHE.get(n)
        if cached is not None:
            return cached
        return Scalar.from_fraction(n)

    @staticmethod
    def param(name: str) -> "Scalar":
        if name not in _PARAM_INDEX:
            raise KeyError(f"undeclared parameter {name!r}")
        return Scalar({((_PARAM_INDEX[name], 1),): Fraction(1)})

    # -- views -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self._num

    def is_polynomial(self) -> bool:
        return self._den == _ONE_ITEMS

    def parameters(self) -> set[str]:
        vs = _poly_vars(dict(self._num)) | _poly_vars(dict(self._den))
        return {_PARAMS[v] for v in vs}

    def to_fraction(self) -> Fraction:
        if self.parameters():
            raise ValueError(f"scalar {self} is not a plain rational")
        if not self._num:
            return Fraction(0)
        return Fraction(self._num[0][1] / self._den[0][1])

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self._den == _ONE_ITEMS and other._den == _ONE_ITEMS:
            sn, on = self._num, other._num
            if len(sn) == 1 and len(on) == 1 and not sn[0][0] and not on[0][0]:
                q = sn[0][1] + on[0][1]
                if not q:
                    return ZERO
                return Scalar(((tuple(), q),), _ONE_ITEMS, _canonical=True)
            # polynomial sum stays canonical: no new monomials appear
            merged = dict(sn)
            for m, c in on:
                cur = merged.get(m)
                nc = c if cur is None else cur + c
                if nc:
                    merged[m] = nc
                else:
                    del merged[m]
            if not merged:
                return ZERO
            return Scalar(_items(merged), _ONE_ITEMS, _canonical=True)
        n1, d1 = dict(self._num), dict(self._den)
        n2, d2 = dict(other._num), dict(other._den)
        if self._den == other._den:
            return Scalar(_poly_add(n1, n2), d1)
        num = _poly_add(_poly_mul(n1, d2), _poly_mul(n2, d1))
        return Scalar(num, _poly_mul(d1, d2))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(
            _items(_poly_neg(dict(self._num))), self._den, _canonical=True
        )

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if type(other) is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.is_zero() or other.is_zero():
            return ZERO
        # scaling by a plain rational keeps the canonical form
        sn, on = self._num, other._num
        if other._den == _ONE_ITEMS and len(on) == 1 and not on[0][0]:
            q = on[0][1]
            if self._den == _ONE_ITEMS and len(sn) == 1 and not sn[0][0]:
                return Scalar(
                    ((tuple(), sn[0][1] * q),), _ONE_ITEMS, _canonical=True
                )
            if q == 1:
                return self
            return Scalar(
                tuple((m, c * q) for m, c in sn), self._den, _canonical=True
            )
        if self._den == _ONE_ITEMS and len(sn) == 1 and not sn[0][0]:
            q = sn[0][1]
            if q == 1:
                return other
            return Scalar(
                tuple((m, c * q) for m, c in on), other._den, _canonical=True
            )
        num = _poly_mul(dict(self._num), dict(other._num))
        if self._den == _ONE_ITEMS and other._den == _ONE_ITEMS:
            # product of canonical polynomials is canonical (unit denominator)
            if not num:
                return ZERO
            return Scalar(_items(num), _ONE_ITEMS, _canonical=True)
        den = _poly_mul(dict(self._den), dict(other._den))
        return Scalar(num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if self.is_zero():
            return ZERO
        num = _poly_mul(dict(self._num), dict(other._den))
        den = _poly_mul(dict(self._den), dict(other._num))
        return Scalar(num, den)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return ONE / (self ** (-n))
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure ----------------------------------------------------------
    def substitute(self, assignment: dict) -> "Scalar":
        """Evaluate with parameters replaced by scalars; others kept."""
        repl = {}
        for name, val in assignment.items():
            repl[_PARAM_INDEX[name]] = _coerce(val)
        num = _eval_poly(dict(self._num), repl)
        den = _eval_poly(dict(self._den), repl)
        if den.is_zero():
            raise ZeroDivisionError("substitution makes denominator vanish")
        return num / den

    def decompose(self, name: str) -> dict[int, "Scalar"]:
        """Split by powers of a parameter the denominator must not contain."""
        v = _PARAM_INDEX[name]
        if v in _poly_vars(dict(self._den)):
            raise ValueError(f"denominator involves {name}")
        den = dict(self._den)
        out: dict[int, Scalar] = {}
        for e, coeff in _uni_view(dict(self._num), v).items():
            out[e] = Scalar(coeff, dict(den))
        return out

    # -- comparisons / hashing ----------------------------------------------
    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._num, self._den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    # -- printing -------------------------------------------------------------
    def __str__(self):
        if not self._num:
            return "0"
        num = _poly_str(self._num)
        if self._den == _ONE_ITEMS:
            return num
        den = _poly_str(self._den)
        if len(self._num) > 1:
            num = f"({num})"
        if len(self._den) > 1 or not _is_plain_term(self._den[0]):
            den = f"({den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"Scalar({self})"


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
                term = term * Scalar({((v, 1),): Fraction(1)}) ** e
        total = total + term
    return total


def _normalize(num, den):
    if not den:
        raise ZeroDivisionError("zero denominator")
    num = {m: q for m, q in ((m, Fraction(c)) for m, c in num.items()) if q}
    den = {m: q for m, q in ((m, Fraction(c)) for m, c in den.items()) if q}
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {tuple(): Fraction(1)}
    # clear algebraic variables out of the denominator by conjugation
    for v in sorted(_SQUARE_RULES):
        if v in _poly_vars(den):
            conj = _conjugate_poly(den, v)
            num = _poly_mul(num, conj)
            den = _poly_mul(den, conj)
    if len(den) == 1:
        (m, c), = den.items()
        if not m:
            return _poly_scale(num, 1 / c), {tuple(): Fraction(1)}
    g = _poly_gcd(num, den)
    if g != {tuple(): Fraction(1)}:
        num = _poly_divexact(num, g)
        den = _poly_divexact(den, g)
    lc = den[_poly_lead(den)]
    if lc != 1:
        num = _poly_scale(num, 1 / lc)
        den = _poly_scale(den, 1 / lc)
    return num, den


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
# parser: ints, p/q, parameter names, + - * / ( ) ^

_TOKEN_CHARS = set("+-*/()^")


def _tokenize(text: str):
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _TOKEN_CHARS:
            toks.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            toks.append(int(text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(text[i:j])
            i = j
        else:
            raise ValueError(f"bad character {ch!r} in scalar expression")
    return toks


def parse_scalar(text: str, extra: dict[str, Scalar] | None = None) -> Scalar:
    """Parse an expression over declared parameters into a Scalar.

    `extra` maps additional names (e.g. 'lambda' in bracket files) to values.
    """
    toks = _tokenize(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def take():
        nonlocal pos
        t = toks[pos]
        pos += 1
        return t

    def parse_expr():
        if peek() in ("+", "-"):
            sign = take()
            node = parse_term()
            if sign == "-":
                node = -node
        else:
            node = parse_term()
        while peek() in ("+", "-"):
            op = take()
            rhs = parse_term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def parse_term():
        node = parse_factor()
        while peek() in ("*", "/"):
            op = take()
            rhs = parse_factor()
            node = node * rhs if op == "*" else node / rhs
        return node

    def parse_factor():
        node = parse_base()
        if peek() == "^":
            take()
            neg = False
            if peek() == "-":
                take()
                neg = True
            e = take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer")
            node = node ** (-e if neg else e)
        return node

    def parse_base():
        t = take()
        if t == "(":
            node = parse_expr()
            if take() != ")":
                raise ValueError("unbalanced parenthesis")
            return node
        if t == "-":
            return -parse_base()
        if isinstance(t, int):
            return Scalar.from_int(t)
        if isinstance(t, str):
            if extra and t in extra:
                return extra[t]
            return Scalar.param(t)
        raise ValueError(f"unexpected token {t!r}")

    node = parse_expr()
    if pos != len(toks):
        raise ValueError(f"trailing tokens in {text!r}")
    return node


# ---------------------------------------------------------------------------
# formal power series over Scalar (finite truncation window)

class FormalSeries:
    """Truncated series sum_{n < truncation} coeff_n * var^n, exponents in Z."""

    __slots__ = ("var", "coeffs", "truncation")

    def __init__(self, var: str, coeffs: dict[int, Scalar], truncation: int):
        self.var = var
        self.truncation = truncation
        self.coeffs = {
            n: _coerce(c)
            for n, c in coeffs.items()
            if n < truncation and not _coerce(c).is_zero()
        }

    def coefficient(self, n: int) -> Scalar:
        if n >= self.truncation:
            raise ValueError(f"order {n} beyond truncation {self.truncation}")
        return self.coeffs.get(n, ZERO)

    def __add__(self, other):
        assert self.var == other.var
        trunc = min(self.truncation, other.truncation)
        out = dict(self.coeffs)
        for n, c in other.coeffs.items():
            out[n] = out.get(n, ZERO) + c
        return FormalSeries(self.var, out, trunc)

    def __neg__(self):
        return FormalSeries(
            self.var, {n: -c for n, c in self.coeffs.items()}, self.truncation
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            f = _coerce(other)
            return FormalSeries(
                self.var, {n: c * f for n, c in self.coeffs.items()}, self.truncation
            )
        assert self.var == other.var
        lo_s = min(self.coeffs, default=0)
        lo_o = min(other.coeffs, default=0)
        trunc = min(self.truncation + lo_o, other.truncation + lo_s)
        out: dict[int, Scalar] = {}
        for n1, c1 in self.coeffs.items():
            for n2, c2 in other.coeffs.items():
                n = n1 + n2
                if n < trunc:
                    out[n] = out.get(n, ZERO) + c1 * c2
        return FormalSeries(self.var, out, trunc)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if not self.coeffs:
            return f"O({self.var}^{self.truncation})"
        parts = [f"({c})*{self.var}^{n}" for n, c in sorted(self.coeffs.items())]
        return " + ".join(parts) + f" + O({self.var}^{self.truncation})"


# ---------------------------------------------------------------------------
# combinatorial series data

_BPLUS_CACHE: list[Fraction] = []


def bernoulli_plus(j: int) -> Fraction:
    """Coefficients of t/(1 - e^-t) = sum B+_j t^j / j!."""
    if j < 0:
        raise ValueError("negative index")
    while len(_BPLUS_CACHE) <= j:
        n = len(_BPLUS_CACHE)
        # S with S * ((1-e^-t)/t) = 1, A_k = (-1)^k / (k+1)!
        acc = Fraction(1) if n == 0 else Fraction(0)
        fact = Fraction(1)
        for k in range(1, n + 1):
            fact *= k + 1
            a_k = Fraction((-1) ** k, int(fact))
            acc -= a_k * _BPLUS_CACHE[n - k] / _factorial(n - k)
        _BPLUS_CACHE.append(acc * _factorial(n))
    return _BPLUS_CACHE[j]


def _factorial(n: int) -> Fraction:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return Fraction(out)


_FN_POW_CACHE: dict[int, list[Fraction]] = {}


def _em1_over_u(order: int) -> list[Fraction]:
    # (e^u - 1)/u truncated
    return [Fraction(1, int(_factorial(k + 1))) for k in range(order)]


def _series_inv(a: list[Fraction]) -> list[Fraction]:
    assert a[0] == 1
    out = [Fraction(1)] + [Fraction(0)] * (len(a) - 1)
    for n in range(1, len(a)):
        s = Fraction(0)
        for k in range(1, n + 1):
            s += a[k] * out[n - k]
        out[n] = -s
    return out


def _series_mul(a: list[Fraction], b: list[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * order
    for i, ai in enumerate(a):
        if i >= order or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j >= order:
                break
            out[i + j] += ai * bj
    return out


def fn_coeff(j: int, n: int) -> Fraction:
    """Coefficient c(j, n) in the kernel expansion f_n = sum_j c(j,n) g^j z^(j-n).

    Computed as [u^j] of e^u * (u/(e^u - 1))^n, all exact rationals.
    At n and j both zero the kernel degenerates to 1.
    """
    if j < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    order = j + 1
    cached = _FN_POW_CACHE.get(n)
    if cached is None or len(cached) < order:
        t = _series_inv(_em1_over_u(order))
        power = [Fraction(1)] + [Fraction(0)] * (order - 1)
        for _ in range(n):
            power = _series_mul(power, t, order)
        exp_u = [Fraction(1, int(_factorial(k))) for k in range(order)]
        _FN_POW_CACHE[n] = _series_mul(exp_u, power, order)
        cached = _FN_POW_CACHE[n]
    return cached[j]


def u_coefficients(jmax: int, gamma0: Scalar | None = None) -> list[Scalar]:
    """Solve g0^-1 log(1 + g0*y) = exp(sum_{j>0} c_j y^{j+1} d_y) y for c_1..c_jmax.

    Returns [c_1, ..., c_jmax] as Scalars in gamma0 (or the supplied value).
    """
    g = Scalar.param("gamma0") if gamma0 is None else _coerce(gamma0)
    order = jmax + 2  # track powers y^1 .. y^(jmax+1)
    target = [ZERO] * order
    for m in range(1, order):
        # y^m coefficient of g^-1 log(1+g y): (-1)^(m+1) g^(m-1) / m
        target[m] = Scalar.from_fraction(Fraction((-1) ** (m + 1), m)) * g ** (m - 1)

    cs: list[Scalar] = []

    def apply_d(series: list[Scalar]) -> list[Scalar]:
        # D = sum_j c_j y^(j+1) d_y acting on a polynomial-in-y list
        out = [ZERO] * order
        for m in range(order):
            if series[m].is_zero() or m == 0:
                continue
            for j, cj in enumerate(cs, start=1):
                if m + j < order:
                    out[m + j] = out[m + j] + cj * Scalar.from_int(m) * series[m]
        return out

    def exp_d_on_y() -> list[Scalar]:
        out = [ZERO] * order
        term = [ZERO] * order
        term[1] = ONE
        k = 0
        fact = Fraction(1)
        while any(not t.is_zero() for t in term):
            for m in range(order):
                out[m] = out[m] + term[m] * Scalar.from_fraction(1 / fact)
            term = apply_d(term)
            k += 1
            fact *= k
            if k > order:
                break
        return out

    for j in range(1, jmax + 1):
        cs.append(ZERO)
        got = exp_d_on_y()
        # c_j enters the y^(j+1) coefficient linearly with unit weight
        cs[-1] = target[j + 1] - got[j + 1]
    return cs


# ---------------------------------------------------------------------------
# default registry: engine-wide parameter order is part of canonical printing

ZERO = None  # placeholder, replaced below
ONE = None

declare_parameter("c")
declare_parameter("a")
declare_parameter("gamma0")
declare_parameter("gamma")
declare_parameter("k")

ZERO = Scalar({})
ONE = Scalar({tuple(): Fraction(1)})
_INT_CACHE.update(
    {n: Scalar({tuple(): Fraction(n)}) for n in range(-64, 65) if n}
)
_INT_CACHE[0] = ZERO

declare_parameter("s", square=Scalar.param("a") / 2)
declare_parameter("I", square=Scalar.from_int(-1))
