from __future__ import annotations

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vazhu.scalar import (
    ONE,
    ZERO,
    FormalSeries,
    Scalar,
    bernoulli_plus,
    declare_parameter,
    fn_coeff,
    parameter_names,
    parse_scalar,
    u_coefficients,
)
from vazhu.scalar import _mono_key


def S(text):
    return parse_scalar(text)


# ---------------------------------------------------------------------------
# Scalar field structure


def test_basic_arithmetic():
    c = Scalar.param("c")
    assert c + c == 2 * c
    assert c - c == ZERO
    assert (c + 1) * (c - 1) == c * c - 1
    assert (c**2 - 1) / (c + 1) == c - 1
    assert ONE / (c + 1) * (c + 1) == ONE


def test_rational_function_canonical_form():
    c, a = Scalar.param("c"), Scalar.param("a")
    x = (c**2 + c) / (a * c + a)  # c(c+1) / a(c+1)
    assert x == c / a
    assert str(x) == "c/a"
    y = (2 * c + 2) / 4
    assert str(y) == "1/2*c + 1/2"


def test_parse_round_trip():
    samples = [
        "0",
        "3/4",
        "c",
        "-c + 2",
        "(c^2 + 3*c)/(a + 1)",
        "1/2*c + 1/2",
        "c^3/(a^2 + 2*a + 1)",
    ]
    for text in samples:
        v = S(text)
        assert S(str(v)) == v


def test_algebraic_square_rules():
    s, a, i = Scalar.param("s"), Scalar.param("a"), Scalar.param("I")
    assert s * s == a / 2
    assert i * i == Scalar.from_int(-1)
    assert i**4 == ONE
    assert (s**2) * 2 == a
    # denominators are cleared of algebraic variables by conjugation
    assert ONE / s == 2 * s / a
    assert ONE / i == -i
    assert (ONE / (1 + i)) * (1 + i) == ONE


def test_substitute_and_decompose():
    c, g = Scalar.param("c"), Scalar.param("gamma")
    x = c * g**2 + 3 * g + c
    parts = x.decompose("gamma")
    assert parts[2] == c and parts[1] == S("3") and parts[0] == c
    assert x.substitute({"gamma": 1}) == 2 * c + 3
    assert x.substitute({"gamma": 0, "c": Fraction(1, 2)}) == S("1/2")
    with pytest.raises(ZeroDivisionError):
        (ONE / (c - 1)).substitute({"c": 1})


def test_to_fraction():
    assert (S("3/4") + S("1/4")).to_fraction() == 1
    with pytest.raises(ValueError):
        Scalar.param("c").to_fraction()


def test_declare_parameter_conflicts():
    declare_parameter("tmp_level")
    declare_parameter("tmp_level")  # same declaration is fine
    with pytest.raises(ValueError):
        declare_parameter("tmp_level", square=ONE)


small_frac = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)


def scalars():
    c, a = Scalar.param("c"), Scalar.param("a")
    base = st.sampled_from([ONE, c, a, c + 1, a - 2, c * a])
    return st.builds(
        lambda f, b, e: Scalar.from_fraction(f) + b * Scalar.from_fraction(e),
        small_frac,
        base,
        small_frac,
    )


@settings(max_examples=60, deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not y.is_zero():
        assert (x / y) * y == x


@settings(max_examples=40, deadline=None)
@given(scalars(), scalars(), scalars())
def test_gcd_reduction_matches_sympy(x, y, z):
    # (x*z)/(y*z) must cancel to x/y; cross-checked through sympy
    if y.is_zero() or z.is_zero():
        return
    mine = (x * z) / (y * z)
    sc, sa = sympy.symbols("c a")
    env = {"c": sc, "a": sa}

    def to_sympy(v):
        return sympy.nsimplify(sympy.sympify(str(v), locals=env), rational=True)

    assert sympy.simplify(to_sympy(mine) - to_sympy(x) / to_sympy(y)) == 0


# ---------------------------------------------------------------------------
# canonical forms: pinned exactly, and checked against sympy


def _pinned_values():
    c, a, k, s, i = (Scalar.param(n) for n in ("c", "a", "k", "s", "I"))
    x, y = (c + a) / (a + 1), (c * a - 1) / (c + 2)
    z, w = (c * a + c) / (a * (a + 1)), (a - 1) / (a + 1)
    # the big4 structure constants
    gp, gm, km = ONE / (a + 1), a / (a + 1), (a + 1) * c / (6 * a)
    return {
        "x*y+x": x * y + x,
        "z*w+z": z * w + z,
        "1/s": ONE / s,
        "1/(1+I)": ONE / (1 + i),
        "gp*gm/km": gp * gm / km,
        "s/a": s / a,
        "k_and_c": (k * c + 1) * (k - 1) / (k * k * c - c),
    }


_PINNED_FORMS = {
    "x*y+x": "(((((1, 1),), Fraction(1, 1)), (((0, 1),), Fraction(1, 1)), "
    "(((0, 1), (1, 1)), Fraction(1, 1)), (((0, 2),), Fraction(1, 1)), "
    "(((0, 1), (1, 2)), Fraction(1, 1)), (((0, 2), (1, 1)), Fraction(1, 1))), "
    "(((), Fraction(2, 1)), (((1, 1),), Fraction(2, 1)), "
    "(((0, 1),), Fraction(1, 1)), (((0, 1), (1, 1)), Fraction(1, 1))))",
    "z*w+z": "(((((0, 1),), Fraction(2, 1)),), "
    "(((), Fraction(1, 1)), (((1, 1),), Fraction(1, 1))))",
    "1/s": "(((((5, 1),), Fraction(2, 1)),), ((((1, 1),), Fraction(1, 1)),))",
    "1/(1+I)": "((((), Fraction(1, 2)), (((6, 1),), Fraction(-1, 2))), "
    "(((), Fraction(1, 1)),))",
    "gp*gm/km": "(((((1, 2),), Fraction(6, 1)),), "
    "((((0, 1),), Fraction(1, 1)), (((0, 1), (1, 1)), Fraction(3, 1)), "
    "(((0, 1), (1, 2)), Fraction(3, 1)), (((0, 1), (1, 3)), Fraction(1, 1))))",
    "s/a": "(((((5, 1),), Fraction(1, 1)),), ((((1, 1),), Fraction(1, 1)),))",
    "k_and_c": "((((), Fraction(1, 1)), (((0, 1), (4, 1)), Fraction(1, 1))), "
    "((((0, 1),), Fraction(1, 1)), (((0, 1), (4, 1)), Fraction(1, 1))))",
}


@pytest.mark.parametrize("name", sorted(_PINNED_FORMS))
def test_canonical_form_pinned(name):
    # exact forms, whatever engines were built earlier in the process
    v = _pinned_values()[name]
    assert repr((v._num, v._den)) == _PINNED_FORMS[name]


_SYMS = {n: sympy.Symbol(n) for n in parameter_names()}


def _poly_to_sympy(items):
    total = sympy.Integer(0)
    for mono, coeff in items:
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for v, e in mono:
            term *= _SYMS[parameter_names()[v]] ** e
        total += term
    return total


def _reduce_algebraic(expr):
    sym_s, sym_i, sym_a = _SYMS["s"], _SYMS["I"], _SYMS["a"]
    expr = sympy.rem(sympy.expand(expr), sym_s**2 - sym_a / 2, sym_s)
    return sympy.expand(sympy.rem(expr, sym_i**2 + 1, sym_i))


# variable sets (numerator, denominator) for the four kinds of denominator
_VAR_CASES = {
    "one_variable": (("a",), ("a",)),
    "strict_subset": (("c", "a", "k"), ("a", "k")),
    "partial_overlap": (("c", "a"), ("a", "k")),
    "multivariate": (("c", "a", "k"), ("c", "a", "k")),
}
nonzero_frac = small_frac.filter(bool)


@st.composite
def _poly_in(draw, names):
    """A polynomial involving exactly the named parameters."""
    out = Scalar.from_fraction(draw(small_frac))
    for name in names:
        coeff = Scalar.from_fraction(draw(nonzero_frac))
        out = out + coeff * Scalar.param(name) ** draw(st.integers(1, 2))
    if len(names) > 1:
        u, v = draw(st.permutations(names))[:2]
        cross = Scalar.param(u) * Scalar.param(v)
        out = out + Scalar.from_fraction(draw(small_frac)) * cross
    return out


@st.composite
def _fractions(draw):
    case = draw(st.sampled_from(sorted(_VAR_CASES)))
    num_vars, den_vars = _VAR_CASES[case]
    num = draw(_poly_in(num_vars))
    if draw(st.booleans()):
        alg = Scalar.param(draw(st.sampled_from(["s", "I"])))
        num = num + Scalar.from_fraction(draw(nonzero_frac)) * alg
    den = draw(_poly_in(den_vars))
    if draw(st.booleans()):
        den = den * draw(_poly_in(den_vars))
    shared = sorted(set(num_vars) & set(den_vars))
    common_vars = draw(st.sets(st.sampled_from(shared), max_size=2))
    common = draw(_poly_in(sorted(common_vars)))
    if draw(st.booleans()):
        alg = Scalar.param(draw(st.sampled_from(["s", "I"])))
        common = common + Scalar.from_fraction(draw(nonzero_frac)) * alg
    if common.is_zero():
        common = ONE
    return num, den, common


@settings(max_examples=80, deadline=None)
@given(_fractions())
def test_canonical_form_matches_sympy(nd):
    num, den, common = nd
    v = (num * common) / (den * common)
    got_num, got_den = _poly_to_sympy(v._num), _poly_to_sympy(v._den)
    want_num, want_den = _poly_to_sympy(num._num), _poly_to_sympy(den._num)
    assert _reduce_algebraic(got_num * want_den - want_num * got_den) == 0
    assert sympy.gcd(got_num, got_den).is_number
    assert not {_SYMS["s"], _SYMS["I"]} & got_den.free_symbols
    assert max(v._den, key=lambda mc: _mono_key(mc[0]))[1] == 1


# ---------------------------------------------------------------------------
# Bernoulli-type data


def test_bernoulli_plus_small_table():
    expected = [
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 6),
        Fraction(0),
        Fraction(-1, 30),
    ]
    assert [bernoulli_plus(j) for j in range(5)] == expected


def test_bernoulli_plus_sympy_oracle():
    t = sympy.symbols("t")
    gen = t / (1 - sympy.exp(-t))
    series = sympy.series(gen, t, 0, 13).removeO()
    for j in range(13):
        want = Fraction(str(series.coeff(t, j))) * Fraction(
            int(sympy.factorial(j))
        )
        assert bernoulli_plus(j) == want


# ---------------------------------------------------------------------------
# kernel coefficients c(j, n)


def test_fn_coeff_pinned_identities():
    for n in range(9):
        assert fn_coeff(0, n) == 1
        assert fn_coeff(1, n) == Fraction(-(n - 2), 2)
    for j in range(13):
        assert fn_coeff(j, 1) == bernoulli_plus(j) / Fraction(
            int(sympy.factorial(j))
        )
    # c(n-1, n) vanishes except in the first kernel
    assert fn_coeff(0, 1) == 1
    for n in range(2, 9):
        assert fn_coeff(n - 1, n) == 0


def test_fn_coeff_sympy_oracle():
    u = sympy.symbols("u")
    for n in range(5):
        gen = sympy.exp(u) * (u / (sympy.exp(u) - 1)) ** n
        series = sympy.series(gen, u, 0, 8).removeO()
        for j in range(8):
            assert fn_coeff(j, n) == Fraction(str(series.coeff(u, j)))


def test_fn_coeff_derivative_recurrence():
    # z-derivative of the kernel: (m-n) c(m,n) = -(n-1) c(m-1,n) - n c(m,n+1)
    for n in range(1, 7):
        for m in range(0, 9):
            lhs = (m - n) * fn_coeff(m, n)
            prev = fn_coeff(m - 1, n) if m >= 1 else Fraction(0)
            rhs = -(n - 1) * prev - n * fn_coeff(m, n + 1)
            assert lhs == rhs


def test_fn_coeff_product_recurrence():
    # multiplying the kernel by (e^{g z} - 1)/g drops n by one
    for n in range(2, 7):
        for m in range(0, 8):
            total = Fraction(0)
            for r in range(1, m + 2):
                total += fn_coeff(m + 1 - r, n) / Fraction(
                    int(sympy.factorial(r))
                )
            assert total == fn_coeff(m, n - 1)


# ---------------------------------------------------------------------------
# conjugation-flow coefficients


def test_u_coefficients_pinned():
    g = Scalar.param("gamma0")
    c1, c2, c3 = u_coefficients(3)
    assert c1 == -g / 2
    assert c2 == g**2 / 12
    assert c3 == -(g**3) / 48


def test_u_coefficients_satisfy_defining_flow():
    # independent route: expand exp(sum c_j y^(j+1) d_y) y with sympy diff
    jmax = 5
    cs = u_coefficients(jmax, gamma0=Fraction(1))
    y, g0 = sympy.symbols("y g0")
    vals = [sympy.Rational(str(c.to_fraction())) for c in cs]
    field = sum(v * y ** (j + 1) for j, v in enumerate(vals, start=1))
    order = jmax + 2
    term = y
    total = sympy.Integer(0)
    for kk in range(order + 1):
        total += term / sympy.factorial(kk)
        term = sympy.expand(field * sympy.diff(term, y))
        term = sum(
            t for t in sympy.Add.make_args(term) if sympy.degree(t, y) < order
        )
    target = sympy.series(sympy.log(1 + y), y, 0, order).removeO()
    assert sympy.expand(total - target) == 0


# ---------------------------------------------------------------------------
# formal series


def test_formal_series_ops():
    z = "z"
    f = FormalSeries(z, {0: ONE, 1: Scalar.param("c")}, 4)
    g = FormalSeries(z, {-1: ONE, 2: ONE}, 4)
    prod = f * g
    assert prod.coefficient(-1) == ONE
    assert prod.coefficient(0) == Scalar.param("c")
    assert prod.coefficient(2) == ONE
    assert (f - f).is_zero()
    assert prod.truncation == 3
