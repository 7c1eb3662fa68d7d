from __future__ import annotations

import hashlib
import operator
import random
import time
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from vazhu.scalar import (
    ONE,
    ZERO,
    Scalar,
    parameter_names,
    parse_scalar,
)
from vazhu import liesuper, presentation
from vazhu import scalar as scalar_module
from vazhu.linalg import vec_acc, vec_sum
from vazhu.scalar import (
    _ONE_ITEMS,
    _SMALL_INT,
    _SQUARE_RULES,
    _conjugate_poly,
    _heu_gcd,
    _int_digits,
    _int_eval,
    _int_mul,
    _int_poly,
    _int_quo,
    _items,
    _mono_key,
    _mono_mul,
    _normalize,
    _poly_acc,
    _poly_gcd,
    _poly_mul,
    _q,
    _q_poly,
    _reduced,
    _uni_build,
    _uni_content_pp,
    _uni_view,
)


def S(text):
    return parse_scalar(text)


def is_canonical_coeff(c):
    """The stored coefficient type: an int, or a Fraction that is no integer."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def assert_canonical(v):
    bad = [c for _, c in v._num + v._den if not is_canonical_coeff(c)]
    assert not bad, (v, bad)


# ---------------------------------------------------------------------------
# Scalar field structure


def test_basic_arithmetic():
    c = Scalar.param("c")
    assert c + c == 2 * c
    assert c - c == ZERO
    assert (c + 1) * (c - 1) == c * c - 1
    assert (c**2 - 1) / (c + 1) == c - 1
    assert ONE / (c + 1) * (c + 1) == ONE


def test_reflected_operators_and_text_operands():
    # an int or text on the left reaches __rsub__ and __rtruediv__
    x = Scalar.param("c") + Scalar.param("a")
    assert 2 - x == -(x - 2)
    assert 1 / x == ONE / x
    assert Fraction(1, 2) - x == -(x - Fraction(1, 2))
    assert "c" - x == -Scalar.param("a")
    assert x * "a/2" == x * Scalar.param("a") / 2
    assert "1" / x == ONE / x


def test_zero_denominators_raise():
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        Scalar({(): 1}, {})
    with pytest.raises(ZeroDivisionError, match="^zero denominator$"):
        Scalar({(): 1}, {(): 0, ((0, 1),): 0})


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


def test_parse_binds_unary_minus_tighter_than_products_looser_than_powers():
    a, c, k = Scalar.param("a"), Scalar.param("c"), Scalar.param("k")
    assert S("a - -c^2") == a + c**2
    assert S("c*-c^2") == -c**3
    assert S("c/-a^2") == -c / a**2
    assert S("--k^-2") == k**-2
    assert S("-3^2") == -9


def test_parse_ignores_whitespace_and_newlines():
    assert S(" c + 1") == S("c\n+ 1") == Scalar.param("c") + 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "1 +",
        "(c",
        "c^",
        "c ^ -",
        "c +* a",
        "(c))",
        "c.real",
        "f(c)",
        "c[0]",
        "1.5",
        "2j",
        "True",
        "c < a",
        "c, a",
        "2^3^2",
        "c^a",
        "c^1.5",
        "'c'",
        "__import__('os')",
        "lambda: c",
        "007",
    ],
)
def test_parse_rejects_malformed_text(text):
    with pytest.raises(ValueError):
        S(text)


@pytest.mark.parametrize(
    "text",
    [" + ".join(["c"] * 100_000), "(" * 300 + "c" + ")" * 300, "-" * 1200 + "c"],
    ids=["long_sum", "deep_parentheses", "long_negation"],
)
def test_parse_past_parser_limits_is_a_value_error(text):
    # never a RecursionError, from Python's parser or from the evaluator
    with pytest.raises(ValueError):
        S(text)


def test_power_past_the_term_limit_is_a_value_error():
    # comb(102, 2) = 5,151 possible terms: refused before anything is built
    start = time.perf_counter()
    for text in ["(c + a + 1)^100", "(c + a + 1)^-100", "1/(c + a + 1)^100"]:
        with pytest.raises(ValueError, match=r"power -?100 of a 3-term"):
            S(text)
    assert time.perf_counter() - start < 1
    # comb(12, 2) = 66 terms is inside the limit, and the same as ten products
    power = S("(c + a + 1)^10")
    assert len(power._num) == 66
    assert power == reduce(operator.mul, [S("c + a + 1")] * 10)


def test_power_past_the_work_limit_is_a_value_error(monkeypatch):
    # (c + 1)^999 has 1,000 terms, inside the term limit, but its squarings
    # would multiply about 415k monomial pairs: refused before any is built
    start = time.perf_counter()
    for text in ["(c + 1)^999", "(c + 1)^-999", "(c + a + 1)^43"]:
        with pytest.raises(ValueError, match=r"more than 50000 monomial"):
            S(text)
    assert time.perf_counter() - start < 1
    # the estimate bounds the monomial products a power actually makes
    calls = []
    mono_mul = scalar_module._mono_mul
    monkeypatch.setattr(
        scalar_module,
        "_mono_mul",
        lambda m1, m2: calls.append(1) or mono_mul(m1, m2),
    )
    for text, e, t in [("(c + a + 1)^10", 10, 3), ("(c + 1)^353", 353, 2)]:
        calls.clear()
        S(text)
        assert 0 < len(calls) <= scalar_module._pow_work(e, t)
    assert scalar_module._pow_work(353, 2) <= scalar_module._POW_WORK_LIMIT


def test_power_past_the_bits_limit_is_a_value_error():
    # (c/7 - 5/3)^353 is inside both other limits, but its coefficients
    # would grow to thousands of bits: refused before anything is built
    start = time.perf_counter()
    for text in ["(c/7 - 5/3)^353", "(c/7 - 5/3)^-353", "1/(c/7 - 5/3)^353"]:
        with pytest.raises(ValueError, match=r"more than 2048 bits"):
            S(text)
    assert time.perf_counter() - start < 1
    # (c + 1)^353 makes the same monomial products with small coefficients
    assert scalar_module._pow_bits(353, S("c + 1")._num) == 353
    assert S("(c + 1)^353")._num[-1] == (((0, 353),), 1)
    # unit coefficients need no bits, and a first power is never refused
    assert S("c^2000")._num == ((((0, 2000),), 1),)
    assert S("(-1)^1025") == -1 and S("c^-1025") == 1 / S("c^1025")
    big = Scalar.from_int(3**2000) * S("c + 1/7")
    assert scalar_module._pow_bits(1, big._num) > scalar_module._POW_BITS_LIMIT
    assert big**1 == big and big**-1 == 1 / big
    # nor is one past the term limit, where a square is refused
    big = S("(c+a+k+1)^16") * S("c+a+k+1")
    assert len(big._num) == 1140 and big._den == _ONE_ITEMS
    assert big**0 == 1 and big**1 == big
    inverse = big**-1
    assert inverse._num == _ONE_ITEMS and inverse._den == big._num
    with pytest.raises(ValueError, match="^power -2 of a 1140-term"):
        big**-2
    # the estimate bounds the bits of every power it lets through (square
    # rules are not counted, so no base here has a ruled parameter)
    for text in ["c/7 - 5/3", "c + 1", "3*c^2 - a/4 + 5/6", "-7/2", "a*c/5 - 2"]:
        base = S(text)
        for e in (1, 2, 3, 5, 8, 13, 21):
            power = base**e
            d = lcm(*[c.denominator for _, c in power._num])
            top = max(abs(c.numerator) * (d // c.denominator) for _, c in power._num)
            assert (top - 1).bit_length() + (d - 1).bit_length() <= (
                scalar_module._pow_bits(e, base._num)
            ), (text, e)


def test_powers_of_zero():
    # zero has no terms, so no coefficient of its powers needs a bit
    assert S("0^5000") == 0 and S("(c - c)^3000") == 0
    assert ZERO**3000 == 0 and ZERO**0 == 1
    assert scalar_module._pow_bits(3000, ZERO._num) == 0
    with pytest.raises(ZeroDivisionError):
        S("0^-1")
    with pytest.raises(ValueError, match=r"more than 2048 bits"):
        S("(c/7 - 5/3)^353")


def test_power_takes_only_an_int_exponent():
    # a fractional or bool exponent once passed the first-power shortcut:
    # c ** 0.5 was c and c ** -0.5 was 1/c
    c = Scalar.param("c")
    for n in (0.5, Fraction(1, 2), -0.5, Fraction(-1, 3), True, 2.0):
        kind = type(n).__name__
        message = f"^power takes an int exponent, not {kind}$"
        with pytest.raises(TypeError, match=message):
            c**n
    assert c**1 == c and c**-1 == ONE / c and c**0 == ONE


def test_long_polynomial_round_trips():
    # the evaluator folds a chain in a loop, so its length is the parser's limit
    rng = random.Random(20)
    terms = {
        tuple((v, e) for v, e in ((0, i), (1, j)) if e):
        Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, 9))
        for i in range(40)
        for j in range(50)
    }
    x = Scalar(terms)
    assert len(x._num) == 2000
    assert S(str(x)) == x


def test_stored_coefficients_round_trip():
    # every coefficient of every builtin bracket table and Lie table
    pool = set()
    for pres_id in presentation.builtin_ids():
        for vec in presentation.builtin_presentation(pres_id)._table.values():
            pool.update(vec.values())
    for algebra_id in liesuper._BUILDERS:
        for vec in liesuper.build_algebra(algebra_id).table.values():
            pool.update(vec.values())
    assert len(pool) >= 30
    for x in pool:
        assert S(str(x)) == x, x


@pytest.mark.parametrize(
    "op", [operator.add, operator.sub, operator.mul, operator.truediv]
)
def test_float_operands_are_refused(op):
    # both operand orders refuse a float; no reflected operator recurses
    c = Scalar.param("c")
    for x, y in ((c, 1.5), (1.5, c)):
        with pytest.raises(TypeError):
            op(x, y)


def test_undeclared_parameter_names_raise():
    c = Scalar.param("c")
    for call in (
        lambda: Scalar.param("zz"),
        lambda: c.substitute({"zz": 1}),
        lambda: c.decompose("zz"),
    ):
        with pytest.raises(KeyError, match="undeclared parameter 'zz'"):
            call()


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
    with pytest.raises(ValueError, match="^denominator involves c$"):
        (g / (c + 1)).decompose("c")


def test_to_fraction():
    # integral values are stored as ints, and int / int would be a float
    big = _SMALL_INT + 7
    cases = (
        (S("3/4") + S("1/4"), 1),
        (S("1/3"), Fraction(1, 3)),
        (Scalar.from_int(big), big),
        (S(f"{3 * big}/3"), big),
        (ZERO, 0),
    )
    for v, want in cases:
        got = v.to_fraction()
        assert type(got) is Fraction and got == want, (v, got)
    with pytest.raises(ValueError):
        Scalar.param("c").to_fraction()


@pytest.mark.parametrize("value", [-1.0, 2.5, Fraction(3), 0.1])
def test_from_int_rejects_non_ints(value):
    # -1.0 and Fraction(3) compare equal to cached ints, 2.5 to none
    with pytest.raises(TypeError):
        Scalar.from_int(value)


@pytest.mark.parametrize("value", [0.1, -1.0, "1/2"])
def test_from_fraction_rejects_non_rationals(value):
    # Fraction(0.1) would be 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        Scalar.from_fraction(value)
    assert Scalar.from_fraction(Fraction(1, 10)) == Fraction(1, 10)


@pytest.mark.parametrize("value", [0.1, -1.0, "1/2"])
def test_constructor_rejects_non_rational_coefficients(value):
    # the normalizing constructor refuses what from_fraction refuses, in
    # the numerator and the denominator alike
    c = Scalar.param("c")._num[0][0]
    for num, den in (({(): value}, None), ({c: 1}, {(): 1, c: value})):
        with pytest.raises(TypeError, match="int or Fraction coefficients"):
            Scalar(num, den)
    assert Scalar({(): Fraction(1, 10)}) == Fraction(1, 10)


def test_equal_scalars_hash_equal():
    # a constant hashes as the int or Fraction it equals
    half, c = Scalar.from_fraction(Fraction(1, 2)), Scalar.param("c")
    pairs = ((ONE, 1), (ZERO, 0), (Scalar.from_int(-7), -7), (half, Fraction(1, 2)))
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
        assert {x: "x"}.get(y) == "x" and {y: "y"}.get(x) == "y"
    assert {ONE, 1, Fraction(1), c / c} == {1}
    # anything else is unequal, and comparing never parses or raises
    for x in (ONE, c):
        for other in ("c", "1", "zz", "!", 1.0, None):
            assert x != other and not x == other


def test_parameter_registry_is_the_fixed_tuple():
    # the order sorts every canonical form's monomials, so it is pinned
    names = parameter_names()
    assert names == ("c", "a", "gamma0", "gamma", "k", "s", "I")
    for name in names:
        assert parse_scalar(name) == Scalar.param(name)
    assert {names[v] for v in _SQUARE_RULES} == {"s", "I"}
    for v, rule in _SQUARE_RULES.items():
        for mono, coeff in rule.items():
            # _reduce_mono ends because a rule uses only earlier parameters
            assert all(w < v for w, _ in mono), (names[v], mono)
            assert type(coeff) is int or (
                type(coeff) is Fraction and coeff.denominator > 1
            ), (names[v], coeff)
    assert parse_scalar("s^2") == parse_scalar("a/2")
    assert parse_scalar("I^2") == -1


# ---------------------------------------------------------------------------
# the memo of normalizing operations


def _memo_pool():
    """big4 and N4 bracket coefficients, plus fractions in a, I and s."""
    pool = set()
    for pres_id in ("big4", "N4"):
        for vec in presentation.builtin_presentation(pres_id)._table.values():
            pool.update(vec.values())
    extra = ("I/(a + 1)", "(a + I)/(a - 1)", "s/(a + 2)", "(s + 1)/a", "I/(a + I)")
    pool.update(S(text) for text in extra)
    return sorted(pool, key=lambda v: repr((v._num, v._den)))


def _reaches_memo(op, x, y):
    # the fast paths: plain-rational scaling and unit-denominator polynomials
    if op == "/":
        return True
    if op == "*" and any(v.is_polynomial() and not v.parameters() for v in (x, y)):
        return False
    return not (x.is_polynomial() and y.is_polynomial())


def test_memoized_operations_match_uncached_normalization():
    ops = {"+": operator.add, "*": operator.mul, "/": operator.truediv}
    pool = _memo_pool()
    assert sum(not v.is_polynomial() for v in pool) >= 20
    for x in pool:
        for y in pool:
            for op, fn in ops.items():
                got = fn(x, y)
                want = _reduced.__wrapped__(op, x, y)
                assert (got._num, got._den) == (want._num, want._den), (op, x, y)
                if _reaches_memo(op, x, y):
                    assert fn(x, y) is got, (op, x, y)


def test_memo_serves_the_big4_jacobi_pass(monkeypatch):
    # a refactor that routes the gcd path around the memo fails here: every
    # normalization of the pass is a memo miss, and the memo serves more
    # operations than it computes
    pres = presentation._BUILTINS["big4"]()
    _reduced.cache_clear()
    calls = []
    real = scalar_module._normalize

    def counted(num, den):
        calls.append(None)
        return real(num, den)

    monkeypatch.setattr(scalar_module, "_normalize", counted)
    assert pres.jacobi_witness() is None
    info = _reduced.cache_info()
    assert info.misses and len(calls) == info.misses, (len(calls), info)
    assert info.hits >= info.misses, info


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


# (variables of a, variables of b) for pairs a*f, b*f besides the default
# c, a and k on both sides: one variable, a strict subset, a partial overlap
_GCD_SHAPES = (
    (("c",), ("c",)),
    (("c", "a", "k"), ("a", "k")),
    (("c", "a"), ("a", "k")),
)


def _gcd_pairs(count, seed, p_vars=("c", "a", "k"), q_vars=("c", "a", "k")):
    """Seeded (a*f, b*f, f): a in p_vars, b in q_vars, f in the ones they share.

    By default every factor holds c, a and k, so no variable is unshared
    and each pair's gcd is a genuinely multivariate one.
    """
    rng = random.Random(seed)

    def poly(names):
        out = Scalar.from_int(rng.randint(-4, 4))
        for name in names:
            coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
            out = out + Scalar.from_fraction(coeff) * S(name) ** rng.randint(1, 3)
        if len(names) > 1:
            u, v = rng.sample(list(names), 2)
            out = out + Scalar.from_int(rng.randint(-2, 2)) * S(u) * S(v)
        return dict(out._num)

    shared = [n for n in p_vars if n in q_vars]
    pairs = []
    for _ in range(count):
        a, b, f = poly(p_vars), poly(q_vars), poly(shared)
        pairs.append((_poly_mul(a, f), _poly_mul(b, f), f))
    return pairs


def test_heuristic_gcd_matches_prs(monkeypatch):
    # GCDHEU answers every pair of every shape, the PRS it falls back on
    # agrees, and the digest pins the gcds themselves
    pairs = _gcd_pairs(30, seed=3)
    for seed, (p_vars, q_vars) in enumerate(_GCD_SHAPES, start=4):
        pairs += _gcd_pairs(10, seed, p_vars, q_vars)
    # the gcd layer takes the primitive integer parts
    pairs = [tuple(_int_poly(x)[1] for x in pair) for pair in pairs]
    for p, q, _ in pairs:
        assert _heu_gcd(p, q) is not None
    heuristic = [_poly_gcd(p, q) for p, q, _ in pairs]
    for g, (_, _, f) in zip(heuristic, pairs):
        assert _int_quo(g, f) is not None
    forms = [_items({m: Fraction(c) for m, c in g.items()}) for g in heuristic]
    digest = hashlib.sha256(repr(forms).encode())
    assert digest.hexdigest()[:16] == "8a1829332a3805d3"
    monkeypatch.setattr(scalar_module, "_HEU_TRIES", 0)
    assert [_poly_gcd(p, q) for p, q, _ in pairs] == heuristic


@pytest.mark.parametrize(
    "text, var",
    [
        ("2/3*a^2 + 4/3", "a"),
        ("2/3*c*a^2 + 2/3*a^2 - 4/9*c - 4/9", "a"),
        ("6/5*c^2*k + 3/5*c*k^2 + 9/5*c", "c"),
    ],
)
def test_prs_primitive_part_is_integer_primitive(text, var):
    # the PRS divides out the integer content too, not only the gcd of
    # the coefficient polynomials: p times its denominators' lcm keeps one
    q = dict(S(text)._num)
    den = reduce(lcm, (x.denominator for x in q.values()))
    p = {m: int(x * den) for m, x in q.items()}
    assert reduce(gcd, p.values()) > 1
    v = parameter_names().index(var)
    cont, pp = _uni_content_pp(_uni_view(p, v))
    coeffs = [x for c in pp.values() for x in c.values()]
    assert all(type(x) is int for x in coeffs)
    assert reduce(gcd, coeffs) == 1
    product = {e: _int_mul(cont, c) for e, c in pp.items()}
    assert _uni_build(product, v) == p


# ---------------------------------------------------------------------------
# the univariate helpers against their bodies from before they split and
# joined monomials through _uni_view and _uni_build and summed exponents
# through _mono_add


def _int_eval_ref(p, v, xi):
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


def _int_digits_ref(h, v, xi):
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


def _conjugate_poly_ref(p, v):
    out = {}
    for m, c in p.items():
        if any(vv == v for vv, _ in m):
            out[m] = -c
        else:
            out[m] = c
    return out


def _reduce_mono_ref(exps, coeff):
    for v in sorted(exps, reverse=True):
        if exps[v] >= 2 and v in _SQUARE_RULES:
            base = dict(exps)
            base[v] -= 2
            out: dict = {}
            for rm, rc in _SQUARE_RULES[v].items():
                merged = dict(base)
                for vv, ee in rm:
                    merged[vv] = merged.get(vv, 0) + ee
                _poly_acc(out, _reduce_mono_ref(merged, _q(coeff * rc)).items())
            return out
    mono = tuple(sorted((v, e) for v, e in exps.items() if e))
    return {mono: coeff}


def _mono_mul_ref(m1, m2):
    exps: dict = {}
    for v, e in m1:
        exps[v] = exps.get(v, 0) + e
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return _reduce_mono_ref(exps, 1)


_HELPER_VARS = ("c", "a", "k", "s", "I")


@st.composite
def _int_polys(draw):
    """(variables, p): an integer dict-poly in 1 to 3 registry variables."""
    names = st.lists(st.sampled_from(_HELPER_VARS), min_size=1, max_size=3, unique=True)
    vs = sorted(parameter_names().index(n) for n in draw(names))
    exps = st.tuples(*[st.integers(0, 3) for _ in vs])
    monos = draw(st.lists(exps, min_size=1, max_size=8, unique=True))
    c = st.integers(-60, 60).filter(bool)
    return vs, {tuple((v, e) for v, e in zip(vs, es) if e): draw(c) for es in monos}


def _monomial(exps):
    return tuple(sorted((parameter_names().index(n), e) for n, e in exps.items()))


_monomials = st.dictionaries(st.sampled_from(_HELPER_VARS), st.integers(1, 3))


@settings(max_examples=150, deadline=None)
@given(_int_polys(), st.data())
def test_univariate_helpers_match_their_references(vp, data):
    vs, p = vp
    v = data.draw(st.sampled_from(vs))
    # an xi past twice the largest coefficient makes each one a balanced digit
    top = max(map(abs, p.values()))
    wide = data.draw(st.integers(2 * top + 1, 4 * top))
    for xi in (data.draw(st.integers(3, 9)), wide):
        image = _int_eval(p, v, xi)
        assert image == _int_eval_ref(p, v, xi)
        assert _int_digits(image, v, xi) == _int_digits_ref(image, v, xi)
    assert _int_digits(_int_eval(p, v, wide), v, wide) == p
    # the reference flips the sign of v^2 as well, but an algebraic
    # variable never reaches a power past 1 in a stored polynomial
    q = {m: c for m, c in p.items() if dict(m).get(v, 0) <= 1}
    assert _conjugate_poly(q, v) == _conjugate_poly_ref(q, v)


@settings(max_examples=150, deadline=None)
@given(_monomials, _monomials)
def test_mono_mul_matches_its_reference(e1, e2):
    # s and I carry square rules, s^2 -> a/2 and I^2 -> -1
    m1, m2 = _monomial(e1), _monomial(e2)
    got, want = _mono_mul(m1, m2), _mono_mul_ref(m1, m2)
    assert [(m, type(c), c) for m, c in sorted(got.items())] == [
        (m, type(c), c) for m, c in sorted(want.items())
    ]


# ---------------------------------------------------------------------------
# the interned unit denominator and ONE


@st.composite
def _scalar_chains(draw):
    """Scalars built by a random chain of every way one can be made."""
    atoms = st.one_of(
        small_frac.map(Scalar.from_fraction),
        st.sampled_from(["c", "a", "s", "I"]).map(Scalar.param),
        st.sampled_from(
            ["1", "3/4", "c/(a + 1)", "(c^2 - 1)/(c - 1)", "2*a/(4*a)", "s*s", "1/I"]
        ).map(parse_scalar),
    )
    out = [draw(atoms), draw(atoms)]
    for _ in range(draw(st.integers(1, 5))):
        x, y = draw(st.sampled_from(out)), draw(st.sampled_from(out))
        op = draw(
            st.sampled_from(["+", "-", "*", "/", "**", "subs", "decompose", "atom"])
        )
        try:
            if op == "+":
                out.append(x + y)
            elif op == "-":
                out.append(x - y)
            elif op == "*":
                out.append(x * y)
            elif op == "/":
                out.append(x / y)
            elif op == "**":
                out.append(x ** draw(st.integers(-2, 3)))
            elif op == "subs":
                name = draw(st.sampled_from(["c", "a"]))
                value = draw(st.one_of(small_frac, st.just(y)))
                out.append(x.substitute({name: value}))
            elif op == "decompose":
                out.extend(x.decompose("s").values())
            else:
                out.append(draw(atoms))
        except ZeroDivisionError:
            pass
    return out


@settings(max_examples=60, deadline=None)
@given(_scalar_chains())
def test_printed_scalars_parse_back(values):
    for x in values:
        assert S(str(x)) == x, x


@settings(max_examples=60, deadline=None)
@given(_scalar_chains())
def test_unit_denominator_is_interned(values):
    # a missed interning site would silently fall back to the slow paths
    assert Scalar.from_int(1) is ONE
    for x in values:
        assert (x._den is _ONE_ITEMS) == (x._den == _ONE_ITEMS)
        assert x * ONE is x
        assert ONE * x is x


# ---------------------------------------------------------------------------
# unit-denominator arithmetic on int and Fraction coefficients


def _unit_operands(rng, count):
    """Unit-denominator Scalars built by the normalizing constructor alone.

    Constants are ints inside and past the interned range and non-integer
    rationals; polynomials are in c, a and k, or in a and the square-ruled
    s and I.
    """
    index = {n: i for i, n in enumerate(parameter_names())}

    def coeff():
        kind = rng.randrange(3)
        if kind == 0:
            return Fraction(rng.randint(-_SMALL_INT, _SMALL_INT))
        if kind == 1:
            return Fraction(rng.choice((-1, 1)) * rng.randint(_SMALL_INT - 2, 10**6))
        return Fraction(rng.randint(-9, 9), rng.randint(2, 7))

    def poly(names, top):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            used = rng.sample(names, rng.randint(0, len(names)))
            mono = tuple(sorted((index[n], rng.randint(1, top)) for n in used))
            terms[mono] = coeff()
        return Scalar(terms)

    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(Scalar({(): coeff()}))
        elif i % 3 == 1:
            out.append(poly(["c", "a", "k"], 3))
        else:
            out.append(poly(["a", "s", "I"], 1))
    return out


def _plain(terms):
    """The normalizing constructor on (monomial, Fraction) pairs summed plainly."""
    num: dict = {}
    for m, c in terms:
        num[m] = num.get(m, 0) + c
    return Scalar(num)


def _form(v):
    return repr((v._num, v._den))


def test_unit_denominator_arithmetic_matches_plain_fractions():
    rng = random.Random(20)
    pool = _unit_operands(rng, 90)
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        if rng.random() < 0.1:
            y = -x
        f = rng.choice((-1, 3, -_SMALL_INT - 5))
        want_sum = _plain(x._num + y._num)
        want_product = _plain(
            (m, c1 * c2 * c)
            for m1, c1 in x._num
            for m2, c2 in y._num
            for m, c in _mono_mul(m1, m2).items()
        )
        acc = dict(x._num)
        _poly_acc(acc, y._num, f)
        assert all(is_canonical_coeff(c) and c for c in acc.values())
        want_acc = _plain(x._num + tuple((m, c * f) for m, c in y._num))
        assert _form(Scalar(acc)) == _form(want_acc), (x, y, f)
        # a zero operand returns the other one as it is
        constants = x and y and not x.parameters() and not y.parameters()
        for got, want in ((x + y, want_sum), (x * y, want_product)):
            assert _form(got) == _form(want), (x, y)
            assert got._den is _ONE_ITEMS
            assert_canonical(got)
            q = got.to_fraction() if constants else None
            if q is not None and q.denominator == 1 and abs(q) <= _SMALL_INT:
                # a small int result of constants is the shared one
                assert got is Scalar.from_int(q.numerator), (x, y)
    # every interned int and the first ones past either end, from nonzero
    # operands: a sum of constants and a scaling of a constant
    big, three = Scalar.from_fraction(1000), Scalar.from_fraction(3)
    for n in range(-_SMALL_INT - 2, _SMALL_INT + 3):
        total = Scalar.from_fraction(n - 1000) + big
        for got in (total, Scalar.from_fraction(Fraction(n, 3)) * three):
            assert_canonical(got)
            assert got.to_fraction() == n and type(got.to_fraction()) is Fraction
            assert (got is Scalar.from_int(n)) == (abs(n) <= _SMALL_INT), n


def _check_vec_sum(terms):
    """vec_sum(terms) against one vec_acc per term, form for form."""
    want: dict = {}
    for f, c, vec in terms:
        vec_acc(want, vec, c * Scalar.from_int(f))
    got = vec_sum(iter(terms))
    assert sorted(got) == sorted(want)
    for k, v in got.items():
        assert v._num, (k, terms)
        assert_canonical(v)
        assert _form(v) == _form(want[k]), (k, terms)
        if v.is_polynomial() and not v.parameters():
            q = v.to_fraction()
            if q.denominator == 1 and abs(q) <= _SMALL_INT:
                assert v is Scalar.from_int(q.numerator), (k, v)
    return got


def test_raw_vector_sum_matches_vec_acc():
    # vec_sum adds the coefficients as ints over one common denominator and
    # builds each key's Scalar once; one vec_acc per term must give the
    # same canonical forms
    rng = random.Random(12)
    a = Scalar.param("a")
    pool = _unit_operands(rng, 60) + [ONE / (a + 1), (a - 1) / (a + 1)]
    scales = (0, -1, 1, 2, 3, _SMALL_INT + 1, -_SMALL_INT - 5)
    small = [Scalar.from_int(n) for n in (-2, -1, 2, 3)]
    for _ in range(200):
        terms = []
        for _ in range(rng.randint(1, 6)):
            vec = {k: rng.choice(pool) for k in rng.sample(range(6), rng.randint(1, 4))}
            terms.append((rng.choice(scales), rng.choice(pool), vec))
            if rng.random() < 0.3:
                # a term that cancels one before it
                f, c, vec = rng.choice(terms)
                terms.append((-f, c, vec))
        # small constants whose sums include 0, 1 and other interned ints
        terms.append((1, rng.choice(small), {6: rng.choice(small)}))
        terms.append((rng.choice((-1, 1)), rng.choice(small), {6: ONE}))
        _check_vec_sum(terms)
    one = vec_sum([(3, ONE, {0: ONE}), (-2, ONE, {0: ONE}), (1, ONE, {1: ONE})])
    assert one[0] is ONE and one[1] is ONE
    assert vec_sum([(2, ONE, {0: ONE}), (-1, Scalar.from_int(2), {0: ONE})]) == {}
    with pytest.raises(TypeError):
        vec_sum([(-1.0, ONE, {0: ONE})])
    c, s = Scalar.param("c"), Scalar.param("s")
    # denominators that first come once keys hold sums: 12, then 5 and 7
    # rescale the stored ints, in a constant, a polynomial and a vector
    _check_vec_sum([
        (3, ONE, {0: c + 2, 1: S("5"), 2: c * c}),
        (1, c / 12, {0: c, 1: ONE, 2: c - 1}),
        (-2, c + 1, {0: c / 5 + 1, 2: ONE}),
        (1, S("1/7"), {1: c, 2: c / 5, 3: S("2")}),
        (5, c * c / 3 - 1, {0: c / 12, 3: c}),
    ])
    # the square rule s*s = a/2, alone and beside other denominators
    _check_vec_sum([
        (1, s, {0: s, 1: s + a}),
        (3, s / 3, {0: s * a - 1, 1: s, 2: s * s * a}),
        (-1, s * a / 5 + 1, {1: s / 7, 2: a / 2}),
    ])
    # sums that cancel to integral coefficients come out as ints, the
    # interned one for a small constant, and a zero sum drops its key
    got = _check_vec_sum([
        (1, ONE, {0: S("1/2"), 1: S("5/4"), 2: S("c/3 + 1/2")}),
        (1, ONE, {0: S("1/2"), 1: S("3/4")}),
        (2, S("1/3"), {2: S("c + 3/4"), 3: c / 12}),
        (1, c / 12, {3: S("-2")}),
        (-1, S("1/2"), {4: ONE}),
        (1, ONE, {4: S("1/2")}),
    ])
    assert got[0] is ONE and got[1] is Scalar.from_int(2)
    assert got[2]._num == (((), 1), (((0, 1),), 1))
    assert got[3]._num == ((((0, 1),), Fraction(-1, 9)),) and 4 not in got


def test_vec_sum_keeps_a_single_touch():
    # a key that one term touches with f * c = 1 keeps its stored Scalar
    v = {0: S("c/12 + 1"), 1: S("3"), 2: S("c^2 - 5/7")}
    got = vec_sum([(1, ONE, v)])
    assert got == v and all(got[k] is v[k] for k in v)
    for f, c in ((-1, Scalar.from_int(-1)), (2, S("1/2"))):
        got = vec_sum([(f, c, v), (1, ONE, {3: S("c")})])
        assert all(got[k] is v[k] for k in v)
    # a second touch, or another scale, builds the key anew
    got = vec_sum([(1, ONE, v), (1, S("c/12"), {0: ONE})])
    assert got[0] == S("c/6 + 1") and got[1] is v[1]
    assert vec_sum([(3, ONE, v)])[1] == S("9")


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


def _fraction_form(v):
    """repr of (numerator, denominator), each coefficient shown as a Fraction."""
    return repr(tuple(tuple((m, Fraction(c)) for m, c in p) for p in (v._num, v._den)))


@pytest.mark.parametrize("name", sorted(_PINNED_FORMS))
def test_canonical_form_pinned(name):
    # exact forms, whatever engines were built earlier in the process
    v = _pinned_values()[name]
    assert_canonical(v)
    assert _fraction_form(v) == _PINNED_FORMS[name]


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


def _normalize_by_integer_split(num, den):
    """The general path of `_normalize` for a constant denominator.

    Numerator and denominator split into content times integer part, and
    the contents and the denominator's sign scale back; a constant shares
    no factor, so the gcd step is the identity.
    """
    qn, num = _int_poly(num)
    qd, den = _int_poly(den)
    lc = den[()]
    return _q_poly(num, qn / (qd * lc)), _q_poly(den, Fraction(1, lc))


def _typed(poly):
    return [(m, type(c), c) for m, c in poly.items()]


@settings(max_examples=80, deadline=None)
@given(
    _poly_in(("c", "a")),
    st.booleans(),
    st.one_of(st.integers(-9, 9), nonzero_frac).filter(bool),
)
def test_constant_denominator_fast_path_matches_the_integer_split(num, wide, d):
    # the fast path scales by 1/d; it must give the same canonical
    # coefficients, ints where integral, in the same order
    num = {m: Fraction(c) if wide else c for m, c in num._num}
    got = _normalize(dict(num), {(): d})
    want = _normalize_by_integer_split(num, {(): d})
    assert [_typed(p) for p in got] == [_typed(p) for p in want]
    assert got[1] == {(): 1}


def test_denominator_made_constant_by_conjugation_is_unit():
    # I * -I = 1, so 1/(2I) clears to a constant denominator
    value = ONE / (2 * Scalar.param("I"))
    assert value == -Scalar.param("I") / 2
    assert value._den is _ONE_ITEMS
    assert_canonical(value)


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
# canonical forms of seeded random expressions, pinned by one digest

# (numerator, denominator) variables: one variable, split, multivariate
_DIGEST_CASES = (
    (("a",), ("a",)),
    (("c",), ("c",)),
    (("c", "a", "k"), ("a", "k")),
    (("c", "a"), ("a", "k")),
    (("c", "a", "k"), ("c", "a", "k")),
)


def _digest_values(count, seed):
    """Seeded fractions over every kind of denominator, s or I on top.

    Each is built with a common factor to cancel, then summed, scaled,
    negated or multiplied once more, and split by its powers of I.
    """
    rng = random.Random(seed)
    par = {n: Scalar.param(n) for n in ("c", "a", "k", "s", "I")}

    def rat(nonzero=False):
        num = rng.choice([-3, -2, -1, 1, 2, 3]) if nonzero else rng.randint(-3, 3)
        return Scalar.from_fraction(Fraction(num, rng.randint(1, 3)))

    def poly(names, top=2):
        out = rat()
        for n in names:
            out = out + rat(True) * par[n] ** rng.randint(1, top)
        if len(names) > 1:
            u, v = rng.sample(names, 2)
            out = out + rat() * par[u] * par[v]
        return out

    values = []
    for idx in range(count):
        num_vars, den_vars = _DIGEST_CASES[idx % len(_DIGEST_CASES)]
        num = poly(num_vars)
        if rng.random() < 0.5:
            num = num + rat(True) * par[rng.choice("sI")]
        shared = sorted(set(num_vars) & set(den_vars))
        common = poly(rng.sample(shared, rng.randint(1, min(2, len(shared)))), 1)
        if rng.random() < 0.25:
            common = common + rat(True) * par[rng.choice("sI")]
        if not common:
            common = ONE
        v = (num * common) / (poly(den_vars) * common)
        op = rng.randrange(5)
        if op == 0:
            v = v + v * rat()
        elif op == 1:
            v = rat() - v
        elif op == 2:
            v = rat(True) * v * poly(num_vars)
        elif op == 3:
            v = v + poly(den_vars) / poly(den_vars[:1])
        else:
            v = -v
        values.append(v)
        values.extend(v.decompose("I").values())
    return values


@pytest.mark.parametrize("tries", [6, 0])
def test_seeded_canonical_form_digest(monkeypatch, tries):
    # with no evaluation point every gcd takes the PRS, and the forms agree
    monkeypatch.setattr(scalar_module, "_HEU_TRIES", tries)
    _reduced.cache_clear()
    h = hashlib.sha256()
    for v in _digest_values(200, seed=8):
        assert_canonical(v)
        h.update(_fraction_form(v).encode())
    assert h.hexdigest()[:16] == "14cbd0209a5b3215"
