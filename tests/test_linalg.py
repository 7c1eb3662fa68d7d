"""Checks for exact sparse linear algebra and contact vector fields."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from vazhu.scalar import Scalar, ZERO, ONE
from vazhu.linalg import (
    SuperMatrix,
    GrassmannElement,
    ContactDerivation,
    solve_membership,
    verify_membership,
    kernel,
    contact_derivation,
    contact_bracket,
    _clean,
    key_acc,
    vec_acc,
)

C = Scalar.param("c")


def gmono(t_exp, idx=(), coeff=1):
    return GrassmannElement.monomial(t_exp, idx, coeff)


def dfield(idx, n=4):
    """Contact field of t*theta_{i1}...theta_{im}."""
    return contact_derivation(gmono(1, idx), n)


# ---------------------------------------------------------------------------
# contact fields: explicit generator images


def test_contact_field_images_low_cases():
    n = 4
    d0 = dfield((), n)
    assert d0.image_t == gmono(1, coeff=2)
    assert all(d0.image_theta[j].is_zero() for j in range(1, 5))

    d1 = dfield((1,), n)
    assert d1.image_t == gmono(1, (1,))
    assert d1.image_theta[1] == gmono(0, (), -1)
    assert d1.image_theta[2].is_zero()

    d12 = dfield((1, 2), n)
    assert d12.image_t.is_zero()
    assert d12.image_theta[1] == gmono(0, (2,))
    assert d12.image_theta[2] == gmono(0, (1,), -1)
    assert d12.image_theta[3].is_zero()

    d123 = dfield((1, 2, 3), n)
    assert d123.image_t == gmono(1, (1, 2, 3), -1)
    assert d123.image_theta[1] == gmono(0, (2, 3), -1)
    assert d123.image_theta[2] == gmono(0, (1, 3))
    assert d123.image_theta[3] == gmono(0, (1, 2), -1)
    assert d123.image_theta[4].is_zero()


def _expected_bracket(I, J):
    """Bracket of the fields for t*theta_I, t*theta_J as a contact hamiltonian."""
    out = GrassmannElement()
    if not I or not J:
        return out
    if len(I) > len(J):
        inner = _expected_bracket(J, I)
        sign = -1 if (len(I) % 2) and (len(J) % 2) else 1
        return inner * Scalar.from_int(-sign)
    if len(I) == 1:
        (i,) = I
        if len(J) == 1:
            (p,) = J
            if i == p:
                out = out + gmono(1, (), -1)
        elif len(J) == 2:
            p, q = J
            if i == p:
                out = out + gmono(1, (q,), -1)
            if i == q:
                out = out + gmono(1, (p,))
        else:
            p, q, r = J
            if i == p:
                out = out + gmono(1, (q, r), -1)
            if i == q:
                out = out + gmono(1, (p, r))
            if i == r:
                out = out + gmono(1, (p, q), -1)
    elif len(I) == 2:
        i, j = I
        if len(J) == 2:
            p, q = J
            for a, b, s in ((i, p, 1), (i, q, -1), (j, p, -1), (j, q, 1)):
                if a == b:
                    rest_i = j if a == i else i
                    rest_j = q if b == p else p
                    out = out + gmono(1, (rest_i, rest_j), s)
        else:
            p, q, r = J
            for a, s in ((i, 1), (j, -1)):
                other = j if a == i else i
                for b, s2 in ((p, 1), (q, -1), (r, 1)):
                    if a == b:
                        rest = tuple(x for x in (p, q, r) if x != b)
                        out = out + gmono(1, (other,) + rest, s * s2)
    return out


def test_contact_bracket_table():
    n = 4
    singles = [(i,) for i in range(1, 5)]
    pairs = list(combinations(range(1, 5), 2))
    triples = list(combinations(range(1, 5), 3))
    basis = [()] + singles + pairs + triples
    fields = {I: dfield(I, n) for I in basis}
    for I in basis:
        for J in basis:
            want = _expected_bracket(I, J)
            # the bracket on generating functions, as the contact_R builds use it
            assert contact_bracket(gmono(1, I), gmono(1, J)) == want, (I, J)
            got = fields[I].bracket(fields[J])
            if want.is_zero():
                assert got.is_zero(), (I, J)
            else:
                assert got == contact_derivation(want, n), (I, J)


def test_bracket_matches_hamiltonian_bracket():
    n = 3
    samples = [
        gmono(1, (1,)),
        gmono(2, (1, 2)) + gmono(0, (2, 3), Fraction(1, 2)),
        gmono(-1, (3,)) + gmono(1, (2,), -2),
        gmono(0, ()) + gmono(-2, (1, 2), 3),
        gmono(1, (1, 2, 3)),
    ]
    for f in samples:
        for g in samples:
            direct = contact_derivation(f, n).bracket(contact_derivation(g, n))
            via_h = contact_bracket(f, g)
            if via_h.is_zero():
                assert direct.is_zero()
            else:
                assert direct == contact_derivation(via_h, n)


def test_witt_fields():
    # ell_m: t -> -t^(m+1), theta_j -> -(m/2) t^m theta_j, and
    # ell_m = -(1/2) D_{t^(m+1)}; brackets close as [l_m,l_n]=(m-n)l_{m+n}.
    n = 2

    def ell(m):
        img_t = gmono(m + 1, (), -1)
        img_th = {
            j: gmono(m, (j,), Fraction(-m, 2)) for j in range(1, n + 1)
        }
        return ContactDerivation(n, 0, img_t, img_th)

    for m in range(-2, 3):
        half = Scalar.from_fraction(Fraction(-1, 2))
        assert ell(m) == contact_derivation(gmono(m + 1), n).scale(half)
    for m in range(-2, 3):
        for k in range(-2, 3):
            got = ell(m).bracket(ell(k))
            want = ell(m + k).scale(m - k)
            if m == k:
                assert got.is_zero()
            else:
                assert got == want


_APPLY_FIELDS = [
    contact_derivation(f, 3)
    for f in (
        gmono(1),
        gmono(1, (1,)),
        gmono(1, (2, 3)),
        gmono(1, (1, 2, 3)),
        gmono(-1, (1, 3), 2) + gmono(2, (), Fraction(1, 3)),
        gmono(0, (2,)) + gmono(3, (1, 2, 3), -1),
    )
]


@given(
    st.sampled_from(_APPLY_FIELDS),
    st.integers(min_value=0, max_value=1),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_contact_field_is_superderivation(field, pf, data):
    # D(fg) = D(f) g + (-1)^{|D||f|} f D(g), D fixed by its generator images
    f = data.draw(homogeneous_elements(parity=pf))
    g = data.draw(grassmann_elements())
    sign = Scalar.from_int(-1 if field.parity and pf else 1)
    want = field.apply(f) * g + (f * field.apply(g)) * sign
    assert field.apply(f * g) == want
    assert field.apply(gmono(1)) == field.image_t
    for j in (1, 2, 3):
        assert field.apply(gmono(0, (j,))) == field.image_theta[j]


# ---------------------------------------------------------------------------
# Grassmann algebra signs


def grassmann_elements(max_idx=3, homogeneous=False):
    subsets = []
    for r in range(max_idx + 1):
        subsets.extend(combinations(range(1, max_idx + 1), r))
    if homogeneous:
        pool = [s for s in subsets if len(s) % 2 == 0]
    else:
        pool = subsets
    term = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from(pool),
        st.integers(min_value=-3, max_value=3),
    )
    return st.lists(term, max_size=4).map(
        lambda terms: sum(
            (gmono(t, s, c) for t, s, c in terms), GrassmannElement()
        )
    )


def homogeneous_elements(max_idx=3, parity=0):
    subsets = [
        s
        for r in range(max_idx + 1)
        for s in combinations(range(1, max_idx + 1), r)
        if len(s) % 2 == parity
    ]
    term = st.tuples(
        st.integers(min_value=-2, max_value=2),
        st.sampled_from(subsets),
        st.integers(min_value=-3, max_value=3),
    )
    return st.lists(term, max_size=3).map(
        lambda terms: sum(
            (gmono(t, s, c) for t, s, c in terms), GrassmannElement()
        )
    )


@given(grassmann_elements(), grassmann_elements(), grassmann_elements())
@settings(max_examples=40, deadline=None)
def test_grassmann_associative(f, g, h):
    assert (f * g) * h == f * (g * h)


@given(
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=1),
    st.data(),
)
@settings(max_examples=40, deadline=None)
def test_grassmann_supercommutative(p1, p2, data):
    f = data.draw(homogeneous_elements(parity=p1))
    g = data.draw(homogeneous_elements(parity=p2))
    sign = Scalar.from_int(-1 if p1 and p2 else 1)
    assert f * g == (g * f) * sign


@given(st.integers(min_value=0, max_value=1), st.data())
@settings(max_examples=40, deadline=None)
def test_theta_derivative_leibniz(p1, data):
    f = data.draw(homogeneous_elements(parity=p1))
    g = data.draw(grassmann_elements())
    for i in (1, 2, 3):
        left = (f * g).theta_derivative(i)
        sign = Scalar.from_int(-1 if p1 else 1)
        right = f.theta_derivative(i) * g + (f * g.theta_derivative(i)) * sign
        assert left == right


def test_grassmann_basics():
    th1 = gmono(0, (1,))
    assert (th1 * th1).is_zero()
    assert gmono(0, (1, 1)).is_zero()
    assert gmono(0, (2, 1)) == gmono(0, (1, 2), -1)
    f = gmono(2, (1, 3), Fraction(1, 2))
    assert f.t_derivative() == gmono(1, (1, 3))
    assert f.theta_derivative(3) == gmono(2, (1,), Fraction(-1, 2))
    assert f.theta_derivative(2).is_zero()
    assert f.parity() == 0
    assert gmono(0, (1,)).parity() == 1
    assert (gmono(0, (1,)) + gmono(0, (1, 2))).parity() is None


def test_grassmann_constructor_reads_keys_as_ordered_products():
    # a key is the product t^te theta_i1 ... theta_im in the order given
    assert GrassmannElement({(0, (2, 1)): 1}) == gmono(0, (1, 2), -1)
    assert GrassmannElement({(0, (1, 1)): 1}).is_zero()
    assert GrassmannElement({(1, (1, 2)): 1, (1, (2, 1)): 1}).is_zero()
    assert GrassmannElement({(0, (3, 1, 2)): 2, (0, (1, 2, 3)): -2}).is_zero()
    assert GrassmannElement({(2, (3, 1)): Fraction(1, 2)}).terms == {
        (2, (1, 3)): Scalar.from_fraction(Fraction(-1, 2))
    }


# ---------------------------------------------------------------------------
# the accumulate pair


_ACC_VALUES = st.builds(
    lambda p, q: Scalar.from_int(p) + Scalar.from_int(q) * C,
    st.integers(-2, 2),
    st.integers(-1, 1),
)
_ACC_VECS = st.dictionaries(st.integers(0, 4), _ACC_VALUES, max_size=5).map(_clean)


def _reference_sum(u: dict, v: dict, coeff) -> dict:
    total = {k: u.get(k, ZERO) + v.get(k, ZERO) * coeff for k in set(u) | set(v)}
    return {k: c for k, c in total.items() if not c.is_zero()}


@settings(max_examples=150, deadline=None)
@given(
    u=_ACC_VECS,
    v=_ACC_VECS,
    coeff=st.one_of(st.none(), st.just(ONE), _ACC_VALUES),
    cancel=st.booleans(),
)
def test_vec_acc_matches_reference_sum(u, v, coeff, cancel):
    if cancel:
        # v holds -u on u's keys, so those entries cancel
        v = {**v, **{k: -c for k, c in u.items()}}
        coeff = None
    v_before = dict(v)
    want = _reference_sum(u, v, ONE if coeff is None else coeff)
    out = dict(u)
    vec_acc(out, v, coeff)
    assert out == want
    assert all(not c.is_zero() for c in out.values())
    assert v == v_before
    # an empty out copies the entries of v, never the dict itself
    fresh: dict = {}
    vec_acc(fresh, v, coeff)
    fresh["new"] = ONE
    assert "new" not in v


@settings(max_examples=150, deadline=None)
@given(
    u=_ACC_VECS,
    adds=st.lists(
        st.tuples(st.integers(0, 4), st.one_of(st.just(ZERO), _ACC_VALUES)),
        max_size=12,
    ),
)
def test_key_acc_matches_reference_sum(u, adds):
    out = dict(u)
    want = dict(u)
    for key, coeff in adds:
        want = _reference_sum(want, {key: coeff}, ONE)
        key_acc(out, key, coeff)
        assert out == want
        assert all(not c.is_zero() for c in out.values())
    # a zero never lands on an absent key
    absent: dict = {}
    key_acc(absent, 0, ZERO)
    assert absent == {}


# ---------------------------------------------------------------------------
# membership and kernel


def _rand_vec(rng, dim, density=0.6):
    out = {}
    for k in range(dim):
        if rng.random() < density:
            out[k] = Scalar.from_fraction(
                Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            )
    return {k: v for k, v in out.items() if not v.is_zero()}


def test_membership_roundtrip_random():
    rng = random.Random(0)
    for _ in range(20):
        spanning = [_rand_vec(rng, 8) for _ in range(5)]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in spanning]
        target = {}
        for vec, co in zip(spanning, coeffs):
            for k, v in vec.items():
                target[k] = target.get(k, ZERO) + v * Scalar.from_fraction(co)
        target = {k: v for k, v in target.items() if not v.is_zero()}
        cert = solve_membership(target, spanning)
        assert cert is not None
        assert verify_membership(target, spanning, cert)


def test_membership_failure():
    spanning = [{0: ONE, 1: ONE}, {1: ONE}]
    assert solve_membership({7: ONE}, spanning) is None
    assert solve_membership({0: ONE, 7: ONE}, spanning) is None
    # zero target is always a member with the empty certificate
    cert = solve_membership({}, spanning)
    assert cert == {}
    # a certificate key that is no index into spanning fails: -1 once read
    # the last spanning vector, and 5 raised IndexError
    target, spanning = {"a": ONE}, [{"a": ONE}]
    assert verify_membership(target, spanning, {0: 1})
    for key in (-1, 5, 1, True, "0", 0.0):
        assert verify_membership(target, spanning, {key: 1}) is False, key
    with pytest.raises(TypeError):
        verify_membership(target, spanning, {0: 1.0})


def test_membership_symbolic():
    v0 = {0: ONE, 1: C}
    v1 = {1: ONE}
    target = {0: C, 1: C * C - C}
    cert = solve_membership(target, [v0, v1])
    assert cert is not None
    assert verify_membership(target, [v0, v1], cert)
    assert cert[0] == C
    assert cert[1] == -C


def test_kernel_small():
    cols = [{0: ONE}, {0: Scalar.from_int(2)}, {1: ONE}, {0: ONE, 1: ONE}]
    ker = kernel(cols)
    assert len(ker) == 2
    for combo in ker:
        total = {}
        for j, co in combo.items():
            for k, v in cols[j].items():
                total[k] = total.get(k, ZERO) + v * co
        assert all(v.is_zero() for v in total.values())


def test_kernel_rank_against_sympy():
    rng = random.Random(1)
    for _ in range(10):
        ncols = 6
        dim = 5
        cols = [_rand_vec(rng, dim) for _ in range(ncols)]
        ker = kernel(cols)
        mat = sympy.Matrix(
            [
                [
                    sympy.Rational(str(cols[j].get(i, ZERO))) if cols[j].get(i) else 0
                    for j in range(ncols)
                ]
                for i in range(dim)
            ]
        )
        assert len(ker) == ncols - mat.rank()
        for combo in ker:
            total = {}
            for j, co in combo.items():
                for k, v in cols[j].items():
                    total[k] = total.get(k, ZERO) + v * co
            assert all(v.is_zero() for v in total.values())


# ---------------------------------------------------------------------------
# super matrices


def _rand_homog(rng, m, n, parity):
    entries = {}
    for i in range(m + n):
        for j in range(m + n):
            block_parity = 0 if (i < m) == (j < m) else 1
            if block_parity == parity:
                entries[(i, j)] = rng.randint(-3, 3)
    return SuperMatrix(m, n, entries)


def test_supertrace_pinned():
    x = SuperMatrix(1, 1, {(0, 0): 2, (0, 1): 5, (1, 0): 7, (1, 1): 3})
    assert x.supertrace() == Scalar.from_int(-1)
    assert x.parity() is None
    assert SuperMatrix(1, 1, {(0, 1): 1}).parity() == 1
    assert SuperMatrix(1, 1, {(1, 1): 1}).parity() == 0


def test_super_matrix_constructor_cleans_and_checks_indices():
    assert SuperMatrix(1, 1, {(0, 0): 0}) == SuperMatrix(1, 1)
    assert SuperMatrix(1, 1, {(0, 0): 0, (1, 0): 2}).entries == {
        (1, 0): Scalar.from_int(2)
    }
    for key in ((2, 0), (0, 2), (-1, 0)):
        with pytest.raises(ValueError):
            SuperMatrix(1, 1, {key: 1})


def test_super_matrix_and_grassmann_read_scalar_text():
    assert SuperMatrix(1, 1, {(0, 1): "c/2"}).entries == {(0, 1): C / 2}
    assert gmono(1, (2, 1), "c - 1") == gmono(1, (1, 2), 1 - C)


def test_super_matrix_superdimension_mismatch_rejected():
    x, y = SuperMatrix(1, 1, {(0, 0): 1}), SuperMatrix(2, 1, {(0, 0): 1})
    for op in (lambda: x + y, lambda: x - y, lambda: x * y):
        with pytest.raises(ValueError, match="^superdimension mismatch$"):
            op()


def test_supercommutator_of_mixed_matrix_rejected():
    mixed = SuperMatrix(1, 1, {(0, 0): 1, (0, 1): 1})
    even = SuperMatrix(1, 1, {(1, 1): 1})
    for x, y in ((mixed, even), (even, mixed)):
        with pytest.raises(
            ValueError, match="^supercommutator needs homogeneous matrices$"
        ):
            x.supercommutator(y)


def test_contact_operations_on_inhomogeneous_element_rejected():
    mixed = gmono(1, (1,)) + gmono(1, (1, 2))
    with pytest.raises(ValueError, match="^contact_derivation needs homogeneous input$"):
        contact_derivation(mixed, 2)
    with pytest.raises(ValueError, match="^contact_bracket needs homogeneous input$"):
        contact_bracket(mixed, gmono(1))


def test_supercommutator_trace_vanishes():
    rng = random.Random(2)
    for p1 in (0, 1):
        for p2 in (0, 1):
            for _ in range(5):
                x = _rand_homog(rng, 2, 2, p1)
                y = _rand_homog(rng, 2, 2, p2)
                assert x.supercommutator(y).supertrace() == ZERO


def test_supertranspose_antihomomorphism():
    rng = random.Random(3)
    for p1 in (0, 1):
        for p2 in (0, 1):
            for _ in range(5):
                x = _rand_homog(rng, 2, 1, p1)
                y = _rand_homog(rng, 2, 1, p2)
                sign = Scalar.from_int(-1 if p1 and p2 else 1)
                assert (x * y).supertranspose() == sign * (
                    y.supertranspose() * x.supertranspose()
                )
    x = _rand_homog(rng, 2, 1, 1)
    four = x.supertranspose().supertranspose().supertranspose().supertranspose()
    assert four == x


def test_jacobi_supercommutator():
    rng = random.Random(4)
    for _ in range(8):
        p = [rng.randint(0, 1) for _ in range(3)]
        x, y, z = (_rand_homog(rng, 1, 2, pi) for pi in p)
        s12 = Scalar.from_int(-1 if p[0] and p[1] else 1)
        lhs = x.supercommutator(y.supercommutator(z))
        mid = (x.supercommutator(y)).supercommutator(z)
        rhs = y.supercommutator(x.supercommutator(z))
        assert lhs == mid + s12 * rhs
