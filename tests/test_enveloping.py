"""Engine-level checks: PBW dimensions, mode pins, axiom suite."""

import collections
import fractions
import hashlib
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vazhu.enveloping import (
    VertexAlgebra,
    axiom_suite,
    gbinom,
    _borcherds_lhs,
    _borcherds_rhs,
    _open_checks,
    _skew_holds,
)
from vazhu import enveloping
from vazhu.linalg import vec_acc, vec_sum
from vazhu.presentation import (
    GeneratorSpec,
    PresentationError,
    VaPresentation,
    _falling,
    builtin_ids,
    builtin_presentation,
)
from vazhu.scalar import ONE, Scalar, _reduced

C = Scalar.param("c")
HALF = Scalar.from_fraction(Fraction(1, 2))

_ENGINES: dict = {}


def engine(pres_id: str) -> VertexAlgebra:
    # engines are cached: memo tables are expensive to rebuild per test
    if pres_id not in _ENGINES:
        _ENGINES[pres_id] = VertexAlgebra(builtin_presentation(pres_id))
    return _ENGINES[pres_id]


def mono_state(eng, *factors):
    return {tuple(factors): ONE}


# -- independent dimension oracle ----------------------------------------------
#
# The graded dimension of a free super-polynomial algebra on modes
# a_(-m), m >= 1 of weight wt(a) + m - 1 is the truncated product of
# 1/(1 - q^e) over even modes and (1 + q^e) over odd modes.  Computed
# with doubled exponents so half-integer weights stay in int arithmetic.


def character_counts(weights, parities, bound) -> dict:
    bound2 = int(2 * Fraction(bound))
    series = [1] + [0] * bound2
    for wt, par in zip(weights, parities):
        m = 1
        while True:
            e = int(2 * (Fraction(wt) + m - 1))
            if e > bound2:
                break
            if par:
                prev = series[:]
                for i in range(bound2 - e + 1):
                    series[i + e] += prev[i]
            else:
                for i in range(e, bound2 + 1):
                    series[i] += series[i - e]
            m += 1
    return {Fraction(k, 2): v for k, v in enumerate(series) if v}


@pytest.mark.parametrize(
    "pres_id,bound",
    [
        ("virasoro", 8),
        ("free_fermion", 6),
        ("N1", 5),
        ("N2", 5),
        ("N3", 4),
        ("N4", 4),
        ("big4", 3),
    ],
)
def test_dimensions_match_character(pres_id, bound):
    eng = engine(pres_id)
    expected = character_counts(eng.weights, eng.parities, bound)
    assert eng.dimension_by_weight(bound) == expected


def test_frozen_small_dimension_rows():
    # hand-enumerated rows, independent of both the oracle and the engine
    assert engine("N1").dimension_by_weight(4) == {
        Fraction(0): 1,
        Fraction(3, 2): 1,
        Fraction(2): 1,
        Fraction(5, 2): 1,
        Fraction(3): 1,
        Fraction(7, 2): 2,
        Fraction(4): 3,
    }
    assert engine("virasoro").dimension_by_weight(6) == {
        Fraction(0): 1,
        Fraction(2): 1,
        Fraction(3): 1,
        Fraction(4): 2,
        Fraction(5): 2,
        Fraction(6): 4,
    }


def test_basis_is_sorted_and_starts_at_vacuum():
    eng = engine("N2")
    basis = eng.basis(3)
    assert basis[0] == ()
    wts = [eng.mono_weight(m) for m in basis]
    assert wts == sorted(wts)
    assert len(set(basis)) == len(basis)


@pytest.mark.parametrize("bound", [-1, Fraction(-1, 2)])
def test_basis_below_the_vacuum_weight_is_empty(bound):
    # the vacuum has weight 0, above a negative bound
    eng = engine("N2")
    assert eng.basis(bound) == []
    assert eng.dimension_by_weight(bound) == {}
    assert eng.basis(0) == [()]
    assert eng.dimension_by_weight(0) == {0: 1}


# -- single modes and pins ------------------------------------------------------


def test_modes_on_vacuum():
    eng = engine("N1")
    vac = eng.vacuum()
    assert eng.apply_mode(0, -1, vac) == eng.generator("L")
    assert eng.apply_mode(0, -2, vac) == mono_state(eng, (0, 2))
    for n in range(0, 4):
        assert eng.apply_mode(0, n, vac) == {}
        assert eng.apply_mode(1, n, vac) == {}


def test_apply_mode_refuses_an_index_that_is_no_generator():
    # a negative index once read a generator from the end of the list, a
    # bool acted as 0 or 1, and an index past the end raised IndexError
    eng = engine("N2")
    assert eng.names == ["L", "J", "Gp", "Gm"]
    vac = eng.vacuum()
    for i in (-1, True, 4):
        message = rf"generator index {i!r} is not an int in 0\.\.3 for the 4 "
        with pytest.raises(ValueError, match=message):
            eng.apply_mode(i, -1, vac)


def test_a_mode_index_that_is_no_int_is_refused():
    # a Fraction mode once built L(-3/2)|0>, a monomial of no weight
    eng = engine("virasoro")
    L = eng.generator("L")
    for n in (Fraction(1, 2), 0.5, True, Fraction(-2)):
        message = "^" + re.escape(f"mode index {n!r} is not an int") + "$"
        with pytest.raises(ValueError, match=message):
            eng.nth_product(L, n, L)
        with pytest.raises(ValueError, match=message):
            eng.apply_mode(0, n, L)
    # divided_derivative and translation reach the check through nth_product
    with pytest.raises(ValueError, match=r"^mode index Fraction\(-5, 2\) is not"):
        eng.divided_derivative(L, Fraction(3, 2))


def test_virasoro_mode_pins():
    eng = engine("virasoro")
    L = eng.generator("L")
    assert eng.nth_product(L, 0, L) == eng.translation(L)
    assert eng.nth_product(L, 0, L) == mono_state(eng, (0, 2))
    assert eng.nth_product(L, 1, L) == {((0, 1),): Scalar.from_int(2)}
    assert eng.nth_product(L, 2, L) == {}
    assert eng.nth_product(L, 3, L) == {(): C * HALF}
    assert eng.nth_product(L, 4, L) == {}


def test_n1_mode_pins():
    eng = engine("N1")
    G = eng.generator("G")
    L = eng.generator("L")
    assert eng.nth_product(G, 0, G) == {((0, 1),): Scalar.from_int(2)}
    assert eng.nth_product(G, 1, G) == {}
    assert eng.nth_product(G, 2, G) == {(): C * Scalar.from_fraction(Fraction(2, 3))}
    # G has weight 3/2: L_(1) reads it back scaled by 3/2
    assert eng.nth_product(L, 1, G) == {((1, 1),): Scalar.from_fraction(Fraction(3, 2))}


def test_free_fermion_mode_pin():
    eng = engine("free_fermion")
    psi = eng.generator("psi")
    assert eng.nth_product(psi, 0, psi) == eng.vacuum()
    assert eng.nth_product(psi, 1, psi) == {}


def test_odd_square_contraction():
    # psi(-1)psi(-1)|0> vanishes, psi(-2)psi(-1)|0> does not
    eng = engine("free_fermion")
    psi = eng.generator("psi")
    assert eng.nth_product(psi, -1, psi) == {}
    assert eng.nth_product(psi, -2, psi) == mono_state(eng, (0, 2), (0, 1))


@pytest.mark.parametrize("pres_id,bound", [("virasoro", 6), ("N1", 4), ("N2", 3)])
def test_conformal_zero_mode_is_translation(pres_id, bound):
    eng = engine(pres_id)
    L = eng.generator("L")
    for mono in eng.basis(bound):
        state = {mono: ONE}
        assert eng.nth_product(L, 0, state) == eng.translation(state)


@pytest.mark.parametrize("pres_id,bound", [("virasoro", 6), ("N1", 4), ("N3", 3)])
def test_conformal_first_mode_reads_weight(pres_id, bound):
    eng = engine(pres_id)
    L = eng.generator("L")
    for mono in eng.basis(bound):
        state = {mono: ONE}
        expected = {mono: Scalar.from_fraction(eng.mono_weight(mono))}
        if eng.mono_weight(mono) == 0:
            expected = {}
        assert eng.nth_product(L, 1, state) == expected


def test_translation_kills_vacuum_only():
    eng = engine("N2")
    assert eng.translation(eng.vacuum()) == {}
    for mono in eng.basis(3):
        if mono:
            assert eng.translation({mono: ONE}) != {}


def test_divided_derivative_matches_iterate():
    eng = engine("virasoro")
    L = eng.generator("L")
    d2 = eng.translation(eng.translation(L))
    assert eng.divided_derivative(L, 2) == {
        m: c * HALF for m, c in d2.items()
    }


def test_generalized_binomial_pins():
    assert gbinom(5, 2) == 10
    assert gbinom(-1, 3) == -1
    assert gbinom(-2, 2) == 3
    assert gbinom(3, 0) == 1
    assert gbinom(2, 5) == 0
    # binom(n, k) = falling(n, k) / k!, on both sides of the reflection
    for n in range(-20, 21):
        for k in range(13):
            assert gbinom(n, k) == _falling(n, k) // math.factorial(k), (n, k)
    with pytest.raises(ValueError, match="nonnegative"):
        gbinom(3, -1)


def test_trim_caches_preserves_results(monkeypatch):
    pres = builtin_presentation("N1")
    roomy = VertexAlgebra(pres)
    G = roomy.generator("G")
    before = roomy.nth_product(G, -1, G)
    assert roomy._memo_terms > 0
    assert roomy.trim_caches() is False  # under budget: no-op
    monkeypatch.setattr(enveloping, "_MEMO_TERM_BUDGET", 0)
    eng = VertexAlgebra(pres)
    assert eng.nth_product(G, -1, G) == before
    assert eng._memo_terms > 0
    assert eng.trim_caches() is True
    assert eng._memo_terms == 0
    # every memo is trimmed, so none can grow past the budget
    for name, value in vars(eng).items():
        if isinstance(value, dict) and name != "index":
            assert value == ({(): 0} if name == "_wt2_memo" else {}), name
    assert eng.nth_product(G, -1, G) == before


def test_monomials_past_the_factor_limit_are_refused():
    # 1,200 factors used to end in a bare RecursionError inside the mode
    # action's recursion
    eng = VertexAlgebra(builtin_presentation("virasoro"))
    limit = enveloping._FACTOR_LIMIT
    L, long = eng.generator("L"), {((0, 2),) * 1200: ONE}
    message = rf"monomial of 1200 factors is longer than the limit of {limit}"
    for call in (
        lambda: eng.apply_mode(0, 1, long),
        lambda: eng.nth_product(long, 0, L),
        lambda: eng.nth_product(L, 1, long),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    # a monomial at the limit is still taken
    at = {((0, 1),) * limit: ONE}
    assert eng.apply_mode(0, -1, at) == {((0, 1),) * (limit + 1): ONE}
    assert eng.nth_product(eng.vacuum(), -1, at) == at
    # L_(1) recurses through every factor to read the weight, 2 limit
    assert eng.apply_mode(0, 1, at) == {
        ((0, 1),) * limit: Scalar.from_int(2 * limit)
    }


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_factor_limit_fits_its_recursion_budget():
    # the limit promises at most about three frames per factor, for a mode
    # and for a long left monomial alike: a change that adds frames per
    # factor fails here, not as a caller's RecursionError; a fresh engine
    # has no memo to shorten the recursion
    pres = builtin_presentation("virasoro")
    eng, fresh = VertexAlgebra(pres), VertexAlgebra(pres)
    limit = enveloping._FACTOR_LIMIT
    at = {((0, 1),) * limit: ONE}
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 3 * limit + 25)
    try:
        weighed = eng.apply_mode(0, 1, at)
        kept = eng.nth_product(eng.vacuum(), -1, at)
        derived = fresh.divided_derivative(at, 1)
    finally:
        sys.setrecursionlimit(old)
    assert weighed == {((0, 1),) * limit: Scalar.from_int(2 * limit)}
    assert kept == at
    # T is L_(0) on the Virasoro algebra
    assert derived == eng.apply_mode(0, 0, at)
    assert derived[((0, 2),) + ((0, 1),) * (limit - 1)] == limit


# -- axiom suite ------------------------------------------------------------------


@pytest.mark.parametrize("pres_id", ["virasoro", "free_fermion", "N1", "N2"])
def test_axiom_suite_passes_small(pres_id):
    rep = axiom_suite(engine(pres_id), weight_bound=4, triples=3, seed=1)
    assert rep.passed, rep.failures[:3]
    assert rep.checks > 0
    assert "PASS" in rep.summary_line()
    assert f"({rep.by_weight} zero by weight)" in rep.summary_line()
    assert set(rep.phase_s) == {"generators", "sampled"}
    assert min(rep.phase_s.values()) >= 0


def test_axiom_suite_empty_sample_pool():
    # no N=1 basis monomial has weight <= 1, so there is nothing to sample
    with pytest.raises(ValueError, match="weight_bound=1"):
        axiom_suite(engine("N1"), weight_bound=1, triples=1)
    rep = axiom_suite(engine("N1"), weight_bound=1, triples=0)
    assert rep.passed and rep.checks == 156


def test_generator_only_suite_builds_no_sample_pool(monkeypatch):
    # with triples=0 nothing is drawn, so the basis is never enumerated
    eng = VertexAlgebra(builtin_presentation("N1"))

    def basis(max_weight):
        raise AssertionError(f"basis({max_weight}) enumerated")

    monkeypatch.setattr(eng, "basis", basis)
    rep = axiom_suite(eng, weight_bound=2, triples=0)
    assert rep.passed and rep.checks == 156


def test_axiom_suite_passes_n3():
    rep = axiom_suite(engine("N3"), weight_bound=3, triples=2, seed=1)
    assert rep.passed, rep.failures[:3]


def test_axiom_suite_passes_n4():
    rep = axiom_suite(engine("N4"), weight_bound=3, triples=2, seed=1)
    assert rep.passed, rep.failures[:3]
    assert (rep.checks, rep.by_weight) == (8670, 5243)


def test_axiom_suite_passes_big4_generators():
    rep = axiom_suite(engine("big4"), weight_bound=2, triples=0, seed=1)
    assert rep.passed, rep.failures[:3]
    # 52,626 of the 65,536 commutator checks vanish by weight
    assert (rep.checks, rep.by_weight) == (67328, 52626)


def test_corrupted_tables_fail_with_witness():
    # generator phase alone pins each corruption deterministically
    rep1 = axiom_suite(
        VertexAlgebra(builtin_presentation("big4_kwmiss1")),
        weight_bound=2,
        triples=0,
    )
    assert not rep1.passed
    assert rep1.failures[0] == ("commutator", ("J0", "Kp", "Gpm", 1, 0))
    rep2 = axiom_suite(
        VertexAlgebra(builtin_presentation("big4_kwmiss2")),
        weight_bound=2,
        triples=0,
    )
    assert not rep2.passed
    assert rep2.failures[0] == ("commutator", ("L", "Gpp", "Gpm", 2, 0))
    assert rep1.by_weight == rep2.by_weight == 52626
    # the whole failure lists, not just their heads
    assert (len(rep1.failures), _digest(repr(rep1.failures))) == (
        159,
        "56b2566f710e15cf",
    )
    assert (len(rep2.failures), _digest(repr(rep2.failures))) == (
        151,
        "c6ba7e354c97c4b2",
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _n2_doubled_j_gp() -> VaPresentation:
    """N2 with [J_lam Gp] = 2 Gp, unvalidated: only the axiom checks see it."""
    base = builtin_presentation("N2")
    brackets = dict(base._table)
    brackets[("J", "Gp")] = {(0, 0, "Gp"): 2}
    return VaPresentation(
        "N2_J2Gp", base.generators, brackets, base.central_charge, "L"
    )


def test_corrupted_sampled_suite_pinned():
    # the sampled phase's failures, which the big4 pins (triples=0) never reach
    rep = axiom_suite(
        VertexAlgebra(_n2_doubled_j_gp()), weight_bound=3, triples=4, seed=1
    )
    kinds = [name for name, _ in rep.failures]
    assert rep.checks == 1196
    assert (kinds.count("commutator"), kinds.count("borcherds")) == (38, 8)
    assert kinds.count("skew") == 2
    assert (len(rep.failures), _digest(repr(rep.failures))) == (
        48,
        "a5b1817952e17412",
    )


def _self_charged_current(*extra) -> VaPresentation:
    """An even weight-1 J with [J_lam J] = J, after the generators extra.

    validate() refuses it ("diagonal skew fails for J"), but the engine
    only needs homogeneity, so the axiom suite is what sees the fault.
    """
    gens = [GeneratorSpec(n, 0, Fraction(1)) for n in (*extra, "J")]
    brackets = {("J", "J"): {(0, 0, "J"): 1}}
    if extra:
        # [J_lam B] = B, stored in declaration order as [B_lam J] = -B
        brackets[("B", "J")] = {(0, 0, "B"): -1}
    return VaPresentation("selfJ", gens, brackets)


def test_generator_phase_skew_failures_pinned():
    with pytest.raises(PresentationError, match="^diagonal skew fails for J$"):
        _self_charged_current().validate()
    rep = axiom_suite(
        VertexAlgebra(_self_charged_current()), weight_bound=1, triples=0
    )
    assert (rep.checks, rep.by_weight) == (23, 13)
    assert rep.failures == [
        ("skew", ("J", "J", -1)),
        ("skew", ("J", "J", 0)),
        ("commutator", ("J", "J", "J", 0, 0)),
    ]
    assert rep.summary_line() == (
        "[FAIL] axioms selfJ: 23 checks (13 zero by weight), 0 triples, "
        "weight bound 1; first failure skew at ('J', 'J', -1)"
    )
    # with B declared first the pairs run (B, J), (J, B), (J, J), and within
    # a pair the skew failures come before the commutator failures by z
    rep = axiom_suite(
        VertexAlgebra(_self_charged_current("B")), weight_bound=1, triples=0
    )
    assert (rep.checks, rep.by_weight) == (156, 104)
    assert rep.failures == [
        ("commutator", ("B", "J", "J", 0, 0)),
        ("commutator", ("J", "B", "J", 0, 0)),
        ("skew", ("J", "J", -1)),
        ("skew", ("J", "J", 0)),
        ("commutator", ("J", "J", "B", 0, 0)),
        ("commutator", ("J", "J", "J", 0, 0)),
    ]
    assert rep.summary_line().endswith(
        "; first failure commutator at ('B', 'J', 'J', 0, 0)"
    )


def test_virasoro_deep_suite_counts_pinned():
    # few of a sampled suite's checks vanish by weight
    rep = axiom_suite(engine("virasoro"), weight_bound=6, triples=20, seed=1)
    assert rep.passed, rep.failures[:3]
    assert (rep.checks, rep.by_weight) == (323, 3)


def test_engine_rejects_inhomogeneous_table():
    # N1 with [L_lam G] = d^2 G + ...: the engine's weight bounds and the
    # zero-mode rule would be unsound, so no such presentation is built
    base = builtin_presentation("N1")
    brackets = dict(base._table)
    brackets[("L", "G")] = {
        (n, 2 if (n, k) == (0, 1) else k, x): co
        for (n, k, x), co in base._table[("L", "G")].items()
    }
    with pytest.raises(PresentationError, match=r"weight mismatch in \[L, G\]"):
        VaPresentation("N1_d2G", base.generators, brackets, base.central_charge, "L")


@pytest.mark.parametrize("bound", [2.3, 2.0, "2", None, True])
def test_weight_bound_that_is_not_rational_refused(bound):
    # Fraction(2.3) would be the float's binary value, not 23/10, and
    # Fraction(True) would be 1
    eng = engine("N1")
    match = f"^weight bound is a {type(bound).__name__}, not an int or Fraction$"
    with pytest.raises(TypeError, match=match):
        eng.basis(bound)
    with pytest.raises(TypeError, match=match):
        axiom_suite(eng, weight_bound=bound, triples=0)


@pytest.mark.parametrize(
    "kwargs,error,message",
    [
        # None would seed from OS entropy: the report would vary per run
        ({"seed": None}, TypeError, "seed is a NoneType, not an int"),
        ({"seed": 1.5}, TypeError, "seed is a float, not an int"),
        ({"seed": "1"}, TypeError, "seed is a str, not an int"),
        ({"seed": True}, TypeError, "seed is a bool, not an int"),
        ({"triples": -3}, ValueError, "triples is -3, not a non-negative int"),
        ({"triples": True}, TypeError, "triples is a bool, not an int"),
        ({"triples": 1.5}, TypeError, "triples is a float, not an int"),
    ],
    ids=[
        "seed_None", "seed_float", "seed_str", "seed_bool",
        "triples_negative", "triples_bool", "triples_float",
    ],
)
def test_axiom_suite_refuses_a_bad_seed_or_triple_count(kwargs, error, message):
    args = dict({"weight_bound": 2, "triples": 0, "seed": 0}, **kwargs)
    with pytest.raises(error, match="^" + re.escape(message) + "$"):
        axiom_suite(engine("N1"), **args)


def _vanishes_by_weight(eng, ma, mb, mc, m: int, n: int, k: int) -> bool:
    """The grading's rule for one check, from the three weights afresh.

    Every term of the Borcherds identity at (m, n, k) has weight
    wt a + wt b + wt c - m - n - k - 2, and no state has negative weight.
    """
    wt = eng.mono_weight(ma) + eng.mono_weight(mb) + eng.mono_weight(mc)
    return wt - m - n - k - 2 < 0


@pytest.mark.parametrize(
    "pres_id",
    ["N1", "N2", "N3", "N4", "virasoro", "big4", "big4_kwmiss1", "N2_J2Gp"],
)
def test_weight_rule_is_sound(pres_id, monkeypatch):
    # every check the grading decides holds in full, and each term of its
    # Borcherds sums is {}; the generator phase of each builtin, and both
    # phases of a corrupted table's sampled suite
    if pres_id == "N2_J2Gp":
        eng = VertexAlgebra(_n2_doubled_j_gp())
        suite = dict(weight_bound=3, triples=4, seed=1)
    else:
        eng, suite = engine(pres_id), dict(weight_bound=2, triples=0)
    prod = eng.nth_product
    decided = []

    def spy(engine_, ma, mb, mc, mnks):
        left = _open_checks(engine_, ma, mb, mc, mnks)
        for m, n, k in mnks:
            if (m, n, k) in left:
                assert not _vanishes_by_weight(engine_, ma, mb, mc, m, n, k)
                continue
            decided.append((m, n, k))
            # the real sides, imported before the suite's are stubbed
            assert _holds(engine_, ma, mb, mc, m, n, k)
            a, b, c = {ma: ONE}, {mb: ONE}, {mc: ONE}
            wa2, wb2, wc2 = (engine_._mono_wt2(x) for x in (ma, mb, mc))
            terms = []
            for j in range(max(wb2 + wc2 - 2 * k, wa2 + wc2 - 2 * m) // 2):
                if gbinom(n, j):
                    terms.append((a, m + n - j, prod(b, k + j, c)))
                    terms.append((b, n + k - j, prod(a, m + j, c)))
            for j in range((wa2 + wb2 - 2 * n) // 2):
                if gbinom(m, j):
                    terms.append((prod(a, n + j, b), m + k - j, c))
            assert all(prod(x, i, y) == {} for x, i, y in terms if x and y)
        return left

    monkeypatch.setattr(enveloping, "_open_checks", spy)
    # the checks the grading leaves are the suite tests' business: both
    # phases compare two stubbed sides
    def stub(engine_, ma, mb, mc, m, n, k):
        return {}

    monkeypatch.setattr(enveloping, "_borcherds_lhs", stub)
    monkeypatch.setattr(enveloping, "_borcherds_rhs", stub)
    rep = axiom_suite(eng, **suite)
    assert rep.by_weight == len(decided) > 0


def _holds(eng, ma, mb, mc, m: int, n: int, k: int) -> bool:
    """The Borcherds identity for the monomials ma, mb, mc at (m, n, k)."""
    lhs = _borcherds_lhs(eng, ma, mb, mc, m, n, k)
    return lhs == _borcherds_rhs(eng, ma, mb, mc, m, n, k)


def _reference_suite(eng, weight_bound, triples: int, seed: int = 0):
    """(checks, by_weight, failures) of axiom_suite, every check in full.

    The suite's checks in its order, each counted by `_vanishes_by_weight`
    and run through both whole Borcherds sides, whatever the grading says.
    """
    rng = random.Random(seed)
    pool = [m for m in eng.basis(weight_bound) if m]
    gens = [((i, 1),) for i in range(len(eng.names))]
    w = enveloping._MODE_WINDOW
    window, modes = range(-w, w + 1), range(w + 1)
    out = [0, 0, []]

    def skew(names, a, b):
        for n in window:
            out[0] += 1
            if not _skew_holds(eng, a, b, n):
                out[2].append(("skew", (*names, n)))

    def run(kind, names, a, b, c, mnks):
        for m, n, k in mnks:
            out[0] += 1
            out[1] += _vanishes_by_weight(eng, a, b, c, m, n, k)
            if not _holds(eng, a, b, c, m, n, k):
                at = (m, k) if kind == "commutator" else (m, n, k)
                out[2].append((kind, (*names, *at)))

    for xi, x in enumerate(eng.names):
        for yi, y in enumerate(eng.names):
            skew((x, y), gens[xi], gens[yi])
            for zi, z in enumerate(eng.names):
                mnks = [(m, 0, k) for m in modes for k in modes]
                run("commutator", (x, y, z), gens[xi], gens[yi], gens[zi], mnks)
    for _ in range(triples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        desc = tuple(eng.format_mono(x) for x in (a, b, c))
        skew(desc[:2], a, b)
        pairs = [(0, 0), (1, -1)] + [
            (rng.randint(-w, w), rng.randint(-w, w)) for _ in range(2)
        ]
        run("commutator", desc, a, b, c, [(m, 0, k) for m, k in pairs])
        mnks = [(0, 0, -1), (-1, 1, 0)] + [
            tuple(rng.randint(-w, w) for _ in range(3)) for _ in range(2)
        ]
        run("borcherds", desc, a, b, c, mnks)
    return tuple(out)


@pytest.mark.parametrize(
    "pres_id",
    ["N1", "N2", "N3", "N4", "virasoro", "free_fermion", "free_boson_k",
     "four_fermions_k", "N2_J2Gp", "big4_kwmiss1"],
)
def test_axiom_suite_matches_every_check_in_full(pres_id):
    # deciding by weight per triple, stopping the sums at their last nonzero
    # binomial and building each generator commutator once for both orders
    # change no count and no failure, nor their order
    if pres_id == "N2_J2Gp":
        eng = VertexAlgebra(_n2_doubled_j_gp())
        suite = dict(weight_bound=3, triples=4, seed=1)
    else:
        eng, suite = engine(pres_id), dict(weight_bound=2, triples=0)
    rep = axiom_suite(eng, **suite)
    assert (rep.checks, rep.by_weight, rep.failures) == _reference_suite(
        eng, **suite
    )


def test_each_generator_commutator_is_built_once(monkeypatch):
    # one state per unordered (a, b, c, m, k) ~ (b, a, c, k, m), and one for
    # every check the grading leaves open, in either order
    eng = VertexAlgebra(builtin_presentation("N3"))
    built = []

    def spy(engine_, ma, mb, mc, m, n, k):
        # the generator phase builds left sides at n = 0 only
        assert n == 0
        built.append((ma, mb, mc, m, k))
        return _borcherds_lhs(engine_, ma, mb, mc, m, n, k)

    monkeypatch.setattr(enveloping, "_borcherds_lhs", spy)
    rep = axiom_suite(eng, weight_bound=2, triples=0)
    assert rep.passed and (rep.checks, rep.by_weight) == (8640, 5794)
    classes = {min(t, (t[1], t[0], t[2], t[4], t[3])) for t in built}
    assert len(classes) == len(built)
    gens = [((i, 1),) for i in range(len(eng.names))]
    modes = range(enveloping._MODE_WINDOW + 1)
    open_checks = {
        (a, b, c, m, k)
        for a in gens for b in gens for c in gens for m in modes for k in modes
        if not _vanishes_by_weight(eng, a, b, c, m, 0, k)
    }
    mirrors = {(b, a, c, k, m) for a, b, c, m, k in built}
    assert set(built) | mirrors == open_checks


def _supercommutator(eng, x: str, y: str, z: str, m: int, k: int) -> dict:
    """a_(m)(b_(k)c) - p(a, b) b_(k)(a_(m)c) through the public nth_product."""
    a, b, c = (eng.generator(n) for n in (x, y, z))
    out = eng.nth_product(a, m, eng.nth_product(b, k, c))
    flipped = eng.nth_product(b, k, eng.nth_product(a, m, c))
    vec_acc(out, flipped, Scalar.from_int(-eng.pres.pair_sign(x, y)))
    return out


@pytest.mark.parametrize("pres_id", ["N3", "big4"])
def test_left_side_at_n0_is_the_supercommutator(pres_id):
    # the generator phase's state is the left side at n = 0; it equals the
    # supercommutator it replaced on every N3 generator triple, and on every
    # open check of one odd big4 pair, in both orders
    eng = engine(pres_id)
    names = eng.names
    pairs = [(x, y) for x in names for y in names]
    if pres_id == "big4":
        pairs = [("Gpp", "Gmm"), ("Gmm", "Gpp")]
    modes = range(enveloping._MODE_WINDOW + 1)
    commutators = [(m, 0, k) for m in modes for k in modes]
    opened = 0
    for x, y in pairs:
        for z in names:
            a, b, c = (((eng.index[n], 1),) for n in (x, y, z))
            left = _open_checks(eng, a, b, c, commutators)
            opened += len(left)
            for m, _, k in commutators if pres_id == "N3" else left:
                state = _borcherds_lhs(eng, a, b, c, m, 0, k)
                assert state == _supercommutator(eng, x, y, z, m, k)
    assert opened > 0


def test_axiom_suite_is_independent_of_order():
    # fresh engines give the same reports after another table's suite and
    # after the Scalar result cache is cleared
    def reports():
        return [
            (rep.checks, rep.by_weight, rep.failures)
            for rep in (
                axiom_suite(
                    VertexAlgebra(builtin_presentation("big4_kwmiss2")),
                    weight_bound=2,
                    triples=0,
                ),
                axiom_suite(
                    VertexAlgebra(builtin_presentation("N2")),
                    weight_bound=3,
                    triples=3,
                    seed=1,
                ),
            )
        ]

    first = reports()
    axiom_suite(VertexAlgebra(builtin_presentation("N4")), weight_bound=2)
    assert reports() == first
    _reduced.cache_clear()
    assert reports() == first


# sha256 prefixes of format_state(nth_product(L(-1)^k|0>, n, L(-1)^k|0>)),
# row k = 1..5, column n = -1..3; the k = 5 row holds the deepest products
VIR_LADDER = [
    ["eb05122c36626ba7", "afb54656a8b3c48b", "63193e50f457d5a3",
     "5feceb66ffc86f38", "7992408151fdfffa"],
    ["d35176f3a1fa7445", "6928074e487cdfab", "743db6f6161592c7",
     "b5a19ceeda14eb39", "c30592a082f114b8"],
    ["7a04bdb9c885424d", "a32701b8bc077d64", "f43d768aa57dacd1",
     "3ceaceff82601f95", "38b4e0d28f887905"],
    ["c3b86bf52ad394b8", "2879baea8ecce0f6", "06baa2577bac2348",
     "b6e4d5c00eada683", "b25eef347c6ea70e"],
    ["5fa785e77f8c9121", "65123aaf9c548dfc", "b9c37822560d96a1",
     "5fa3e5731d7dc817", "1766dc530b8568ee"],
]


def test_virasoro_ladder_products_pinned():
    eng = VertexAlgebra(builtin_presentation("virasoro"))
    state = eng.vacuum()
    got = []
    for _ in VIR_LADDER:
        state = eng.apply_mode(eng.index["L"], -1, state)
        got.append(
            [_digest(eng.format_state(eng.nth_product(state, n, state)))
             for n in range(-1, 4)]
        )
    assert got == VIR_LADDER
    # a product that vanishes by weight is never stored
    wt2 = eng._mono_wt2
    assert eng._prod_memo
    assert all(2 * n <= wt2(ma) + wt2(mb) - 2 for ma, n, mb in eng._prod_memo)


def test_results_are_the_callers_to_change():
    # a caller that edits a result must not reach a memo entry
    eng = VertexAlgebra(builtin_presentation("N1"))
    L, G = eng.generator("L"), eng.generator("G")
    two = eng.nth_product(L, -1, L)
    two[((1, 2), (1, 1))] = ONE  # a second monomial: the summed path
    calls = [
        lambda: eng.apply_mode(0, -2, L),
        lambda: eng.apply_mode(1, -1, G),
        lambda: eng.nth_product(L, -1, L),
        lambda: eng.nth_product(G, 0, G),
        lambda: eng.nth_product(two, 1, two),
        # (T L)_(1) G = -G(-2)|0>: the scaled single-factor product
        lambda: eng.nth_product(
            eng.apply_mode(eng.index["L"], -2, eng.vacuum()), 1, G
        ),
        lambda: eng.translation(G),
        lambda: eng.translation(two),
    ]
    for call in calls:
        first = call()
        want = dict(first)
        assert want
        first.clear()
        first[((0, 9),)] = ONE
        assert call() == want
        again = call()
        for key in list(again):
            again[key] = HALF
        assert call() == want


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_single_factor_closed_form_matches_recursion(pres_id):
    # (X_{i(-m)}|0>)_(n) b in closed form against the generic recursion
    eng = VertexAlgebra(builtin_presentation(pres_id))
    monos = eng.basis(2 if pres_id.startswith("big4") else 3)
    for i in range(len(eng.names)):
        for m in range(1, 4):
            ma = ((i, m),)
            for n in range(-4, 4):
                for mb in monos:
                    want = vec_sum(
                        eng._product_terms(ma, n, mb, eng._mono_wt2(mb))
                    )
                    assert eng._mono_product(ma, n, mb) == want, (ma, n, mb)


def test_single_factor_memo_accounting():
    # the k = 5 ladder product: entry and term counts repeat exactly
    eng = VertexAlgebra(builtin_presentation("virasoro"))
    state = eng.vacuum()
    for _ in range(5):
        state = eng.apply_mode(eng.index["L"], -1, state)
    eng.nth_product(state, 1, state)
    memo = eng._prod_memo
    assert (len(memo), eng._memo_terms) == (3051, 20770)
    # (T L)_(n) on the ladder stores one-factor entries with m = 2
    tl = eng.apply_mode(eng.index["L"], -2, eng.vacuum())
    for n in range(-2, 3):
        eng.nth_product(tl, n, state)
    factors = set()
    for (ma, n, mb), vec in memo.items():
        if len(ma) != 1 or ma[0][1] == 1:
            continue
        (i, m), = ma
        mode = memo[(((i, 1),), n - m + 1, mb)]
        factor = (-1) ** (m - 1) * gbinom(n, m - 1)
        assert factor != 0
        factors.add(factor == 1)
        if factor == 1:
            # the m = 1 entry's vector itself, never a copy
            assert vec is mode
        else:
            assert vec is not mode and vec.keys() == mode.keys()
    assert factors == {True, False}
    assert eng._memo_terms == sum(len(v) + 1 for v in memo.values())


def test_ladder_product_adds_no_fractions():
    # vec_sum adds ints over one common denominator, so the k = 4 ladder
    # product, whose coefficients carry the c/12 of [L_lam L], makes few
    # Fraction sums and products: the mode action's Scalar arithmetic, and
    # in vec_sum a product by each fractional coefficient.  Summing as
    # Fractions made 692 sums and 583 products.  Only the two operators
    # are counted: how a Fraction is built differs between Python versions
    eng = VertexAlgebra(builtin_presentation("virasoro"))
    state = eng.vacuum()
    for _ in range(4):
        state = eng.apply_mode(eng.index["L"], -1, state)
    calls: collections.Counter = collections.Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls[frame.f_code.co_name] += 1

    sys.setprofile(count)
    try:
        eng.nth_product(state, 1, state)
    finally:
        sys.setprofile(None)
    assert calls["_add"] + calls["_mul"] < 100, calls


# (A, B) = (:x1 y1:, :x2 y2:); per n = -1..3, digests of A_(n)B and B_(n)A
COMPOSITE_PRODUCTS = {
    ("N2", ("J", "Gp"), ("Gp", "Gm")): [
        ("c359848c82bcd72b", "5907585292628204"),
        ("209d0bd778209903", "e73f890507607f42"),
        ("2a3302e519912045", "c21ee5b7e9685ce8"),
        ("8135f9e4cbfc4cd9", "8a6bc29604ce50b1"),
        ("afb458d5b9ff35e0", "afb458d5b9ff35e0"),
    ],
    ("big4", ("J0", "Gpp"), ("Kp", "Gmm")): [
        ("7d18e91aa03548f3", "ef4f58cae278a6f9"),
        ("a741d0c32d44ba6e", "8ddeea8a1a9d6d3c"),
        ("ee13a32668c17884", "f22906b14743c175"),
        ("f8045293b3286ce5", "1f0d403e98e9bb6a"),
        ("5977267e60fb4dde", "3b14584e9e2b7ab2"),
    ],
}


@pytest.mark.parametrize("case", COMPOSITE_PRODUCTS, ids=lambda c: c[0])
def test_composite_products_pinned(case):
    pres_id, (x1, y1), (x2, y2) = case
    eng = VertexAlgebra(builtin_presentation(pres_id))
    gen = eng.generator
    a = eng.nth_product(gen(x1), -1, gen(y1))
    b = eng.nth_product(gen(x2), -1, gen(y2))
    got = [
        (_digest(eng.format_state(eng.nth_product(a, n, b))),
         _digest(eng.format_state(eng.nth_product(b, n, a))))
        for n in range(-1, 4)
    ]
    assert got == COMPOSITE_PRODUCTS[case]


# sha256 of every mode and product result of `_sweep`, per builtin
ENGINE_SWEEP = {
    "N1": "c7779ad5d0510200",
    "N2": "d977e8100bc39e44",
    "N3": "e36b1f2f8f5941e1",
    "N4": "3eff4732e6fc8f6d",
    "big4": "db7cf3a667244e14",
    "big4_kwmiss1": "4ad4baf00cfbe530",
    "big4_kwmiss2": "f606e478dcd13d57",
    "four_fermions_k": "947abd77c29d4ede",
    "free_boson_k": "940a300220a430b2",
    "free_fermion": "5a8e34a2439d8b0c",
    "virasoro": "997348e817f40bb3",
}


def _sweep(pres_id: str) -> str:
    """X_(n) on every basis monomial of weight <= 3, n = -4..3, then a_(n)b
    for basis pairs of weight <= 2, n = -3..2 (2 and 1 for big4 ids)."""
    eng = VertexAlgebra(builtin_presentation(pres_id))
    big = pres_id.startswith("big4")
    h = hashlib.sha256()
    monos = eng.basis(2 if big else 3)
    for i in range(len(eng.names)):
        for n in range(-4, 4):
            for mono in monos:
                xb = eng.apply_mode(i, n, {mono: ONE})
                h.update(eng.format_state(xb).encode())
    pairs = eng.basis(1 if big else 2)
    for a in pairs:
        for b in pairs:
            for n in range(-3, 3):
                ab = eng.nth_product({a: ONE}, n, {b: ONE})
                h.update(eng.format_state(ab).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_engine_sweep_pinned(pres_id):
    assert _sweep(pres_id) == ENGINE_SWEEP[pres_id]


def _reference_nth_product(eng, a: dict, n: int, b: dict) -> dict:
    """nth_product as it once summed: two or more nonzero monomial products
    as one `vec_sum`, a single one copied or scaled by `vec_acc`."""
    terms = []
    for ma, ca in a.items():
        for mb, cb in b.items():
            vec = eng._mono_product(ma, n, mb)
            if vec:
                terms.append((1, ca * cb, vec))
    if len(terms) > 1:
        return vec_sum(terms)
    out: dict = {}
    if terms:
        vec_acc(out, terms[0][2], terms[0][1])
    return out


def _reference_apply_mode(eng, i: int, n: int, state: dict) -> dict:
    """apply_mode as its own loop, before it was nth_product by a generator."""
    out: dict = {}
    for mono, coeff in state.items():
        vec_acc(out, eng._mono_product(eng._gens[i], n, mono), coeff)
    return out


def _seeded_states(eng, pres_id: str, seed: int) -> list:
    """Three-term states on low basis monomials, coefficients in c and, on
    big4, in a/(a+1), so the reference's summed path meets denominators."""
    rng = random.Random(seed)
    pool = eng.basis(2 if pres_id.startswith("big4") else 4)[1:13]
    frac = Scalar.param("a") / (Scalar.param("a") + 1)
    states = []
    for _ in range(3):
        state: dict = {}
        for mono in rng.sample(pool, 3):
            coeff = Scalar.from_int(rng.randint(-3, 3)) + rng.randint(1, 3) * C
            if pres_id == "big4":
                coeff = coeff + rng.randint(1, 3) * frac
            state[mono] = coeff
        states.append(state)
    return states


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_one_accumulate_loop_matches_the_summed_products(pres_id):
    # results compare as dicts and by sorted text: a state's key order is
    # not part of the contract, and vec_sum and vec_acc may order keys apart
    eng = VertexAlgebra(builtin_presentation(pres_id))
    states = _seeded_states(eng, pres_id, seed=1)
    new, ref = hashlib.sha256(), hashlib.sha256()
    summed = 0  # products the reference sent to vec_sum
    for n in range(-2, 3):
        for a in states:
            for b in states:
                got = eng.nth_product(a, n, b)
                want = _reference_nth_product(eng, a, n, b)
                assert got == want, (n, a, b)
                new.update(eng.format_state(got).encode())
                ref.update(eng.format_state(want).encode())
                hits = [1 for ma in a for mb in b if eng._mono_product(ma, n, mb)]
                summed += len(hits) > 1
        for i in range(len(eng.names)):
            for state in states:
                got = eng.apply_mode(i, n, state)
                want = _reference_apply_mode(eng, i, n, state)
                assert got == want, (i, n, state)
                new.update(eng.format_state(got).encode())
                ref.update(eng.format_state(want).encode())
    assert new.hexdigest() == ref.hexdigest()
    assert summed > 0


# -- property checks --------------------------------------------------------------


N1_POOL = engine("N1").basis(Fraction(7, 2))[1:]


@settings(max_examples=25, deadline=None)
@given(
    a=st.sampled_from(N1_POOL),
    b=st.sampled_from(N1_POOL),
    n=st.integers(min_value=-2, max_value=2),
)
def test_skew_symmetry_property(a, b, n):
    eng = engine("N1")
    assert _skew_holds(eng, a, b, n)


@settings(max_examples=20, deadline=None)
@given(
    a=st.sampled_from(N1_POOL),
    b=st.sampled_from(N1_POOL),
    n=st.integers(min_value=-3, max_value=2),
)
def test_translation_is_a_derivation_of_products(a, b, n):
    eng = engine("N1")
    sa, sb = {a: ONE}, {b: ONE}
    lhs = eng.translation(eng.nth_product(sa, n, sb))
    rhs = eng.nth_product(eng.translation(sa), n, sb)
    for m, c in eng.nth_product(sa, n, eng.translation(sb)).items():
        cur = rhs.get(m)
        nv = c if cur is None else cur + c
        if nv.is_zero():
            rhs.pop(m, None)
        else:
            rhs[m] = nv
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(
    a=st.sampled_from(N1_POOL),
    b=st.sampled_from(N1_POOL),
    n=st.integers(min_value=-2, max_value=3),
)
def test_derivative_mode_shift(a, b, n):
    # (Ta)_(n) = -n a_(n-1) as operators
    eng = engine("N1")
    sa, sb = {a: ONE}, {b: ONE}
    lhs = eng.nth_product(eng.translation(sa), n, sb)
    rhs = {
        m: c * Scalar.from_int(-n)
        for m, c in eng.nth_product(sa, n - 1, sb).items()
        if n != 0
    }
    assert lhs == rhs


@settings(max_examples=10, deadline=None)
@given(
    a=st.sampled_from(N1_POOL),
    b=st.sampled_from(N1_POOL),
    c=st.sampled_from(N1_POOL),
    m=st.integers(min_value=0, max_value=2),
    n=st.integers(min_value=-1, max_value=2),
)
def test_commutator_property(a, b, c, m, n):
    # the commutator formula is the Borcherds identity at (m, 0, n)
    eng = engine("N1")
    assert _holds(eng, a, b, c, m, 0, n)


POOLS = {"N1": N1_POOL, "N2": engine("N2").basis(2)[1:]}


# -- the accumulating sides, as references ------------------------------------------
#
# The suite's helpers once built each side from intermediate nth_product and
# divided_derivative states, added with a scaled vec_acc, and the right side
# kept the (a_(i)b)_(j)c states of a triple in a dict of its own.  The raw-sum
# helpers must give the same canonical Scalars and the same skew verdicts.


def _ref_skew_holds(eng, ma, mb, n: int) -> bool:
    sign = -1 if eng.mono_parity(ma) and eng.mono_parity(mb) else 1
    wt2 = eng._mono_wt2(ma) + eng._mono_wt2(mb)
    rhs: dict = {}
    for j in range((wt2 - 2 * n) // 2):
        flipped = eng._mono_product(mb, n + j, ma)
        if not flipped:
            continue
        factor = Scalar.from_int(sign * (-1) ** ((j + n + 1) % 2))
        vec_acc(rhs, eng.divided_derivative(flipped, j), factor)
    return eng._mono_product(ma, n, mb) == rhs


def _ref_borcherds_rhs(eng, ma, mb, mc, m: int, n: int, k: int, abc: dict):
    c = {mc: ONE}
    rhs: dict = {}
    top = (eng._mono_wt2(ma) + eng._mono_wt2(mb) - 2 * n) // 2
    for j in range(min(top, m + 1) if m >= 0 else top):
        key = (n + j, m + k - j)
        if key not in abc:
            ab = eng._mono_product(ma, n + j, mb)
            abc[key] = eng.nth_product(ab, key[1], c)
        vec_acc(rhs, abc[key], Scalar.from_int(gbinom(m, j)))
    return rhs


def _ref_borcherds_lhs(eng, ma, mb, mc, m: int, n: int, k: int) -> dict:
    if n >= 0:
        stop = n + 1
    else:
        wt2 = eng._mono_wt2
        stop = max(wt2(mb) + wt2(mc) - 2 * k, wt2(ma) + wt2(mc) - 2 * m) // 2
    p_ab = -1 if eng.mono_parity(ma) and eng.mono_parity(mb) else 1
    a, b = {ma: ONE}, {mb: ONE}
    sign_ba = Scalar.from_int(-p_ab * (-1) ** (n % 2))
    lhs: dict = {}
    for j in range(stop):
        bc = eng._mono_product(mb, k + j, mc)
        ac = eng._mono_product(ma, m + j, mc)
        term = eng.nth_product(a, m + n - j, bc)
        vec_acc(term, eng.nth_product(b, n + k - j, ac), sign_ba)
        if j:
            vec_acc(lhs, term, Scalar.from_int((-1) ** j * gbinom(n, j)))
        else:
            lhs = term
    return lhs


def _sides_match_references(eng, triples, mnks) -> tuple:
    """Compare both sides and the skew verdicts with the references.

    Each (a, b, c) triple shares one abc dict across its checks, as the
    suite once did.  Returns the number of nonzero sides compared and the
    number of checks whose two sides differ.
    """
    nonzero = broken = 0
    for ma, mb, mc in triples:
        abc: dict = {}
        for m, n, k in mnks:
            lhs = _borcherds_lhs(eng, ma, mb, mc, m, n, k)
            rhs = _borcherds_rhs(eng, ma, mb, mc, m, n, k)
            assert lhs == _ref_borcherds_lhs(eng, ma, mb, mc, m, n, k)
            assert rhs == _ref_borcherds_rhs(eng, ma, mb, mc, m, n, k, abc)
            nonzero += bool(lhs) + bool(rhs)
            broken += lhs != rhs
        for n in sorted({n for _, n, _ in mnks}):
            assert _skew_holds(eng, ma, mb, n) == _ref_skew_holds(eng, ma, mb, n)
        eng.trim_caches()
    return nonzero, broken


@pytest.mark.parametrize("pres_id", ["N2", "N3", "big4_kwmiss1"])
def test_raw_sum_sides_match_the_accumulated_ones_on_generators(pres_id):
    # m, k in 0..3 and n in -2..2 on generator triples; big4_kwmiss1 breaks
    # the identity, so both computations must also agree on sides that
    # differ.  Its 4,096 triples are sampled: all of them take about 19 s.
    eng = VertexAlgebra(builtin_presentation(pres_id))
    gens = [((i, 1),) for i in range(len(eng.names))]
    triples = [(a, b, c) for a in gens for b in gens for c in gens]
    if pres_id == "big4_kwmiss1":
        triples = random.Random(1).sample(triples, 250)
    mnks = [(m, n, k) for m in range(4) for n in range(-2, 3) for k in range(4)]
    nonzero, broken = _sides_match_references(eng, triples, mnks)
    assert nonzero > 0
    assert (broken > 0) == (pres_id == "big4_kwmiss1")


@pytest.mark.parametrize("pres_id", ["virasoro", "N2"])
def test_raw_sum_sides_match_the_accumulated_ones_on_basis_triples(pres_id):
    eng = VertexAlgebra(builtin_presentation(pres_id))
    pool = eng.basis(3)[1:]
    rng = random.Random(3)
    triples = [tuple(rng.choice(pool) for _ in "abc") for _ in range(12)]
    mnks = [tuple(rng.randint(-2, 2) for _ in "mnk") for _ in range(8)]
    nonzero, broken = _sides_match_references(eng, triples, mnks)
    assert nonzero > 0 and broken == 0


@settings(max_examples=12, deadline=None)
@given(pres_id=st.sampled_from(sorted(POOLS)), data=st.data())
def test_shared_commutator_memo_matches_fresh(pres_id, data):
    # the accumulating right side with one abc dict across a triple's
    # checks gives the raw-sum verdicts, and every entry it holds is the
    # one computed from scratch
    eng = engine(pres_id)
    ma, mb, mc = (data.draw(st.sampled_from(POOLS[pres_id])) for _ in "abc")
    modes = st.integers(min_value=-1, max_value=2)
    abc: dict = {}
    for _ in range(6):
        m, n, k = data.draw(st.tuples(modes, modes, modes))
        lhs = _borcherds_lhs(eng, ma, mb, mc, m, n, k)
        shared = lhs == _ref_borcherds_rhs(eng, ma, mb, mc, m, n, k, abc)
        assert shared == _holds(eng, ma, mb, mc, m, n, k)
    a, b, c = {ma: ONE}, {mb: ONE}, {mc: ONE}
    for (i, j), value in abc.items():
        assert value == eng.nth_product(eng.nth_product(a, i, b), j, c)
