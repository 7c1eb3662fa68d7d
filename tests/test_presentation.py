"""Presentation-level checks: homogeneity, skew, Jacobi, embeddings."""

import hashlib
import itertools
import math
import random
from fractions import Fraction

import pytest

from vazhu import presentation as presentation_module
from vazhu.presentation import (
    GeneratorSpec,
    PresentationError,
    VACUUM,
    VaPresentation,
    builtin_embedding,
    builtin_ids,
    builtin_presentation,
    check_embedding,
    _big4_brackets,
)
from vazhu.linalg import key_acc
from vazhu.scalar import Scalar, ONE

C = Scalar.param("c")


@pytest.mark.parametrize(
    "pres_id",
    [
        "virasoro",
        "free_fermion",
        "free_boson_k",
        "four_fermions_k",
        "N1",
        "N2",
        "N3",
        "N4",
        "big4",
    ],
)
def test_builtin_validates(pres_id):
    pres = builtin_presentation(pres_id)
    assert pres.validate() is True


def test_builtin_ids_cover_corrupted_variants():
    ids = builtin_ids()
    assert "big4_kwmiss1" in ids and "big4_kwmiss2" in ids
    with pytest.raises(ValueError):
        builtin_presentation("nope")


def test_builtin_cache_has_one_key_per_id():
    pres = builtin_presentation("N1")
    size = builtin_presentation.cache_info().currsize
    assert builtin_presentation("N1") is pres
    # the id is positional only, and a refused id caches nothing
    with pytest.raises(TypeError):
        builtin_presentation(pres_id="N1")
    with pytest.raises(ValueError, match="^unknown presentation id: nope$"):
        builtin_presentation("nope")
    assert builtin_presentation.cache_info().currsize == size


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _vector_digest(vec) -> str:
    return _digest(repr(sorted((repr(k), str(c)) for k, c in vec.items())))


# (first failing triple, digest of its full residual) per corrupted builtin
JACOBI_WITNESSES = {
    "big4_kwmiss1": (("J0", "Kp", "Gpm"), "d8a93707bf2e2ee1"),
    "big4_kwmiss2": (("L", "Gpp", "Gpm"), "d1d89d1791a4eea8"),
}


def test_corrupted_variants_fail_jacobi():
    for which, pin in JACOBI_WITNESSES.items():
        witness = builtin_presentation(which).jacobi_witness()
        assert witness is not None
        residual = witness[3]
        assert residual
        assert (tuple(witness[:3]), _vector_digest(residual)) == pin, which


def _bracket_digest(pres) -> str:
    """Digest of pair_bracket over all ordered pairs."""
    names = pres.names()
    brackets = [
        (x, y, _vector_digest(pres.pair_bracket(x, y)))
        for x in names
        for y in names
    ]
    return _digest(repr(brackets))


# pair_bracket digests of every builtin, corrupted ones too
BRACKET_DIGESTS = {
    "N1": "68bb5f5f0b4515c7",
    "N2": "231654235e4a487c",
    "N3": "2d4a60f539afa70e",
    "N4": "4e07d0fcec73f2b4",
    "big4": "f570ec8b74b682a4",
    "big4_kwmiss1": "d8364fd262584f2e",
    "big4_kwmiss2": "f95fd291fb862f26",
    "four_fermions_k": "7cbf67a6ab56059d",
    "free_boson_k": "d1293082c0a07bf9",
    "free_fermion": "fedbd541053953c9",
    "virasoro": "92fde0529289d84a",
}


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_bracket_and_product_digests(pres_id):
    assert _bracket_digest(builtin_presentation(pres_id)) == BRACKET_DIGESTS[pres_id]


# -- the mode commutator ------------------------------------------------------


def _binom(n, k: int) -> Fraction:
    """binom(n, k) for an int or half-integer n, by math.comb where it can."""
    if Fraction(n).denominator == 1:
        n = int(n)
        if n >= 0:
            return Fraction(math.comb(n, k))
        # upper negation: binom(n, k) = (-1)^k binom(k - n - 1, k)
        return Fraction((-1) ** k * math.comb(k - n - 1, k))
    return Fraction(math.prod(n - t for t in range(k)), math.factorial(k))


def _commutator_oracle(pres, x, n, y, m) -> dict:
    """[x_(n), y_(m)] = sum_j binom(n, j) (x_(j) y)_(n+m-j), expanded term by term.

    x_(j) y is j! times the lam^j coefficient of [x_lam y], (d^d X)_(q) =
    (-1)^d d! binom(q, d) X_(q-d), and |0>_(q) is 1 at q = -1, else 0.
    """
    out: dict = {}
    for (j, d, target), coeff in pres.pair_bracket(x, y).items():
        q = n + m - j
        weight = _binom(n, j) * math.factorial(j)
        if target != VACUUM:
            weight *= (-1) ** d * math.factorial(d) * _binom(q, d)
        elif q != -1:
            continue
        key = (target, q - d)
        out[key] = out.get(key, 0) + coeff * Scalar.from_fraction(weight)
    return {key: v for key, v in out.items() if v != 0}


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_mode_commutator_matches_oracle(pres_id):
    # the int window the engine reads, then the zero modes, half-integer
    # for half-integer weights, where every term is a zero mode
    pres = builtin_presentation(pres_id)
    names, wt = pres.names(), pres.weight
    window = range(-3, 4)
    for x in names:
        for y in names:
            for n in window:
                for m in window:
                    got = pres.mode_commutator(x, n, y, m)
                    assert got == _commutator_oracle(pres, x, n, y, m), (x, n, y, m)
            n, m = wt[x] - 1, wt[y] - 1
            got = pres.mode_commutator(x, n, y, m)
            assert got == _commutator_oracle(pres, x, n, y, m), (x, y)
            for target, p in got:
                assert p == wt.get(target, 0) - 1, (x, y, target)


def test_clean_big4_has_no_witness():
    assert builtin_presentation("big4").jacobi_witness() is None


# -- skew completion ----------------------------------------------------------


def test_skew_completion_weight_32_pair():
    # [Gm_lam Gp] = L - (1/2) dJ - lam J + (c/6) lam^2 from the stored pair
    pres = builtin_presentation("N2")
    assert pres.pair_bracket("Gm", "Gp") == {
        (0, 0, "L"): ONE,
        (0, 1, "J"): Scalar.from_fraction(Fraction(-1, 2)),
        (1, 0, "J"): -ONE,
        (2, 0, VACUUM): C / 6,
    }


def test_skew_completion_against_conformal():
    # [G_lam L] = (1/2) dG + (3/2) lam G
    pres = builtin_presentation("N1")
    assert pres.pair_bracket("G", "L") == {
        (0, 1, "G"): Scalar.from_fraction(Fraction(1, 2)),
        (1, 0, "G"): Scalar.from_fraction(Fraction(3, 2)),
    }


def test_skew_on_central_only_pair():
    # constant centrals of odd pairs are symmetric under skew
    pres = builtin_presentation("big4")
    assert pres.pair_bracket("Smm", "Spp") == {(0, 0, VACUUM): -C / 6}


def test_mode_commutator_normalization():
    # [G_lam G] = 2L + (c/3) lam^2 gives [G_(2), G_(-1)] = 2 L_(1) + (2c/3)
    pres = builtin_presentation("N1")
    assert pres.mode_commutator("G", 2, "G", -1) == {
        ("L", 1): Scalar.from_int(2),
        (VACUUM, -1): 2 * C / 3,
    }


def test_mode_commutator_of_free_fermion():
    pres = builtin_presentation("free_fermion")
    assert pres.mode_commutator("psi", 0, "psi", -1) == {(VACUUM, -1): ONE}


# -- validation rejections ----------------------------------------------------


def test_weight_inhomogeneity_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError, match=r"weight mismatch in \[B, B\]"):
        VaPresentation("bad", gens, {("B", "B"): {(2, 0, VACUUM): 1}}).validate()


def test_parity_mismatch_rejected():
    gens = [
        GeneratorSpec("B", 0, Fraction(1)),
        GeneratorSpec("F", 1, Fraction(1)),
    ]
    brackets = {("B", "F"): {(1, 0, "B"): 1}}
    with pytest.raises(PresentationError, match=r"parity mismatch in \[B, F\] -> B$"):
        VaPresentation("bad", gens, brackets).validate()


def test_odd_central_rejected():
    gens = [
        GeneratorSpec("B", 0, Fraction(1, 2)),
        GeneratorSpec("F", 1, Fraction(1, 2)),
    ]
    with pytest.raises(PresentationError, match=r"parity mismatch in \[B, F\] -> \|0>"):
        VaPresentation("bad", gens, {("B", "F"): {(0, 0, VACUUM): 1}}).validate()


def test_diagonal_skew_rejected():
    # [B_lam B] = B fails [x_lam x] = -[x_{-lam-d} x] for an even generator
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError, match="diagonal skew fails for B"):
        VaPresentation("bad", gens, {("B", "B"): {(0, 0, "B"): 1}}).validate()


def test_wrong_orientation_rejected():
    gens = [
        GeneratorSpec("X", 0, Fraction(1)),
        GeneratorSpec("Y", 0, Fraction(1)),
    ]
    with pytest.raises(PresentationError, match=r"flip \(Y, X\)"):
        VaPresentation("bad", gens, {("Y", "X"): {(1, 0, VACUUM): 1}})


def test_undeclared_target_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError, match=r"undeclared target X in \[B, B\]"):
        VaPresentation("bad", gens, {("B", "B"): {(0, 0, "X"): 1}})


def test_vacuum_derivative_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    brackets = {("B", "B"): {(0, 1, VACUUM): 1}}
    with pytest.raises(
        PresentationError, match=r"derivative of the vacuum in \[B, B\]"
    ):
        VaPresentation("bad", gens, brackets)


@pytest.mark.parametrize(
    "key", [(-1, 1, "x"), (1, "x"), (Fraction(1), 0, "x"), (0, True, "x")]
)
def test_malformed_bracket_key_rejected(key):
    # (-1, 1, x) has the pair's weight, so the homogeneity check would pass it
    # and validate() fail on (-1) ** -1 in _skew; (1, x) would not unpack
    gens = [GeneratorSpec("x", 0, Fraction(1))]
    with pytest.raises(PresentationError) as err:
        VaPresentation("bad", gens, {("x", "x"): {key: 1}})
    assert str(err.value).startswith(f"bad key {key!r} in [x, x]")


def test_parity_other_than_0_or_1_rejected():
    # pair_sign would read parity 2 as odd, the homogeneity check as even
    gens = [GeneratorSpec("B", 2, Fraction(1))]
    with pytest.raises(PresentationError, match="B has parity 2, not 0 or 1"):
        VaPresentation("bad", gens, {("B", "B"): {(1, 0, VACUUM): 1}})


def test_float_weight_rejected():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not one tenth
    gens = [GeneratorSpec("a", 0, 0.1)]
    with pytest.raises(PresentationError, match="a has a float weight"):
        VaPresentation("bad", gens, {})


@pytest.mark.parametrize(
    "weight, shown",
    [(0, "0"), (-1, "-1"), (Fraction(1, 3), "1/3"), (Fraction(-1, 2), "-1/2")],
)
def test_weight_that_is_no_positive_half_integer_rejected(weight, shown):
    # weight 0 or -1 made the engine's basis recurse without end, and 1/3
    # was read as doubled weight 0
    gens = [GeneratorSpec("B", 0, weight)]
    message = f"^B has weight {shown}, not a positive half-integer$"
    with pytest.raises(PresentationError, match=message):
        VaPresentation("bad", gens, {})


def test_vacuum_generator_name_rejected():
    gens = [GeneratorSpec(VACUUM, 0, Fraction(0))]
    with pytest.raises(PresentationError, match=r"generator name \|0> is the vacuum"):
        VaPresentation("bad", gens, {})


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_builtin_rebuilds_from_its_stored_vectors(pres_id):
    # the stored table is itself constructor input, central terms included
    p = builtin_presentation(pres_id)
    rebuilt = VaPresentation(
        p.name, p.generators, dict(p._table), p.central_charge, p.conformal_name
    )
    assert rebuilt._table == p._table
    assert _bracket_digest(rebuilt) == BRACKET_DIGESTS[pres_id]


def test_terms_central_pair_rejected():
    # a term list beside a central dict is not a vector; the error names the pair
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError, match=r"bracket of \(B, B\) is not a"):
        VaPresentation("old", gens, {("B", "B"): ([], {1: ONE})})


def test_non_primary_rejected():
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("B", 0, Fraction(1)),
    ]
    brackets = {
        ("L", "L"): {(0, 1, "L"): 1, (1, 0, "L"): 2, (3, 0, VACUUM): c / 12},
        ("L", "B"): {(0, 1, "B"): 1, (1, 0, "B"): 2},
    }
    with pytest.raises(PresentationError, match="B is not primary of its weight"):
        VaPresentation("bad", gens, brackets, c, "L").validate()


def test_central_terms_given_as_text():
    # scalar text is read by parse_scalar into the same canonical Scalars
    n2 = builtin_presentation("N2")
    brackets = presentation_module._conformal_rows("L", n2.generators, None)
    brackets[("L", "L")][(3, 0, VACUUM)] = "c/12"
    brackets[("J", "J")] = {(1, 0, VACUUM): "c/3"}
    brackets[("J", "Gp")] = {(0, 0, "Gp"): 1}
    brackets[("J", "Gm")] = {(0, 0, "Gm"): -1}
    brackets[("Gp", "Gm")] = {
        (0, 0, "L"): 1,
        (0, 1, "J"): Fraction(1, 2),
        (1, 0, "J"): 1,
        (2, 0, VACUUM): "c/6",
    }
    pres = VaPresentation("N2", n2.generators, brackets, "c", "L")
    assert pres._table == n2._table
    assert pres.central_charge == C
    assert pres.validate() is True


def test_duplicate_generator_name_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1)), GeneratorSpec("B", 1, Fraction(1))]
    with pytest.raises(PresentationError, match="^duplicate generator name$"):
        VaPresentation("bad", gens, {})


def test_bracket_on_undeclared_pair_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(
        PresentationError, match=r"^bracket on undeclared pair \(B, X\)$"
    ):
        VaPresentation("bad", gens, {("B", "X"): {(1, 0, VACUUM): 1}})


def test_undeclared_conformal_name_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    pres = VaPresentation("bad", gens, {("B", "B"): {(1, 0, VACUUM): 1}}, C, "L")
    with pytest.raises(PresentationError, match="^conformal name L not declared$"):
        pres.validate()


@pytest.mark.parametrize("parity, weight", [(1, Fraction(2)), (0, Fraction(1))])
def test_conformal_generator_of_other_grade_rejected(parity, weight):
    # an abelian table, so only the grade of L fails
    pres = VaPresentation("bad", [GeneratorSpec("L", parity, weight)], {}, C, "L")
    with pytest.raises(
        PresentationError, match="^conformal generator must be even weight 2$"
    ):
        pres.validate()


def test_wrong_conformal_self_bracket_rejected():
    # the Virasoro rows with the central term c/6 in place of c/12
    gens = [GeneratorSpec("L", 0, Fraction(2))]
    brackets = {("L", "L"): {(0, 1, "L"): 1, (1, 0, "L"): 2, (3, 0, VACUUM): C / 6}}
    with pytest.raises(
        PresentationError,
        match=r"^conformal self-bracket is not \(d \+ 2 lam\) L \+ \(c/12\) lam\^3$",
    ):
        VaPresentation("bad", gens, brackets, C, "L").validate()


# -- regression pins for the corrected central signs --------------------------


def _n3_displayed():
    # +(c/3) lam on the diagonal current pair contradicts the odd sector
    c = Scalar.param("c")
    base = builtin_presentation("N3")
    brackets = dict(base._table)
    for i in (1, 2, 3):
        brackets[(f"A{i}", f"A{i}")] = {(1, 0, VACUUM): c / 3}
    return VaPresentation("N3_displayed", base.generators, brackets, c, "L")


def test_displayed_diagonal_current_central_fails_jacobi():
    witness = _n3_displayed().jacobi_witness()
    assert witness is not None
    x, y, z, residual = witness
    assert {x, y, z} <= {"A1", "A2", "A3", "G1", "G2", "G3", "Phi"}
    assert any(target == VACUUM for *_, target in residual)


BIG4_PERTURBATIONS = [
    # boson action with a doubled lam coefficient
    lambda b, s, a: b.__setitem__(
        ("Xi", "Gpp"), {(1, 0, "Spp"): 2 * s, (0, 1, "Spp"): s}
    ),
    # flipped current-half of one odd-odd cross bracket
    lambda b, s, a: b.__setitem__(
        ("Gmm", "Spp"),
        {
            (0, 0, "J0"): ONE / (a + 1) / 2,
            (0, 0, "K0"): ONE / (a + 1) / 2,
            (0, 0, "Xi"): s / a,
        },
    ),
]


def _big4_perturbed(mutate):
    gens, brackets, c = _big4_brackets(None)
    mutate(brackets, Scalar.param("s"), Scalar.param("a"))
    return VaPresentation("big4_perturbed", gens, brackets, c, "L")


@pytest.mark.parametrize("mutate", BIG4_PERTURBATIONS)
def test_big4_single_entry_perturbations_fail_jacobi(mutate):
    assert _big4_perturbed(mutate).jacobi_witness() is not None


def _swap_lam_mu(residual, sign):
    s = Scalar.from_int(-sign)
    return {(m, l, k, t): c * s for (l, m, k, t), c in residual.items()}


def _doubled_first_off_diagonal(pres):
    # a copy whose first stored off-diagonal bracket with a non-central term
    # has those terms doubled, so that some residuals are nonzero
    def noncentral(value):
        return any(target != VACUUM for _, _, target in value)

    pair = next(p for p, v in pres._table.items() if p[0] != p[1] and noncentral(v))
    brackets = dict(pres._table)
    brackets[pair] = {
        (n, k, x): co if x == VACUUM else 2 * co
        for (n, k, x), co in pres._table[pair].items()
    }
    return VaPresentation(
        f"{pres.name}_doubled",
        pres.generators,
        brackets,
        pres.central_charge,
        pres.conformal_name,
    )


@pytest.mark.parametrize("pres_id", ["N2", "N3", "N4"])
def test_jacobi_residual_is_skew_in_the_first_pair(pres_id):
    # residual(y, x, z)(lam, mu) = -p(x, y) residual(x, y, z)(mu, lam), one of
    # the two swaps that let jacobi_witness try each unordered triple once
    clean = builtin_presentation(pres_id)
    doubled = _doubled_first_off_diagonal(clean)
    assert doubled.jacobi_witness() is not None
    for pres in (clean, doubled):
        names = pres.names()
        for x in names:
            for y in names:
                for z in names:
                    want = _swap_lam_mu(
                        pres.jacobi_residual(x, y, z), pres.pair_sign(x, y)
                    )
                    assert pres.jacobi_residual(y, x, z) == want, (x, y, z)


def _swap_mu_nu(residual, sign):
    # -sign residual(lam, -lam-nu-d), d acting on the target and killing VACUUM
    out: dict = {}
    for (l, m, k, t), c in residual.items():
        for a in range(m + 1):
            for b in range(m - a + 1):
                d = m - a - b
                if t == VACUUM and k + d:
                    continue
                multinomial = math.comb(m, a) * math.comb(m - a, b)
                factor = Scalar.from_int(-sign * (-1) ** m * multinomial)
                key_acc(out, (l + a, b, k + d, t), c * factor)
    return out


@pytest.mark.parametrize("pres_id", ["N2", "N3", "N4"])
def test_jacobi_residual_is_skew_in_the_last_pair(pres_id):
    # residual(x, z, y)(lam, nu) = -p(y, z) residual(x, y, z)(lam, -lam-nu-d),
    # the other swap that lets jacobi_witness try each unordered triple once
    clean = builtin_presentation(pres_id)
    doubled = _doubled_first_off_diagonal(clean)
    assert doubled.jacobi_witness() is not None
    for pres in (clean, doubled):
        for x, y, z in itertools.product(pres.names(), repeat=3):
            want = _swap_mu_nu(pres.jacobi_residual(x, y, z), pres.pair_sign(y, z))
            assert pres.jacobi_residual(x, z, y) == want, (x, y, z)


def _reference_jacobi_witness(pres):
    # the scan that tries every z: x, then y at or after x, then z
    names = pres.names()
    for i, x in enumerate(names):
        for y in names[i:]:
            for z in names:
                residual = pres.jacobi_residual(x, y, z)
                if residual:
                    return (x, y, z, _vector_digest(residual))
    return None


def _witness_digest(pres):
    witness = pres.jacobi_witness()
    return None if witness is None else (*witness[:3], _vector_digest(witness[3]))


def _coefficient_doubled(pres_id, seed):
    # a copy with one seeded stored coefficient doubled; on a diagonal pair
    # that can break skew symmetry
    pres = builtin_presentation(pres_id)
    rng = random.Random(seed)
    pair = rng.choice([p for p, v in pres._table.items() if v])
    value = dict(pres._table[pair])
    key = rng.choice(sorted(value, key=repr))
    value[key] = 2 * value[key]
    brackets = {**pres._table, pair: value}
    return VaPresentation(
        f"{pres_id}_seed{seed}",
        pres.generators,
        brackets,
        pres.central_charge,
        pres.conformal_name,
    )


CORRUPTION_SEEDS = [(pid, s) for pid in ("N1", "N2", "N3", "N4") for s in range(3)]

# fresh objects, so that every case computes its own witness
DIFFERENTIAL_CASES = {
    **{
        pid: lambda pid=pid: presentation_module._BUILTINS[pid]()
        for pid in builtin_ids()
    },
    **{
        f"big4_perturbed{i}": lambda m=m: _big4_perturbed(m)
        for i, m in enumerate(BIG4_PERTURBATIONS)
    },
    "N3_displayed": _n3_displayed,
    **{
        f"{pid}_doubled": lambda pid=pid: _doubled_first_off_diagonal(
            builtin_presentation(pid)
        )
        for pid in ("N2", "N3", "N4")
    },
    **{
        f"{pid}_seed{s}": lambda pid=pid, s=s: _coefficient_doubled(pid, s)
        for pid, s in CORRUPTION_SEEDS
    },
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_witness_matches_the_scan_over_every_z(case):
    pres = DIFFERENTIAL_CASES[case]()
    assert _witness_digest(pres) == _reference_jacobi_witness(pres)


@pytest.mark.parametrize(
    "case", ["N2_doubled", "N3_doubled", "N3_displayed", "N2_seed0", "N3_seed1"]
)
def test_failing_triples_are_closed_under_permutation(case):
    pres = DIFFERENTIAL_CASES[case]()
    assert pres._skew_failure is None
    failing = {
        t
        for t in itertools.product(pres.names(), repeat=3)
        if pres.jacobi_residual(*t)
    }
    assert failing
    for t in failing:
        assert set(itertools.permutations(t)) <= failing, t


@pytest.mark.parametrize(
    "pres_id, x, term, first",
    [
        # [L_lam L] with its lam coefficient doubled
        ("N1", "L", {(1, 0, "L"): 4}, ("L", "L", "L")),
        # [J_lam J] + J: the first failing triple has z before y, and the
        # triples with z at or after y would give (J, J, J) instead
        ("N2", "J", {(0, 0, "J"): 1}, ("J", "J", "L")),
    ],
)
def test_diagonal_skew_failure_scans_every_z(pres_id, x, term, first, monkeypatch):
    # with a diagonal pair not skew the swap identities fail, so the scan is
    # the one that tries every z, and validate() refuses the pair first
    base = builtin_presentation(pres_id)
    brackets = {**base._table, (x, x): {**base._table[(x, x)], **term}}
    pres = VaPresentation(
        f"{pres_id}_skewless",
        base.generators,
        brackets,
        base.central_charge,
        base.conformal_name,
    )
    assert pres._skew_failure == x
    with pytest.raises(PresentationError, match=f"^diagonal skew fails for {x}$"):
        pres.validate()
    calls = _count_residuals(monkeypatch)
    got = _witness_digest(pres)
    scanned = list(calls)
    calls.clear()
    assert got == _reference_jacobi_witness(pres)
    assert got[:3] == first
    assert scanned == calls


# -- embeddings ----------------------------------------------------------------


@pytest.mark.parametrize("tag", ["N1_in_N2", "N2_in_N4"])
def test_builtin_embedding_preserves_brackets(tag):
    src, tgt, images = builtin_embedding(tag)
    assert check_embedding(src, tgt, images) is None


def test_embedding_with_wrong_sign_fails():
    src, tgt, images = builtin_embedding("N1_in_N2")
    images = dict(images)
    images["G"] = {"Gp": ONE, "Gm": -ONE}
    witness = check_embedding(src, tgt, images)
    assert witness is not None
    assert witness[0] == witness[1] == "G"


def test_embedding_without_every_source_image_rejected():
    src, tgt, _ = builtin_embedding("N1_in_N2")
    with pytest.raises(PresentationError, match=r"source generators \['G'\]"):
        check_embedding(src, tgt, {"L": {"L": ONE}})


def test_embedding_from_unknown_source_name_rejected():
    # a misspelt source name must not pass beside the real one
    src, tgt, images = builtin_embedding("N1_in_N2")
    images = dict(images, Q={"L": ONE})
    with pytest.raises(PresentationError, match=r"unknown source generators \['Q'\]"):
        check_embedding(src, tgt, images)


def test_embedding_onto_undeclared_target_rejected():
    src, tgt, images = builtin_embedding("N1_in_N2")
    images = dict(images, G={"Gp": ONE, "Q": ONE})
    with pytest.raises(PresentationError, match=r"unknown target generators \['Q'\]"):
        check_embedding(src, tgt, images)
    # a list image once raised AttributeError on .items()
    images = dict(images, G=["Gp"])
    with pytest.raises(PresentationError, match=r"^image of G is a list, not a dict$"):
        check_embedding(src, tgt, images)


@pytest.mark.parametrize(
    "spec",
    [GeneratorSpec("b", 0, Fraction(1, 2)), GeneratorSpec("b", 1, Fraction(3, 2))],
    ids=["parity", "weight"],
)
def test_embedding_onto_other_grade_rejected(spec):
    # bilinear expansion alone would pass a bracket-free source
    src = VaPresentation("toy", [spec], {})
    tgt = builtin_presentation("four_fermions_k")
    with pytest.raises(PresentationError, match="image of b uses Spp"):
        check_embedding(src, tgt, {"b": {"Spp": 1}})


def test_unknown_embedding_tag_rejected():
    with pytest.raises(ValueError):
        builtin_embedding("N4_in_big4")


# -- read-only tables and once-computed verdicts -------------------------------


def _write_raises(mapping, key, value):
    with pytest.raises(TypeError):
        mapping[key] = value


def test_builtin_tables_are_read_only():
    pres = builtin_presentation("big4")
    _write_raises(pres._table, ("L", "L"), {})
    _write_raises(pres._table[("L", "L")], (0, 0, "L"), ONE)
    # the complete table, skew pairs included, is built and read-only
    _write_raises(pres._pairs, ("Gpp", "J0"), {})
    assert pres._pairs[("Gpp", "J0")] is pres.pair_bracket("Gpp", "J0")
    mutable = [k for k, v in vars(pres).items() if isinstance(v, (dict, list, set))]
    assert mutable == []
    # a stored vector, a skew-completed one and an empty one
    for x, y in (("J0", "Gpp"), ("Gpp", "J0"), ("Spp", "Spm")):
        _write_raises(pres.pair_bracket(x, y), (0, 0, "L"), ONE)
    _write_raises(pres.parity, "L", 1)
    _write_raises(pres.weight, "L", Fraction(1))
    witness = builtin_presentation("big4_kwmiss1").jacobi_witness()
    _write_raises(witness[3], (0, 0, 0, "L"), ONE)


def test_builtin_generators_and_index_are_read_only():
    # a write into a cached builtin's generators or index raises and leaves
    # the object as it was
    pres = builtin_presentation("N1")
    before = (pres.generators, dict(pres.index), pres.names())
    with pytest.raises(AttributeError):
        pres.generators.pop()
    _write_raises(pres.generators, 0, pres.generators[1])
    _write_raises(pres.index, "zz", 2)
    assert builtin_presentation("N1") is pres
    assert (pres.generators, dict(pres.index), pres.names()) == before
    assert before[1:] == ({"L": 0, "G": 1}, ["L", "G"])
    assert pres.validate() is True


def _count_residuals(monkeypatch):
    calls = []
    real = VaPresentation.jacobi_residual

    def counted(self, x, y, z):
        calls.append((x, y, z))
        return real(self, x, y, z)

    monkeypatch.setattr(VaPresentation, "jacobi_residual", counted)
    return calls


# residual calls of a first jacobi_witness() per builtin
RESIDUAL_COUNTS = {
    "N1": 4,
    "N2": 20,
    "N3": 120,
    "N4": 120,
    "big4": 816,
    "big4_kwmiss1": 195,
    "big4_kwmiss2": 102,
    "four_fermions_k": 20,
    "free_boson_k": 1,
    "free_fermion": 1,
    "virasoro": 1,
}


@pytest.mark.parametrize("pres_id", builtin_ids())
def test_jacobi_tries_each_unordered_triple_once(pres_id, monkeypatch):
    calls = _count_residuals(monkeypatch)
    pres = presentation_module._BUILTINS[pres_id]()
    pres.jacobi_witness()
    assert len(calls) == RESIDUAL_COUNTS[pres_id]
    assert len({tuple(sorted(t)) for t in calls}) == len(calls)


@pytest.mark.parametrize("pres_id", ["N2", "big4"])
def test_second_verdict_computes_no_residual(pres_id, monkeypatch):
    calls = _count_residuals(monkeypatch)
    pres = builtin_presentation(pres_id)
    pres.validate()
    assert pres.jacobi_witness() is None
    calls.clear()
    assert pres.validate() is True
    assert pres.jacobi_witness() is None
    assert calls == []


@pytest.mark.parametrize("pres_id", sorted(JACOBI_WITNESSES))
def test_corrupted_witness_is_the_same_on_every_call(pres_id, monkeypatch):
    # a fresh object: the first call computes the witness, the second reads it
    calls = _count_residuals(monkeypatch)
    pres = presentation_module._BUILTINS[pres_id]()
    first = pres.jacobi_witness()
    assert calls
    calls.clear()
    second = pres.jacobi_witness()
    assert calls == []
    for witness in (first, second):
        pin = (tuple(witness[:3]), _vector_digest(witness[3]))
        assert pin == JACOBI_WITNESSES[pres_id]
    assert first[3] == second[3]
    with pytest.raises(PresentationError, match=r"Jacobi fails at \(") as info:
        pres.validate()
    assert calls == []
    assert f"residual {dict(first[3])}" in str(info.value)


@pytest.mark.parametrize("pres_id", ["N2", "big4_kwmiss2"])
def test_copy_of_a_checked_table_is_checked_again(pres_id, monkeypatch):
    # the verdict belongs to the object, not to the table it was built from
    source = builtin_presentation(pres_id)
    source.jacobi_witness()
    calls = _count_residuals(monkeypatch)
    copy = VaPresentation(
        f"{pres_id}_copy",
        source.generators,
        dict(source._table),
        source.central_charge,
        source.conformal_name,
    )
    witness = copy.jacobi_witness()
    assert calls
    if pres_id in JACOBI_WITNESSES:
        pin = (tuple(witness[:3]), _vector_digest(witness[3]))
        assert pin == JACOBI_WITNESSES[pres_id]
    else:
        assert witness is None and copy.validate() is True
