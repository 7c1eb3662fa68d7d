"""Presentation-level checks: homogeneity, skew, Jacobi, embeddings."""

from fractions import Fraction

import pytest

from vazhu.presentation import (
    GeneratorSpec,
    PresentationError,
    VaPresentation,
    builtin_embedding,
    builtin_ids,
    builtin_presentation,
    check_embedding,
    term,
    _big4_brackets,
)
from vazhu.scalar import Scalar, ONE, ZERO

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


def test_corrupted_variants_fail_jacobi():
    for which in ("big4_kwmiss1", "big4_kwmiss2"):
        witness = builtin_presentation(which).jacobi_witness()
        assert witness is not None
        res_terms, res_central = witness[3]
        assert res_terms or res_central


def test_clean_big4_has_no_witness():
    assert builtin_presentation("big4").jacobi_witness() is None


# -- skew completion ----------------------------------------------------------


def test_skew_completion_weight_32_pair():
    # [Gm_lam Gp] = L - (1/2) dJ - lam J + (c/6) lam^2 from the stored pair
    pres = builtin_presentation("N2")
    terms, central = pres.pair_bracket("Gm", "Gp")
    assert terms == {
        (0, 0, "L"): ONE,
        (0, 1, "J"): Scalar.from_fraction(Fraction(-1, 2)),
        (1, 0, "J"): -ONE,
    }
    assert central == {2: C / 6}


def test_skew_completion_against_conformal():
    # [G_lam L] = (1/2) dG + (3/2) lam G
    pres = builtin_presentation("N1")
    terms, central = pres.pair_bracket("G", "L")
    assert terms == {
        (0, 1, "G"): Scalar.from_fraction(Fraction(1, 2)),
        (1, 0, "G"): Scalar.from_fraction(Fraction(3, 2)),
    }
    assert central == {}


def test_skew_on_central_only_pair():
    # constant centrals of odd pairs are symmetric under skew
    pres = builtin_presentation("big4")
    terms, central = pres.pair_bracket("Smm", "Spp")
    assert terms == {}
    assert central == {0: -C / 6}


def test_nth_products_normalization():
    # [G_lam G] = 2L + (c/3) lam^2 gives G_(0)G = 2L, G_(2)G = (2c/3) vac
    pres = builtin_presentation("N1")
    prods = pres.nth_products("G", "G")
    assert set(prods) == {0, 2}
    assert prods[0] == ({(0, "L"): Scalar.from_int(2)}, ZERO)
    assert prods[2] == ({}, 2 * C / 3)


def test_nth_products_of_free_fermion():
    pres = builtin_presentation("free_fermion")
    prods = pres.nth_products("psi", "psi")
    assert prods == {0: ({}, ONE)}


# -- validation rejections ----------------------------------------------------


def test_weight_inhomogeneity_rejected():
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, {("B", "B"): ([], {2: ONE})}).validate()


def test_parity_mismatch_rejected():
    gens = [
        GeneratorSpec("B", 0, Fraction(1)),
        GeneratorSpec("F", 1, Fraction(1)),
    ]
    brackets = {("B", "F"): ([term(1, "B", lam=1)], {})}
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, brackets).validate()


def test_odd_central_rejected():
    gens = [
        GeneratorSpec("B", 0, Fraction(1, 2)),
        GeneratorSpec("F", 1, Fraction(1, 2)),
    ]
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, {("B", "F"): ([], {0: ONE})}).validate()


def test_diagonal_skew_rejected():
    # [B_lam B] = B fails [x_lam x] = -[x_{-lam-d} x] for an even generator
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, {("B", "B"): ([term(1, "B")], {})}).validate()


def test_wrong_orientation_rejected():
    gens = [
        GeneratorSpec("X", 0, Fraction(1)),
        GeneratorSpec("Y", 0, Fraction(1)),
    ]
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, {("Y", "X"): ([], {1: ONE})})


def test_non_primary_rejected():
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("B", 0, Fraction(1)),
    ]
    brackets = {
        ("L", "L"): ([term(1, "L", der=1), term(2, "L", lam=1)], {3: c / 12}),
        ("L", "B"): ([term(1, "B", der=1), term(2, "B", lam=1)], {}),
    }
    with pytest.raises(PresentationError):
        VaPresentation("bad", gens, brackets, c, "L").validate()


# -- regression pins for the corrected central signs --------------------------


def test_displayed_diagonal_current_central_fails_jacobi():
    # +(c/3) lam on the diagonal current pair contradicts the odd sector
    c = Scalar.param("c")
    base = builtin_presentation("N3")
    brackets = {}
    for pair, (terms, central) in base._table.items():
        terms = [(n, k, x, co) for (n, k, x), co in terms.items()]
        brackets[pair] = (terms, dict(central))
    for i in (1, 2, 3):
        brackets[(f"A{i}", f"A{i}")] = ([], {1: c / 3})
    bad = VaPresentation("N3_displayed", base.generators, brackets, c, "L")
    witness = bad.jacobi_witness()
    assert witness is not None
    x, y, z, (res_terms, res_central) = witness
    assert {x, y, z} <= {"A1", "A2", "A3", "G1", "G2", "G3", "Phi"}
    assert res_central


@pytest.mark.parametrize(
    "mutate",
    [
        # boson action with a doubled lam coefficient
        lambda b, s, a: b.__setitem__(
            ("Xi", "Gpp"), ([term(2 * s, "Spp", lam=1), term(s, "Spp", der=1)], {})
        ),
        # flipped current-half of one odd-odd cross bracket
        lambda b, s, a: b.__setitem__(
            ("Gmm", "Spp"),
            (
                [
                    term(ONE / (a + 1) / 2, "J0"),
                    term(ONE / (a + 1) / 2, "K0"),
                    term(s / a, "Xi"),
                ],
                {},
            ),
        ),
    ],
)
def test_big4_single_entry_perturbations_fail_jacobi(mutate):
    gens, brackets, c = _big4_brackets(None)
    mutate(brackets, Scalar.param("s"), Scalar.param("a"))
    bad = VaPresentation("big4_perturbed", gens, brackets, c, "L")
    assert bad.jacobi_witness() is not None


def _swap_lam_mu(residual, sign):
    terms, central = residual
    s = Scalar.from_int(-sign)
    return (
        {(m, l, k, t): c * s for (l, m, k, t), c in terms.items()},
        {(m, l): c * s for (l, m), c in central.items()},
    )


def _doubled_first_off_diagonal(pres):
    # a copy whose first stored off-diagonal bracket is doubled, so that
    # some residuals are nonzero
    brackets = {}
    for pair, (terms, central) in pres._table.items():
        brackets[pair] = ([(n, k, x, co) for (n, k, x), co in terms.items()], central)
    pair = next(p for p in pres._table if p[0] != p[1] and pres._table[p][0])
    terms, central = brackets[pair]
    brackets[pair] = ([(n, k, x, 2 * co) for n, k, x, co in terms], central)
    return VaPresentation(
        f"{pres.name}_doubled",
        pres.generators,
        brackets,
        pres.central_charge,
        pres.conformal_name,
    )


@pytest.mark.parametrize("pres_id", ["N2", "N3", "N4"])
def test_jacobi_residual_is_skew_in_the_first_pair(pres_id):
    # residual(y, x, z)(lam, mu) = -p(x, y) residual(x, y, z)(mu, lam), which
    # lets jacobi_witness try only y at or after x
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


def test_unknown_embedding_tag_rejected():
    with pytest.raises(ValueError):
        builtin_embedding("N4_in_big4")
