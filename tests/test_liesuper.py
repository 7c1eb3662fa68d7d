"""Checks for the finite-dimensional Lie superalgebra layer.

Matrix-realized algebras are pinned against their defining invariant
(supertransposed form condition, supertrace), the exceptional family built
from its tensor model against its root-vector brackets and Cartan pairing,
every builtin table against a digest, and the zero-mode assignments against
the contact algebra.
"""

import hashlib
from fractions import Fraction

import pytest

from vazhu import liesuper
from vazhu.presentation import VaPresentation, builtin_presentation
from vazhu.scalar import Scalar, ZERO, ONE
from vazhu.linalg import SuperMatrix, kernel, solve_membership
from vazhu.liesuper import (
    LieSuperalgebra,
    LieMorphism,
    JacobiError,
    build_algebra,
    MINIMAL_NILPOTENT,
    zero_mode_morphism,
    contact_basis_names,
)

A = Scalar.param("a")
C = Scalar.param("c")
GP = ONE / (A + 1)
GM = A / (A + 1)


def sc(x):
    if isinstance(x, Scalar):
        return x
    return Scalar.from_fraction(Fraction(x))


# ---------------------------------------------------------------------------
# superdimensions


def test_superdimensions():
    expected = {
        "osp12": (3, 2),
        "sl12": (4, 4),
        "psl22": (6, 8),
        "osp32": (6, 6),
        "d21a": (9, 8),
        "R_N1": (1, 1),
        "R_N2": (2, 2),
        "R_N3": (5, 4),
        "R_N4small": (4, 4),
        "R_N4": (9, 8),
        "contact_R1": (1, 1),
        "contact_R2": (2, 2),
        "contact_R3": (4, 4),
        "contact_R4": (7, 8),
    }
    for aid, dims in expected.items():
        assert build_algebra(aid).superdim() == dims, aid


def test_build_algebra_rejects_unknown_id():
    g = build_algebra("osp12")
    size = build_algebra.cache_info().currsize
    assert build_algebra("osp12") is g
    # the id is positional only, and a refused id caches nothing
    with pytest.raises(TypeError):
        build_algebra(algebra_id="osp12")
    with pytest.raises(ValueError, match="^unknown algebra id: so5$"):
        build_algebra("so5")
    assert build_algebra.cache_info().currsize == size


# ---------------------------------------------------------------------------
# matrix realizations against their defining invariants


def _ortho_sympl_condition(m_dim, n_half):
    """Basis of the full matrix solution space of X^{st} J + J X = 0.

    J is block diag(identity_m, [[0,1],[-1,0]]): the invariant form that the
    orthosymplectic condition preserves.
    """
    total = m_dim + 2 * n_half
    form = {(i, i): ONE for i in range(m_dim)}
    for b in range(n_half):
        r = m_dim + 2 * b
        form[(r, r + 1)] = ONE
        form[(r + 1, r)] = -ONE
    J = SuperMatrix(m_dim, 2 * n_half, form)
    units = []
    for i in range(total):
        for j in range(total):
            units.append(SuperMatrix(m_dim, 2 * n_half, {(i, j): ONE}))
    flats = []
    for u in units:
        cond = u.supertranspose() * J + J * u
        flats.append(cond.entries)
    out = []
    for combo in kernel(flats):
        entries = {divmod(t, total): coeff for t, coeff in combo.items()}
        out.append(SuperMatrix(m_dim, 2 * n_half, entries))
    return out


def _span_equal(mats_a, mats_b):
    fa = [m.entries for m in mats_a]
    fb = [m.entries for m in mats_b]
    return all(solve_membership(v, fb) is not None for v in fa) and all(
        solve_membership(v, fa) is not None for v in fb
    )


def test_osp12_matrices_span_the_form_condition():
    g = build_algebra("osp12")
    sols = _ortho_sympl_condition(1, 1)
    assert len(sols) == 5
    assert _span_equal(sols, list(g.matrices.values()))


def test_osp32_matrices_span_the_form_condition():
    g = build_algebra("osp32")
    sols = _ortho_sympl_condition(3, 1)
    assert len(sols) == 12
    assert _span_equal(sols, list(g.matrices.values()))


def test_sl12_matrices_have_supertrace_zero():
    g = build_algebra("sl12")
    for name, m in g.matrices.items():
        assert m.supertrace().is_zero(), name
    # and they span the full str = 0 space: dimension (1+2)^2 - 1
    assert len(g.names) == 8


def test_psl22_is_a_quotient_by_the_identity():
    g = build_algebra("psl22")
    assert len(g.modulo_matrices) == 1
    ident = g.modulo_matrices[0]
    assert ident.supertrace().is_zero()
    # ha + hd lifts the identity's diagonal complement: [x, ha+hd] = 0 for all
    center_like = g.bracket(g.element("ha"), g.element("ea"))
    assert center_like == {"ea": Scalar.from_int(2)}


def test_structure_constants_match_supercommutators_spot():
    g = build_algebra("osp12")
    got = g.matrices["q"].supercommutator(g.matrices["q"])
    want = SuperMatrix(1, 2)
    for n, coeff in g.table[("q", "q")].items():
        want = want + coeff * g.matrices[n]
    assert got == want


# ---------------------------------------------------------------------------
# Jacobi validation catches corruption


def test_validation_rejects_a_corrupted_table():
    g = build_algebra("osp12")
    original = g.table[("q", "q")]
    bad = {pair: dict(val) for pair, val in g.table.items()}
    bad[("q", "q")] = {n: -coeff for n, coeff in original.items()}
    with pytest.raises(JacobiError):
        LieSuperalgebra(g.names, g.parity, bad)


def _count_checks(monkeypatch):
    calls = []
    for name in ("_jacobi_ok", "_validate_matrices"):
        real = getattr(LieSuperalgebra, name)

        def counted(self, *args, real=real, name=name):
            calls.append(name)
            return real(self, *args)

        monkeypatch.setattr(LieSuperalgebra, name, counted)
    return calls


def test_algebra_tables_are_read_only():
    g = build_algebra("d21a")
    for mapping, key, value in (
        (g.table, ("h1", "h1"), {}),
        (g.table[("h1", "e100")], "e100", ONE),
        (g.table[("h1", "h1")], "h1", ONE),
        (g.parity, "h1", 1),
        (build_algebra("osp12").matrices, "h", None),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value


def test_algebra_basis_and_embedding_are_read_only():
    # a write into a cached algebra's basis or a subalgebra's embedding
    # raises and leaves the object as it was
    g = build_algebra("osp12")
    cen = g.centralizer(g.element(MINIMAL_NILPOTENT["osp12"]))

    def state():
        embedding = {n: dict(v) for n, v in cen.embedding.items()}
        return g.names, dict(g.index), g.superdim(), _table_digest(g), embedding

    before = state()
    with pytest.raises(AttributeError):
        g.names.append("zz")
    for mapping, key, value in (
        (g.names, 0, "zz"),
        (g.index, "zz", 5),
        (cen.embedding, "zz", {}),
        (cen.embedding["z0"], "h", ONE),
    ):
        with pytest.raises(TypeError):
            mapping[key] = value
    assert build_algebra("osp12") is g and state() == before
    assert g.validate() is True


@pytest.mark.parametrize("aid", ["psl22", "d21a", "R_N4"])
def test_second_validate_checks_nothing(aid, monkeypatch):
    calls = _count_checks(monkeypatch)
    g = build_algebra(aid)
    assert g.validate() is True
    assert calls == []


def test_copy_of_a_validated_table_is_checked_again(monkeypatch):
    # the recorded pass belongs to the object, not to the table it read
    g = build_algebra("psl22")
    calls = _count_checks(monkeypatch)
    copy = LieSuperalgebra(
        g.names, g.parity, g.table, g.matrices, g.modulo_matrices
    )
    assert "_jacobi_ok" in calls and "_validate_matrices" in calls
    calls.clear()
    assert copy.validate() is True
    assert calls == []
    assert copy.table == g.table


def test_validation_rejects_a_wrong_matrix_realization():
    # swapping the matrices of e and f breaks [h, e] = 2e
    g = build_algebra("osp12")
    mats = dict(g.matrices, e=g.matrices["f"], f=g.matrices["e"])
    with pytest.raises(JacobiError, match=r"matrix bracket mismatch at \(h, e\)"):
        LieSuperalgebra(g.names, g.parity, g.table, matrices=mats)


def test_antisymmetry_completion_and_check():
    two = Scalar.from_int(2)
    g = LieSuperalgebra(
        ["h", "e", "f"],
        {"h": 0, "e": 0, "f": 0},
        {("h", "e"): {"e": two}, ("h", "f"): {"f": -two}, ("e", "f"): {"h": ONE}},
    )
    assert g.bracket(g.element("e"), g.element("h")) == {"e": -two}
    with pytest.raises(JacobiError):
        LieSuperalgebra(
            ["h", "e"],
            {"h": 0, "e": 0},
            {("h", "e"): {"e": ONE}, ("e", "h"): {"e": ONE}},
        )


def test_table_outside_the_basis_rejected():
    with pytest.raises(ValueError, match=r"table entry \(h, x\) uses \['x'\]"):
        LieSuperalgebra(["h"], {"h": 0}, {("h", "x"): {"h": ONE}})
    with pytest.raises(ValueError, match=r"table entry \(h, h\) uses \['y'\]"):
        LieSuperalgebra(["h"], {"h": 0}, {("h", "h"): {"y": ONE}})


def test_parity_other_than_0_or_1_rejected():
    # superdim would count parity 2 as odd
    with pytest.raises(ValueError, match="q has parity 2, not 0 or 1"):
        LieSuperalgebra(["h", "q"], {"h": 0, "q": 2}, {})


def test_duplicate_basis_name_rejected():
    # the index would keep one h while superdim counted two
    with pytest.raises(ValueError, match="duplicate basis name"):
        LieSuperalgebra(["h", "h"], {"h": 0}, {})


def test_table_term_of_wrong_parity_rejected():
    # [q, q] of an odd q is even, so it cannot hold q
    with pytest.raises(JacobiError, match=r"^parity fails at \(q, q\) -> q$"):
        LieSuperalgebra(["q"], {"q": 1}, {("q", "q"): {"q": ONE}})


def test_centralizer_of_odd_element_rejected():
    g = build_algebra("osp12")
    with pytest.raises(ValueError, match="^centralizer implemented for even elements$"):
        g.centralizer(g.element("q"))


def test_unknown_zero_mode_tag_rejected():
    with pytest.raises(ValueError, match="^unknown zero-mode tag: N5$"):
        zero_mode_morphism("N5")


def test_morphism_onto_other_parity_rejected():
    # a bracket-free source would pass check() on any images
    src = LieSuperalgebra(["x"], {"x": 0}, {})
    with pytest.raises(ValueError, match="image of x uses gp"):
        LieMorphism(src, build_algebra("sl12"), {"x": {"gp": 1}})


def test_morphism_needs_every_image_on_target_names():
    r = build_algebra("R_N1")
    with pytest.raises(ValueError, match=r"no image for source names \['G'\]"):
        LieMorphism(r, r, {"L": {"L": ONE}})
    with pytest.raises(ValueError, match=r"image of G uses \['X'\]"):
        LieMorphism(r, r, {"L": {"L": ONE}, "G": {"X": ONE}})
    identity = {"L": {"L": ONE}, "G": {"G": ONE}}
    with pytest.raises(ValueError, match=r"unknown source names \['Q'\]"):
        LieMorphism(r, r, dict(identity, Q={"L": ONE}))


# ---------------------------------------------------------------------------
# the exceptional family: root-vector brackets and invariants


def test_d21a_sl2_pairs_and_odd_action():
    g = build_algebra("d21a")

    def bk(x, y):
        return g.bracket(g.element(x), g.element(y))

    assert bk("h1", "e100") == {"e100": -2 * GP}
    assert bk("h1", "f100") == {"f100": 2 * GP}
    assert bk("e100", "f100") == {"h1": ONE}
    assert bk("h3", "e001") == {"e001": -2 * GM}
    assert bk("h3", "f001") == {"f001": 2 * GM}
    assert bk("e001", "f001") == {"h3": ONE}

    assert bk("h1", "f010") == {"f010": -GP}
    assert bk("h1", "f110") == {"f110": GP}
    assert bk("h1", "f011") == {"f011": -GP}
    assert bk("h1", "f111") == {"f111": GP}
    assert bk("h3", "f010") == {"f010": -GM}
    assert bk("h3", "f110") == {"f110": -GM}
    assert bk("h3", "f011") == {"f011": GM}
    assert bk("h3", "f111") == {"f111": GM}

    assert bk("f100", "f010") == {"f110": GP}
    assert bk("f100", "f011") == {"f111": GP}
    assert bk("f001", "f010") == {"f011": -GM}
    assert bk("f001", "f110") == {"f111": -GM}
    assert bk("f010", "f111") == {"f121": ONE}
    assert bk("f110", "f011") == {"f121": -ONE}


def test_d21a_cartan_pairing_invariant():
    g = build_algebra("d21a")
    gram = [
        [-2 * GP, GP, ZERO],
        [GP, ZERO, GM],
        [ZERO, GM, -2 * GM],
    ]
    roots = {
        "100": (1, 0, 0),
        "010": (0, 1, 0),
        "001": (0, 0, 1),
        "110": (1, 1, 0),
        "011": (0, 1, 1),
        "111": (1, 1, 1),
        "121": (1, 2, 1),
    }

    def form(al, be):
        acc = ZERO
        for i in range(3):
            for j in range(3):
                if al[i] and be[j]:
                    acc = acc + gram[i][j] * Scalar.from_int(al[i] * be[j])
        return acc

    for i, hi in enumerate(("h1", "h2", "h3")):
        unit = tuple(1 if t == i else 0 for t in range(3))
        for tag, beta in roots.items():
            got = g.bracket(g.element(hi), g.element(f"e{tag}"))
            pairing = form(unit, beta)
            want = {} if pairing.is_zero() else {f"e{tag}": pairing}
            assert got == want, (hi, tag)


def test_d21a_composite_diagonal_pairings_are_derived():
    g = build_algebra("d21a")

    def bk(x, y):
        return g.bracket(g.element(x), g.element(y))

    assert bk("e110", "f110") == {"h1": ONE, "h2": ONE}
    assert bk("e011", "f011") == {"h2": ONE, "h3": ONE}
    assert bk("e111", "f111") == {"h1": ONE, "h2": ONE, "h3": ONE}
    assert bk("e121", "f121") == {
        "h1": -ONE,
        "h2": Scalar.from_int(-2),
        "h3": -ONE,
    }


def test_d21a_nested_bracket_matches_composite_cartan():
    g = build_algebra("d21a")
    inner = g.bracket(g.element("f100"), g.element("f010"))
    got = g.bracket(g.element("e110"), inner)
    # [e110, [f100, f010]] lands on the coroot combination scaled by gamma+
    assert got == {"h1": GP, "h2": GP}


# ---------------------------------------------------------------------------
# centralizers of the lowest root vectors


def test_minimal_nilpotent_centralizer_superdims():
    expected = {
        "osp12": (1, 1),
        "sl12": (2, 2),
        "psl22": (4, 4),
        "osp32": (4, 3),
        "d21a": (7, 4),
    }
    for aid, dims in expected.items():
        g = build_algebra(aid)
        cen = g.centralizer(g.element(MINIMAL_NILPOTENT[aid]))
        assert cen.superdim() == dims, aid


def test_osp32_centralizer_embeds_into_the_n3_zero_modes():
    g = build_algebra("osp32")
    r = build_algebra("R_N3")
    sub = g.subalgebra(
        {
            "L": {"fd": ONE},
            "A1": {"a1": ONE},
            "A2": {"a2": ONE},
            "A3": {"a3": ONE},
            "G1": {"u1": ONE},
            "G2": {"u2": ONE},
            "G3": {"u3": ONE},
        }
    )
    assert sub.superdim() == (4, 3)
    mor = LieMorphism(sub, r, {n: {n: ONE} for n in sub.names})
    assert mor.check() is None


def test_d21a_centralizer_embeds_into_the_big_n4_zero_modes():
    d = build_algebra("d21a")
    r = build_algebra("R_N4")
    sub = d.subalgebra(
        {
            "L": {"f121": ONE},
            "Jp": {"e100": ONE},
            "J0": {"h1": -(A + 1)},
            "Jm": {"f100": -(A + 1)},
            "Kp": {"e001": ONE},
            "K0": {"h3": -(A + 1) / A},
            "Km": {"f001": -(A + 1) / A},
            "Gpp": {"f010": ONE},
            "Gmp": {"f110": ONE},
            "Gpm": {"f011": -ONE},
            "Gmm": {"f111": ONE},
        }
    )
    assert sub.superdim() == (7, 4)
    mor = LieMorphism(sub, r, {n: {n: ONE} for n in sub.names})
    assert mor.check() is None
    # the span equals the full centralizer of the lowest root vector
    cen = d.centralizer(d.element("f121"))
    cen_flat = list(cen.embedding.values())
    for v in sub.embedding.values():
        assert solve_membership(v, cen_flat, key_order=lambda k: d.index[k]) is not None


def test_sl12_centralizer_structure():
    g = build_algebra("sl12")
    cen = g.centralizer(g.element("f"))
    assert cen.superdim() == (2, 2)
    # one even direction is f itself, the other a hypercharge-like torus
    flats = list(cen.embedding.values())
    assert solve_membership({"f": ONE}, flats) is not None


# ---------------------------------------------------------------------------
# subalgebra closure detection


def test_subalgebra_rejects_non_closed_span():
    g = build_algebra("osp12")
    with pytest.raises(JacobiError):
        g.subalgebra({"e": {"e": ONE}, "f": {"f": ONE}})


def test_subalgebra_requires_homogeneous_elements():
    g = build_algebra("osp12")
    with pytest.raises(ValueError):
        g.subalgebra({"x": {"e": ONE, "q": ONE}})


# ---------------------------------------------------------------------------
# zero-mode algebras derived from the presentations

# sha256 prefixes of every builtin table: names, parities and every
# structure constant must stay bit-identical across rebuilds of the builders
TABLE_DIGESTS = {
    "osp12": "08e13a2ba5dcd7da",
    "sl12": "c1a023378988b216",
    "psl22": "10c2002648297725",
    "osp32": "e732ac0b3c60d5fe",
    "d21a": "beba19caa397b0cd",
    "R_N1": "1adca98786e63139",
    "R_N2": "7dd87b6d24fa5065",
    "R_N3": "6cadcf69b7ab2211",
    "R_N4small": "4a0d426d2b854ab5",
    "R_N4": "8252d0158e426688",
    "contact_R1": "66d0a3b99e9a415b",
    "contact_R2": "5abb18f1f8c1c2bb",
    "contact_R3": "442630b068d9b08e",
    "contact_R4": "a44e45bfc6d459d5",
}

ZERO_MODE_IDS = ("R_N1", "R_N2", "R_N3", "R_N4small", "R_N4")

# (table, embedding) digests of the centralizer of each MINIMAL_NILPOTENT
CENTRALIZER_DIGESTS = {
    "osp12": ("787a217436457032", "a4c3ee4a7c9630e6"),
    "sl12": ("862f4b8a1b8c7157", "1e0503c348cc07b3"),
    "psl22": ("e43f8dd19c1bae06", "7224b1ba168196cc"),
    "osp32": ("892bbb1d5552e540", "28301f971314b970"),
    "d21a": ("b37b67c0b09fae91", "9ab876cb2bf92918"),
}


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _table_digest(g):
    # names is a tuple; the pins were taken on its list form
    names = list(g.names)
    return _digest(
        repr(
            [names, [g.parity[n] for n in names]]
            + [
                (x, y, sorted((n, str(c)) for n, c in g.table[(x, y)].items()))
                for x in names
                for y in names
            ]
        )
    )


@pytest.mark.parametrize("aid", sorted(TABLE_DIGESTS))
def test_zero_mode_table_digest(aid):
    assert _table_digest(build_algebra(aid)) == TABLE_DIGESTS[aid]


@pytest.mark.parametrize("aid", sorted(CENTRALIZER_DIGESTS))
def test_minimal_nilpotent_centralizer_digest(aid):
    g = build_algebra(aid)
    cen = g.centralizer(g.element(MINIMAL_NILPOTENT[aid]))
    embedding = _digest(
        repr(
            [
                (n, sorted((k, str(v)) for k, v in cen.embedding[n].items()))
                for n in cen.names
            ]
        )
    )
    assert (_table_digest(cen), embedding) == CENTRALIZER_DIGESTS[aid]


# sha256 prefixes of every ordered basis-pair supercommutator and every basis
# supertranspose of the matrix realizations, as sorted entries
MATRIX_DIGESTS = {
    "osp12": "09082a34e149087b",
    "sl12": "278aa66eceefb967",
    "psl22": "59c04097e23a1e1e",
    "osp32": "ad015b21d6d8e74f",
}


def _entries(m):
    return m.entries


@pytest.mark.parametrize("aid", sorted(MATRIX_DIGESTS))
def test_matrix_supercommutators_pinned(aid):
    def flat(m):
        return sorted((k, str(v)) for k, v in _entries(m).items())

    mats = build_algebra(aid).matrices
    rows = []
    for x, mx in mats.items():
        rows.append((x, flat(mx.supertranspose())))
        for y, my in mats.items():
            rows.append((x, y, flat(mx.supercommutator(my))))
    assert _digest(repr(rows)) == MATRIX_DIGESTS[aid]


def test_zero_mode_derivation_leaves_presentations_unvalidated(monkeypatch):
    def refuse(self):
        raise AssertionError(f"presentation {self.name} was validated")

    monkeypatch.setattr(VaPresentation, "validate", refuse)
    before = builtin_presentation.cache_info().currsize
    for aid in ZERO_MODE_IDS:
        liesuper._BUILDERS[aid]()
    assert builtin_presentation.cache_info().currsize == before


@pytest.mark.parametrize(
    "which, triple",
    [("big4_kwmiss1", "Jp, Kp, Gmm"), ("big4_kwmiss2", "Jp, Gpp, Gmm")],
)
def test_zero_modes_of_corrupted_big4_fail_jacobi(which, triple):
    pres = builtin_presentation(which)
    with pytest.raises(JacobiError) as err:
        liesuper._zero_mode_algebra(pres)
    assert str(err.value) == f"Jacobi fails at triple ({triple})"


def test_r_n3_bracket_relations():
    g = build_algebra("R_N3")

    def bk(x, y):
        return g.bracket(g.element(x), g.element(y))

    assert bk("A1", "A2") == {"A3": ONE}
    assert bk("A2", "A1") == {"A3": -ONE}
    assert bk("A1", "G2") == {"G3": ONE}
    assert bk("A2", "G1") == {"G3": -ONE}
    for i in (1, 2, 3):
        assert bk(f"G{i}", f"G{i}") == {"L": Scalar.from_int(2)}
        assert bk("Phi", f"G{i}") == {f"A{i}": ONE}
        assert bk(f"G{i}", "Phi") == {f"A{i}": ONE}
    assert bk("Phi", "Phi") == {"Z": -C / 3}
    assert bk("Z", "Phi") == {}


def test_r_n4_g_sigma_sector():
    g = build_algebra("R_N4")
    s = Scalar.param("s")

    def bk(x, y):
        return g.bracket(g.element(x), g.element(y))

    half = sc(Fraction(1, 2))
    assert bk("Gpp", "Smm") == {"J0": GM * half, "K0": -GM * half, "Xi": s}
    assert bk("Gpm", "Smp") == {"J0": GM * half, "K0": GM * half, "Xi": s}
    assert bk("Gmp", "Spm") == {"J0": -GP * half, "K0": -GP * half, "Xi": s / A}
    assert bk("Gmm", "Spp") == {"J0": -GP * half, "K0": GP * half, "Xi": s / A}
    assert bk("Gpp", "Gmm") == {"L": ONE}
    assert bk("Gmp", "Gpm") == {"L": ONE}
    assert bk("Spp", "Smm") == {"Z": -C / 6}
    assert bk("Gpp", "Spp") == {}
    assert bk("Gpm", "Spp") == {"Jp": GP}
    assert bk("Gmp", "Spp") == {"Kp": -GP}


def test_r_n4_displayed_sigma_sign_fails_jacobi():
    # flipping the lowered G against raised sigma entry back to the displayed
    # sign breaks the Jacobi identity: a machine witness for the correction
    g = build_algebra("R_N4")
    half = sc(Fraction(1, 2))
    s = Scalar.param("s")
    bad = {}
    for (x, y), val in g.table.items():
        if g.index[x] <= g.index[y]:
            bad[(x, y)] = dict(val)
    bad[("Gmm", "Spp")] = {"J0": GP * half, "K0": -GP * half, "Xi": s / A}
    bad.pop(("Spp", "Gmm"), None)
    with pytest.raises(JacobiError):
        LieSuperalgebra(g.names, g.parity, bad)


# ---------------------------------------------------------------------------
# zero-mode contact assignments


def test_zero_mode_morphisms_preserve_brackets():
    for tag in ("N1", "N2", "N3", "big4_even"):
        assert zero_mode_morphism(tag).check() is None, tag


def test_zero_mode_displayed_n2_is_not_a_morphism():
    witness = zero_mode_morphism("N2_displayed").check()
    assert witness is not None
    x, y, got, want = witness
    assert {x, y} == {"J", "Gp"}
    assert got != want


def test_zero_mode_n1_images():
    mor = zero_mode_morphism("N1")
    img_g = mor.images["G"]
    target = mor.target
    sq = target.bracket(img_g, img_g)
    assert sq == {"D0": -ONE}


def test_contact_basis_names_order():
    assert contact_basis_names(2) == ["D0", "D12", "D1", "D2"]
    assert contact_basis_names(3) == [
        "D0",
        "D12",
        "D13",
        "D23",
        "D1",
        "D2",
        "D3",
        "D123",
    ]
