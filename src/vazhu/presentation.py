"""Vertex superalgebra presentations by generator lambda brackets.

A presentation lists generating fields with parities and conformal weights
together with the lambda brackets of generator pairs, each bracket a sum of
terms coeff * lam^n * d^k(generator) plus a central polynomial in lam.  The
module validates weight homogeneity, skew consistency, primary normalization
against the conformal field, and the conformal-level Jacobi identity, and it
serves the per-mode products that the enveloping engine consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _clean, key_acc, vec_acc
from .scalar import Scalar, ZERO, ONE, _coerce

__all__ = [
    "GeneratorSpec",
    "VaPresentation",
    "PresentationError",
    "term",
    "builtin_presentation",
    "builtin_ids",
    "check_embedding",
    "builtin_embedding",
]


_MINUS_ONE = Scalar.from_int(-1)


class PresentationError(ValueError):
    """Raised with a witness when a presentation is inconsistent."""


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    parity: int
    weight: Fraction


def term(coeff, target: str, der: int = 0, lam: int = 0):
    """One bracket term coeff * lam^lam * d^der target."""
    return (lam, der, target, _coerce(coeff))


def _norm_terms(terms):
    out: dict = {}
    for lam, der, target, coeff in terms:
        key_acc(out, (lam, der, target), _coerce(coeff))
    return out


class VaPresentation:
    """Generators, weights, parities, and pairwise lambda brackets.

    The constructor checks structure only: declared names, declaration
    order and no duplicate pair.  validate() checks the brackets.
    """

    def __init__(
        self,
        name: str,
        generators,
        brackets,
        central_charge=None,
        conformal_name=None,
    ):
        self.name = name
        self.generators = [
            g if isinstance(g, GeneratorSpec) else GeneratorSpec(*g)
            for g in generators
        ]
        self.index = {g.name: i for i, g in enumerate(self.generators)}
        if len(self.index) != len(self.generators):
            raise PresentationError("duplicate generator name")
        self.parity = {g.name: g.parity for g in self.generators}
        self.weight = {g.name: Fraction(g.weight) for g in self.generators}
        self.central_charge = (
            None if central_charge is None else _coerce(central_charge)
        )
        self.conformal_name = conformal_name
        self._table = {}
        for (x, y), val in brackets.items():
            if x not in self.index or y not in self.index:
                raise PresentationError(f"bracket on undeclared pair ({x}, {y})")
            if self.index[x] > self.index[y]:
                raise PresentationError(
                    f"store brackets in declaration order; flip ({x}, {y})"
                )
            if (x, y) in self._table:
                raise PresentationError(f"duplicate bracket for ({x}, {y})")
            terms, central = val
            self._table[(x, y)] = (_norm_terms(terms), _clean(central or {}))
        self._pair_cache: dict = {}

    # -- basic data ----------------------------------------------------------

    def names(self):
        return [g.name for g in self.generators]

    def pair_sign(self, x: str, y: str) -> int:
        return -1 if self.parity[x] and self.parity[y] else 1

    def pair_bracket(self, x: str, y: str):
        """Canonical bracket of an ordered generator pair.

        Returns (terms, central) with terms keyed (lam_power, der_order,
        target) and central keyed lam_power.  Pairs stored in the other
        orientation are completed by skew symmetry.
        """
        if (x, y) in self._pair_cache:
            return self._pair_cache[(x, y)]
        if (x, y) in self._table:
            out = self._table[(x, y)]
        elif (y, x) in self._table:
            out = self._skew(self._table[(y, x)], self.pair_sign(x, y))
        else:
            out = ({}, {})
        self._pair_cache[(x, y)] = out
        return out

    @staticmethod
    def _skew(value, sign: int):
        # [y_lam x] = -p(x,y) [x_{-lam-d} y]; on central terms d acts as zero
        terms, central = value
        s = Scalar.from_int(-sign)
        out_terms: dict = {}
        for (n, k, target), coeff in terms.items():
            base = coeff * s * Scalar.from_int((-1) ** n)
            for j in range(n + 1):
                key_acc(
                    out_terms,
                    (n - j, k + j, target),
                    base * Scalar.from_int(math.comb(n, j)),
                )
        out_central = {
            n: coeff * s * Scalar.from_int((-1) ** n) for n, coeff in central.items()
        }
        return out_terms, out_central

    def nth_products(self, x: str, y: str):
        """Modes x_(n) y for n >= 0 as {n: (derivative terms, central)}.

        The lambda expansion [x_lam y] = sum_n lam^n / n! x_(n) y fixes the
        normalization: mode n collects n! times the lam^n coefficient.
        """
        terms, central = self.pair_bracket(x, y)
        out: dict = {}
        for (n, k, target), coeff in terms.items():
            fact = Scalar.from_int(math.factorial(n))
            slot = out.setdefault(n, ({}, ZERO))
            key_acc(slot[0], (k, target), coeff * fact)
        for n, coeff in central.items():
            tdict, cval = out.get(n, ({}, ZERO))
            out[n] = (tdict, cval + coeff * Scalar.from_int(math.factorial(n)))
        return out

    # -- validation -----------------------------------------------------------

    def validate(self):
        self._check_homogeneity()
        self._check_diagonal_skew()
        if self.conformal_name is not None:
            self._check_conformal()
        witness = self.jacobi_witness()
        if witness is not None:
            x, y, z, residual = witness
            raise PresentationError(
                f"Jacobi fails at ({x}, {y}, {z}): residual {residual}"
            )
        return True

    def _check_homogeneity(self):
        for (x, y), (terms, central) in self._table.items():
            wsum = self.weight[x] + self.weight[y]
            psum = (self.parity[x] + self.parity[y]) % 2
            for (n, k, target), _ in terms.items():
                if self.parity[target] != psum:
                    raise PresentationError(
                        f"parity mismatch in [{x}, {y}] -> {target}"
                    )
                if self.weight[target] + k + n + 1 != wsum:
                    raise PresentationError(
                        f"weight mismatch in [{x}, {y}] -> lam^{n} d^{k} {target}"
                    )
            for n in central:
                if psum != 0:
                    raise PresentationError(
                        f"odd central term in [{x}, {y}]"
                    )
                if n + 1 != wsum:
                    raise PresentationError(
                        f"central weight mismatch in [{x}, {y}] at lam^{n}"
                    )

    def _check_diagonal_skew(self):
        for g in self.generators:
            x = g.name
            stored = self.pair_bracket(x, x)
            flipped = self._skew(stored, self.pair_sign(x, x))
            if stored[0] != flipped[0] or stored[1] != flipped[1]:
                raise PresentationError(f"diagonal skew fails for {x}")

    def _check_conformal(self):
        L = self.conformal_name
        if L not in self.index:
            raise PresentationError(f"conformal name {L} not declared")
        if self.weight[L] != 2 or self.parity[L] != 0:
            raise PresentationError("conformal generator must be even weight 2")
        terms, central = self.pair_bracket(L, L)
        want = {(0, 1, L): ONE, (1, 0, L): Scalar.from_int(2)}
        if terms != want:
            raise PresentationError("conformal self-bracket is not (d + 2 lam) L")
        cc = self.central_charge
        want_central = {} if cc is None or cc.is_zero() else {3: cc / 12}
        if central != want_central:
            raise PresentationError("conformal central term is not (c/12) lam^3")
        for g in self.generators:
            if g.name == L:
                continue
            terms, central = self.pair_bracket(L, g.name)
            want = _clean({(0, 1, g.name): ONE, (1, 0, g.name): Fraction(g.weight)})
            if terms != want or central:
                raise PresentationError(f"{g.name} is not primary of its weight")

    # -- conformal-level Jacobi ------------------------------------------------

    def _nest_outer(self, outer: str, inner_value, outer_is_lambda: bool):
        """[outer_nu (inner terms in the other variable)] as a bivariate value.

        inner_value terms are keyed (m, k, X): m the power of the variable the
        inner bracket was taken in, k the derivative order.  Sesquilinearity
        gives [a_nu d^k X] = (nu + d)^k [a_nu X]; central parts of the inner
        value are killed.  Keys out: (lam_pow, mu_pow, der, target) and central
        (lam_pow, mu_pow).
        """
        terms_out: dict = {}
        central_out: dict = {}
        inner_terms, _inner_central = inner_value
        for (m, k, target), coeff in inner_terms.items():
            base_terms, base_central = self.pair_bracket(outer, target)
            for t in range(k + 1):
                shift = Scalar.from_int(math.comb(k, t))
                for (p, q, y2), c2 in base_terms.items():
                    nu_pow = p + k - t
                    key = (
                        (nu_pow, m, q + t, y2)
                        if outer_is_lambda
                        else (m, nu_pow, q + t, y2)
                    )
                    key_acc(terms_out, key, coeff * c2 * shift)
                if t == k:
                    for p, c2 in base_central.items():
                        nu_pow = p + k
                        key = (nu_pow, m) if outer_is_lambda else (m, nu_pow)
                        key_acc(central_out, key, coeff * c2)
        return terms_out, central_out

    def _nest_middle(self, ab_value, cgen: str):
        """[[a_lam b]_{lam+mu} c] from the expansion of [a_lam b]."""
        terms_out: dict = {}
        central_out: dict = {}
        ab_terms, _ab_central = ab_value
        for (n, k, target), coeff in ab_terms.items():
            base_terms, base_central = self.pair_bracket(target, cgen)
            sign = Scalar.from_int((-1) ** k)
            for (p, q, y2), c2 in base_terms.items():
                tot = k + p
                for i in range(tot + 1):
                    key_acc(
                        terms_out,
                        (n + i, tot - i, q, y2),
                        coeff * c2 * sign * Scalar.from_int(math.comb(tot, i)),
                    )
            for p, c2 in base_central.items():
                tot = k + p
                for i in range(tot + 1):
                    key_acc(
                        central_out,
                        (n + i, tot - i),
                        coeff * c2 * sign * Scalar.from_int(math.comb(tot, i)),
                    )
        return terms_out, central_out

    def jacobi_residual(self, x: str, y: str, z: str):
        """Residual of [x_lam [y_mu z]] - [[x_lam y]_{lam+mu} z] - p [y_mu [x_lam z]]."""
        t1_terms, t1_central = self._nest_outer(
            x, self.pair_bracket(y, z), outer_is_lambda=True
        )
        t2_terms, t2_central = self._nest_middle(self.pair_bracket(x, y), z)
        t3_terms, t3_central = self._nest_outer(
            y, self.pair_bracket(x, z), outer_is_lambda=False
        )
        sign = Scalar.from_int(-self.pair_sign(x, y))
        res_terms = dict(t1_terms)
        vec_acc(res_terms, t2_terms, _MINUS_ONE)
        vec_acc(res_terms, t3_terms, sign)
        res_central = dict(t1_central)
        vec_acc(res_central, t2_central, _MINUS_ONE)
        vec_acc(res_central, t3_central, sign)
        return res_terms, res_central

    def jacobi_witness(self):
        """First failing triple with its residual, or None.

        Only y at or after x is tried: pair_bracket completes each pair by
        skew symmetry, so residual(y, x, z)(lam, mu) = -p(x, y)
        residual(x, y, z)(mu, lam), and the first failing triple in the
        full order already has x at or before y.
        """
        names = self.names()
        for i, x in enumerate(names):
            for y in names[i:]:
                for z in names:
                    res_terms, res_central = self.jacobi_residual(x, y, z)
                    if res_terms or res_central:
                        return (x, y, z, (res_terms, res_central))
        return None


# ---------------------------------------------------------------------------
# presentation-level embeddings


def check_embedding(source: VaPresentation, target: VaPresentation, images: dict):
    """None when images preserve all lambda brackets, else a witness pair.

    images maps each source generator to a coordinate dict over target
    generators; weights and parities must line up termwise, so the check is
    plain bilinear expansion and exact comparison.
    """
    names = source.names()
    for i, x in enumerate(names):
        for y in names[i:]:
            want_terms: dict = {}
            want_central: dict = {}
            src_terms, src_central = source.pair_bracket(x, y)
            for (n, k, tgt), coeff in src_terms.items():
                for tname, tcoeff in images[tgt].items():
                    key_acc(want_terms, (n, k, tname), coeff * _coerce(tcoeff))
            vec_acc(want_central, src_central)
            got_terms: dict = {}
            got_central: dict = {}
            for xg, xc in images[x].items():
                for yg, yc in images[y].items():
                    factor = _coerce(xc) * _coerce(yc)
                    tterms, tcentral = target.pair_bracket(xg, yg)
                    vec_acc(got_terms, tterms, factor)
                    vec_acc(got_central, tcentral, factor)
            if got_terms != want_terms or got_central != want_central:
                return (x, y, (got_terms, got_central), (want_terms, want_central))
    return None


# ---------------------------------------------------------------------------
# builtin presentations


def _conformal_rows(gens, c):
    """The rows [L_lam X] = (d + wt lam) X for every generator X.

    [L_lam L] = (d + 2 lam) L also gets its central term (c/12) lam^3.
    """
    rows = {}
    for g in gens:
        rows[("L", g.name)] = (
            [term(1, g.name, der=1), term(Fraction(g.weight), g.name, lam=1)],
            {3: c / 12} if g.name == "L" else {},
        )
    return rows


def _virasoro() -> VaPresentation:
    c = Scalar.param("c")
    gens = [GeneratorSpec("L", 0, Fraction(2))]
    brackets = _conformal_rows(gens, c)
    return VaPresentation("virasoro", gens, brackets, c, "L")


def _free_fermion() -> VaPresentation:
    gens = [GeneratorSpec("psi", 1, Fraction(1, 2))]
    return VaPresentation("free_fermion", gens, {("psi", "psi"): ([], {0: ONE})})


def _free_boson() -> VaPresentation:
    k = Scalar.param("k")
    gens = [GeneratorSpec("xi", 0, Fraction(1))]
    return VaPresentation("free_boson_k", gens, {("xi", "xi"): ([], {1: k})})


def _four_fermions() -> VaPresentation:
    k = Scalar.param("k")
    gens = [
        GeneratorSpec("Spp", 1, Fraction(1, 2)),
        GeneratorSpec("Spm", 1, Fraction(1, 2)),
        GeneratorSpec("Smp", 1, Fraction(1, 2)),
        GeneratorSpec("Smm", 1, Fraction(1, 2)),
    ]
    brackets = {
        ("Spp", "Smm"): ([], {0: k}),
        ("Spm", "Smp"): ([], {0: k}),
    }
    return VaPresentation("four_fermions_k", gens, brackets)


def _n1() -> VaPresentation:
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("G", 1, Fraction(3, 2)),
    ]
    brackets = _conformal_rows(gens, c)
    brackets[("G", "G")] = ([term(2, "L")], {2: c / 3})
    return VaPresentation("N1", gens, brackets, c, "L")


def _n2() -> VaPresentation:
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("J", 0, Fraction(1)),
        GeneratorSpec("Gp", 1, Fraction(3, 2)),
        GeneratorSpec("Gm", 1, Fraction(3, 2)),
    ]
    brackets = _conformal_rows(gens, c)
    brackets[("J", "J")] = ([], {1: c / 3})
    brackets[("J", "Gp")] = ([term(1, "Gp")], {})
    brackets[("J", "Gm")] = ([term(-1, "Gm")], {})
    brackets[("Gp", "Gm")] = (
        [term(1, "L"), term(Fraction(1, 2), "J", der=1), term(1, "J", lam=1)],
        {2: c / 6},
    )
    return VaPresentation("N2", gens, brackets, c, "L")


def _n3() -> VaPresentation:
    c = Scalar.param("c")
    gens = [GeneratorSpec("L", 0, Fraction(2))]
    gens += [GeneratorSpec(f"A{i}", 0, Fraction(1)) for i in (1, 2, 3)]
    gens += [GeneratorSpec(f"G{i}", 1, Fraction(3, 2)) for i in (1, 2, 3)]
    gens += [GeneratorSpec("Phi", 1, Fraction(1, 2))]
    brackets = _conformal_rows(gens, c)
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (i, j), k in eps.items():
        lo, hi = min(i, j), max(i, j)
        sign = 1 if (i, j) == (lo, hi) else -1
        brackets[(f"A{lo}", f"A{hi}")] = ([term(sign, f"A{k}")], {})
        brackets[(f"A{lo}", f"G{hi}")] = ([term(sign, f"G{k}")], {})
        brackets[(f"A{hi}", f"G{lo}")] = ([term(-sign, f"G{k}")], {})
        brackets[(f"G{lo}", f"G{hi}")] = (
            [term(-sign, f"A{k}", der=1), term(-2 * sign, f"A{k}", lam=1)],
            {},
        )
    # the diagonal current central is pinned by Jacobi against the odd
    # sector: (G1,G2,A3) forces it to negate the G-G central, and
    # (A1,G1,Phi) forces the Phi-Phi central to equal it
    for i in (1, 2, 3):
        brackets[(f"A{i}", f"A{i}")] = ([], {1: -c / 3})
        brackets[(f"A{i}", f"G{i}")] = ([term(1, "Phi", lam=1)], {})
        brackets[(f"G{i}", f"G{i}")] = ([term(2, "L")], {2: c / 3})
        brackets[(f"G{i}", "Phi")] = ([term(1, f"A{i}")], {})
    brackets[("Phi", "Phi")] = ([], {0: -c / 3})
    return VaPresentation("N3", gens, brackets, c, "L")


def _n4() -> VaPresentation:
    c = Scalar.param("c")
    half = Fraction(1, 2)
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("J0", 0, Fraction(1)),
        GeneratorSpec("Jp", 0, Fraction(1)),
        GeneratorSpec("Jm", 0, Fraction(1)),
        GeneratorSpec("Gp", 1, Fraction(3, 2)),
        GeneratorSpec("Gm", 1, Fraction(3, 2)),
        GeneratorSpec("GBp", 1, Fraction(3, 2)),
        GeneratorSpec("GBm", 1, Fraction(3, 2)),
    ]
    brackets = _conformal_rows(gens, c)
    brackets[("J0", "J0")] = ([], {1: c / 3})
    brackets[("J0", "Jp")] = ([term(2, "Jp")], {})
    brackets[("J0", "Jm")] = ([term(-2, "Jm")], {})
    brackets[("Jp", "Jm")] = ([term(1, "J0")], {1: c / 6})
    brackets[("J0", "Gp")] = ([term(1, "Gp")], {})
    brackets[("J0", "Gm")] = ([term(-1, "Gm")], {})
    brackets[("J0", "GBp")] = ([term(1, "GBp")], {})
    brackets[("J0", "GBm")] = ([term(-1, "GBm")], {})
    brackets[("Jp", "Gm")] = ([term(1, "Gp")], {})
    brackets[("Jm", "Gp")] = ([term(1, "Gm")], {})
    brackets[("Jp", "GBm")] = ([term(-1, "GBp")], {})
    brackets[("Jm", "GBp")] = ([term(-1, "GBm")], {})
    brackets[("Gp", "GBp")] = ([term(1, "Jp", der=1), term(2, "Jp", lam=1)], {})
    brackets[("Gm", "GBm")] = ([term(1, "Jm", der=1), term(2, "Jm", lam=1)], {})
    brackets[("Gp", "GBm")] = (
        [term(1, "L"), term(half, "J0", der=1), term(1, "J0", lam=1)],
        {2: c / 6},
    )
    brackets[("Gm", "GBp")] = (
        [term(1, "L"), term(-half, "J0", der=1), term(-1, "J0", lam=1)],
        {2: c / 6},
    )
    return VaPresentation("N4", gens, brackets, c, "L")


def _big4_brackets(corrupt: str | None):
    """The 16-generator family at parameter a, optionally corrupted.

    corrupt == "kwmiss1" flips one current action sign; corrupt == "kwmiss2"
    shifts one lam coefficient in an odd-odd bracket.  Both perturbations are
    weight-homogeneous so only the Jacobi identity can see them.
    """
    c = Scalar.param("c")
    a = Scalar.param("a")
    s = Scalar.param("s")
    gp = ONE / (a + 1)
    gm = a / (a + 1)
    kp = (a + 1) * c / 6
    km = (a + 1) * c / (6 * a)
    k = -c / 6
    half = Fraction(1, 2)
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("J0", 0, Fraction(1)),
        GeneratorSpec("Jp", 0, Fraction(1)),
        GeneratorSpec("Jm", 0, Fraction(1)),
        GeneratorSpec("K0", 0, Fraction(1)),
        GeneratorSpec("Kp", 0, Fraction(1)),
        GeneratorSpec("Km", 0, Fraction(1)),
        GeneratorSpec("Xi", 0, Fraction(1)),
        GeneratorSpec("Gpp", 1, Fraction(3, 2)),
        GeneratorSpec("Gpm", 1, Fraction(3, 2)),
        GeneratorSpec("Gmp", 1, Fraction(3, 2)),
        GeneratorSpec("Gmm", 1, Fraction(3, 2)),
        GeneratorSpec("Spp", 1, Fraction(1, 2)),
        GeneratorSpec("Spm", 1, Fraction(1, 2)),
        GeneratorSpec("Smp", 1, Fraction(1, 2)),
        GeneratorSpec("Smm", 1, Fraction(1, 2)),
    ]
    b = _conformal_rows(gens, c)
    # two commuting current sl(2) pairs at levels k+ and k-, one boson
    b[("J0", "J0")] = ([], {1: 2 * kp})
    b[("J0", "Jp")] = ([term(2, "Jp")], {})
    b[("J0", "Jm")] = ([term(-2, "Jm")], {})
    b[("Jp", "Jm")] = ([term(1, "J0")], {1: kp})
    b[("K0", "K0")] = ([], {1: 2 * km})
    b[("K0", "Kp")] = ([term(2, "Kp")], {})
    b[("K0", "Km")] = ([term(-2, "Km")], {})
    b[("Kp", "Km")] = ([term(1, "K0")], {1: km})
    b[("Xi", "Xi")] = ([], {1: k})
    # current action on the weight-3/2 family
    b[("J0", "Gpp")] = ([term(1, "Gpp"), term(-a, "Spp", lam=1)], {})
    b[("J0", "Gpm")] = ([term(1, "Gpm"), term(-a, "Spm", lam=1)], {})
    b[("J0", "Gmp")] = ([term(-1, "Gmp"), term(1, "Smp", lam=1)], {})
    b[("J0", "Gmm")] = ([term(-1, "Gmm"), term(1, "Smm", lam=1)], {})
    b[("Jp", "Gmp")] = ([term(-1, "Gpp"), term(a, "Spp", lam=1)], {})
    b[("Jp", "Gmm")] = ([term(1, "Gpm"), term(-a, "Spm", lam=1)], {})
    b[("Jm", "Gpp")] = ([term(-1, "Gmp"), term(1, "Smp", lam=1)], {})
    b[("Jm", "Gpm")] = ([term(1, "Gmm"), term(-1, "Smm", lam=1)], {})
    b[("K0", "Gpp")] = ([term(1, "Gpp"), term(1, "Spp", lam=1)], {})
    b[("K0", "Gmp")] = ([term(1, "Gmp"), term(ONE / a, "Smp", lam=1)], {})
    b[("K0", "Gpm")] = ([term(-1, "Gpm"), term(-1, "Spm", lam=1)], {})
    b[("K0", "Gmm")] = ([term(-1, "Gmm"), term(-ONE / a, "Smm", lam=1)], {})
    b[("Kp", "Gpm")] = ([term(-1, "Gpp"), term(-1, "Spp", lam=1)], {})
    b[("Kp", "Gmm")] = ([term(1, "Gmp"), term(ONE / a, "Smp", lam=1)], {})
    b[("Km", "Gpp")] = ([term(-1, "Gpm"), term(-1, "Spm", lam=1)], {})
    b[("Km", "Gmp")] = ([term(1, "Gmm"), term(ONE / a, "Smm", lam=1)], {})
    # current action on the weight-1/2 family
    b[("J0", "Spp")] = ([term(1, "Spp")], {})
    b[("J0", "Spm")] = ([term(1, "Spm")], {})
    b[("J0", "Smp")] = ([term(-1, "Smp")], {})
    b[("J0", "Smm")] = ([term(-1, "Smm")], {})
    b[("Jp", "Smp")] = ([term(-a, "Spp")], {})
    b[("Jp", "Smm")] = ([term(a, "Spm")], {})
    b[("Jm", "Spp")] = ([term(-ONE / a, "Smp")], {})
    b[("Jm", "Spm")] = ([term(ONE / a, "Smm")], {})
    b[("K0", "Spp")] = ([term(1, "Spp")], {})
    b[("K0", "Smp")] = ([term(1, "Smp")], {})
    b[("K0", "Spm")] = ([term(-1, "Spm")], {})
    b[("K0", "Smm")] = ([term(-1, "Smm")], {})
    b[("Kp", "Spm")] = ([term(-1, "Spp")], {})
    b[("Kp", "Smm")] = ([term(1, "Smp")], {})
    b[("Km", "Spp")] = ([term(-1, "Spm")], {})
    b[("Km", "Smp")] = ([term(1, "Smm")], {})
    # odd-odd: weight-3/2 against weight-3/2
    b[("Gpp", "Gmm")] = (
        [
            term(1, "L"),
            term(gp * half, "J0", der=1),
            term(gp, "J0", lam=1),
            term(gm * half, "K0", der=1),
            term(gm, "K0", lam=1),
        ],
        {2: c / 6},
    )
    b[("Gpm", "Gmp")] = (
        [
            term(1, "L"),
            term(gp * half, "J0", der=1),
            term(gp, "J0", lam=1),
            term(-gm * half, "K0", der=1),
            term(-gm, "K0", lam=1),
        ],
        {2: c / 6},
    )
    b[("Gpp", "Gpm")] = ([term(-gp, "Jp", der=1), term(-2 * gp, "Jp", lam=1)], {})
    b[("Gmp", "Gmm")] = ([term(-gp, "Jm", der=1), term(-2 * gp, "Jm", lam=1)], {})
    b[("Gpp", "Gmp")] = ([term(-gm, "Kp", der=1), term(-2 * gm, "Kp", lam=1)], {})
    b[("Gpm", "Gmm")] = ([term(-gm, "Km", der=1), term(-2 * gm, "Km", lam=1)], {})
    # odd-odd: weight-3/2 against weight-1/2
    b[("Gpp", "Smm")] = (
        [term(gm * half, "J0"), term(-gm * half, "K0"), term(s, "Xi")],
        {},
    )
    b[("Gpm", "Smp")] = (
        [term(gm * half, "J0"), term(gm * half, "K0"), term(s, "Xi")],
        {},
    )
    b[("Gmp", "Spm")] = (
        [term(-gp * half, "J0"), term(-gp * half, "K0"), term(s / a, "Xi")],
        {},
    )
    b[("Gmm", "Spp")] = (
        [term(-gp * half, "J0"), term(gp * half, "K0"), term(s / a, "Xi")],
        {},
    )
    b[("Gpp", "Smp")] = ([term(gm, "Kp")], {})
    b[("Gpm", "Smm")] = ([term(gm, "Km")], {})
    b[("Gmp", "Spp")] = ([term(-gp, "Kp")], {})
    b[("Gmm", "Spm")] = ([term(-gp, "Km")], {})
    b[("Gpp", "Spm")] = ([term(-gp, "Jp")], {})
    b[("Gpm", "Spp")] = ([term(gp, "Jp")], {})
    b[("Gmp", "Smm")] = ([term(-gm, "Jm")], {})
    b[("Gmm", "Smp")] = ([term(gm, "Jm")], {})
    # weight-3/2 against the boson: skew image of [G_lam Xi] = s' (d + lam) S
    b[("Xi", "Gpp")] = ([term(s, "Spp", lam=1)], {})
    b[("Xi", "Gpm")] = ([term(s, "Spm", lam=1)], {})
    b[("Xi", "Gmp")] = ([term(s / a, "Smp", lam=1)], {})
    b[("Xi", "Gmm")] = ([term(s / a, "Smm", lam=1)], {})
    # weight-1/2 pairs
    b[("Spp", "Smm")] = ([], {0: k})
    b[("Spm", "Smp")] = ([], {0: k})
    if corrupt == "kwmiss1":
        b[("Kp", "Gpm")] = ([term(1, "Gpp"), term(-1, "Spp", lam=1)], {})
    elif corrupt == "kwmiss2":
        b[("Gpp", "Gpm")] = (
            [term(-gp, "Jp", der=1), term(-gp, "Jp", lam=1)],
            {},
        )
    return gens, b, c


def _big4(corrupt: str | None = None) -> VaPresentation:
    gens, brackets, c = _big4_brackets(corrupt)
    name = "big4" if corrupt is None else f"big4_{corrupt}"
    return VaPresentation(name, gens, brackets, c, "L")


_BUILTINS = {
    "virasoro": _virasoro,
    "free_fermion": _free_fermion,
    "free_boson_k": _free_boson,
    "four_fermions_k": _four_fermions,
    "N1": _n1,
    "N2": _n2,
    "N3": _n3,
    "N4": _n4,
    "big4": _big4,
    "big4_kwmiss1": lambda: _big4("kwmiss1"),
    "big4_kwmiss2": lambda: _big4("kwmiss2"),
}

# failure-path inputs: served as built, never validated
_CORRUPTED = ("big4_kwmiss1", "big4_kwmiss2")

_CACHE: dict = {}


def builtin_ids():
    return sorted(_BUILTINS)


def builtin_presentation(pres_id: str) -> VaPresentation:
    """The cached builtin; all but the corrupted ids are validated once."""
    if pres_id not in _BUILTINS:
        raise ValueError(f"unknown presentation id: {pres_id}")
    if pres_id not in _CACHE:
        pres = _BUILTINS[pres_id]()
        if pres_id not in _CORRUPTED:
            pres.validate()
        _CACHE[pres_id] = pres
    return _CACHE[pres_id]


# -- builtin embeddings: smaller series inside larger ones -------------------


def builtin_embedding(tag: str):
    """(source, target, images) for the named embedding check."""
    if tag == "N1_in_N2":
        return (
            builtin_presentation("N1"),
            builtin_presentation("N2"),
            {"L": {"L": ONE}, "G": {"Gp": ONE, "Gm": ONE}},
        )
    if tag == "N2_in_N4":
        return (
            builtin_presentation("N2"),
            builtin_presentation("N4"),
            {
                "L": {"L": ONE},
                "J": {"J0": ONE},
                "Gp": {"Gp": ONE},
                "Gm": {"GBm": ONE},
            },
        )
    raise ValueError(f"unknown embedding tag: {tag}")
