"""Vertex superalgebra presentations by generator lambda brackets.

A presentation lists generating fields with parities and conformal weights
together with the lambda brackets of generator pairs.  Each bracket is one
vector of terms coeff * lam^n * d^k(target), the target a generator or the
vacuum VACUUM: a central term c lam^n is the term (n, 0, VACUUM), as in a
Lie conformal algebra with values in the generators plus C|0>.  Two rules
cover the vacuum: d|0> = 0 and [|0>_lam X] = 0.  The module validates
weight homogeneity, skew consistency, primary normalization against the
conformal field, and the conformal-level Jacobi identity, and it serves the
per-mode products that the enveloping engine consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import _clean, key_acc, vec_acc
from .scalar import Scalar, ONE, _coerce

__all__ = [
    "GeneratorSpec",
    "VaPresentation",
    "PresentationError",
    "VACUUM",
    "term",
    "builtin_presentation",
    "builtin_ids",
    "check_embedding",
    "builtin_embedding",
]


# the vacuum as a bracket target: even, of weight 0
VACUUM = "|0>"

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


def _ders(target: str, top: int):
    """Derivative orders 0..top that survive on target; d|0> = 0."""
    return range(1 if target == VACUUM else top + 1)


class VaPresentation:
    """Generators, weights, parities, and pairwise lambda brackets.

    The constructor checks structure only: declared names, declaration
    order, no duplicate pair, and no derivative of the vacuum.  It takes
    each bracket as (terms, central), central a {lam_power: coeff} dict, and
    stores it as one vector with central terms on VACUUM.  validate()
    checks the brackets.
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
        if VACUUM in self.index:
            raise PresentationError(f"generator name {VACUUM} is the vacuum")
        self.parity = {g.name: g.parity for g in self.generators}
        self.weight = {g.name: Fraction(g.weight) for g in self.generators}
        self.central_charge = (
            None if central_charge is None else _coerce(central_charge)
        )
        self.conformal_name = conformal_name
        self._table = {}
        for (x, y), (terms, central) in brackets.items():
            if x not in self.index or y not in self.index:
                raise PresentationError(f"bracket on undeclared pair ({x}, {y})")
            if self.index[x] > self.index[y]:
                raise PresentationError(
                    f"store brackets in declaration order; flip ({x}, {y})"
                )
            if (x, y) in self._table:
                raise PresentationError(f"duplicate bracket for ({x}, {y})")
            value: dict = {}
            for lam, der, target, coeff in terms:
                if target == VACUUM:
                    if der:
                        raise PresentationError(
                            f"derivative of the vacuum in [{x}, {y}]"
                        )
                elif target not in self.index:
                    raise PresentationError(
                        f"undeclared target {target} in [{x}, {y}]"
                    )
                key_acc(value, (lam, der, target), _coerce(coeff))
            for lam, coeff in (central or {}).items():
                key_acc(value, (lam, 0, VACUUM), _coerce(coeff))
            self._table[(x, y)] = value
        self._pair_cache: dict = {}

    # -- basic data ----------------------------------------------------------

    def names(self):
        return [g.name for g in self.generators]

    def pair_sign(self, x: str, y: str) -> int:
        return -1 if self.parity[x] and self.parity[y] else 1

    def pair_bracket(self, x: str, y: str):
        """Canonical bracket of an ordered pair as one vector.

        Keys are (lam_power, der_order, target), central terms on VACUUM.
        Pairs stored in the other orientation are completed by skew
        symmetry; a pair with the vacuum in it brackets to zero.
        """
        if (x, y) in self._pair_cache:
            return self._pair_cache[(x, y)]
        if (x, y) in self._table:
            out = self._table[(x, y)]
        elif (y, x) in self._table:
            out = self._skew(self._table[(y, x)], self.pair_sign(x, y))
        else:
            out = {}
        self._pair_cache[(x, y)] = out
        return out

    @staticmethod
    def _skew(value, sign: int):
        # [y_lam x] = -p(x,y) [x_{-lam-d} y]
        s = Scalar.from_int(-sign)
        out: dict = {}
        for (n, k, target), coeff in value.items():
            base = coeff * s * Scalar.from_int((-1) ** n)
            for j in _ders(target, n):
                key_acc(
                    out,
                    (n - j, k + j, target),
                    base * Scalar.from_int(math.comb(n, j)),
                )
        return out

    def nth_products(self, x: str, y: str):
        """Modes x_(n) y for n >= 0 as {n: {(der_order, target): coeff}}.

        The lambda expansion [x_lam y] = sum_n lam^n / n! x_(n) y fixes the
        normalization: mode n collects n! times the lam^n coefficient.  A
        central term stays on VACUUM.
        """
        out: dict = {}
        for (n, k, target), coeff in self.pair_bracket(x, y).items():
            fact = Scalar.from_int(math.factorial(n))
            key_acc(out.setdefault(n, {}), (k, target), coeff * fact)
        return out

    # -- validation -----------------------------------------------------------

    def validate(self):
        self.check_homogeneity()
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

    def check_homogeneity(self):
        """PresentationError unless every bracket term has its pair's weight
        and parity; the engine relies on this, so it runs without validate().
        """
        # the vacuum, the only target outside the weights, is even of weight 0
        for (x, y), value in self._table.items():
            wsum = self.weight[x] + self.weight[y]
            psum = (self.parity[x] + self.parity[y]) % 2
            for n, k, target in value:
                if self.parity.get(target, 0) != psum:
                    raise PresentationError(
                        f"parity mismatch in [{x}, {y}] -> {target}"
                    )
                if self.weight.get(target, 0) + k + n + 1 != wsum:
                    raise PresentationError(
                        f"weight mismatch in [{x}, {y}] -> lam^{n} d^{k} {target}"
                    )

    def _check_diagonal_skew(self):
        for g in self.generators:
            x = g.name
            stored = self.pair_bracket(x, x)
            if stored != self._skew(stored, self.pair_sign(x, x)):
                raise PresentationError(f"diagonal skew fails for {x}")

    def _check_conformal(self):
        L = self.conformal_name
        if L not in self.index:
            raise PresentationError(f"conformal name {L} not declared")
        if self.weight[L] != 2 or self.parity[L] != 0:
            raise PresentationError("conformal generator must be even weight 2")
        want = {(0, 1, L): ONE, (1, 0, L): Scalar.from_int(2)}
        cc = self.central_charge
        if cc is not None and not cc.is_zero():
            want[(3, 0, VACUUM)] = cc / 12
        if self.pair_bracket(L, L) != want:
            raise PresentationError(
                "conformal self-bracket is not (d + 2 lam) L + (c/12) lam^3"
            )
        for g in self.generators:
            if g.name == L:
                continue
            want = _clean({(0, 1, g.name): ONE, (1, 0, g.name): Fraction(g.weight)})
            if self.pair_bracket(L, g.name) != want:
                raise PresentationError(f"{g.name} is not primary of its weight")

    # -- conformal-level Jacobi ------------------------------------------------

    def _nest_outer(self, outer: str, inner_value, outer_is_lambda: bool):
        """[outer_nu (inner value in the other variable)] as a bivariate vector.

        inner_value is keyed (m, k, X): m the power of the variable the inner
        bracket was taken in, k the derivative order.  Sesquilinearity gives
        [a_nu d^k X] = (nu + d)^k [a_nu X]; a vacuum X brackets to zero, and
        d kills a vacuum term of [a_nu X].  Keys out: (lam_pow, mu_pow, der,
        target), central terms on VACUUM.
        """
        out: dict = {}
        for (m, k, target), coeff in inner_value.items():
            shifts = [Scalar.from_int(math.comb(k, t)) for t in range(k + 1)]
            for (p, q, y2), c2 in self.pair_bracket(outer, target).items():
                for t in _ders(y2, k):
                    nu_pow = p + k - t
                    key = (
                        (nu_pow, m, q + t, y2)
                        if outer_is_lambda
                        else (m, nu_pow, q + t, y2)
                    )
                    key_acc(out, key, coeff * c2 * shifts[t])
        return out

    def _nest_middle(self, ab_value, cgen: str):
        """[[a_lam b]_{lam+mu} c] from the expansion of [a_lam b]."""
        out: dict = {}
        for (n, k, target), coeff in ab_value.items():
            sign = Scalar.from_int((-1) ** k)
            for (p, q, y2), c2 in self.pair_bracket(target, cgen).items():
                tot = k + p
                for i in range(tot + 1):
                    key_acc(
                        out,
                        (n + i, tot - i, q, y2),
                        coeff * c2 * sign * Scalar.from_int(math.comb(tot, i)),
                    )
        return out

    def jacobi_residual(self, x: str, y: str, z: str):
        """Residual of [x_lam [y_mu z]] - [[x_lam y]_{lam+mu} z] - p [y_mu [x_lam z]]."""
        res = self._nest_outer(x, self.pair_bracket(y, z), outer_is_lambda=True)
        vec_acc(res, self._nest_middle(self.pair_bracket(x, y), z), _MINUS_ONE)
        vec_acc(
            res,
            self._nest_outer(y, self.pair_bracket(x, z), outer_is_lambda=False),
            Scalar.from_int(-self.pair_sign(x, y)),
        )
        return res

    def jacobi_witness(self):
        """First failing triple with its residual vector, or None.

        Only y at or after x is tried: pair_bracket completes each pair by
        skew symmetry, so residual(y, x, z)(lam, mu) = -p(x, y)
        residual(x, y, z)(mu, lam), and the first failing triple in the
        full order already has x at or before y.
        """
        names = self.names()
        for i, x in enumerate(names):
            for y in names[i:]:
                for z in names:
                    residual = self.jacobi_residual(x, y, z)
                    if residual:
                        return (x, y, z, residual)
        return None


# ---------------------------------------------------------------------------
# presentation-level embeddings


def check_embedding(source: VaPresentation, target: VaPresentation, images: dict):
    """None when images preserve all lambda brackets, else (x, y, got, want).

    images maps each source generator to a coordinate dict over target
    generators, and VACUUM maps to itself; weights and parities must line
    up termwise, so the check is plain bilinear expansion and exact
    comparison.  PresentationError when images leaves a source generator
    out, keys an image by a name that is not one, or puts one on a name the
    target does not declare.
    """
    names = source.names()
    missing = [x for x in names if x not in images]
    if missing:
        raise PresentationError(f"no image for source generators {missing}")
    extra = sorted(images.keys() - set(names))
    if extra:
        raise PresentationError(f"images of unknown source generators {extra}")
    declared = set(target.names())
    unknown = sorted({g for x in names for g in images[x]} - declared)
    if unknown:
        raise PresentationError(f"images use unknown target generators {unknown}")
    images = {**images, VACUUM: {VACUUM: ONE}}
    for i, x in enumerate(names):
        for y in names[i:]:
            want: dict = {}
            for (n, k, tgt), coeff in source.pair_bracket(x, y).items():
                for tname, tcoeff in images[tgt].items():
                    key_acc(want, (n, k, tname), coeff * _coerce(tcoeff))
            got: dict = {}
            for xg, xc in images[x].items():
                for yg, yc in images[y].items():
                    factor = _coerce(xc) * _coerce(yc)
                    vec_acc(got, target.pair_bracket(xg, yg), factor)
            if got != want:
                return (x, y, got, want)
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
