"""Vertex superalgebra presentations by generator lambda brackets.

A presentation lists generating fields with parities and conformal weights
together with the lambda brackets of generator pairs.  Each bracket is
given and stored as one vector {(n, k, target): coeff} of terms
coeff * lam^n * d^k(target), the target a generator or the vacuum VACUUM:
a central term c lam^n is the term (n, 0, VACUUM), as in a Lie conformal
algebra with values in the generators plus C|0>.  Two rules cover the
vacuum: d|0> = 0 and [|0>_lam X] = 0.  The module validates weight
homogeneity, skew consistency, primary normalization against the conformal
field, and the conformal-level Jacobi identity, and it serves the one mode
commutator rule that the enveloping engine and the zero-mode algebras read.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from types import MappingProxyType

from .linalg import _clean, key_acc, vec_acc
from .scalar import Scalar, ONE, _coerce

__all__ = [
    "GeneratorSpec",
    "VaPresentation",
    "PresentationError",
    "VACUUM",
    "builtin_presentation",
    "builtin_ids",
    "check_embedding",
    "builtin_embedding",
]


# the vacuum as a bracket target: even, of weight 0
VACUUM = "|0>"

_MINUS_ONE = Scalar.from_int(-1)

# the bracket of a pair that has none
_EMPTY = MappingProxyType({})


class PresentationError(ValueError):
    """Raised with a witness when a presentation is inconsistent."""


@dataclass(frozen=True)
class GeneratorSpec:
    name: str
    parity: int
    weight: Fraction


def _falling(n, k: int):
    """Falling factorial n (n - 1) ... (n - k + 1), for int or Fraction n."""
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _ders(target: str, top: int):
    """Derivative orders 0..top that survive on target; d|0> = 0."""
    return range(1 if target == VACUUM else top + 1)


class VaPresentation:
    """Generators, weights, parities, and pairwise lambda brackets.

    brackets maps each pair (x, y), x declared no later than y, to the
    vector {(lam, der, target): coeff} of [x_lam y], central terms on
    VACUUM; a coefficient is a Scalar, an int, a Fraction or scalar text,
    and a vector may be any mapping, such as another presentation's
    read-only one.  The constructor checks structure only: parities 0 or
    1, int or Fraction weights, declared names, declaration order, declared
    targets and no derivative of the vacuum.  validate() checks the
    brackets.

    The stored table `_table`, its vectors, the skew-completed
    `pair_bracket` vectors, `index`, `parity` and `weight` are read-only
    `types.MappingProxyType` views and `generators` is a tuple, so writing
    into one raises TypeError.
    A verdict on them is then fixed with the object: `jacobi_witness()`
    computes its result once and returns it on every later call.
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
        self.generators = tuple(generators)
        self.index = MappingProxyType(
            {g.name: i for i, g in enumerate(self.generators)}
        )
        if len(self.index) != len(self.generators):
            raise PresentationError("duplicate generator name")
        if VACUUM in self.index:
            raise PresentationError(f"generator name {VACUUM} is the vacuum")
        for g in self.generators:
            if g.parity not in (0, 1):
                raise PresentationError(f"{g.name} has parity {g.parity!r}, not 0 or 1")
            # Fraction(0.1) is a binary float's value, not one tenth
            if not isinstance(g.weight, (int, Fraction)):
                kind = type(g.weight).__name__
                raise PresentationError(f"{g.name} has a {kind} weight, not a rational")
        self.parity = MappingProxyType({g.name: g.parity for g in self.generators})
        self.weight = MappingProxyType(
            {g.name: Fraction(g.weight) for g in self.generators}
        )
        self.central_charge = (
            None if central_charge is None else _coerce(central_charge)
        )
        self.conformal_name = conformal_name
        table = {}
        for (x, y), value in brackets.items():
            if x not in self.index or y not in self.index:
                raise PresentationError(f"bracket on undeclared pair ({x}, {y})")
            if self.index[x] > self.index[y]:
                raise PresentationError(
                    f"store brackets in declaration order; flip ({x}, {y})"
                )
            if not isinstance(value, Mapping):
                raise PresentationError(
                    f"bracket of ({x}, {y}) is not a "
                    "{(lam, der, target): coeff} dict"
                )
            for _, der, target in value:
                if target == VACUUM:
                    if der:
                        raise PresentationError(
                            f"derivative of the vacuum in [{x}, {y}]"
                        )
                elif target not in self.index:
                    raise PresentationError(
                        f"undeclared target {target} in [{x}, {y}]"
                    )
            table[(x, y)] = MappingProxyType(_clean(value))
        self._table = MappingProxyType(table)
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
        symmetry; a pair with the vacuum in it brackets to zero.  The vector
        is a read-only view, built once per pair.
        """
        if (x, y) in self._pair_cache:
            return self._pair_cache[(x, y)]
        if (x, y) in self._table:
            out = self._table[(x, y)]
        elif (y, x) in self._table:
            skew = self._skew(self._table[(y, x)], self.pair_sign(x, y))
            out = MappingProxyType(skew)
        else:
            out = _EMPTY
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

    def mode_commutator(self, x: str, n, y: str, m):
        """[x_(n), y_(m)] = sum_j binom(n, j) (x_(j) y)_(n+m-j) as {(X, p): coeff}.

        x_(j) y is j! times the lam^j coefficient of [x_lam y], and
        (d^d X)_(q) = (-1)^d falling(q, d) X_(q-d) (Kac, *Vertex Algebras for
        Beginners*), so a term c lam^j d^d X adds c falling(n, j) (-1)^d
        falling(q, d) on (X, q - d), q = n + m - j.  Of the vacuum's modes
        only |0>_(-1) = 1 survives, as (VACUUM, -1).  n and m are ints, or
        Fractions for the zero modes of half-integer weights.
        """
        out: dict = {}
        for (j, d, target), coeff in self.pair_bracket(x, y).items():
            q = n + m - j
            if target == VACUUM and q != -1:
                continue
            factor = _falling(n, j) * _falling(q, d)
            if factor:
                factor = -factor if d & 1 else factor
                key_acc(out, (target, q - d), coeff * _coerce(factor))
        return out

    # -- validation -----------------------------------------------------------

    def validate(self):
        """True, or PresentationError at the first failing check.

        Homogeneity, diagonal skew symmetry, the conformal rows when there
        is a conformal field, then Jacobi as `jacobi_witness()` gives it, so
        the lambda-Jacobi identity runs once per object, however often
        validate() is called.
        """
        self.check_homogeneity()
        self._check_diagonal_skew()
        if self.conformal_name is not None:
            self._check_conformal()
        witness = self.jacobi_witness()
        if witness is not None:
            x, y, z, residual = witness
            raise PresentationError(
                f"Jacobi fails at ({x}, {y}, {z}): residual {dict(residual)}"
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
        rows = _conformal_rows(L, self.generators, self.central_charge)
        if self.pair_bracket(L, L) != rows.pop((L, L)):
            raise PresentationError(
                "conformal self-bracket is not (d + 2 lam) L + (c/12) lam^3"
            )
        for (_, x), row in rows.items():
            if self.pair_bracket(L, x) != row:
                raise PresentationError(f"{x} is not primary of its weight")

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
                base = coeff * c2
                for t in _ders(y2, k):
                    nu_pow = p + k - t
                    key = (
                        (nu_pow, m, q + t, y2)
                        if outer_is_lambda
                        else (m, nu_pow, q + t, y2)
                    )
                    key_acc(out, key, base * shifts[t])
        return out

    def _nest_middle(self, ab_value, cgen: str):
        """[[a_lam b]_{lam+mu} c] from the expansion of [a_lam b]."""
        out: dict = {}
        for (n, k, target), coeff in ab_value.items():
            sign = Scalar.from_int((-1) ** k)
            for (p, q, y2), c2 in self.pair_bracket(target, cgen).items():
                tot = k + p
                base = coeff * c2 * sign
                for i in range(tot + 1):
                    key_acc(
                        out,
                        (n + i, tot - i, q, y2),
                        base * Scalar.from_int(math.comb(tot, i)),
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
        """First failing triple with its read-only residual vector, or None.

        Only y at or after x is tried: pair_bracket completes each pair by
        skew symmetry, so residual(y, x, z)(lam, mu) = -p(x, y)
        residual(x, y, z)(mu, lam), and the first failing triple in the
        full order already has x at or before y.  The brackets are
        read-only, so the result is computed on the first call and returned
        as it is on every later one.
        """
        return self._jacobi

    @cached_property
    def _jacobi(self):
        names = self.names()
        for i, x in enumerate(names):
            for y in names[i:]:
                for z in names:
                    residual = self.jacobi_residual(x, y, z)
                    if residual:
                        return (x, y, z, MappingProxyType(residual))
        return None


# ---------------------------------------------------------------------------
# presentation-level embeddings


def check_embedding(source: VaPresentation, target: VaPresentation, images: dict):
    """None when images preserve all lambda brackets, else (x, y, got, want).

    images maps each source generator to a coordinate dict over target
    generators, and VACUUM maps to itself; weights and parities must line
    up termwise, so the check is plain bilinear expansion and exact
    comparison.  PresentationError when images leaves a source generator
    out, keys an image by a name that is not one, puts one on a name the
    target does not declare, or on one of another parity or weight.
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
    images = {x: _clean(images[x]) for x in names}
    for x in names:
        grade = (source.parity[x], source.weight[x])
        for g in images[x]:
            if (target.parity[g], target.weight[g]) != grade:
                raise PresentationError(
                    f"image of {x} uses {g}, of another parity or weight"
                )
    images[VACUUM] = {VACUUM: ONE}
    for i, x in enumerate(names):
        for y in names[i:]:
            want: dict = {}
            for (n, k, tgt), coeff in source.pair_bracket(x, y).items():
                for tname, tcoeff in images[tgt].items():
                    key_acc(want, (n, k, tname), coeff * tcoeff)
            got: dict = {}
            for xg, xc in images[x].items():
                for yg, yc in images[y].items():
                    vec_acc(got, target.pair_bracket(xg, yg), xc * yc)
            if got != want:
                return (x, y, got, want)
    return None


# ---------------------------------------------------------------------------
# builtin presentations


def _conformal_rows(L: str, gens, c):
    """The rows [L_lam X] = (d + wt X lam) X for every generator X.

    [L_lam L] also gets its central term (c/12) lam^3 unless c is None.
    """
    rows = {}
    for g in gens:
        row = {(0, 1, g.name): 1, (1, 0, g.name): Fraction(g.weight)}
        if g.name == L and c is not None:
            row[(3, 0, VACUUM)] = c / 12
        rows[(L, g.name)] = _clean(row)
    return rows


def _virasoro() -> VaPresentation:
    c = Scalar.param("c")
    gens = [GeneratorSpec("L", 0, Fraction(2))]
    brackets = _conformal_rows("L", gens, c)
    return VaPresentation("virasoro", gens, brackets, c, "L")


def _free_fermion() -> VaPresentation:
    gens = [GeneratorSpec("psi", 1, Fraction(1, 2))]
    return VaPresentation("free_fermion", gens, {("psi", "psi"): {(0, 0, VACUUM): 1}})


def _free_boson() -> VaPresentation:
    k = Scalar.param("k")
    gens = [GeneratorSpec("xi", 0, Fraction(1))]
    return VaPresentation("free_boson_k", gens, {("xi", "xi"): {(1, 0, VACUUM): k}})


def _four_fermions() -> VaPresentation:
    k = Scalar.param("k")
    gens = [
        GeneratorSpec("Spp", 1, Fraction(1, 2)),
        GeneratorSpec("Spm", 1, Fraction(1, 2)),
        GeneratorSpec("Smp", 1, Fraction(1, 2)),
        GeneratorSpec("Smm", 1, Fraction(1, 2)),
    ]
    brackets = {
        ("Spp", "Smm"): {(0, 0, VACUUM): k},
        ("Spm", "Smp"): {(0, 0, VACUUM): k},
    }
    return VaPresentation("four_fermions_k", gens, brackets)


def _n1() -> VaPresentation:
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("G", 1, Fraction(3, 2)),
    ]
    brackets = _conformal_rows("L", gens, c)
    brackets[("G", "G")] = {(0, 0, "L"): 2, (2, 0, VACUUM): c / 3}
    return VaPresentation("N1", gens, brackets, c, "L")


def _n2() -> VaPresentation:
    c = Scalar.param("c")
    gens = [
        GeneratorSpec("L", 0, Fraction(2)),
        GeneratorSpec("J", 0, Fraction(1)),
        GeneratorSpec("Gp", 1, Fraction(3, 2)),
        GeneratorSpec("Gm", 1, Fraction(3, 2)),
    ]
    brackets = _conformal_rows("L", gens, c)
    brackets[("J", "J")] = {(1, 0, VACUUM): c / 3}
    brackets[("J", "Gp")] = {(0, 0, "Gp"): 1}
    brackets[("J", "Gm")] = {(0, 0, "Gm"): -1}
    brackets[("Gp", "Gm")] = {
        (0, 0, "L"): 1,
        (0, 1, "J"): Fraction(1, 2),
        (1, 0, "J"): 1,
        (2, 0, VACUUM): c / 6,
    }
    return VaPresentation("N2", gens, brackets, c, "L")


def _n3() -> VaPresentation:
    c = Scalar.param("c")
    gens = [GeneratorSpec("L", 0, Fraction(2))]
    gens += [GeneratorSpec(f"A{i}", 0, Fraction(1)) for i in (1, 2, 3)]
    gens += [GeneratorSpec(f"G{i}", 1, Fraction(3, 2)) for i in (1, 2, 3)]
    gens += [GeneratorSpec("Phi", 1, Fraction(1, 2))]
    brackets = _conformal_rows("L", gens, c)
    eps = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
    for (i, j), k in eps.items():
        lo, hi = min(i, j), max(i, j)
        sign = 1 if (i, j) == (lo, hi) else -1
        brackets[(f"A{lo}", f"A{hi}")] = {(0, 0, f"A{k}"): sign}
        brackets[(f"A{lo}", f"G{hi}")] = {(0, 0, f"G{k}"): sign}
        brackets[(f"A{hi}", f"G{lo}")] = {(0, 0, f"G{k}"): -sign}
        brackets[(f"G{lo}", f"G{hi}")] = {
            (0, 1, f"A{k}"): -sign,
            (1, 0, f"A{k}"): -2 * sign,
        }
    # the diagonal current central is pinned by Jacobi against the odd
    # sector: (G1,G2,A3) forces it to negate the G-G central, and
    # (A1,G1,Phi) forces the Phi-Phi central to equal it
    for i in (1, 2, 3):
        brackets[(f"A{i}", f"A{i}")] = {(1, 0, VACUUM): -c / 3}
        brackets[(f"A{i}", f"G{i}")] = {(1, 0, "Phi"): 1}
        brackets[(f"G{i}", f"G{i}")] = {(0, 0, "L"): 2, (2, 0, VACUUM): c / 3}
        brackets[(f"G{i}", "Phi")] = {(0, 0, f"A{i}"): 1}
    brackets[("Phi", "Phi")] = {(0, 0, VACUUM): -c / 3}
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
    brackets = _conformal_rows("L", gens, c)
    brackets[("J0", "J0")] = {(1, 0, VACUUM): c / 3}
    brackets[("J0", "Jp")] = {(0, 0, "Jp"): 2}
    brackets[("J0", "Jm")] = {(0, 0, "Jm"): -2}
    brackets[("Jp", "Jm")] = {(0, 0, "J0"): 1, (1, 0, VACUUM): c / 6}
    brackets[("J0", "Gp")] = {(0, 0, "Gp"): 1}
    brackets[("J0", "Gm")] = {(0, 0, "Gm"): -1}
    brackets[("J0", "GBp")] = {(0, 0, "GBp"): 1}
    brackets[("J0", "GBm")] = {(0, 0, "GBm"): -1}
    brackets[("Jp", "Gm")] = {(0, 0, "Gp"): 1}
    brackets[("Jm", "Gp")] = {(0, 0, "Gm"): 1}
    brackets[("Jp", "GBm")] = {(0, 0, "GBp"): -1}
    brackets[("Jm", "GBp")] = {(0, 0, "GBm"): -1}
    brackets[("Gp", "GBp")] = {(0, 1, "Jp"): 1, (1, 0, "Jp"): 2}
    brackets[("Gm", "GBm")] = {(0, 1, "Jm"): 1, (1, 0, "Jm"): 2}
    brackets[("Gp", "GBm")] = {
        (0, 0, "L"): 1,
        (0, 1, "J0"): half,
        (1, 0, "J0"): 1,
        (2, 0, VACUUM): c / 6,
    }
    brackets[("Gm", "GBp")] = {
        (0, 0, "L"): 1,
        (0, 1, "J0"): -half,
        (1, 0, "J0"): -1,
        (2, 0, VACUUM): c / 6,
    }
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
    b = _conformal_rows("L", gens, c)
    # two commuting current sl(2) pairs at levels k+ and k-, one boson
    b[("J0", "J0")] = {(1, 0, VACUUM): 2 * kp}
    b[("J0", "Jp")] = {(0, 0, "Jp"): 2}
    b[("J0", "Jm")] = {(0, 0, "Jm"): -2}
    b[("Jp", "Jm")] = {(0, 0, "J0"): 1, (1, 0, VACUUM): kp}
    b[("K0", "K0")] = {(1, 0, VACUUM): 2 * km}
    b[("K0", "Kp")] = {(0, 0, "Kp"): 2}
    b[("K0", "Km")] = {(0, 0, "Km"): -2}
    b[("Kp", "Km")] = {(0, 0, "K0"): 1, (1, 0, VACUUM): km}
    b[("Xi", "Xi")] = {(1, 0, VACUUM): k}
    # current action on the weight-3/2 family
    b[("J0", "Gpp")] = {(0, 0, "Gpp"): 1, (1, 0, "Spp"): -a}
    b[("J0", "Gpm")] = {(0, 0, "Gpm"): 1, (1, 0, "Spm"): -a}
    b[("J0", "Gmp")] = {(0, 0, "Gmp"): -1, (1, 0, "Smp"): 1}
    b[("J0", "Gmm")] = {(0, 0, "Gmm"): -1, (1, 0, "Smm"): 1}
    b[("Jp", "Gmp")] = {(0, 0, "Gpp"): -1, (1, 0, "Spp"): a}
    b[("Jp", "Gmm")] = {(0, 0, "Gpm"): 1, (1, 0, "Spm"): -a}
    b[("Jm", "Gpp")] = {(0, 0, "Gmp"): -1, (1, 0, "Smp"): 1}
    b[("Jm", "Gpm")] = {(0, 0, "Gmm"): 1, (1, 0, "Smm"): -1}
    b[("K0", "Gpp")] = {(0, 0, "Gpp"): 1, (1, 0, "Spp"): 1}
    b[("K0", "Gmp")] = {(0, 0, "Gmp"): 1, (1, 0, "Smp"): ONE / a}
    b[("K0", "Gpm")] = {(0, 0, "Gpm"): -1, (1, 0, "Spm"): -1}
    b[("K0", "Gmm")] = {(0, 0, "Gmm"): -1, (1, 0, "Smm"): -ONE / a}
    b[("Kp", "Gpm")] = {(0, 0, "Gpp"): -1, (1, 0, "Spp"): -1}
    b[("Kp", "Gmm")] = {(0, 0, "Gmp"): 1, (1, 0, "Smp"): ONE / a}
    b[("Km", "Gpp")] = {(0, 0, "Gpm"): -1, (1, 0, "Spm"): -1}
    b[("Km", "Gmp")] = {(0, 0, "Gmm"): 1, (1, 0, "Smm"): ONE / a}
    # current action on the weight-1/2 family
    b[("J0", "Spp")] = {(0, 0, "Spp"): 1}
    b[("J0", "Spm")] = {(0, 0, "Spm"): 1}
    b[("J0", "Smp")] = {(0, 0, "Smp"): -1}
    b[("J0", "Smm")] = {(0, 0, "Smm"): -1}
    b[("Jp", "Smp")] = {(0, 0, "Spp"): -a}
    b[("Jp", "Smm")] = {(0, 0, "Spm"): a}
    b[("Jm", "Spp")] = {(0, 0, "Smp"): -ONE / a}
    b[("Jm", "Spm")] = {(0, 0, "Smm"): ONE / a}
    b[("K0", "Spp")] = {(0, 0, "Spp"): 1}
    b[("K0", "Smp")] = {(0, 0, "Smp"): 1}
    b[("K0", "Spm")] = {(0, 0, "Spm"): -1}
    b[("K0", "Smm")] = {(0, 0, "Smm"): -1}
    b[("Kp", "Spm")] = {(0, 0, "Spp"): -1}
    b[("Kp", "Smm")] = {(0, 0, "Smp"): 1}
    b[("Km", "Spp")] = {(0, 0, "Spm"): -1}
    b[("Km", "Smp")] = {(0, 0, "Smm"): 1}
    # odd-odd: weight-3/2 against weight-3/2
    b[("Gpp", "Gmm")] = {
        (0, 0, "L"): 1,
        (0, 1, "J0"): gp * half,
        (1, 0, "J0"): gp,
        (0, 1, "K0"): gm * half,
        (1, 0, "K0"): gm,
        (2, 0, VACUUM): c / 6,
    }
    b[("Gpm", "Gmp")] = {
        (0, 0, "L"): 1,
        (0, 1, "J0"): gp * half,
        (1, 0, "J0"): gp,
        (0, 1, "K0"): -gm * half,
        (1, 0, "K0"): -gm,
        (2, 0, VACUUM): c / 6,
    }
    b[("Gpp", "Gpm")] = {(0, 1, "Jp"): -gp, (1, 0, "Jp"): -2 * gp}
    b[("Gmp", "Gmm")] = {(0, 1, "Jm"): -gp, (1, 0, "Jm"): -2 * gp}
    b[("Gpp", "Gmp")] = {(0, 1, "Kp"): -gm, (1, 0, "Kp"): -2 * gm}
    b[("Gpm", "Gmm")] = {(0, 1, "Km"): -gm, (1, 0, "Km"): -2 * gm}
    # odd-odd: weight-3/2 against weight-1/2
    b[("Gpp", "Smm")] = {
        (0, 0, "J0"): gm * half,
        (0, 0, "K0"): -gm * half,
        (0, 0, "Xi"): s,
    }
    b[("Gpm", "Smp")] = {
        (0, 0, "J0"): gm * half,
        (0, 0, "K0"): gm * half,
        (0, 0, "Xi"): s,
    }
    b[("Gmp", "Spm")] = {
        (0, 0, "J0"): -gp * half,
        (0, 0, "K0"): -gp * half,
        (0, 0, "Xi"): s / a,
    }
    b[("Gmm", "Spp")] = {
        (0, 0, "J0"): -gp * half,
        (0, 0, "K0"): gp * half,
        (0, 0, "Xi"): s / a,
    }
    b[("Gpp", "Smp")] = {(0, 0, "Kp"): gm}
    b[("Gpm", "Smm")] = {(0, 0, "Km"): gm}
    b[("Gmp", "Spp")] = {(0, 0, "Kp"): -gp}
    b[("Gmm", "Spm")] = {(0, 0, "Km"): -gp}
    b[("Gpp", "Spm")] = {(0, 0, "Jp"): -gp}
    b[("Gpm", "Spp")] = {(0, 0, "Jp"): gp}
    b[("Gmp", "Smm")] = {(0, 0, "Jm"): -gm}
    b[("Gmm", "Smp")] = {(0, 0, "Jm"): gm}
    # weight-3/2 against the boson: skew image of [G_lam Xi] = s' (d + lam) S
    b[("Xi", "Gpp")] = {(1, 0, "Spp"): s}
    b[("Xi", "Gpm")] = {(1, 0, "Spm"): s}
    b[("Xi", "Gmp")] = {(1, 0, "Smp"): s / a}
    b[("Xi", "Gmm")] = {(1, 0, "Smm"): s / a}
    # weight-1/2 pairs
    b[("Spp", "Smm")] = {(0, 0, VACUUM): k}
    b[("Spm", "Smp")] = {(0, 0, VACUUM): k}
    if corrupt == "kwmiss1":
        b[("Kp", "Gpm")] = {(0, 0, "Gpp"): 1, (1, 0, "Spp"): -1}
    elif corrupt == "kwmiss2":
        b[("Gpp", "Gpm")] = {(0, 1, "Jp"): -gp, (1, 0, "Jp"): -gp}
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


def builtin_ids():
    return sorted(_BUILTINS)


@cache
def builtin_presentation(pres_id: str, /) -> VaPresentation:
    """The cached builtin; all but the corrupted ids are validated once.

    A `functools.cache` holds one presentation per id, which is positional
    only so that each id has one cache key; an unknown id raises and
    caches nothing.  Its tables are read-only, so the cached object is the
    one that was validated.  A clean builtin's lambda-Jacobi identity runs
    once, inside this first call; a later `jacobi_witness()` or
    `validate()` returns the verdict found then.
    """
    if pres_id not in _BUILTINS:
        raise ValueError(f"unknown presentation id: {pres_id}")
    pres = _BUILTINS[pres_id]()
    if pres_id not in _CORRUPTED:
        pres.validate()
    return pres


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
