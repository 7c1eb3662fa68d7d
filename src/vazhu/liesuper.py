"""Finite-dimensional Lie superalgebras by exact structure constants.

Covers the specific algebras appearing in the Zhu-algebra comparisons:
matrix-realized orthosymplectic / special linear families, the exceptional
one-parameter family D(2,1;a) built from its sl2 + sl2 + sl2 + C2 x C2 x C2
model, the contact algebras contact_R1..4, and the zero-mode algebras
R_N1, R_N2, R_N3, R_N4small and R_N4 of the Zhu algebras of the N=1, 2, 3, 4
and big N=4 superconformal vertex algebras.  Every realized algebra
(matrices, contact generating functions, the tensor model, a subalgebra's
elements) gets its structure constants from one routine,
_structure_constants.

A contact algebra is built from its generating functions t theta_I,
|I| <= 3, under the contact bracket of `linalg.contact_bracket` (Kac,
*Classification of infinite-dimensional simple linearly compact Lie
superalgebras*, Adv. Math. 1998).  f -> D_f is an injective Lie morphism
into the contact vector fields, so these are the structure constants of the
fields D_f, read off without building them.

The zero-mode algebras are derived from the lambda brackets of the
presentations (De Sole-Kac, the H-twisted Zhu algebra of a Lie conformal
algebra): [a, b] is the commutator of the zero modes a_(wt a - 1) and
b_(wt b - 1), the presentation's `mode_commutator` at n = wt a - 1 and
m = wt b - 1, whose terms are zero modes X_(wt X - 1) and |0>_(-1).  The
class of |0> is an even central Z.  The conformal vector is shifted to
L - (c/24) Z, which absorbs the central part of every bracket that has L in
it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations
from types import MappingProxyType

from .presentation import VACUUM, _BUILTINS as _PRESENTATIONS
from .scalar import Scalar, ONE
from .linalg import (
    SuperMatrix,
    GrassmannElement,
    span_echelon,
    kernel,
    contact_bracket,
    _clean,
    key_acc,
    vec_acc,
    vec_scale,
)

__all__ = [
    "LieSuperalgebra",
    "LieMorphism",
    "build_algebra",
    "MINIMAL_NILPOTENT",
    "zero_mode_morphism",
    "contact_basis_names",
]


class JacobiError(ValueError):
    """Raised with a witness when a structure-constant table is inconsistent."""


class LieSuperalgebra:
    """Basis, parities and structure constants [x_i, x_j] = sum c^k_ij x_k.

    table may be any mapping of mappings, such as another algebra's
    read-only one.  The constructor validates every new object.  `table`,
    its entries, `parity`, `index`, the matrix realization `matrices` and
    a subalgebra's `embedding` and its vectors are read-only
    `types.MappingProxyType` views (`names` and `modulo_matrices` tuples),
    so writing into one raises TypeError, and a verdict on them is fixed
    with the object: validate() records its pass and returns True on every
    later call without checking again.
    """

    def __init__(
        self,
        names,
        parities,
        table,
        matrices=None,
        modulo_matrices=(),
        embedding=None,
    ):
        self.names = tuple(names)
        self.parity = MappingProxyType(dict(parities))
        for n in self.names:
            p = self.parity.get(n)
            if p not in (0, 1):
                raise ValueError(f"{n} has parity {p!r}, not 0 or 1")
        self.index = MappingProxyType({n: i for i, n in enumerate(self.names)})
        if len(self.index) != len(self.names):
            raise ValueError("duplicate basis name")
        # a matrix realization, exact modulo the span of modulo_matrices
        self.matrices = None if matrices is None else MappingProxyType(dict(matrices))
        self.modulo_matrices = tuple(modulo_matrices)
        # coordinates of each basis vector in the parent algebra
        self.embedding = None if embedding is None else MappingProxyType(
            {n: MappingProxyType(dict(v)) for n, v in embedding.items()}
        )
        # fill in each missing orientation; validate() checks antisymmetry
        full = {}
        for (x, y), val in table.items():
            outside = {x, y, *val} - self.index.keys()
            if outside:
                raise ValueError(f"table entry ({x}, {y}) uses {sorted(outside)}")
            full[(x, y)] = _clean(val)
        for (x, y), val in list(full.items()):
            if (y, x) not in full:
                sign = 1 if self.parity[x] and self.parity[y] else -1
                full[(y, x)] = vec_scale(val, sign)
        for x in self.names:
            for y in self.names:
                full.setdefault((x, y), {})
        # bracket() reads the vectors directly; table is their read-only view
        self._rows = full
        self.table = MappingProxyType(
            {pair: MappingProxyType(val) for pair, val in full.items()}
        )
        self.validate()

    # -- core operations ---------------------------------------------------

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for nx, cx in x.items():
            for ny, cy in y.items():
                val = self._rows[(nx, ny)]
                if val:
                    vec_acc(out, val, cx * cy)
        return out

    def element(self, name: str) -> dict:
        return {name: ONE}

    def superdim(self):
        even = sum(1 for n in self.names if self.parity[n] == 0)
        return (even, len(self.names) - even)

    def parity_of(self, x: dict):
        ps = {self.parity[n] for n in x}
        if not ps:
            return 0
        return ps.pop() if len(ps) == 1 else None

    # -- validation ---------------------------------------------------------

    def validate(self):
        """Super antisymmetry and Jacobi on all basis triples; matrix check.

        True, or JacobiError at the first failure.  The data it reads is
        read-only, so a pass is recorded and a later call returns True
        without checking again.
        """
        return self._valid

    @cached_property
    def _valid(self):
        # both checks are symmetric in the pair, so y at or after x suffices
        for i, x in enumerate(self.names):
            for y in self.names[i:]:
                px, py = self.parity[x], self.parity[y]
                lhs = self.table[(x, y)]
                if lhs != vec_scale(self.table[(y, x)], 1 if px and py else -1):
                    raise JacobiError(f"antisymmetry fails at ({x}, {y})")
                for n in lhs:
                    if self.parity[n] != (px + py) % 2:
                        raise JacobiError(f"parity fails at ({x}, {y}) -> {n}")
        for i, x in enumerate(self.names):
            for j in range(i, len(self.names)):
                y = self.names[j]
                for k in range(j, len(self.names)):
                    z = self.names[k]
                    if not self._jacobi_ok(x, y, z):
                        raise JacobiError(f"Jacobi fails at triple ({x}, {y}, {z})")
        if self.matrices is not None:
            self._validate_matrices()
        return True

    def _jacobi_ok(self, x, y, z):
        # [x,[y,z]] = [[x,y],z] + (-1)^{|x||y|} [y,[x,z]]
        ex, ey, ez = self.element(x), self.element(y), self.element(z)
        lhs = self.bracket(ex, self.bracket(ey, ez))
        sign = Scalar.from_int(-1 if self.parity[x] and self.parity[y] else 1)
        rhs = self.bracket(self.bracket(ex, ey), ez)
        vec_acc(rhs, self.bracket(ey, self.bracket(ex, ez)), sign)
        return lhs == rhs

    def _validate_matrices(self):
        mats = self.matrices
        modulo = span_echelon([m.entries for m in self.modulo_matrices])
        # super-antisymmetry of the table is checked, so i <= j suffices
        for i, x in enumerate(self.names):
            for y in self.names[i:]:
                # [x, y] minus its table expansion must lie in the modulo span
                diff = dict(mats[x].supercommutator(mats[y]).entries)
                for n, c in self.table[(x, y)].items():
                    vec_acc(diff, mats[n].entries, -c)
                if modulo.solve(diff) is None:
                    raise JacobiError(f"matrix bracket mismatch at ({x}, {y})")

    # -- derived algebras ----------------------------------------------------

    def centralizer(self, x: dict) -> "LieSuperalgebra":
        """Centralizer of an even element as a new algebra on z0, z1, ...

        Its basis is the kernel of ad x, even vectors first, from one
        elimination per parity.  Closure under the bracket is verified
        during construction.
        """
        if self.parity_of(x) != 0:
            raise ValueError("centralizer implemented for even elements")
        vecs = []
        for par in (0, 1):
            names = [n for n in self.names if self.parity[n] == par]
            cols = [self.bracket(x, self.element(n)) for n in names]
            for combo in kernel(cols, key_order=lambda k: self.index[k]):
                vecs.append({names[j]: c for j, c in combo.items()})
        return self.subalgebra({f"z{i}": v for i, v in enumerate(vecs)})

    def subalgebra(self, elements: dict[str, dict]) -> "LieSuperalgebra":
        """Span of the given elements with induced brackets; must be closed."""
        names = list(elements)
        parities = {}
        for n, v in elements.items():
            p = self.parity_of(v)
            if p is None:
                raise ValueError(f"subalgebra element {n} is not homogeneous")
            parities[n] = p
        table = _structure_constants(
            names,
            elements,
            lambda x, y: self.bracket(elements[x], elements[y]),
            key_order=self.index.__getitem__,
        )
        return LieSuperalgebra(names, parities, table, embedding=elements)


class LieMorphism:
    """Linear map on basis elements, checkable for bracket preservation."""

    def __init__(self, source: LieSuperalgebra, target, images: dict):
        missing = [n for n in source.names if n not in images]
        if missing:
            raise ValueError(f"no image for source names {missing}")
        extra = sorted(images.keys() - set(source.names))
        if extra:
            raise ValueError(f"images of unknown source names {extra}")
        for n, v in images.items():
            outside = v.keys() - target.index.keys()
            if outside:
                raise ValueError(f"image of {n} uses {sorted(outside)}")
        self.source = source
        self.target = target
        self.images = {n: _clean(v) for n, v in images.items()}
        for n, v in self.images.items():
            for g in v:
                if target.parity[g] != source.parity[n]:
                    raise ValueError(f"image of {n} uses {g}, of another parity")

    def apply(self, x: dict) -> dict:
        out: dict = {}
        for n, c in x.items():
            vec_acc(out, self.images[n], c)
        return out

    def check(self):
        """None when brackets are preserved, else a witness tuple."""
        names = self.source.names
        for i, x in enumerate(names):
            for j in range(i, len(names)):
                y = names[j]
                want = self.apply(self.source.table[(x, y)])
                got = self.target.bracket(self.images[x], self.images[y])
                if got != want:
                    return (x, y, got, want)
        return None


# ---------------------------------------------------------------------------
# matrix-realized algebras


def _structure_constants(names, flat, bracket, key_order=None, modulo=()):
    """Structure constants of a realization closed under its bracket.

    flat[n] is the coordinate dict realizing the basis vector n, and
    bracket(x, y) the coordinate dict realizing [x, y].  Every pair is
    reduced against one echelon of the span of flat and modulo, built once;
    coordinates along modulo are dropped.  JacobiError when a bracket leaves
    the span.
    """
    span = span_echelon([flat[n] for n in names] + list(modulo), key_order)
    table = {}
    for i, x in enumerate(names):
        for y in names[i:]:
            cert = span.solve(bracket(x, y))
            if cert is None:
                raise JacobiError(f"[{x}, {y}] leaves the span")
            table[(x, y)] = {
                names[t]: c for t, c in cert.items() if t < len(names)
            }
    return table


def _from_matrices(names, parities, mats: dict, modulo=()):
    """Structure constants from supercommutators; optional central quotient."""
    table = _structure_constants(
        names,
        {n: mats[n].entries for n in names},
        lambda x, y: mats[x].supercommutator(mats[y]).entries,
        modulo=[m.entries for m in modulo],
    )
    return LieSuperalgebra(
        names, parities, table, matrices=mats, modulo_matrices=modulo
    )


def _osp12() -> LieSuperalgebra:
    m = partial(SuperMatrix, 1, 2)
    mats = {
        "h": m({(1, 1): 1, (2, 2): -1}),
        "e": m({(1, 2): 1}),
        "f": m({(2, 1): 1}),
        "q": m({(0, 2): 1, (1, 0): -1}),
        "g": m({(0, 1): 1, (2, 0): 1}),
    }
    parities = {"h": 0, "e": 0, "f": 0, "q": 1, "g": 1}
    return _from_matrices(["h", "e", "f", "q", "g"], parities, mats)


def _sl12() -> LieSuperalgebra:
    m = partial(SuperMatrix, 1, 2)
    mats = {
        "t1": m({(0, 0): 1, (1, 1): 1}),
        "t2": m({(0, 0): 1, (2, 2): 1}),
        "e": m({(1, 2): 1}),
        "f": m({(2, 1): 1}),
        "gp": m({(0, 1): 1}),
        "gm": m({(2, 0): 1}),
        "qp": m({(0, 2): 1}),
        "qm": m({(1, 0): 1}),
    }
    parities = {n: 0 for n in ("t1", "t2", "e", "f")}
    parities.update({n: 1 for n in ("gp", "gm", "qp", "qm")})
    return _from_matrices(list(mats), parities, mats)


def _psl22() -> LieSuperalgebra:
    m = partial(SuperMatrix, 2, 2)
    mats = {
        "ha": m({(0, 0): 1, (1, 1): -1}),
        "ea": m({(0, 1): 1}),
        "fa": m({(1, 0): 1}),
        "hd": m({(2, 2): 1, (3, 3): -1}),
        "ed": m({(2, 3): 1}),
        "fd": m({(3, 2): 1}),
    }
    for i in (0, 1):
        for j in (2, 3):
            mats[f"b{i}{j}"] = m({(i, j): 1})
            mats[f"c{j}{i}"] = m({(j, i): 1})
    parities = {n: 0 for n in ("ha", "ea", "fa", "hd", "ed", "fd")}
    for n in mats:
        parities.setdefault(n, 1)
    ident = m({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    return _from_matrices(list(mats), parities, mats, modulo=[ident])


def _osp32() -> LieSuperalgebra:
    m = partial(SuperMatrix, 3, 2)
    mats = {
        "a1": m({(1, 2): -1, (2, 1): 1}),
        "a2": m({(0, 2): 1, (2, 0): -1}),
        "a3": m({(0, 1): -1, (1, 0): 1}),
        "hd": m({(3, 3): 1, (4, 4): -1}),
        "ed": m({(3, 4): 1}),
        "fd": m({(4, 3): 1}),
    }
    for p in (0, 1, 2):
        mats[f"u{p + 1}"] = m({(p, 3): 1, (4, p): 1})
        mats[f"v{p + 1}"] = m({(p, 4): 1, (3, p): -1})
    parities = {n: 0 for n in ("a1", "a2", "a3", "hd", "ed", "fd")}
    for n in mats:
        parities.setdefault(n, 1)
    return _from_matrices(list(mats), parities, mats)


# ---------------------------------------------------------------------------
# the exceptional family from its tensor model

# D(2,1;a) = sl2 + sl2 + sl2 + V x V x V with V = span(x, y) (Kac 1977).  Keys
# of the model: "e1".."f3" for the three sl2 copies, "xyy" and so on for
# tensor products in the odd part.
_SL2 = {
    ("h", "e"): ("e", 2),
    ("e", "h"): ("e", -2),
    ("h", "f"): ("f", -2),
    ("f", "h"): ("f", 2),
    ("e", "f"): ("h", 1),
    ("f", "e"): ("h", -1),
}
# the sl2 action on V
_ON_V = {
    ("h", "x"): ("x", 1),
    ("h", "y"): ("y", -1),
    ("e", "y"): ("x", 1),
    ("f", "x"): ("y", 1),
}
_PSI = {("x", "y"): 1, ("y", "x"): -1}
# P(u, v): w -> psi(v, w) u + psi(u, w) v, as an sl2 element
_P = {
    ("x", "x"): ("e", 2),
    ("y", "y"): ("f", -2),
    ("x", "y"): ("h", -1),
    ("y", "x"): ("h", -1),
}


def _d21a_model_bracket(p: str, q: str, sigma) -> dict:
    """Bracket of two model keys; sigma weighs the three odd-odd channels."""
    if len(q) == 2 and len(p) == 3:
        return {k: -c for k, c in _d21a_model_bracket(q, p, sigma).items()}
    if len(p) == 2 and len(q) == 2:
        if p[1] != q[1] or (p[0], q[0]) not in _SL2:
            return {}
        t, c = _SL2[(p[0], q[0])]
        return {t + p[1]: Scalar.from_int(c)}
    if len(p) == 2:
        i = int(p[1]) - 1
        if (p[0], q[i]) not in _ON_V:
            return {}
        w, c = _ON_V[(p[0], q[i])]
        return {q[:i] + w + q[i + 1 :]: Scalar.from_int(c)}
    out: dict = {}
    for i in range(3):
        psi = math.prod(_PSI.get((p[j], q[j]), 0) for j in range(3) if j != i)
        if psi:
            t, c = _P[(p[i], q[i])]
            key_acc(out, f"{t}{i + 1}", sigma[i] * Scalar.from_int(psi * c))
    return out


def _d21a() -> LieSuperalgebra:
    """D(2,1;a) in root-vector names, as the image of its tensor model.

    The odd-odd bracket is [u1 u2 u3, v1 v2 v3] = sum_i sigma_i
    prod_{j != i} psi(u_j, v_j) P(u_i, v_i) in the i-th sl2, with
    sigma = (-1, g+, g-), g+ = 1/(a+1) and g- = a/(a+1).  Simple root
    vectors and the Cartan are placed by hand; the other root vectors are
    brackets of them.
    """
    a = Scalar.param("a")
    gp, gm = ONE / (a + 1), a / (a + 1)
    half = Scalar.from_fraction(Fraction(1, 2))
    sigma = (-ONE, gp, gm)

    def bracket(u: dict, v: dict) -> dict:
        out: dict = {}
        for p, cp in u.items():
            for q, cq in v.items():
                vec_acc(out, _d21a_model_bracket(p, q, sigma), cp * cq)
        return out

    images = {
        "h1": {"h2": -gp},
        "h2": {"h1": half, "h2": gp * half, "h3": gm * half},
        "h3": {"h3": -gm},
        "e100": {"e2": ONE},
        "f100": {"f2": -gp},
        "e010": {"xyy": ONE},
        "f010": {"yxx": half},
        "e001": {"e3": ONE},
        "f001": {"f3": -gm},
    }
    for name, coeff, x, y in (
        ("e110", ONE, "e100", "e010"),
        ("f110", a + 1, "f100", "f010"),
        ("e011", ONE, "e010", "e001"),
        ("f011", -(a + 1) / a, "f001", "f010"),
        ("e111", ONE, "e100", "e011"),
        ("f111", a + 1, "f100", "f011"),
        ("e121", ONE, "e010", "e111"),
        ("f121", ONE, "f010", "f111"),
    ):
        images[name] = vec_scale(bracket(images[x], images[y]), coeff)
    names = ["h1", "h2", "h3"] + [
        f"{kind}{root}"
        for root in ("100", "010", "001", "110", "011", "111", "121")
        for kind in "ef"
    ]
    parities = {n: int(n[-2]) % 2 if n[0] != "h" else 0 for n in names}
    table = _structure_constants(
        names, images, lambda x, y: bracket(images[x], images[y])
    )
    return LieSuperalgebra(names, parities, table)


# ---------------------------------------------------------------------------
# contact centralizer algebras


def contact_basis_names(n: int):
    names = ["D0"]
    names += ["D" + "".join(map(str, c)) for c in combinations(range(1, n + 1), 2)]
    names += [f"D{i}" for i in range(1, n + 1)]
    names += ["D" + "".join(map(str, c)) for c in combinations(range(1, n + 1), 3)]
    return names


def _contact_r(n: int) -> LieSuperalgebra:
    """The algebra of the generating functions t theta_I, |I| <= 3.

    Brackets are the contact bracket of `linalg.contact_bracket`, and each
    function's terms are its coordinates.
    """
    names = contact_basis_names(n)
    funcs = {}
    for nm in names:
        thetas = () if nm == "D0" else tuple(map(int, nm[1:]))
        funcs[nm] = GrassmannElement.monomial(1, thetas)
    parities = {nm: f.parity() for nm, f in funcs.items()}
    table = _structure_constants(
        names,
        {nm: f.terms for nm, f in funcs.items()},
        lambda x, y: contact_bracket(funcs[x], funcs[y]).terms,
    )
    return LieSuperalgebra(names, parities, table)


# ---------------------------------------------------------------------------
# zero-mode algebras derived from presentations


def _zero_mode_algebra(pres) -> LieSuperalgebra:
    """Zero-mode Lie superalgebra of the H-twisted Zhu algebra of pres.

    For generators a, b the bracket [a, b] is `pres.mode_commutator(a,
    wt a - 1, b, wt b - 1)` with each zero mode X_(wt X - 1) read as X and
    |0>_(-1) as the even central Z.  The rule reads each target's mode off
    the weights, so the table must be homogeneous (PresentationError).
    After the shift L -> L - (c/24) Z, Z joins the basis right after the
    last even generator, and only if some bracket still has a term on it.
    """
    pres.check_homogeneity()
    names, wt = pres.names(), pres.weight
    table = {}
    for i, x in enumerate(names):
        for y in names[i:]:
            modes = pres.mode_commutator(x, wt[x] - 1, y, wt[y] - 1)
            table[(x, y)] = {
                "Z" if target == VACUUM else target: coeff
                for (target, _), coeff in modes.items()
            }
    shift = pres.central_charge / 24
    for out in table.values():
        if pres.conformal_name in out:
            key_acc(out, "Z", out[pres.conformal_name] * shift)
    parities = dict(pres.parity)
    even = [n for n in names if parities[n] == 0]
    if any("Z" in out for out in table.values()):
        even.append("Z")
        parities["Z"] = 0
    basis = even + [n for n in names if parities[n] == 1]
    ordered = {
        pair: {n: out[n] for n in basis if n in out} for pair, out in table.items()
    }
    return LieSuperalgebra(basis, parities, ordered)


# The derivations read unvalidated presentations: validating big4 costs
# several times the derivation, and the Lie Jacobi check in the constructor
# still guards the result.
_BUILDERS = {
    "osp12": _osp12,
    "sl12": _sl12,
    "psl22": _psl22,
    "osp32": _osp32,
    "d21a": _d21a,
    "R_N1": lambda: _zero_mode_algebra(_PRESENTATIONS["N1"]()),
    "R_N2": lambda: _zero_mode_algebra(_PRESENTATIONS["N2"]()),
    "R_N3": lambda: _zero_mode_algebra(_PRESENTATIONS["N3"]()),
    "R_N4small": lambda: _zero_mode_algebra(_PRESENTATIONS["N4"]()),
    "R_N4": lambda: _zero_mode_algebra(_PRESENTATIONS["big4"]()),
    "contact_R1": lambda: _contact_r(1),
    "contact_R2": lambda: _contact_r(2),
    "contact_R3": lambda: _contact_r(3),
    "contact_R4": lambda: _contact_r(4),
}


@cache
def build_algebra(algebra_id: str, /) -> LieSuperalgebra:
    """One of: osp12, sl12, psl22, osp32, d21a, R_N1..R_N4, contact_R1..4.

    R_N1, R_N2, R_N3, R_N4small and R_N4 are the zero-mode algebras of the
    N1, N2, N3, N4 and big4 presentations, derived by the Zhu bracket rule
    of _zero_mode_algebra from the unvalidated presentations.  The algebra
    is built and validated on the first call and held by a
    `functools.cache`, one entry per id (positional only, so one key per
    id); an unknown id raises and caches nothing.  Its tables are
    read-only, so a later validate() returns the recorded pass.
    """
    if algebra_id not in _BUILDERS:
        raise ValueError(f"unknown algebra id: {algebra_id}")
    return _BUILDERS[algebra_id]()


# ---------------------------------------------------------------------------
# zero-mode realizations by contact fields

# canonical even nilpotent whose centralizer is compared with the zero modes
MINIMAL_NILPOTENT = {
    "osp12": "f",
    "sl12": "f",
    "psl22": "fa",
    "osp32": "fd",
    "d21a": "f121",
}


def _zero_mode_image_table(tag: str):
    I = Scalar.param("I")
    half = Scalar.from_fraction(Fraction(1, 2))
    if tag == "N1":
        return "R_N1", "contact_R1", {
            "L": {"D0": -half},
            "G": {"D1": ONE},
        }
    if tag in ("N2", "N2_displayed"):
        images = {
            "L": {"D0": -half},
            "J": {"D12": ONE} if tag == "N2_displayed" else {"D12": -I},
            "Gp": {"D1": half, "D2": -I * half},
            "Gm": {"D1": half, "D2": I * half},
        }
        return "R_N2", "contact_R2", images
    if tag == "N3":
        return "R_N3", "contact_R3", {
            "L": {"D0": -half},
            "A1": {"D23": ONE},
            "A2": {"D13": -ONE},
            "A3": {"D12": ONE},
            "G1": {"D1": ONE},
            "G2": {"D2": ONE},
            "G3": {"D3": ONE},
            "Phi": {"D123": -ONE},
            "Z": {},
        }
    if tag == "big4_even":
        return "R_N4", "contact_R4", {
            "L": {"D0": -half},
            "J0": {"D14": I, "D23": I},
            "Jp": {"D12": -half, "D34": -half, "D13": -I * half, "D24": I * half},
            "Jm": {"D12": half, "D34": half, "D13": -I * half, "D24": I * half},
            "K0": {"D14": -I, "D23": I},
            "Kp": {"D12": -half, "D34": half, "D13": -I * half, "D24": -I * half},
            "Km": {"D12": half, "D34": -half, "D13": -I * half, "D24": -I * half},
            "Xi": {},
            "Z": {},
        }
    raise ValueError(f"unknown zero-mode tag: {tag}")


def zero_mode_morphism(tag: str) -> LieMorphism:
    """Zero-mode assignment into the contact algebra, as a checkable map.

    Tags: N1, N2, N3, big4_even, and the negative control N2_displayed.
    big4_even maps the even subalgebra of R_N4 and leaves the odd half out.
    """
    source_id, target_id, images = _zero_mode_image_table(tag)
    source = build_algebra(source_id)
    target = build_algebra(target_id)
    if tag == "big4_even":
        even = {n: {n: ONE} for n in source.names if source.parity[n] == 0}
        source = source.subalgebra(even)
    return LieMorphism(source, target, images)
