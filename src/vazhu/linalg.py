"""Exact sparse linear algebra, super matrices and contact vector fields.

Everything here works over Scalar coefficients and is deterministic: pivot
choices depend only on a caller-supplied (or natural) ordering of basis keys,
never on dict iteration order.

Sparse vectors are {key: Scalar} dicts with no zero values: echelon rows,
Lie elements, Grassmann terms and SuperMatrix entries (keyed by (i, j))
all take this form.  Every sum of them in the package goes through one
accumulate pair: vec_acc adds a scaled vector and key_acc adds one
coefficient, both in place and never storing a zero.  vec_sum adds many
int-scaled vectors at once, as ints over one common denominator, and
builds each key's Scalar once.  _clean is the boundary: it turns outside
input (ints, Fractions, strings, zeros) into such a vector before anything
accumulates.
"""

from __future__ import annotations

from fractions import Fraction

from .scalar import Scalar, ZERO, ONE, _as_scalar, _coerce, _int_sum

__all__ = [
    "SuperMatrix",
    "GrassmannElement",
    "ContactDerivation",
    "solve_membership",
    "span_echelon",
    "verify_membership",
    "kernel",
    "contact_derivation",
    "contact_bracket",
]


def _clean(d: dict) -> dict:
    """A zero-free Scalar vector with the entries of d."""
    out = {}
    for k, v in d.items():
        s = v if type(v) is Scalar else _as_scalar(v, "coefficient at {!r}", k)
        if s._num:
            out[k] = s
    return out


def vec_acc(out: dict, vec: dict, coeff=None) -> None:
    """Add coeff * vec into out in place; coeff None or ONE adds vec as is.

    vec must hold no zero values: an empty out takes its entries as they are.
    """
    get = out.get
    if coeff is None or coeff is ONE:
        if not out:
            out.update(vec)
            return
        for k, v in vec.items():
            cur = get(k)
            nv = v if cur is None else cur + v
            if nv._num:
                out[k] = nv
            else:
                del out[k]
        return
    if not coeff._num:
        return
    for k, v in vec.items():
        v = v * coeff
        cur = get(k)
        nv = v if cur is None else cur + v
        if nv._num:
            out[k] = nv
        else:
            del out[k]


def vec_sum(terms) -> dict:
    """The sum of f * c * vec over the (int f, Scalar c, vector vec) of terms.

    It equals one vec_acc per term, but builds each key's Scalar once: the
    products with denominator 1 are summed by scalar._int_sum, as ints over
    one common denominator.  Any other product goes through key_acc into a
    side vector, added last.  The result is a new dict.
    """
    out, left = _int_sum(terms)
    side: dict = {}
    for k, s in left:
        key_acc(side, k, s)
    vec_acc(out, side)
    return out


def key_acc(out: dict, key, coeff) -> None:
    """Add the Scalar coeff at key in place; a zero sum removes the key."""
    cur = out.get(key)
    nv = coeff if cur is None else cur + coeff
    if nv._num:
        out[key] = nv
    elif cur is not None:
        del out[key]


def vec_scale(u: dict, f) -> dict:
    s = _as_scalar(f, "scale factor")
    if s.is_zero():
        return {}
    return {k: c * s for k, c in u.items()}


# ---------------------------------------------------------------------------
# echelon machinery with certificates


class _Echelon:
    """Incremental echelon basis remembering how each row was built.

    Each row is stored with its pivot coefficient ONE, and its combo scaled
    alike, so reducing a vector subtracts a row times the vector's own
    coefficient at the pivot and divides nothing.  The rows come from
    independent vectors, so a certificate or relation is the unique one
    over them, whatever the scaling of the rows.
    """

    def __init__(self, key_order=None):
        # (pivot, row_dict, combo_dict), each row_dict[pivot] ONE
        self.rows: list[tuple] = []
        self.key_order = key_order or (lambda k: k)

    def reduce(self, vec: dict):
        """Reduce a zero-free vec against the basis.

        Returns (residue, used) with residue = vec - sum used[tag]*original[tag],
        where original[tag] is the vector inserted under that tag.

        One pass in pivot order is exact: every row's keys come at or after
        its pivot in key_order (which tells keys apart), and the rows are
        sorted by pivot, so eliminating one row never brings back an earlier
        pivot.
        """
        used: dict = {}
        vec = dict(vec)
        for pivot, row, rcombo in self.rows:
            c = vec.get(pivot)
            if c is None:
                continue
            vec_acc(vec, row, -c)
            vec_acc(used, rcombo, c)
        return vec, used

    def insert(self, vec: dict, tag):
        """Insert a zero-free vector labelled by tag.

        Returns None when it enlarges the span, else the relation
        {tag: 1, i: -c_i} with vec = sum c_i original[i].  A new row and its
        combo are divided by the row's pivot coefficient, once.
        """
        residue, used = self.reduce(vec)
        combo = {tag: ONE}
        for idx, f in used.items():
            combo[idx] = -f
        if not residue:
            return combo
        pivot = min(residue, key=self.key_order)
        lead = residue[pivot]
        if lead != ONE:
            inv = ONE / lead
            residue = {k: v * inv for k, v in residue.items()}
            combo = {k: v * inv for k, v in combo.items()}
        residue[pivot] = ONE
        self.rows.append((pivot, residue, combo))
        self.rows.sort(key=lambda r: self.key_order(r[0]))
        return None

    def solve(self, target: dict):
        """Certificate {tag: coeff} with target = sum coeff*original[tag], or None."""
        residue, used = self.reduce(_clean(target))
        if residue:
            return None
        return used


def span_echelon(spanning: list[dict], key_order=None) -> _Echelon:
    """Echelon of a spanning family, row i tagged i; solve() many targets."""
    ech = _Echelon(key_order)
    for i, vec in enumerate(spanning):
        ech.insert(_clean(vec), i)
    return ech


def solve_membership(target: dict, spanning: list[dict], key_order=None):
    """Certificate {index: coeff} with target = sum coeff_i*spanning[i], or None.

    None only means the target is outside the span of the given family.  The
    certificate is exact; callers needing independence from this code path
    re-verify it with verify_membership.
    """
    return span_echelon(spanning, key_order).solve(target)


def verify_membership(target: dict, spanning: list[dict], cert: dict) -> bool:
    """Independent recombination check of a membership certificate; False
    when a key of cert is no index into spanning (-1 would read the last)."""
    if any(type(i) is not int or not 0 <= i < len(spanning) for i in cert):
        return False
    total: dict = {}
    for idx, coeff in _clean(cert).items():
        vec_acc(total, _clean(spanning[idx]), coeff)
    return total == _clean(target)


def kernel(columns: list[dict], key_order=None) -> list[dict]:
    """Null-space basis of x -> sum x_j columns[j], as {j: Scalar} dicts."""
    ech = _Echelon(key_order)
    out: list[dict] = []
    for j, col in enumerate(columns):
        relation = ech.insert(_clean(col), j)
        if relation is not None:
            out.append(relation)
    return out


# ---------------------------------------------------------------------------
# super matrices


class SuperMatrix:
    """Matrix over Scalar split as (m|n) x (m|n) blocks A B / C D.

    entries is a sparse vector {(i, j): Scalar} with 0 <= i, j < m + n.
    """

    __slots__ = ("m", "n", "entries")

    def __init__(self, m: int, n: int, entries: dict | None = None):
        self.m = m
        self.n = n
        self.entries = _clean(entries or {})
        d = m + n
        for i, j in self.entries:
            if not (0 <= i < d and 0 <= j < d):
                raise ValueError(f"entry ({i}, {j}) outside an ({m}|{n}) matrix")

    def parity(self):
        """0 for block-diagonal support, 1 for block-off-diagonal, None mixed."""
        m = self.m
        kinds = {int((i < m) != (j < m)) for i, j in self.entries}
        if len(kinds) > 1:
            return None
        return kinds.pop() if kinds else 0

    def __add__(self, other):
        self._check(other)
        out = dict(self.entries)
        vec_acc(out, other.entries)
        return SuperMatrix(self.m, self.n, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.entries)
        vec_acc(out, other.entries, -ONE)
        return SuperMatrix(self.m, self.n, out)

    def __mul__(self, other):
        if isinstance(other, SuperMatrix):
            self._check(other)
            right: dict = {}
            for (t, j), v in other.entries.items():
                right.setdefault(t, []).append((j, v))
            out: dict = {}
            for (i, t), u in self.entries.items():
                for j, v in right.get(t, ()):
                    key_acc(out, (i, j), u * v)
            return SuperMatrix(self.m, self.n, out)
        return SuperMatrix(self.m, self.n, vec_scale(self.entries, other))

    __rmul__ = __mul__

    def _check(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("superdimension mismatch")

    def supercommutator(self, other) -> "SuperMatrix":
        p1, p2 = self.parity(), other.parity()
        if p1 is None or p2 is None:
            raise ValueError("supercommutator needs homogeneous matrices")
        sign = Scalar.from_int(-1 if p1 and p2 else 1)
        return self * other - sign * (other * self)

    def supertranspose(self) -> "SuperMatrix":
        # [[A^T, C^T], [-B^T, D^T]]
        m = self.m
        return SuperMatrix(
            m,
            self.n,
            {(j, i): -v if i < m <= j else v for (i, j), v in self.entries.items()},
        )

    def supertrace(self) -> Scalar:
        tr = ZERO
        for (i, j), v in self.entries.items():
            if i == j:
                tr = tr + v if i < self.m else tr - v
        return tr

    def __eq__(self, other):
        return (
            isinstance(other, SuperMatrix)
            and (self.m, self.n) == (other.m, other.n)
            and self.entries == other.entries
        )

    def __repr__(self):
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.entries.items()))
        return f"SuperMatrix({self.m}|{self.n}: {{{body}}})"


# ---------------------------------------------------------------------------
# Grassmann algebra with Laurent coefficient in t


class GrassmannElement:
    """Element of C[t, t^-1] (x) Lambda(theta_1..theta_N).

    Terms are keyed by (t_exponent, ascending tuple of theta indices).  The
    constructor reads a key's thetas as a product in the order given: it
    sorts them at the sign of the permutation, drops a product with a
    repeated theta, and adds up keys that sort alike.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        out: dict = {}
        for (te, thetas), c in _clean(terms or {}).items():
            if len(set(thetas)) == len(thetas):
                sign, ordered = _sort_sign(thetas)
                key_acc(out, (te, ordered), c * sign)
        self.terms = out

    @classmethod
    def _from_clean(cls, terms: dict) -> "GrassmannElement":
        """An element on terms that are already zero-free Scalars on sorted keys."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @staticmethod
    def monomial(t_exp: int = 0, thetas=(), coeff=1) -> "GrassmannElement":
        return GrassmannElement({(t_exp, tuple(thetas)): coeff})

    def __add__(self, other):
        out = dict(self.terms)
        vec_acc(out, other.terms)
        return GrassmannElement._from_clean(out)

    def __neg__(self):
        return GrassmannElement._from_clean({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            out: dict = {}
            for (t1, s1), c1 in self.terms.items():
                for (t2, s2), c2 in other.terms.items():
                    if set(s1) & set(s2):
                        continue
                    sign, thetas = _sort_sign(s1 + s2)
                    key_acc(out, (t1 + t2, thetas), c1 * c2 * sign)
            return GrassmannElement._from_clean(out)
        f = _coerce(other)
        if f is NotImplemented:
            return NotImplemented
        if not f._num:
            return GrassmannElement()
        return GrassmannElement._from_clean({k: c * f for k, c in self.terms.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.terms

    def parity(self):
        ps = {len(s) % 2 for (_, s) in self.terms}
        if not ps:
            return 0
        return ps.pop() if len(ps) == 1 else None

    def theta_derivative(self, i: int) -> "GrassmannElement":
        """Left derivative by theta_i."""
        out = {}
        for (te, subset), c in self.terms.items():
            if i not in subset:
                continue
            pos = subset.index(i)
            rest = subset[:pos] + subset[pos + 1 :]
            key_acc(out, (te, rest), c * Scalar.from_int((-1) ** pos))
        return GrassmannElement._from_clean(out)

    def t_derivative(self) -> "GrassmannElement":
        out = {}
        for (te, subset), c in self.terms.items():
            if te:
                out[(te - 1, subset)] = c * Scalar.from_int(te)
        return GrassmannElement._from_clean(out)

    def t_shift(self, k: int) -> "GrassmannElement":
        return GrassmannElement._from_clean(
            {(te + k, subset): c for (te, subset), c in self.terms.items()}
        )

    def theta_degree_operator(self) -> "GrassmannElement":
        """sum_i theta_i d_theta_i, i.e. multiply each term by its theta-degree."""
        return GrassmannElement(
            {key: c * Scalar.from_int(len(key[1])) for key, c in self.terms.items()}
        )

    def __eq__(self, other):
        return isinstance(other, GrassmannElement) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (te, subset), c in sorted(self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            body = []
            if te:
                body.append(f"t^{te}" if te != 1 else "t")
            body.extend(f"x{i}" for i in subset)
            parts.append(f"({c})" + ("*" + "*".join(body) if body else ""))
        return " + ".join(parts)


def _sort_sign(seq):
    # (sign of the sorting permutation, sorted tuple) for distinct thetas
    inv = sum(1 for i, x in enumerate(seq) for y in seq[i + 1 :] if x > y)
    return Scalar.from_int(-1 if inv % 2 else 1), tuple(sorted(seq))


# ---------------------------------------------------------------------------
# contact vector fields as superderivations


class ContactDerivation:
    """Superderivation of C[t,t^-1] (x) Lambda(N), stored by generator images."""

    __slots__ = ("n_theta", "parity", "image_t", "image_theta")

    def __init__(self, n_theta: int, parity: int, image_t: GrassmannElement,
                 image_theta: dict[int, GrassmannElement]):
        self.n_theta = n_theta
        self.parity = parity
        self.image_t = image_t
        self.image_theta = {i: image_theta.get(i, GrassmannElement()) for i in range(1, n_theta + 1)}

    def apply(self, element: GrassmannElement) -> GrassmannElement:
        # D = D(t) d_t + sum_j D(theta_j) d_theta_j, left derivatives
        out = self.image_t * element.t_derivative()
        for j, image in self.image_theta.items():
            out = out + image * element.theta_derivative(j)
        return out

    def bracket(self, other: "ContactDerivation") -> "ContactDerivation":
        sign = Scalar.from_int(-1 if self.parity and other.parity else 1)
        t_img = self.apply(other.image_t) - sign * other.apply(self.image_t)
        th_img = {
            i: self.apply(other.image_theta[i]) - sign * other.apply(self.image_theta[i])
            for i in range(1, self.n_theta + 1)
        }
        return ContactDerivation(
            self.n_theta, (self.parity + other.parity) % 2, t_img, th_img
        )

    def scale(self, f) -> "ContactDerivation":
        f = _as_scalar(f, "scale factor")
        return ContactDerivation(
            self.n_theta,
            self.parity,
            self.image_t * f,
            {i: g * f for i, g in self.image_theta.items()},
        )

    def is_zero(self):
        return self.image_t.is_zero() and all(
            g.is_zero() for g in self.image_theta.values()
        )

    def __eq__(self, other):
        return (
            isinstance(other, ContactDerivation)
            and self.n_theta == other.n_theta
            and self.image_t == other.image_t
            and self.image_theta == other.image_theta
        )


def _d_epsilon(f: GrassmannElement) -> GrassmannElement:
    # d_t - (1/2) t^-1 sum_i theta_i d_theta_i
    correction = f.theta_degree_operator().t_shift(-1)
    return f.t_derivative() - correction * Scalar.from_fraction(Fraction(1, 2))


def _delta_weight(f: GrassmannElement) -> GrassmannElement:
    # (2 - sum theta d_theta) f
    return f * Scalar.from_int(2) - f.theta_degree_operator()


def contact_derivation(f: GrassmannElement, n_theta: int) -> ContactDerivation:
    """The contact field attached to a homogeneous f.

    Images on generators, read off the defining operator:
      D_f(t)       = Delta(f)
      D_f(theta_j) = -1/2 t^-1 Delta(f) theta_j + D_eps(f) theta_j
                     + (-1)^|f| t^-1 d_theta_j(f)
    """
    pf = f.parity()
    if pf is None:
        raise ValueError("contact_derivation needs homogeneous input")
    delta_f = _delta_weight(f)
    deps_f = _d_epsilon(f)
    img_t = delta_f
    img_theta = {}
    sign = Scalar.from_int((-1) ** pf)
    for j in range(1, n_theta + 1):
        theta_j = GrassmannElement.monomial(0, (j,))
        term1 = (delta_f * theta_j).t_shift(-1) * Scalar.from_fraction(
            Fraction(-1, 2)
        )
        term2 = deps_f * theta_j
        term3 = f.theta_derivative(j).t_shift(-1) * sign
        img_theta[j] = term1 + term2 + term3
    return ContactDerivation(n_theta, pf, img_t, img_theta)


def contact_bracket(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """{f,g} = Delta(f) D_eps(g) - D_eps(f) Delta(g) + (-1)^|f| t^-1 sum df dg."""
    pf = f.parity()
    if pf is None:
        raise ValueError("contact_bracket needs homogeneous input")
    out = _delta_weight(f) * _d_epsilon(g) - _d_epsilon(f) * _delta_weight(g)
    acc = GrassmannElement()
    n = max(
        [i for (_, s) in list(f.terms) + list(g.terms) for i in s],
        default=0,
    )
    for i in range(1, n + 1):
        acc = acc + f.theta_derivative(i) * g.theta_derivative(i)
    sign = Scalar.from_int((-1) ** pf)
    return out + acc.t_shift(-1) * sign
