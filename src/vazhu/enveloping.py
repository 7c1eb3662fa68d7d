"""Exact state computations in the vertex algebra a presentation generates.

States live in the PBW span of normal-ordered monomials
X_{i1(-m1)} ... X_{ik(-mk)} |0>, stored as dicts from sorted factor tuples
(generator index, m >= 1) to scalars.  Factors sort ascending by (-m, index),
repeated odd factors are straightened away, and every operation reduces to
memoized products of two monomials, so all products, brackets, and axiom
checks below are exact.  `nth_product` is the one product of states: it
adds its monomials' memoized products with `linalg.vec_acc`.

A product of two monomials (`_mono_product`) is a sum of scaled memoized
states, and deep products sum hundreds of thousands of terms, most onto
monomials that already hold a coefficient.  The engine lists them as
(int, Scalar, state) terms and adds them with `linalg.vec_sum`, which sums
every coefficient as an int over one common denominator, with no Scalar or
Fraction per term, and builds each monomial's Scalar once at the end, with
one division per coefficient (see `scalar`).  The axiom suite builds each
side of its skew and Borcherds checks the same way, as one `vec_sum` over
memoized products.  A product that vanishes by weight returns {} and is
not stored.

A single-factor left monomial needs no sum.  By the state-field
correspondence the mode X_{i(n)} is the n-th product with X_{i(-1)}|0>, so
`apply_mode` is that `nth_product`, memoized under the same keys as every
other product.  X_{i(-m)}|0> is the divided power
T^(m-1) X_i, and (T^(k) a)_(n) = (-1)^k binom(n, k) a_(n-k) (Kac, *Vertex
Algebras for Beginners*), so

    (X_{i(-m)}|0>)_(n) b = (-1)^(m-1) binom(n, m-1) X_{i(n-m+1)} b,

the memoized m = 1 product, scaled.  With factor 1 the memo keeps that very
vector under both keys; a zero factor stores nothing.  Every multi-factor
recursion bottoms out there.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import key_acc, vec_acc, vec_scale, vec_sum
from .presentation import VACUUM
from .scalar import Scalar, ONE

__all__ = [
    "VertexAlgebra",
    "AxiomReport",
    "axiom_suite",
    "gbinom",
]


def gbinom(n: int, k: int) -> int:
    """Binomial coefficient for any integer n and k >= 0.

    binom(n, k) = 0 for k > n >= 0, and for n < 0 the reflection
    binom(n, k) = (-1)^k binom(k - n - 1, k) holds.
    """
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    if n >= 0:
        return math.comb(n, k)
    return -math.comb(k - n - 1, k) if k & 1 else math.comb(k - n - 1, k)


def _key(i: int, m: int):
    return (-m, i)


_HALF = Scalar.from_fraction(Fraction(1, 2))

# memoized terms an engine keeps before trim_caches drops its memos
_MEMO_TERM_BUDGET = 3_000_000
# factors of the longest monomial nth_product (and so apply_mode) takes,
# under Python's default recursion limit of 1,000 frames: every product
# nests about 2 frames per factor (L_(1) and T on 100 factors each need a
# limit of 211 from a script's top level)
_FACTOR_LIMIT = 100


def _weight_bound(bound) -> Fraction:
    # Fraction(2.3) is a binary float's value, not 23/10, and True is 1
    if isinstance(bound, (int, Fraction)) and type(bound) is not bool:
        return Fraction(bound)
    raise TypeError(f"weight bound is a {type(bound).__name__}, not an int or Fraction")


class VertexAlgebra:
    """The enveloping vertex algebra of a validated presentation.

    The weight bounds of the products and of the axiom suite hold on the
    weight-homogeneous table that a VaPresentation has from its constructor,
    validated or not.  Two memos serve every call: `_prod_memo` holds the
    products of two monomials, single modes included, and `_wt2_memo` their
    doubled weights.  _MEMO_TERM_BUDGET bounds the memoized terms: past it,
    trim_caches drops both between top-level operations.  nth_product, the
    one product of states, apply_mode's too, refuses a monomial of more
    than _FACTOR_LIMIT factors with ValueError, so that no recursion of its
    reaches Python's recursion limit.
    """

    def __init__(self, presentation):
        self.pres = presentation
        self.names = presentation.names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.weights = [presentation.weight[n] for n in self.names]
        self.parities = [presentation.parity[n] for n in self.names]
        # X_{i(-1)}|0> of each generator, the left factor of its modes
        self._gens = [((i, 1),) for i in range(len(self.names))]
        self._prod_memo: dict = {}
        # doubled weights are integers, keeping hot-path bounds in int math
        self._wt2 = [int(2 * w) for w in self.weights]
        self._wt2_memo: dict = {(): 0}
        # stored memo terms, trimmed at safe points to bound memory
        self._memo_terms = 0

    # -- states ----------------------------------------------------------------

    def vacuum(self) -> dict:
        return {(): ONE}

    def generator(self, name: str) -> dict:
        return {self._gens[self.index[name]]: ONE}

    def mono_weight(self, mono) -> Fraction:
        return Fraction(self._mono_wt2(mono), 2)

    def mono_parity(self, mono) -> int:
        parities = self.parities
        return sum([parities[i] for i, _ in mono]) & 1

    def _mono_wt2(self, mono) -> int:
        # a hit is a plain subscript: the axiom suite reads every weight often
        try:
            return self._wt2_memo[mono]
        except KeyError:
            wt2 = self._wt2
            hit = sum(wt2[i] + 2 * m - 2 for i, m in mono)
            self._wt2_memo[mono] = hit
            return hit

    def format_mono(self, mono) -> str:
        return "".join(f"{self.names[i]}({-m})" for i, m in mono) + "|0>"

    def format_state(self, state) -> str:
        if not state:
            return "0"
        keys = sorted(state, key=lambda m: (self.mono_weight(m), m))
        parts = []
        for mono in keys:
            coeff = str(state[mono])
            if any(ch in coeff for ch in "+-") and not coeff.lstrip("-").isdigit():
                coeff = f"({coeff})"
            parts.append(f"{coeff}*{self.format_mono(mono)}")
        return " + ".join(parts)

    # -- the single-mode action -------------------------------------------------

    def apply_mode(self, i: int, n: int, state: dict) -> dict:
        """X_{i(n)} on a state, nth_product by X_{i(-1)}|0>; i and n are ints."""
        if type(i) is not int or not 0 <= i < len(self._gens):
            raise ValueError(
                f"generator index {i!r} is not an int in 0..{len(self._gens) - 1}"
                f" for the {len(self._gens)} generators"
            )
        return self.nth_product({self._gens[i]: ONE}, n, state)

    def _mode(self, i: int, n: int, mono) -> dict:
        """X_{i(n)} on a sorted monomial, as a new dict.

        `_mono_product` memoizes it as the product by X_{i(-1)}|0>, and
        only calls it when the weight leaves room for a nonzero result.
        """
        if not mono:
            return {} if n >= 0 else {((i, -n),): ONE}
        (hi, hm), rest = mono[0], mono[1:]
        if n < 0 and _key(i, -n) <= _key(hi, hm):
            if (i, -n) != (hi, hm) or not self.parities[i]:
                return {((i, -n),) + mono: ONE}
            # odd square: half the bracket of the mode with itself
            return vec_scale(self._bracket_action(i, n, i, hm, rest), _HALF)
        inner = self._mono_product(self._gens[i], n, rest)
        res = self.nth_product({self._gens[hi]: ONE}, -hm, inner)
        if self.parities[i] and self.parities[hi]:
            res = {k: -v for k, v in res.items()}
        vec_acc(res, self._bracket_action(i, n, hi, hm, rest))
        return res

    def _bracket_action(self, i: int, n: int, j: int, mj: int, mono) -> dict:
        """[X_{i(n)}, X_{j(-mj)}] on a sorted monomial, by `mode_commutator`."""
        out: dict = {}
        x, y = self.names[i], self.names[j]
        for (target, p), coeff in self.pres.mode_commutator(x, n, y, -mj).items():
            if target == VACUUM:
                key_acc(out, mono, coeff)
            else:
                gen = self._gens[self.index[target]]
                vec_acc(out, self._mono_product(gen, p, mono), coeff)
        return out

    # -- general products and translation ----------------------------------------

    def nth_product(self, a: dict, n: int, b: dict) -> dict:
        if type(n) is not int:
            # a Fraction mode would build a monomial the weights cannot read
            raise ValueError(f"mode index {n!r} is not an int")
        for mono in (*a, *b):
            if len(mono) > _FACTOR_LIMIT:
                raise ValueError(
                    f"monomial of {len(mono)} factors is longer than the limit of "
                    f"{_FACTOR_LIMIT} factors"
                )
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                vec_acc(out, self._mono_product(ma, n, mb), ca * cb)
        return out

    def _mono_product(self, ma, n: int, mb) -> dict:
        memo_key = (ma, n, mb)
        hit = self._prod_memo.get(memo_key)
        if hit is not None:
            return hit
        # a_(n)b has weight wt(a) + wt(b) - n - 1, and only |0> has weight 0
        wa2, wb2 = self._mono_wt2(ma), self._mono_wt2(mb)
        if 2 * n > wa2 + wb2 - 2:
            return {}
        if not ma:
            res = {mb: ONE} if n == -1 else {}
        elif len(ma) > 1:
            res = vec_sum(self._product_terms(ma, n, mb, wb2))
        elif ma[0][1] == 1:
            res = self._mode(ma[0][0], n, mb)
        else:
            # X_{i(-m)}|0> = T^(m-1) X_i: its m = 1 product, scaled
            (i, m), = ma
            factor = (-1) ** (m - 1) * gbinom(n, m - 1)
            if factor == 0:
                return {}
            res = self._mono_product(self._gens[i], n - m + 1, mb)
            if factor != 1:
                res = vec_scale(res, Scalar.from_int(factor))
        self._prod_memo[memo_key] = res
        self._memo_terms += len(res) + 1
        return res

    def _product_terms(self, ma, n: int, mb, wb2: int) -> list:
        """The (int, Scalar, state) terms of ma_(n)mb for ma = X_{i(-m)} rest.

        (X_{i(-m)} r)_(n) = sum_j binom(m + j - 1, j) (X_{i(-m-j)} r_(n+j)
        - (-1)^m p(X_i, r) r_(n-m-j) X_{i(j)}), each j up to its own weight
        bound.  `_mono_product` calls it for two or more factors only; at
        r = |0> the sum collapses to the closed form (-1)^(m-1)
        binom(n, m-1) X_{i(n-m+1)} it uses instead, and this generic sum
        stays the reference that form is tested against.  The list is
        complete before `vec_sum` reads it, so the recursion into the
        memoized products nests no frame of that sum.
        """
        (i, m), rest = ma[0], ma[1:]
        gen = self._gens[i]
        sign = -((-1) ** m)
        if self.parities[i] and self.mono_parity(rest):
            sign = -sign
        terms: list = []
        for j in range((self._mono_wt2(rest) + wb2 - 2 - 2 * n) // 2 + 1):
            binom = math.comb(m + j - 1, j)
            for mu, cu in self._mono_product(rest, n + j, mb).items():
                terms.append((binom, cu, self._mono_product(gen, -m - j, mu)))
        for j in range((self._wt2[i] + wb2 - 2) // 2 + 1):
            binom = math.comb(m + j - 1, j) * sign
            for mu, cu in self._mono_product(gen, j, mb).items():
                terms.append((binom, cu, self._mono_product(rest, -m + n - j, mu)))
        return terms

    def translation(self, state: dict) -> dict:
        """T a = a_(-2)|0>, the first divided derivative."""
        return self.divided_derivative(state, 1)

    def trim_caches(self) -> bool:
        """Drop memoized states once the term budget is exceeded.

        Only call between top-level operations: entries must not vanish
        under an in-flight recursion.  Returns True when a trim happened.
        """
        if self._memo_terms <= _MEMO_TERM_BUDGET:
            return False
        self._prod_memo.clear()
        self._wt2_memo = {(): 0}
        self._memo_terms = 0
        return True

    def divided_derivative(self, state: dict, j: int) -> dict:
        """T^(j) a = T^j a / j! = a_(-j-1)|0>."""
        return self.nth_product(state, -j - 1, self.vacuum())

    # -- basis enumeration --------------------------------------------------------

    def basis(self, max_weight) -> list:
        """Sorted monomials of weight <= max_weight (int or Fraction).

        The vacuum, of weight 0, is the first; a negative bound has none.
        """
        bound = _weight_bound(max_weight)
        if bound < 0:
            return []
        factors = []
        for i, wt in enumerate(self.weights):
            m = 1
            while wt + m - 1 <= bound:
                factors.append((_key(i, m), (i, m), wt + m - 1))
                m += 1
        factors.sort()
        out = [()]

        def extend(prefix, start, budget):
            for idx in range(start, len(factors)):
                _, (i, m), fw = factors[idx]
                if fw > budget:
                    continue
                mono = prefix + ((i, m),)
                out.append(mono)
                nxt = idx + 1 if self.parities[i] else idx
                extend(mono, nxt, budget - fw)

        extend((), 0, bound)
        return sorted(out, key=lambda mn: (self.mono_weight(mn), mn))

    def dimension_by_weight(self, max_weight) -> dict:
        counts: dict = {}
        for mono in self.basis(max_weight):
            wt = self.mono_weight(mono)
            counts[wt] = counts.get(wt, 0) + 1
        return counts


# ---------------------------------------------------------------------------
# axiom suite


@dataclass
class AxiomReport:
    algebra: str
    weight_bound: Fraction
    triples: int
    checks: int = 0
    # checks decided by the grading alone, counted in checks
    by_weight: int = 0
    failures: list = field(default_factory=list)
    # seconds per phase, "generators" and "sampled"; not part of the verdict
    phase_s: dict = field(default_factory=dict, compare=False)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"[{status}] axioms {self.algebra}: {self.checks} checks "
            f"({self.by_weight} zero by weight), "
            f"{self.triples} triples, weight bound {self.weight_bound}"
        )
        if self.failures:
            name, detail = self.failures[0]
            line += f"; first failure {name} at {detail}"
        return line


def _skew_holds(engine: VertexAlgebra, ma, mb, n: int) -> bool:
    """Skew symmetry a_(n)b = p(a, b) sum_j (-1)^(n+j+1) T^(j)(b_(n+j)a).

    a and b are the monomials ma and mb with coefficient 1.  The right side
    is one raw sum: T^(j) mu = mu_(-j-1)|0>, so each monomial mu of
    b_(n+j)a adds its memoized product with the vacuum to `vec_sum`.
    """
    sign = -1 if engine.mono_parity(ma) and engine.mono_parity(mb) else 1
    wt2 = engine._mono_wt2(ma) + engine._mono_wt2(mb)
    prod = engine._mono_product
    terms: list = []
    for j in range((wt2 - 2 * n) // 2):
        # % 2 keeps the power an int: (-1) ** e is a float for e < 0
        f = sign * (-1) ** ((j + n + 1) % 2)
        for mu, cu in prod(mb, n + j, ma).items():
            vec = prod(mu, -j - 1, ())
            if vec:
                terms.append((f, cu, vec))
    return prod(ma, n, mb) == (vec_sum(terms) if terms else {})


def _open_checks(engine: VertexAlgebra, ma, mb, mc, mnks) -> list:
    """The checks (m, n, k) of mnks that the grading leaves open, in order.

    The triple's doubled weight room wa2 + wb2 + wc2 - 4 is computed once,
    and a check vanishes exactly when the room is below 2(m + n + k); see
    `axiom_suite`.
    """
    wt2 = engine._mono_wt2
    room = wt2(ma) + wt2(mb) + wt2(mc) - 4
    return [(m, n, k) for m, n, k in mnks if 2 * (m + n + k) <= room]


def _borcherds_rhs(
    engine: VertexAlgebra, ma, mb, mc, m: int, n: int, k: int
) -> dict:
    """sum_j binom(m, j) (a_(n+j)b)_(m+k-j) c, the Borcherds right side.

    It is one raw sum: each monomial mu of the memoized a_(n+j)b adds its
    memoized product mu_(m+k-j)c to `vec_sum`, so no state between the two
    products is built.  A product that vanishes adds no term, and a side
    with no term is {} without a sum: most generator-phase sides of big4
    are.  The sum stops at its weight bound and, since binom(m, j) = 0 for
    j > m >= 0, also at j = m when m >= 0.
    """
    prod = engine._mono_product
    terms: list = []
    top = (engine._mono_wt2(ma) + engine._mono_wt2(mb) - 2 * n) // 2
    for j in range(min(top, m + 1) if m >= 0 else top):
        f, q = gbinom(m, j), m + k - j
        for mu, cu in prod(ma, n + j, mb).items():
            vec = prod(mu, q, mc)
            if vec:
                terms.append((f, cu, vec))
    return vec_sum(terms) if terms else {}


def _borcherds_lhs(
    engine: VertexAlgebra, ma, mb, mc, m: int, n: int, k: int
) -> dict:
    """The Borcherds left side, as a new dict: sum_j (-1)^j binom(n, j) of
    a_(m+n-j)(b_(k+j)c) - p(a, b) (-1)^n b_(n+k-j)(a_(m+j)c).

    At n = 0 it is the supercommutator [a_(m), b_(k)] c.  It is one raw
    sum, like `_borcherds_rhs`: each monomial of the memoized inner product
    adds its memoized outer product to `vec_sum`.  The sum stops at j = n
    when n >= 0, since binom(n, j) = 0 for j > n, and else at its weight
    bound.
    """
    if n >= 0:
        stop = n + 1
    else:
        wt2 = engine._mono_wt2
        stop = max(wt2(mb) + wt2(mc) - 2 * k, wt2(ma) + wt2(mc) - 2 * m) // 2
    p_ab = -1 if engine.mono_parity(ma) and engine.mono_parity(mb) else 1
    sign_ba = -p_ab * (-1) ** (n % 2)
    prod = engine._mono_product
    terms: list = []
    for j in range(stop):
        f, p = (-1) ** j * gbinom(n, j), m + n - j
        for mu, cu in prod(mb, k + j, mc).items():
            vec = prod(ma, p, mu)
            if vec:
                terms.append((f, cu, vec))
        f, p = f * sign_ba, n + k - j
        for mu, cu in prod(ma, m + j, mc).items():
            vec = prod(mb, p, mu)
            if vec:
                terms.append((f, cu, vec))
    return vec_sum(terms) if terms else {}


_MODE_WINDOW = 3


def axiom_suite(
    engine: VertexAlgebra,
    weight_bound=4,
    triples: int = 50,
    seed: int = 0,
) -> AxiomReport:
    """Exact skew, commutator, and Borcherds checks.

    Every ordered generator pair is checked exhaustively first: skew for
    every |n| <= _MODE_WINDOW, and the commutator formula against every
    generator for all non-negative mode pairs up to the window.  Since
    bracket polynomial degrees are weight-bounded, that phase decides
    Jacobi on generators outright, so a corrupted table cannot slip past
    the later sampling.  Then `triples` sampled basis triples get the full
    battery.  A commutator check is the Borcherds identity at n = 0,
    reported as "commutator".  Every state checked is a PBW monomial with
    coefficient 1, so the engine's memos serve the products of two of them
    and their weights, and no triple keeps a dict of its own: each side of
    a check is one raw `vec_sum` over memoized products.  `phase_s` records
    each phase's seconds.

    Every check at (m, n, k), in both phases, compares `_borcherds_lhs`
    with `_borcherds_rhs`.  The generator phase loops over unordered pairs
    x <= y.  For each z and each open (m, k) it builds the left side at
    (m, 0, k), the state [a_(m), b_(k)]c, once and compares it with the
    (x, y) right side; as [b_(k), a_(m)] = -p(a, b) [a_(m), b_(k)],
    -p(a, b) times that state is compared with the (y, x) right side at
    (k, m).  On the diagonal x = y the checks (m, k) and (k, m) share one
    state, and m = k is one check.  Failures are tagged with their ordered (x, y, z, m, k) position
    and reported in the ordered-pair order: for each (x, y), its skew
    failures, then its commutator failures by z, m and k.  The engine's
    memos are trimmed after each (pair, z) batch of the generator phase,
    and after each sampled skew check and each sampled triple's batch of
    Borcherds checks.  The basis is enumerated only when triples > 0.

    Every term of the Borcherds identity at (m, n, k) is a state of weight
    wt a + wt b + wt c - m - n - k - 2, so when that is negative both sides
    are 0.  `_open_checks` decides this per (a, b, c) triple: it computes
    the triple's doubled weight room wa2 + wb2 + wc2 - 4 once, and a check
    at (m, n, k) vanishes exactly when the room is below 2(m + n + k).
    Such a check is decided without computing a product: it counts in
    `checks` and in `by_weight`, and it passes.  This is exact because the
    presentation is weight-homogeneous from its constructor: every product
    lowers weight as above; most generator-phase commutator checks of big4
    are decided this way.  The rule is symmetric in (a, m) and (b, k), so
    the (y, x) checks left open are the mirrors of the (x, y) ones; each
    ordered triple is still graded by its own `_open_checks` call.  The
    sums that decide the open checks stop at their last nonzero binomial.
    """
    start = time.perf_counter()
    bound = _weight_bound(weight_bound)
    # a None seed draws from OS entropy, and True triples run one triple
    for name, value in (("seed", seed), ("triples", triples)):
        if type(value) is not int:
            raise TypeError(f"{name} is a {type(value).__name__}, not an int")
    if triples < 0:
        raise ValueError(f"triples is {triples}, not a non-negative int")
    rng = random.Random(seed)
    pool = [m for m in engine.basis(bound) if m] if triples > 0 else []
    if triples > 0 and not pool:
        raise ValueError(
            f"no basis monomial within weight_bound={weight_bound} to sample"
        )
    report = AxiomReport(engine.pres.name, bound, triples)
    gens = engine._gens
    window = range(-_MODE_WINDOW, _MODE_WINDOW + 1)
    modes = range(_MODE_WINDOW + 1)
    commutators = [(m, 0, k) for m in modes for k in modes]

    def draw() -> int:
        return rng.randint(-_MODE_WINDOW, _MODE_WINDOW)

    def graded(a, b, c, mnks) -> list:
        left = _open_checks(engine, a, b, c, mnks)
        report.checks += len(mnks)
        report.by_weight += len(mnks) - len(left)
        return left

    def battery(kind, names, a, b, c, mnks) -> None:
        # a commutator failure reads (m, k), a Borcherds one (m, n, k)
        for m, n, k in graded(a, b, c, mnks):
            lhs = _borcherds_lhs(engine, a, b, c, m, n, k)
            if lhs != _borcherds_rhs(engine, a, b, c, m, n, k):
                at = (m, k) if kind == "commutator" else (m, n, k)
                report.failures.append((kind, (*names, *at)))
        engine.trim_caches()

    # (ordered position, failure); a skew failure sorts before its pair's
    # commutator failures
    tagged: list = []
    names = engine.names

    def commutator(xi, yi, zi, m, k, state) -> None:
        a, b, c = gens[xi], gens[yi], gens[zi]
        if state != _borcherds_rhs(engine, a, b, c, m, 0, k):
            failure = ("commutator", (names[xi], names[yi], names[zi], m, k))
            tagged.append(((xi, yi, 1, zi, m, k), failure))

    for xi in range(len(names)):
        for yi in range(xi, len(names)):
            a, b = gens[xi], gens[yi]
            for i, j in dict.fromkeys([(xi, yi), (yi, xi)]):
                for n in window:
                    report.checks += 1
                    if not _skew_holds(engine, gens[i], gens[j], n):
                        failure = ("skew", (names[i], names[j], n))
                        tagged.append(((i, j, 0, n), failure))
            # -p(a, b) is -1 unless both are odd
            flip = not (engine.mono_parity(a) and engine.mono_parity(b))
            for zi, c in enumerate(gens):
                left = graded(a, b, c, commutators)
                if xi < yi:
                    graded(b, a, c, commutators)
                for m, _, k in left:
                    if xi == yi and k < m:
                        continue  # the mirror of (k, m), checked with it
                    state = _borcherds_lhs(engine, a, b, c, m, 0, k)
                    commutator(xi, yi, zi, m, k, state)
                    if xi < yi or m < k:
                        if flip:
                            state = {key: -v for key, v in state.items()}
                        commutator(yi, xi, zi, k, m, state)
                engine.trim_caches()
    report.failures.extend(failure for _, failure in sorted(tagged))
    split = time.perf_counter()
    report.phase_s["generators"] = split - start
    for _ in range(triples):
        a, b, c = (rng.choice(pool) for _ in range(3))
        desc = tuple(engine.format_mono(x) for x in (a, b, c))
        for n in window:
            report.checks += 1
            if not _skew_holds(engine, a, b, n):
                report.failures.append(("skew", (desc[0], desc[1], n)))
            engine.trim_caches()
        mnks = [(0, 0, 0), (1, 0, -1)] + [
            (draw(), 0, draw()) for _ in range(2)
        ]
        battery("commutator", desc, a, b, c, mnks)
        mnks = [(0, 0, -1), (-1, 1, 0)] + [
            (draw(), draw(), draw()) for _ in range(2)
        ]
        battery("borcherds", desc, a, b, c, mnks)
    report.phase_s["sampled"] = time.perf_counter() - split
    return report
