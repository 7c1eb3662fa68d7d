"""Exact state computations in the vertex algebra a presentation generates.

States live in the PBW span of normal-ordered monomials
X_{i1(-m1)} ... X_{ik(-mk)} |0>, stored as dicts from sorted factor tuples
(generator index, m >= 1) to scalars.  Factors sort ascending by (-m, index),
repeated odd factors are straightened away, and every operation reduces to
the memoized single-mode action, so all products, brackets, and axiom checks
below are exact.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import vec_scale
from .scalar import Scalar, ZERO, ONE

__all__ = [
    "VertexAlgebra",
    "TensorAlgebra",
    "AxiomReport",
    "axiom_suite",
    "gbinom",
]


def gbinom(n: int, k: int) -> int:
    """Binomial coefficient for any integer n and k >= 0."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    return _falling(n, k) // math.factorial(k)


def _falling(n, k: int):
    """Falling factorial n (n - 1) ... (n - k + 1), for int or Fraction n."""
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _acc(out: dict, state: dict, coeff=None) -> None:
    """Accumulate coeff * state into out, mutating out in place."""
    get = out.get
    if coeff is None:
        if not out:
            out.update(state)
            return
        for k, v in state.items():
            cur = get(k)
            nv = v if cur is None else cur + v
            if nv._num:
                out[k] = nv
            else:
                del out[k]
        return
    if not coeff._num:
        return
    for k, v in state.items():
        v = v * coeff
        cur = get(k)
        nv = v if cur is None else cur + v
        if nv._num:
            out[k] = nv
        else:
            del out[k]


def _key(i: int, m: int):
    return (-m, i)


_HALF = Scalar.from_fraction(Fraction(1, 2))


class VertexAlgebra:
    """The enveloping vertex algebra of a validated presentation."""

    def __init__(self, presentation):
        self.pres = presentation
        self.names = presentation.names()
        self.index = {name: i for i, name in enumerate(self.names)}
        self.weights = [presentation.weight[n] for n in self.names]
        self.parities = [presentation.parity[n] for n in self.names]
        self._products = {}
        for xi, x in enumerate(self.names):
            for yi, y in enumerate(self.names):
                table = {}
                for n, (terms, central) in presentation.nth_products(x, y).items():
                    rows = [
                        (d, self.index[t], coeff) for (d, t), coeff in terms.items()
                    ]
                    table[n] = (rows, central)
                self._products[(xi, yi)] = table
        self._mode_memo: dict = {}
        self._prod_memo: dict = {}
        self._der_memo: dict = {}
        self._wt_memo: dict = {}
        self._par_memo: dict = {}
        # doubled weights are integers, keeping hot-path bounds in int math
        self._wt2 = [int(2 * w) for w in self.weights]
        self._wt2_memo: dict = {(): 0}
        # stored memo terms, trimmed at safe points to bound memory
        self._memo_terms = 0
        self.memo_term_budget = 3_000_000

    # -- states ----------------------------------------------------------------

    def vacuum(self) -> dict:
        return {(): ONE}

    def generator(self, name: str) -> dict:
        return {((self.index[name], 1),): ONE}

    def mono_weight(self, mono) -> Fraction:
        hit = self._wt_memo.get(mono)
        if hit is None:
            hit = sum((self.weights[i] + m - 1 for i, m in mono), Fraction(0))
            self._wt_memo[mono] = hit
        return hit

    def mono_parity(self, mono) -> int:
        hit = self._par_memo.get(mono)
        if hit is None:
            hit = sum(self.parities[i] for i, _ in mono) % 2
            self._par_memo[mono] = hit
        return hit

    def _mono_wt2(self, mono) -> int:
        hit = self._wt2_memo.get(mono)
        if hit is None:
            wt2 = self._wt2
            hit = sum(wt2[i] + 2 * m - 2 for i, m in mono)
            self._wt2_memo[mono] = hit
        return hit

    def max_weight(self, state) -> Fraction:
        return max((self.mono_weight(m) for m in state), default=Fraction(0))

    def state_parity(self, state) -> int:
        parities = {self.mono_parity(m) for m in state}
        if len(parities) > 1:
            raise ValueError("state of mixed parity")
        return parities.pop() if parities else 0

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
        out: dict = {}
        for mono, coeff in state.items():
            _acc(out, self._mode_mono(i, n, mono), coeff)
        return out

    def _mode_mono(self, i: int, n: int, mono) -> dict:
        memo_key = (i, n, mono)
        hit = self._mode_memo.get(memo_key)
        if hit is not None:
            return hit
        if 2 * n > self._wt2[i] + self._mono_wt2(mono) - 2:
            res: dict = {}
        elif not mono:
            res = {} if n >= 0 else {((i, -n),): ONE}
        else:
            (hi, hm), rest = mono[0], mono[1:]
            if n < 0 and _key(i, -n) < _key(hi, hm):
                res = {((i, -n),) + mono: ONE}
            elif n < 0 and (i, -n) == (hi, hm) and self.parities[i] == 0:
                res = {((i, -n),) + mono: ONE}
            elif n < 0 and (i, -n) == (hi, hm):
                # odd square: half the bracket of the mode with itself
                res = vec_scale(self._bracket_action(i, n, i, hm, rest), _HALF)
            else:
                sign = -1 if self.parities[i] and self.parities[hi] else 1
                res = self.apply_mode(hi, -hm, self._mode_mono(i, n, rest))
                if sign < 0:
                    res = {k: -v for k, v in res.items()}
                _acc(res, self._bracket_action(i, n, hi, hm, rest))
        self._mode_memo[memo_key] = res
        self._memo_terms += len(res) + 1
        return res

    def _bracket_action(self, i: int, n: int, j: int, mj: int, mono) -> dict:
        """[X_{i(n)}, X_{j(-mj)}] applied to a sorted monomial."""
        out: dict = {}
        for k, (rows, central) in self._products[(i, j)].items():
            binom = gbinom(n, k)
            if binom == 0:
                continue
            q = n - mj - k
            scale = Scalar.from_int(binom)
            for d, target, coeff in rows:
                fall = _falling(q, d)
                if fall == 0:
                    continue
                factor = coeff * scale * Scalar.from_int((-1) ** d * fall)
                _acc(out, self._mode_mono(target, q - d, mono), factor)
            if not central.is_zero() and q == -1:
                _acc(out, {mono: central * scale})
        return out

    # -- general products and translation ----------------------------------------

    def nth_product(self, a: dict, n: int, b: dict) -> dict:
        out: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                _acc(out, self._mono_product(ma, n, mb), ca * cb)
        return out

    def _mono_product(self, ma, n: int, mb) -> dict:
        memo_key = (ma, n, mb)
        hit = self._prod_memo.get(memo_key)
        if hit is not None:
            return hit
        if not ma:
            res = {mb: ONE} if n == -1 else {}
        else:
            (i, m), rest = ma[0], ma[1:]
            wrest2, wb2 = self._mono_wt2(rest), self._mono_wt2(mb)
            jmax = max(
                (wrest2 + wb2 - 2 - 2 * n) // 2,
                (self._wt2[i] + wb2 - 2) // 2,
                -1,
            )
            sign = -((-1) ** m)
            if self.parities[i] and self.mono_parity(rest):
                sign = -sign
            res = {}
            for j in range(jmax + 1):
                binom = Scalar.from_int(math.comb(m + j - 1, j))
                inner = self._mono_product(rest, n + j, mb)
                if inner:
                    _acc(res, self.apply_mode(i, -m - j, inner), binom)
                hit_b = self._mode_mono(i, j, mb)
                if hit_b:
                    part: dict = {}
                    for mu, cu in hit_b.items():
                        _acc(part, self._mono_product(rest, -m + n - j, mu), cu)
                    _acc(res, part, binom * Scalar.from_int(sign))
        self._prod_memo[memo_key] = res
        self._memo_terms += len(res) + 1
        return res

    def translation(self, state: dict) -> dict:
        out: dict = {}
        for mono, coeff in state.items():
            _acc(out, self._der_mono(mono), coeff)
        return out

    def _der_mono(self, mono) -> dict:
        hit = self._der_memo.get(mono)
        if hit is not None:
            return hit
        if not mono:
            res: dict = {}
        else:
            (i, m), rest = mono[0], mono[1:]
            res = vec_scale(self._mode_mono(i, -m - 1, rest), Scalar.from_int(m))
            _acc(res, self.apply_mode(i, -m, self._der_mono(rest)))
        self._der_memo[mono] = res
        self._memo_terms += len(res) + 1
        return res

    def trim_caches(self) -> bool:
        """Drop memoized states once the term budget is exceeded.

        Only call between top-level operations: entries must not vanish
        under an in-flight recursion.  Returns True when a trim happened.
        """
        if self._memo_terms <= self.memo_term_budget:
            return False
        self._mode_memo.clear()
        self._prod_memo.clear()
        self._der_memo.clear()
        self._wt_memo.clear()
        self._par_memo.clear()
        self._wt2_memo = {(): 0}
        self._memo_terms = 0
        return True

    def divided_derivative(self, state: dict, j: int) -> dict:
        out = state
        for _ in range(j):
            out = self.translation(out)
        return vec_scale(out, Scalar.from_fraction(Fraction(1, math.factorial(j))))

    # -- basis enumeration --------------------------------------------------------

    def basis(self, max_weight) -> list:
        """All sorted monomials with weight <= max_weight, vacuum included."""
        bound = Fraction(max_weight)
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
# tensor product of two engines


class TensorAlgebra:
    """Tensor product of two engines, states keyed by monomial pairs."""

    def __init__(self, left: VertexAlgebra, right: VertexAlgebra):
        self.left = left
        self.right = right

    def vacuum(self) -> dict:
        return {((), ()): ONE}

    def embed(self, a: dict, b: dict) -> dict:
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                coeff = ca * cb
                if not coeff.is_zero():
                    out[(ma, mb)] = coeff
        return out

    def mono_weight(self, mono) -> Fraction:
        la, ra = mono
        return self.left.mono_weight(la) + self.right.mono_weight(ra)

    def mono_parity(self, mono) -> int:
        la, ra = mono
        return (self.left.mono_parity(la) + self.right.mono_parity(ra)) % 2

    def max_weight(self, state) -> Fraction:
        return max((self.mono_weight(m) for m in state), default=Fraction(0))

    def format_state(self, state) -> str:
        if not state:
            return "0"
        parts = []
        for (la, ra), coeff in sorted(
            state.items(), key=lambda kv: (self.mono_weight(kv[0]), kv[0])
        ):
            parts.append(
                f"({coeff})*{self.left.format_mono(la)}(x){self.right.format_mono(ra)}"
            )
        return " + ".join(parts)

    def nth_product(self, a: dict, n: int, b: dict) -> dict:
        out: dict = {}
        for (la, ra), ca in a.items():
            for (lb, rb), cb in b.items():
                sign = -1 if self.right.mono_parity(ra) and self.left.mono_parity(
                    lb
                ) else 1
                pmax = math.floor(
                    self.left.mono_weight(la) + self.left.mono_weight(lb) - 1
                )
                qmax = math.floor(
                    self.right.mono_weight(ra) + self.right.mono_weight(rb) - 1
                )
                coeff = ca * cb * Scalar.from_int(sign)
                for p in range(n - 1 - qmax, pmax + 1):
                    q = n - 1 - p
                    lprod = self.left.nth_product({la: ONE}, p, {lb: ONE})
                    if not lprod:
                        continue
                    rprod = self.right.nth_product({ra: ONE}, q, {rb: ONE})
                    for ml, cl in lprod.items():
                        for mr, cr in rprod.items():
                            _acc(out, {(ml, mr): coeff * cl * cr})
        return out

    def translation(self, state: dict) -> dict:
        out: dict = {}
        for (la, ra), coeff in state.items():
            for ml, cl in self.left._der_mono(la).items():
                _acc(out, {(ml, ra): coeff * cl})
            for mr, cr in self.right._der_mono(ra).items():
                _acc(out, {(la, mr): coeff * cr})
        return out

    def basis(self, max_weight) -> list:
        bound = Fraction(max_weight)
        out = []
        for la in self.left.basis(bound):
            rest = bound - self.left.mono_weight(la)
            for ra in self.right.basis(rest):
                out.append((la, ra))
        return sorted(out, key=lambda mn: (self.mono_weight(mn), mn))


# ---------------------------------------------------------------------------
# axiom suite


@dataclass
class AxiomReport:
    algebra: str
    weight_bound: Fraction
    triples: int
    checks: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def summary_line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (
            f"[{status}] axioms {self.algebra}: {self.checks} checks, "
            f"{self.triples} triples, weight bound {self.weight_bound}"
        )
        if self.failures:
            name, detail = self.failures[0]
            line += f"; first failure {name} at {detail}"
        return line


def _skew_holds(engine: VertexAlgebra, a, b, n: int) -> bool:
    lhs = engine.nth_product(a, n, b)
    pa, pb = engine.state_parity(a), engine.state_parity(b)
    sign = -1 if pa and pb else 1
    jmax = math.floor(engine.max_weight(a) + engine.max_weight(b) - 1 - n)
    rhs: dict = {}
    for j in range(max(jmax + 1, 0)):
        flipped = engine.nth_product(b, n + j, a)
        if not flipped:
            continue
        factor = Scalar.from_int(sign * (-1) ** (j + n + 1))
        _acc(rhs, engine.divided_derivative(flipped, j), factor)
    return lhs == rhs


def _commutator_holds(engine: VertexAlgebra, a, b, c, m: int, n: int) -> bool:
    pa, pb = engine.state_parity(a), engine.state_parity(b)
    sign = Scalar.from_int(-1 if pa and pb else 1)
    lhs = engine.nth_product(a, m, engine.nth_product(b, n, c))
    _acc(lhs, engine.nth_product(b, n, engine.nth_product(a, m, c)), -sign)
    kmax = math.floor(engine.max_weight(a) + engine.max_weight(b) - 1)
    rhs: dict = {}
    for k in range(max(kmax + 1, 0)):
        binom = gbinom(m, k)
        if binom == 0:
            continue
        ab = engine.nth_product(a, k, b)
        if not ab:
            continue
        _acc(rhs, engine.nth_product(ab, m + n - k, c), Scalar.from_int(binom))
    return lhs == rhs


def _borcherds_holds(engine: VertexAlgebra, a, b, c, m: int, n: int, k: int) -> bool:
    pa, pb = engine.state_parity(a), engine.state_parity(b)
    p_ab = -1 if pa and pb else 1
    wa, wb, wc = engine.max_weight(a), engine.max_weight(b), engine.max_weight(c)
    lhs: dict = {}
    jmax = max(
        math.floor(wb + wc - 1 - k),
        math.floor(wa + wc - 1 - m),
        -1,
    )
    for j in range(jmax + 1):
        binom = gbinom(n, j)
        if binom == 0:
            continue
        first = engine.nth_product(a, m + n - j, engine.nth_product(b, k + j, c))
        second = engine.nth_product(b, n + k - j, engine.nth_product(a, m + j, c))
        _acc(first, second, Scalar.from_int(-p_ab * (-1) ** n))
        _acc(lhs, first, Scalar.from_int((-1) ** j * binom))
    rhs: dict = {}
    jmax = math.floor(wa + wb - 1 - n)
    for j in range(max(jmax + 1, 0)):
        binom = gbinom(m, j)
        if binom == 0:
            continue
        ab = engine.nth_product(a, n + j, b)
        if not ab:
            continue
        _acc(rhs, engine.nth_product(ab, m + k - j, c), Scalar.from_int(binom))
    return lhs == rhs


def axiom_suite(
    engine: VertexAlgebra,
    weight_bound=4,
    triples: int = 50,
    seed: int = 0,
    mode_window: int = 3,
) -> AxiomReport:
    """Exact skew, commutator, and Borcherds checks.

    Every ordered generator pair is checked exhaustively first: skew across
    the mode window, and the commutator formula against every generator for
    all non-negative mode pairs up to the window.  Since bracket polynomial
    degrees are weight-bounded, that phase decides Jacobi on generators
    outright, so a corrupted table cannot slip past the later sampling.
    Then `triples` sampled basis triples get the full battery.
    """
    rng = random.Random(seed)
    pool = [m for m in engine.basis(weight_bound) if m]
    report = AxiomReport(engine.pres.name, Fraction(weight_bound), triples)
    gens = [{((i, 1),): ONE} for i in range(len(engine.names))]
    for xi, x in enumerate(engine.names):
        for yi, y in enumerate(engine.names):
            for n in range(-mode_window, mode_window + 1):
                report.checks += 1
                if not _skew_holds(engine, gens[xi], gens[yi], n):
                    report.failures.append(("skew", (x, y, n)))
            for zi, z in enumerate(engine.names):
                for m in range(mode_window + 1):
                    for n in range(mode_window + 1):
                        report.checks += 1
                        if not _commutator_holds(
                            engine, gens[xi], gens[yi], gens[zi], m, n
                        ):
                            report.failures.append(
                                ("commutator", (x, y, z, m, n))
                            )
    for _ in range(triples):
        ma, mb, mc = (rng.choice(pool) for _ in range(3))
        a, b, c = ({ma: ONE}, {mb: ONE}, {mc: ONE})
        desc = tuple(engine.format_mono(x) for x in (ma, mb, mc))
        for n in range(-mode_window, mode_window + 1):
            report.checks += 1
            if not _skew_holds(engine, a, b, n):
                report.failures.append(("skew", (desc[0], desc[1], n)))
            engine.trim_caches()
        pairs = [(0, 0), (1, -1)] + [
            (
                rng.randint(-mode_window, mode_window),
                rng.randint(-mode_window, mode_window),
            )
            for _ in range(2)
        ]
        for m, n in pairs:
            report.checks += 1
            if not _commutator_holds(engine, a, b, c, m, n):
                report.failures.append(("commutator", (*desc, m, n)))
            engine.trim_caches()
        triples_mnk = [(0, 0, -1), (-1, 1, 0)] + [
            tuple(rng.randint(-mode_window, mode_window) for _ in range(3))
            for _ in range(2)
        ]
        for m, n, k in triples_mnk:
            report.checks += 1
            if not _borcherds_holds(engine, a, b, c, m, n, k):
                report.failures.append(("borcherds", (*desc, m, n, k)))
            engine.trim_caches()
    return report
