"""The benchmark's workloads: fixed sequences of public vazhu calls.

An op is one public call whose result is compared with a pinned verdict.
Each workload function does its set-up (building the inputs the ops take)
and returns its stages in order; a stage is a name and a function that runs
its ops through a Gate.  Ops run in a fixed order because the program keeps
process-global state (denominator hints, builtin caches, scalar key caches)
that makes an op's cost depend on what ran before it.

Calls go through module attributes (``enveloping.axiom_suite``, not a name
imported here) so that a tracer installed after set-up sees them.
"""

from __future__ import annotations

import hashlib
import time

from vazhu import enveloping, liesuper, presentation
from vazhu.scalar import ONE, Scalar


class Gate:
    """Runs ops, times each call, compares each result with its expectation."""

    def __init__(self, pace):
        self.pace = pace  # its interrupts are taken out of the op times
        self.attempted = 0
        self.seconds: list[float] = []  # duration of each op's call, in order
        self.failures: list[tuple[str, str]] = []

    def op(self, label: str, call, expect) -> None:
        self.attempted += 1
        paused = self.pace.paused
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a broken op is a failed op, not a crash
            self._took(start, paused)
            self.failures.append((label, _raised(exc)))
            return
        self._took(start, paused)
        try:
            problem = expect(result)
        except Exception as exc:  # a malformed result fails its op too
            problem = _raised(exc)
        if problem:
            self.failures.append((label, problem))

    def _took(self, start: float, paused: float) -> None:
        elapsed = time.perf_counter() - start
        self.seconds.append(elapsed - (self.pace.paused - paused))


def _raised(exc) -> str:
    return f"{type(exc).__name__}: {exc}"


# -- expectations: each returns None when the result matches ----------------


def _is_none(result):
    return None if result is None else f"expected None, got {_short(result)}"


def _is_true(result):
    return None if result is True else f"expected True, got {_short(result)}"


def _witness_starts(prefix):
    def expect(result):
        if prefix is None:
            return _is_none(result)
        if result is None or tuple(result[: len(prefix)]) != prefix:
            return f"expected witness {prefix}, got {_short(result)}"
        return None

    return expect


def _report(checks, first_failure=None):
    def expect(report):
        if report.checks != checks:
            return f"expected {checks} checks, got {report.checks}"
        if first_failure is None:
            return None if report.passed else f"FAIL at {report.failures[0]}"
        if report.passed or report.failures[0] != first_failure:
            got = report.failures[0] if report.failures else "PASS"
            return f"expected first failure {first_failure}, got {got}"
        return None

    return expect


def _superdim(dims):
    def expect(algebra):
        got = algebra.superdim()
        return None if got == dims else f"expected superdim {dims}, got {got}"

    return expect


def _digest(run, want):
    """Digest check of a state of the engine held in run["engine"]."""

    def expect(state):
        text = run["engine"].format_state(state)
        got = hashlib.sha256(text.encode()).hexdigest()
        return None if got.startswith(want) else f"digest {got[:16]} != {want}"

    return expect


def _embedding(dims):
    def expect(result):
        got_dims, witness = result
        if got_dims != dims:
            return f"expected superdim {dims}, got {got_dims}"
        return _is_none(witness)

    return expect


def _pair_witness(pair):
    def expect(witness):
        if witness is None:
            return f"expected a witness on {sorted(pair)}, got None"
        x, y, got, want = witness
        if {x, y} != pair or got == want:
            return f"expected a witness on {sorted(pair)}, got ({x}, {y})"
        return None

    return expect


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:120] + "..."


# -- big4_verify: presentations, embeddings and the generator-phase suites --

PRESENTATIONS = [
    "N1", "N2", "N3", "N4", "big4", "big4_kwmiss1", "big4_kwmiss2",
    "four_fermions_k", "free_boson_k", "free_fermion", "virasoro",
]
TOY_PRESENTATIONS = ["N1", "N2", "big4_kwmiss1", "big4_kwmiss2", "virasoro"]
JACOBI_WITNESS = {
    "big4_kwmiss1": ("J0", "Kp", "Gpm"),
    "big4_kwmiss2": ("L", "Gpp", "Gpm"),
}
EMBEDDINGS = ["N1_in_N2", "N2_in_N4"]
# (presentation, weight bound, checks, first failure); triples=0 throughout,
# so each suite is the exhaustive generator phase
SUITES = [
    ("big4", 2, 67328, None),
    ("big4_kwmiss1", 2, 67328, ("commutator", ("J0", "Kp", "Gpm", 1, 0))),
]
TOY_SUITES = [("N1", 2, 156, None)]


def big4_verify(toy: bool):
    ids = TOY_PRESENTATIONS if toy else PRESENTATIONS
    tags = EMBEDDINGS[:1] if toy else EMBEDDINGS
    suites = TOY_SUITES if toy else SUITES

    def present(gate):
        for pid in ids:
            gate.op(
                f"jacobi_witness({pid})",
                lambda: presentation.builtin_presentation(pid).jacobi_witness(),
                _witness_starts(JACOBI_WITNESS.get(pid)),
            )
        for tag in tags:
            gate.op(
                f"check_embedding({tag})",
                lambda: presentation.check_embedding(
                    *presentation.builtin_embedding(tag)
                ),
                _is_none,
            )

    def axioms(gate):
        for pid, bound, checks, failure in suites:
            gate.op(
                f"axiom_suite({pid}, weight_bound={bound}, triples=0)",
                lambda: enveloping.axiom_suite(
                    enveloping.VertexAlgebra(
                        presentation.builtin_presentation(pid)
                    ),
                    weight_bound=bound,
                    triples=0,
                ),
                _report(checks, failure),
            )

    return [("present_s", present), ("axioms_s", axioms)]


# -- vir_deep: the weight ladder and a deep sampled suite on Virasoro --------

# sha256 prefixes of format_state(L(-1)^k|0>), k = 1..5
LADDER_STATES = [
    "b98758e7716e092e", "eb05122c36626ba7", "26e399e8486b9f6b",
    "2f0ba38e6d4f9b34", "414d0bd2b2df6d50",
]
# sha256 prefixes of format_state(nth_product(L(-1)^k|0>, n, L(-1)^k|0>)),
# row k = 1..5, column n = -1..3
LADDER = [
    ["eb05122c36626ba7", "afb54656a8b3c48b", "63193e50f457d5a3",
     "5feceb66ffc86f38", "7992408151fdfffa"],
    ["d35176f3a1fa7445", "6928074e487cdfab", "743db6f6161592c7",
     "b5a19ceeda14eb39", "c30592a082f114b8"],
    ["7a04bdb9c885424d", "a32701b8bc077d64", "f43d768aa57dacd1",
     "3ceaceff82601f95", "38b4e0d28f887905"],
    ["c3b86bf52ad394b8", "2879baea8ecce0f6", "06baa2577bac2348",
     "b6e4d5c00eada683", "b25eef347c6ea70e"],
    ["5fa785e77f8c9121", "65123aaf9c548dfc", "b9c37822560d96a1",
     "5fa3e5731d7dc817", "1766dc530b8568ee"],
]
# The suite's sampling seed is pinned, not taken from the workload seed:
# suite cost varies about threefold with it (3.7 s, 4.0 s and 10.8 s at
# seeds 1, 2 and 3 on a 2-core x86 VM, Python 3.11), more than any
# regression bound absorbs.  Seed 1 keeps a pass short enough for several
# passes per run; the ladder's k = 5 row carries the deepest products.
VIR_SUITE = dict(weight_bound=6, triples=20, seed=1)
VIR_SUITE_CHECKS = 323
TOY_VIR_SUITE = dict(weight_bound=3, triples=2, seed=1)
TOY_VIR_SUITE_CHECKS = 53


def vir_deep(toy: bool):
    pres = presentation.builtin_presentation("virasoro")
    ladder = LADDER[:2] if toy else LADDER
    suite = TOY_VIR_SUITE if toy else VIR_SUITE
    checks = TOY_VIR_SUITE_CHECKS if toy else VIR_SUITE_CHECKS

    def products(gate):
        run = {}  # the ladder's engine and its current state L(-1)^k|0>

        def fresh():
            engine = enveloping.VertexAlgebra(pres)
            run.update(engine=engine, state=engine.vacuum())

        def climb():
            engine = run["engine"]
            run["state"] = engine.apply_mode(engine.index["L"], -1, run["state"])
            return run["state"]

        gate.op("VertexAlgebra(virasoro)", fresh, _is_none)
        for k, digests in enumerate(ladder, start=1):
            gate.op(f"L(-1)^{k}|0>", climb, _digest(run, LADDER_STATES[k - 1]))
            for n, digest in zip(range(-1, 4), digests):
                gate.op(
                    f"nth_product(L(-1)^{k}|0>, {n}, L(-1)^{k}|0>)",
                    lambda: run["engine"].nth_product(run["state"], n, run["state"]),
                    _digest(run, digest),
                )

    def axioms(gate):
        gate.op(
            f"axiom_suite(virasoro, {suite})",
            lambda: enveloping.axiom_suite(enveloping.VertexAlgebra(pres), **suite),
            _report(checks),
        )

    return [("products_s", products), ("axioms_s", axioms)]


# -- lie_zhu: Lie superalgebra builds, centralizers and zero-mode maps -------

SUPERDIMS = {
    "osp12": (3, 2), "sl12": (4, 4), "psl22": (6, 8), "osp32": (6, 6),
    "d21a": (9, 8), "R_N1": (1, 1), "R_N2": (2, 2), "R_N3": (5, 4),
    "R_N4small": (4, 4), "R_N4": (9, 8), "contact_R1": (1, 1),
    "contact_R2": (2, 2), "contact_R3": (4, 4), "contact_R4": (7, 8),
}
CENTRALIZER_SUPERDIMS = {
    "osp12": (1, 1), "sl12": (2, 2), "psl22": (4, 4), "osp32": (4, 3),
    "d21a": (7, 4),
}
ZERO_MODE_TAGS = ["N1", "N2", "N3", "big4_even"]
LIE_ROUNDS = 2


def _osp32_images():
    return {
        "L": {"fd": ONE}, "A1": {"a1": ONE}, "A2": {"a2": ONE},
        "A3": {"a3": ONE}, "G1": {"u1": ONE}, "G2": {"u2": ONE},
        "G3": {"u3": ONE},
    }


def _d21a_images():
    a = Scalar.param("a")
    return {
        "L": {"f121": ONE}, "Jp": {"e100": ONE}, "J0": {"h1": -(a + 1)},
        "Jm": {"f100": -(a + 1)}, "Kp": {"e001": ONE},
        "K0": {"h3": -(a + 1) / a}, "Km": {"f001": -(a + 1) / a},
        "Gpp": {"f010": ONE}, "Gmp": {"f110": ONE}, "Gpm": {"f011": -ONE},
        "Gmm": {"f111": ONE},
    }


# (source algebra, target algebra, images, superdim of the span)
CENTRALIZER_EMBEDDINGS = [
    ("osp32", "R_N3", _osp32_images, (4, 3)),
    ("d21a", "R_N4", _d21a_images, (7, 4)),
]


def _embed(source_id, target_id, images):
    """Span the images in the source, then map it identically into the target."""
    sub = liesuper.build_algebra(source_id).subalgebra(images())
    target = liesuper.build_algebra(target_id)
    identity = {n: {n: ONE} for n in sub.names}
    return sub.superdim(), liesuper.LieMorphism(sub, target, identity).check()


def lie_zhu(toy: bool):
    rounds = 1 if toy else LIE_ROUNDS

    def build(gate):
        for aid, dims in SUPERDIMS.items():
            gate.op(
                f"build_algebra({aid})",
                lambda: liesuper.build_algebra(aid),
                _superdim(dims),
            )

    def checks(gate):
        for _ in range(rounds):
            for aid in SUPERDIMS:
                gate.op(
                    f"validate({aid})",
                    lambda: liesuper.build_algebra(aid).validate(),
                    _is_true,
                )
            for aid, dims in CENTRALIZER_SUPERDIMS.items():
                gate.op(
                    f"centralizer({aid})",
                    lambda: _centralizer(aid),
                    _superdim(dims),
                )
            for source, target, images, dims in CENTRALIZER_EMBEDDINGS:
                gate.op(
                    f"embedding({source} -> {target})",
                    lambda: _embed(source, target, images),
                    _embedding(dims),
                )
            for tag in ZERO_MODE_TAGS:
                gate.op(
                    f"zero_mode_morphism({tag})",
                    lambda: liesuper.zero_mode_morphism(tag).check(),
                    _is_none,
                )
            gate.op(
                "zero_mode_morphism(N2_displayed)",
                lambda: liesuper.zero_mode_morphism("N2_displayed").check(),
                _pair_witness({"J", "Gp"}),
            )

    return [("lie_build_s", build), ("lie_checks_s", checks)]


def _centralizer(aid):
    algebra = liesuper.build_algebra(aid)
    return algebra.centralizer(algebra.element(liesuper.MINIMAL_NILPOTENT[aid]))


WORKLOADS = {"big4_verify": big4_verify, "vir_deep": vir_deep, "lie_zhu": lie_zhu}
