"""Coefficient format and the boundary that turns input into Scalars.

A stored coefficient is an int when it is integral and a Fraction with
denominator > 1 otherwise, in every Scalar the package builds.  Input that
is not a rational is refused by name wherever it enters.
"""

from fractions import Fraction

import pytest

from vazhu.enveloping import VertexAlgebra, axiom_suite
from vazhu import liesuper
from vazhu.liesuper import LieMorphism, LieSuperalgebra, build_algebra
from vazhu.linalg import GrassmannElement, SuperMatrix, verify_membership
from vazhu.presentation import (
    GeneratorSpec,
    VACUUM,
    VaPresentation,
    builtin_embedding,
    builtin_ids,
    builtin_presentation,
    check_embedding,
)
from vazhu.scalar import ONE, Scalar

def _bad_coefficients(vectors):
    """(key, coefficient) of each stored coefficient off the format."""
    bad = []
    for key, vec in vectors:
        for v in vec.values():
            for _, c in v._num + v._den:
                if not (type(c) is int or type(c) is Fraction and c.denominator != 1):
                    bad.append((key, c))
    return bad


def test_stored_coefficients_are_ints_or_proper_fractions():
    vectors = []
    for pres_id in builtin_ids():
        vectors += builtin_presentation(pres_id)._table.items()
    for aid in sorted(liesuper._BUILDERS):
        vectors += [(aid, vec) for vec in build_algebra(aid).table.values()]
    for pres_id, bound in (("N1", 3), ("big4", 2)):
        engine = VertexAlgebra(builtin_presentation(pres_id))
        assert axiom_suite(engine, weight_bound=bound, triples=2, seed=1).passed
        assert engine._prod_memo
        vectors += engine._prod_memo.items()
    assert _bad_coefficients(vectors) == []


def _va_presentation(x):
    gens = [GeneratorSpec("B", 0, Fraction(1))]
    VaPresentation("float", gens, {("B", "B"): {(1, 0, VACUUM): x}})


def _lie_superalgebra(x):
    LieSuperalgebra(["h"], {"h": 0}, {("h", "h"): {"h": x}})


def _lie_morphism(x):
    r = build_algebra("R_N1")
    LieMorphism(r, r, {"L": {"L": x}, "G": {"G": ONE}})


def _check_embedding(x):
    src, tgt, images = builtin_embedding("N1_in_N2")
    check_embedding(src, tgt, dict(images, L={"L": x}))


def _central_charge(x):
    VaPresentation("float", [GeneratorSpec("B", 0, Fraction(1))], {}, x)


def _certificate(x):
    verify_membership({"v": ONE}, [{"v": ONE}], {0: x})


@pytest.mark.parametrize(
    "build, match",
    [
        (_va_presentation, r"coefficient at \(1, 0, '\|0>'\) is a float"),
        (lambda x: SuperMatrix(1, 0, {(0, 0): x}), r"at \(0, 0\) is a float"),
        (lambda x: SuperMatrix(1, 0, {(0, 0): 1}) * x, "scale factor is a float"),
        (_lie_superalgebra, "coefficient at 'h' is a float"),
        (_lie_morphism, "coefficient at 'L' is a float"),
        (_check_embedding, "coefficient at 'L' is a float"),
        (_central_charge, "central charge is a float"),
        (lambda x: Scalar.param("c").substitute({"c": x}), "value of c is a float"),
        (_certificate, "coefficient at 0 is a float"),
        (lambda x: GrassmannElement({(0, (1,)): x}), r"at \(0, \(1,\)\) is a float"),
    ],
)
def test_float_coefficients_are_refused_by_name(build, match):
    # Fraction(0.5) would be exact, but Fraction(0.1) is a binary float's value
    with pytest.raises(TypeError, match=match):
        build(0.5)

