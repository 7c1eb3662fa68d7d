"""Exact vertex-superalgebra engine with Zhu-algebra machinery.

The package exports nothing itself; import from its modules:
vazhu.scalar, vazhu.linalg, vazhu.presentation, vazhu.enveloping and
vazhu.liesuper.
"""
