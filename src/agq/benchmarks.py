"""Benchmark codes and reference data used by `agq reproduce` and the tests.

The reference generator and parity-check below describe a known
[8, 3, 5] code over GF(4) obtained from the curve y^2 + y = x^3 with
all eight affine points and r = 3.  Entries are canonical element
indices (0, 1, a, a+1) -> (0, 1, 2, 3).  The reference matrices come
with no stated point ordering, so they are compared with our
construction through ordering-invariant fingerprints (parameters and
weight distribution), not entrywise.
"""

from __future__ import annotations

import numpy as np

from .agcode import LinearCode, build_onepoint_code
from .curve import hermitian_curve, superelliptic_curve
from .gf import field

REFERENCE_G_8_3 = np.array(
    [
        [1, 0, 0, 1, 2, 3, 1, 0],
        [0, 1, 0, 1, 1, 0, 3, 2],
        [0, 0, 1, 1, 2, 2, 3, 3],
    ],
    dtype=np.int64,
)

REFERENCE_H_8_3 = np.array(
    [
        [1, 0, 0, 0, 0, 3, 3, 1],
        [0, 1, 0, 0, 0, 3, 2, 0],
        [0, 0, 1, 0, 0, 2, 1, 2],
        [0, 0, 0, 1, 0, 2, 0, 3],
        [0, 0, 0, 0, 1, 1, 1, 1],
    ],
    dtype=np.int64,
)


def reference_code_8_3() -> LinearCode:
    """The reference [8, 3] generator as an explicit code over GF(4)."""
    return LinearCode.from_generator(field(2, 2), REFERENCE_G_8_3, name="reference-8-3")


def benchmark_code_8_3() -> LinearCode:
    """[8, 3, 5] over GF(4): Hermitian curve, q=2, r=3, all affine points."""
    return build_onepoint_code(hermitian_curve(2), 3, name="herm-q2-r3")


def saturated_code_4_4() -> LinearCode:
    """[4, 4, 1] over GF(4): r large enough that four evaluation points
    saturate, making every vector a codeword."""
    return build_onepoint_code(hermitian_curve(2), 20, eval_set="first:4", name="saturated-4-4")


def sweep_codes() -> list[LinearCode]:
    """Three codes of increasing length for the rate-sweep experiment.

    The superelliptic family needs odd q for (q+1)/2 to be integral,
    so there is no all-GF(16) trio; the sweep instead spans the three
    smallest towers GF(4), GF(9), GF(25), with r chosen to give
    designed distances 6, 13 and 28.
    """
    return [
        build_onepoint_code(hermitian_curve(2), 2, name="herm-q2-r2"),
        build_onepoint_code(superelliptic_curve(3, 3), 2, name="super-q3-m3-r2"),
        build_onepoint_code(superelliptic_curve(5, 2), 7, name="super-q5-m2-r7"),
    ]
