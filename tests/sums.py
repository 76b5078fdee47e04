"""An exactly summed oracle for a float64 sum whose order the code under test picks.

A parameter gradient over a stack is the sum of its rows' or images' terms,
added in whatever order the op (a gemm, a ``sum``, a running total) chooses.
Recursive summation of n terms in any order lies within
gamma_(n-1) * sum|terms| of the exact sum, with gamma_k = k*u / (1 - k*u)
and u = 2**-53 (Higham, *Accuracy and Stability of Numerical Algorithms*,
2nd ed., sec. 4.2); a dot product of n exact products is within gamma_n of
it (sec. 3.1).  The oracle, ``math.fsum`` of each element's terms, is the
exact sum rounded once, so it adds at most u * sum|terms|.  Both together
stay under n * 2**-52 * sum|terms|, the bound used here.
"""

import math

import numpy as np


def assert_within_summation_bound(terms, *sums: np.ndarray) -> None:
    """Each of ``sums`` is the sum of the equal-shape arrays ``terms`` in some
    order, within n * 2**-52 * sum|terms| of their exact sum, elementwise, for
    n terms."""
    terms = np.stack([np.asarray(t, dtype=np.float64) for t in terms])
    columns = zip(*terms.reshape(len(terms), -1).tolist())
    exact = np.array([math.fsum(col) for col in columns]).reshape(terms.shape[1:])
    bound = len(terms) * 2.0 ** -52 * np.abs(terms).sum(axis=0)
    for got in sums:
        assert got.shape == exact.shape
        assert np.all(np.abs(got - exact) <= bound), np.max(np.abs(got - exact) - bound)
