import numpy as np
import pytest
from oracles import rref_exact

from irlab.linalg import rank_mod_p, rref_mod_p

P = 2**31 - 1


@pytest.mark.parametrize("shape", [(6, 9), (9, 6), (8, 8), (1, 5), (5, 1)])
def test_kernel_exact_at_largest_characteristic(shape):
    """Entries within 1000 of p make every product of residues close to p^2."""
    gen = np.random.default_rng(shape[0] * 31 + shape[1])
    for trial in range(4):
        A = gen.integers(P - 1000, P, size=shape, dtype=np.int64)
        if trial % 2:
            A[-1] = A[0]  # a repeated row: rank below min(shape) when rows >= 2
        rows, pivots = rref_exact(A.tolist(), P)
        R, got_pivots = rref_mod_p(A, P)
        assert got_pivots == pivots
        assert R[:len(pivots)].tolist() == rows
        assert not R[len(pivots):].any()
        assert rank_mod_p(A, P) == len(pivots)


@pytest.mark.parametrize("dtype", [np.int64, np.float64])
def test_rref_leaves_its_input_unchanged(dtype):
    """`cohomology` hands the kernel float arrays (np.ones), the rest int64."""
    gen = np.random.default_rng(7)
    A = gen.integers(0, 50, size=(5, 7)).astype(dtype)
    A[3] = 2 * A[1]
    before = A.copy()
    R, pivots = rref_mod_p(A, 32003)
    assert A.dtype == dtype and np.array_equal(A, before)
    R_int, pivots_int = rref_mod_p(before.astype(np.int64), 32003)
    assert pivots == pivots_int and np.array_equal(R, R_int)
    assert R.dtype == np.int64
