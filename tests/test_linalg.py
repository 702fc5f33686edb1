import numpy as np
import pytest
from oracles import rref_exact

from irlab.linalg import nullity_mod_p, rank_mod_p, rref_mod_p

P = 2**31 - 1
PRIMES = [2, 3, 32003, P]


def _check_against_oracle(A, p):
    """rref_mod_p(A, p) equals the Python-int RREF, rank_mod_p and
    nullity_mod_p count its pivots, and none of them changes A."""
    before = A.copy()
    R, pivots = rref_mod_p(A, p)
    assert np.array_equal(A, before)
    assert R.dtype == np.int64 and R.shape == A.shape
    assert all(type(c) is int for c in pivots)
    rows, expected = rref_exact(A.tolist(), p)
    assert pivots == expected
    assert R[:len(pivots)].tolist() == rows
    assert not R[len(pivots):].any()
    assert rank_mod_p(A, p) == len(expected)
    assert nullity_mod_p(A, p) == A.shape[1] - len(expected)
    assert np.array_equal(A, before)
    return pivots


def _spread(gen, p, A):
    """A with each nonzero entry replaced by a random nonzero residue."""
    return np.where(A != 0, gen.integers(1, p, size=A.shape, dtype=np.int64), 0)


@pytest.mark.parametrize("shape", [(6, 9), (9, 6), (8, 8), (1, 5), (5, 1)])
def test_kernel_exact_at_largest_characteristic(shape):
    """Entries within 1000 of p make every product of residues close to p^2."""
    gen = np.random.default_rng(shape[0] * 31 + shape[1])
    for trial in range(4):
        A = gen.integers(P - 1000, P, size=shape, dtype=np.int64)
        if trial % 2:
            A[-1] = A[0]  # a repeated row: rank below min(shape) when rows >= 2
        pivots = _check_against_oracle(A, P)
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


@pytest.mark.parametrize("p", PRIMES)
def test_single_entry_rows_on_one_column(p):
    gen = np.random.default_rng(p % 1000)
    A = gen.integers(0, p, size=(6, 5), dtype=np.int64)
    A[1] = 0
    A[1, 2] = 1
    A[4] = 0
    A[4, 2] = p - 1
    assert 2 in _check_against_oracle(A, p)


@pytest.mark.parametrize("p", PRIMES)
def test_single_entry_rows_cascade(p):
    # e_0 clears column 0 of the second row, which leaves e_1; that clears
    # the third row down to e_3, and the last two rows are left for the loop
    gen = np.random.default_rng(p % 997)
    pattern = np.array([[1, 0, 0, 0, 0, 0],
                        [1, 1, 0, 0, 0, 0],
                        [0, 1, 0, 1, 0, 0],
                        [1, 1, 1, 1, 1, 1],
                        [0, 0, 1, 0, 1, 1]])
    A = _spread(gen, p, pattern)
    assert _check_against_oracle(A, p)[:3] == [0, 1, 2]


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_of_single_entry_rows_only(p):
    gen = np.random.default_rng(p % 991)
    A = np.zeros((7, 6), dtype=np.int64)
    A[np.arange(7), gen.integers(0, 6, size=7)] = gen.integers(1, p, size=7)
    _check_against_oracle(A, p)


@pytest.mark.parametrize("p", PRIMES)
def test_zero_rows(p):
    gen = np.random.default_rng(p % 983)
    A = gen.integers(0, p, size=(6, 4), dtype=np.int64)
    A[[0, 3]] = 0
    _check_against_oracle(A, p)
    A[2] = 0
    A[2, 1] = p - 1  # a single-entry row among the zero rows
    assert 1 in _check_against_oracle(A, p)
    assert _check_against_oracle(np.zeros((3, 4), dtype=np.int64), p) == []


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 1)])
def test_degenerate_shapes(p, shape):
    A = np.full(shape, p - 1, dtype=np.int64)
    assert _check_against_oracle(A, p) == ([0] if shape == (1, 1) else [])


@pytest.mark.parametrize("p", PRIMES)
def test_rank_counts_unit_columns_and_loop_pivots(p):
    # rows 0 and 2 are single-entry rows; clearing their columns leaves row 3
    # with one entry, and rows 1 and 4 for the loop, where row 4 repeats row 1
    gen = np.random.default_rng(p % 977)
    pattern = np.array([[0, 0, 1, 0, 0, 0],
                        [1, 1, 0, 1, 0, 1],
                        [0, 0, 0, 0, 1, 0],
                        [0, 0, 1, 0, 1, 1],
                        [0, 0, 0, 0, 0, 0]])
    A = _spread(gen, p, pattern)
    A[4] = 2 * A[1] % p
    assert len(_check_against_oracle(A, p)) == 4
    B = np.zeros((5, 4), dtype=np.int64)
    B[[0, 1, 2, 3, 4], [3, 3, 0, 1, 1]] = gen.integers(1, p, size=5)
    assert rank_mod_p(B, p) == 3 and nullity_mod_p(B, p) == 1
    _check_against_oracle(B, p)
