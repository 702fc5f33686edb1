"""Linear algebra over a prime field: one dense elimination kernel.

`rref_mod_p`, on numpy int64 arrays, serves the span route of `ir`
(`params.index_of_reducibility`) and, through `rank_mod_p`/`nullity_mod_p`,
every rank and nullity the package takes.  Minimal generators do not use it:
`modules.minimal_vec_generators` goes through the Groebner engine.
`SpanTracker` is kept as the row-at-a-time reference the tests check against.

Overflow contract: entries are int64 residues in [0, p), and every product of
two residues is reduced mod p before the next addition, so no intermediate
value leaves (-p^2, p^2 + p).  That fits int64 for p < 2^31, the range
`ring.check_characteristic` enforces for every field.
"""

from __future__ import annotations

import numpy as np


def rref_mod_p(A: np.ndarray, p: int):
    """Reduced row echelon form of A over Z/p: (new int64 matrix, pivot columns).

    A itself is left unchanged, whatever its dtype.
    """
    A = np.asarray(A, dtype=np.int64) % p
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        mask = np.nonzero(col)[0]
        if mask.size:
            A[mask] = (A[mask] - np.outer(col[mask], A[r])) % p
        pivots.append(c)
        r += 1
    return A, pivots


def rank_mod_p(A: np.ndarray, p: int) -> int:
    if A.size == 0:
        return 0
    _, pivots = rref_mod_p(A, p)
    return len(pivots)


def nullity_mod_p(A: np.ndarray, p: int) -> int:
    """Dimension of the right kernel of A over Z/p."""
    if A.size == 0:
        return A.shape[1] if A.ndim == 2 else 0
    return A.shape[1] - rank_mod_p(A, p)


class SpanTracker:
    """Incrementally maintained row space over Z/p with membership tests.

    Rows are dense vectors in a fixed column basis.  `reduce` returns the
    residue of a vector against the current space; `add` inserts the residue
    when it is nonzero and reports whether the span grew.
    """

    def __init__(self, ncols: int, p: int):
        self.p = p
        self.ncols = ncols
        self.rows: list[np.ndarray] = []
        self.pivot_cols: list[int] = []

    def reduce(self, v: np.ndarray) -> np.ndarray:
        p = self.p
        v = np.mod(v.astype(np.int64), p)
        for row, c in zip(self.rows, self.pivot_cols):
            f = int(v[c])
            if f:
                v = (v - f * row) % p
        return v

    def add(self, v: np.ndarray) -> bool:
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        inv = pow(int(v[c]), self.p - 2, self.p)
        v = (v * inv) % self.p
        # Keep earlier rows reduced against the new pivot for stable behaviour.
        for i, row in enumerate(self.rows):
            f = int(row[c])
            if f:
                self.rows[i] = (row - f * v) % self.p
        self.rows.append(v)
        self.pivot_cols.append(c)
        return True

    def contains(self, v: np.ndarray) -> bool:
        return not np.any(self.reduce(v))

    @property
    def dim(self) -> int:
        return len(self.rows)
