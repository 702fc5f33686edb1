"""Linear algebra over a prime field: one dense elimination kernel.

The kernel is `_unit_prepass` followed by the per-pivot loop `_eliminate`,
on numpy int64 arrays.  `rref_mod_p` assembles the RREF from the two for the
span route of `ir` (`params.index_of_reducibility`); `rank_mod_p` and
`nullity_mod_p`, behind every rank and nullity the package takes, only count
their pivots.  Minimal generators do not use it:
`modules.minimal_vec_generators` goes through the Groebner engine.
`SpanTracker` is kept as the row-at-a-time reference the tests check against.

Before the per-pivot loop, `_unit_prepass` clears single-entry rows: such a row
fixes a pivot column whose echelon row is a unit vector, and that column is
dropped from every other row, which can leave new single-entry rows.  On the
small matrices of random systems this settles most pivots (the first step of
structured Gaussian elimination, LaMacchia and Odlyzko 1990).  The prepass
only compares with zero and moves entries; it keeps a boolean copy of the
nonzero pattern and no second int64 matrix of the full size.

Overflow contract: entries are int64 residues in [0, p), and every product of
two residues is reduced mod p before the next addition, so no intermediate
value leaves (-p^2, p^2 + p).  That fits int64 for p < 2^31, the range
`ring.ring` enforces for every field.  The prepass does no arithmetic, so
the contract is the same with it.
"""

from __future__ import annotations

import numpy as np


def _unit_prepass(A: np.ndarray, p: int):
    """(A % p as a new int64 matrix, its unit-column mask, the rest).

    A row with a single nonzero entry, in column c, puts e_c in the row
    space, so c is a pivot column and e_c its echelon row.  The prepass marks
    every such column and drops it from all rows, which may leave new
    single-entry rows, and repeats until none is left.  The rest is what is
    left for `_eliminate`: the rows with a live entry, on the unmarked
    columns (the whole `% p` copy itself when no column is marked).
    """
    A = np.asarray(A, dtype=np.int64) % p
    live = A != 0
    unit = np.zeros(A.shape[1], dtype=bool)
    while True:
        single = live.sum(axis=1) == 1
        if not single.any():
            break
        hit = live[single].any(axis=0)
        unit |= hit
        live[:, hit] = False
    if not unit.any():
        return A, unit, A
    return A, unit, A[live.any(axis=1).nonzero()[0][:, None], (~unit).nonzero()[0]]


def rref_mod_p(A: np.ndarray, p: int):
    """Reduced row echelon form of A over Z/p: (new int64 matrix, pivot columns).

    A itself is left unchanged, whatever its dtype.  The unit columns of
    `_unit_prepass` need no elimination; only the rows and columns that
    remain go through the per-pivot loop.  The unit rows and the loop's rows
    are then written into the `% p` copy in pivot-column order, which gives
    the unique RREF.
    """
    A, unit, rest = _unit_prepass(A, p)
    if not unit.any():
        return A, _eliminate(A, p)
    unit_cols = unit.nonzero()[0]
    keep_cols = (~unit).nonzero()[0]
    loop_cols = keep_cols[_eliminate(rest, p)]
    is_pivot = unit.copy()
    is_pivot[loop_cols] = True
    row_of = is_pivot.cumsum() - 1  # the echelon row of each pivot column
    A[:] = 0
    A[row_of[unit_cols], unit_cols] = 1
    A[row_of[loop_cols][:, None], keep_cols] = rest[:loop_cols.size]
    return A, is_pivot.nonzero()[0].tolist()


def _eliminate(A: np.ndarray, p: int) -> list:
    """Gauss-Jordan elimination of a residue matrix in place, one pivot column
    at a time; its first len(pivots) rows end as the RREF."""
    rows, cols = A.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = A[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + nz[0]
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, c]), p - 2, p)
        A[r] = (A[r] * inv) % p
        col = A[:, c].copy()
        col[r] = 0
        mask = col.nonzero()[0]
        if mask.size:
            A[mask] = (A[mask] - col[mask, None] * A[r]) % p
        pivots.append(c)
        r += 1
    return pivots


def rank_mod_p(A: np.ndarray, p: int) -> int:
    """Rank of A over Z/p: the unit columns of `_unit_prepass` plus the pivots
    of the rest, with no RREF assembled."""
    if A.size == 0:
        return 0
    _, unit, rest = _unit_prepass(A, p)
    return int(unit.sum()) + len(_eliminate(rest, p))


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
