"""Brute-force oracles used by the tests: definitional, engine-independent."""

import numpy as np

from irlab.linalg import SpanTracker
from irlab.ring import monomials_of_degree, monomials_up_to_degree


def membership_bruteforce(f, gens, degree_bound):
    """Whether f lies in the span of monomial multiples of gens up to the bound.

    For homogeneous data this decides ideal membership in degrees <= bound by
    plain linear algebra over the prime field, with no division or bases.
    """
    R = f.ring
    p = R.field.p
    products = []
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.degree()
        for k in range(degree_bound - gdeg + 1):
            for mono in monomials_of_degree(R.nvars, k):
                products.append(g.term_mul(mono, 1))
    keys = sorted({m for q in products for m in q.terms} | set(f.terms))
    index = {m: i for i, m in enumerate(keys)}
    tracker = SpanTracker(len(keys), p)

    def densify(poly):
        row = np.zeros(len(keys), dtype=np.int64)
        for m, c in poly.terms.items():
            row[index[m]] = c
        return row

    for q in products:
        tracker.add(densify(q))
    return tracker.contains(densify(f))


def multiply_bruteforce(a, b):
    """Schoolbook product, term by term, without the Poly.__mul__ fast path."""
    R = a.ring
    out = R.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + R.monomial(tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
    return out


def quotient_dimension_bruteforce(gens, ring_, degree_bound):
    """Vector-space dimension of (S/I)_{<= bound} by spanning the ideal's slice."""
    p = ring_.field.p
    monos = monomials_up_to_degree(ring_.nvars, degree_bound)
    index = {m: i for i, m in enumerate(monos)}
    tracker = SpanTracker(len(monos), p)
    count = 0
    for g in gens:
        gdeg = g.degree()
        for k in range(degree_bound - gdeg + 1):
            for mono in monomials_of_degree(ring_.nvars, k):
                q = g.term_mul(mono, 1)
                row = np.zeros(len(monos), dtype=np.int64)
                for m, c in q.terms.items():
                    row[index[m]] = c
                if tracker.add(row):
                    count += 1
    return len(monos) - count


def rref_exact(rows, p):
    """Reduced row echelon form over Z/p by Gaussian elimination in Python ints.

    Returns (nonzero rows as int lists, pivot columns); no fixed-width arithmetic.
    """
    A = [[int(x) % p for x in row] for row in rows]
    ncols = len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [a * inv % p for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots
