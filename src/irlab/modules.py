"""Finitely presented graded modules, free resolutions, Ext, derived invariants.

A module is presented as F/N: a free module with generator degrees (`shifts`)
and a list of homogeneous relation columns (raw vectors, as in `groebner`).

The architectural rule of the whole package lives here: local cohomology is
never materialized.  Every statement about H^i of a module M over the ambient
ring in n variables is read off the finitely generated module Ext^{n-i}(M, S)
through graded duality -- socle dimensions become minimal generator counts,
annihilators become Ext annihilators, Hilbert functions get degree-reversed
(with a shift by n).  H^i itself is an infinite-dimensional object; its dual
is finite data, so the dual is what we compute.
"""

from __future__ import annotations

from itertools import combinations

from .errors import InternalInvariantError, PreconditionError, ZeroModuleError
from .groebner import (Ideal, _divides, _lift, minimal_generators_raw, module_buchberger_raw,
                       standard_levels, syzygies_raw, vector_colon)
from .ring import Ring

_CYCLIC_CACHE: dict = {}


# ---------------------------------------------------------------------------
# Raw-vector utilities shared by the homological routines.

def vec_degree(vec, shifts):
    """Degree of a homogeneous raw vector; raises on inhomogeneous input."""
    degs = {sum(m) + shifts[pos] for (pos, m) in vec}
    if len(degs) != 1:
        raise PreconditionError(f"inhomogeneous column (degrees {sorted(degs)})")
    return degs.pop()


def poly_times_vec(poly_terms, vec, p):
    out = {}
    for pm, c in poly_terms.items():
        for (pos, m), v in vec.items():
            key = (pos, tuple(a + b for a, b in zip(pm, m)))
            w = (out.get(key, 0) + c * v) % p
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def vec_sub(a, b, p):
    out = dict(a)
    for k, v in b.items():
        w = (out.get(k, 0) - v) % p
        if w:
            out[k] = w
        else:
            out.pop(k, None)
    return out


def vec_component(vec, pos):
    return {m: c for (q, m), c in vec.items() if q == pos}


def transpose(columns, rank):
    """Rows of the matrix whose columns are the raw vectors `columns` (rank `rank`)."""
    rows = [{} for _ in range(rank)]
    for cidx, column in enumerate(columns):
        for (pos, m), c in column.items():
            rows[pos][(cidx, m)] = c
    return rows


def vec_drop_position(vec, pos):
    """Remove position `pos` and renumber the later ones down by one."""
    out = {}
    for (q, m), c in vec.items():
        if q == pos:
            continue
        out[(q - 1 if q > pos else q, m)] = c
    return out


def minimal_vec_generators(vecs, shifts, ring_: Ring):
    """Select a minimal generating set from homogeneous vectors, degreewise.

    Graded Nakayama: in degree order, and in input order within a degree, a
    vector is kept exactly when it lies outside the submodule spanned by the
    kept lower-degree vectors and the degree-d vectors before it.  Returns the
    kept vectors themselves, in that order.  Raises PreconditionError on an
    inhomogeneous vector (`vec_degree`).  One selection run of the Groebner
    engine decides it (`groebner.minimal_generators_raw`).
    """
    for v in filter(None, vecs):
        vec_degree(v, shifts)
    return [vecs[k] for k in minimal_generators_raw(vecs, shifts, ring_.p)]


# ---------------------------------------------------------------------------

class FreeResolution:
    """A complex of graded free modules ... -> F_1 -> F_0.

    `shifts[k]` lists the generator degrees of F_k; `diffs[k]` holds the
    columns of the map F_{k+1} -> F_k as raw vectors over F_k's positions.
    """

    def __init__(self, ring_: Ring, shifts, diffs):
        self.ring = ring_
        self.shifts = [tuple(s) for s in shifts]
        self.diffs = [list(cols) for cols in diffs]

    @property
    def length(self) -> int:
        return len(self.shifts) - 1

    def betti_numbers(self):
        return tuple(len(s) for s in self.shifts)


def minimalize_complex(res: FreeResolution) -> FreeResolution:
    """Cancel trivial summands (unit entries) until none remain.

    Standard Gaussian cancellation on the complex: a scalar entry u at
    (row i, column j) of d_k removes one generator from F_k and one from
    F_{k-1}; the neighbouring differentials lose the matching column and row,
    and d_k picks up the correction term -c u^{-1} b.  Exact over a field, no
    tolerances involved.  Homology is unchanged.
    """
    p = res.ring.p
    zero = (0,) * res.ring.nvars
    shifts = [list(s) for s in res.shifts]
    diffs = [[dict(c) for c in cols] for cols in res.diffs]

    while True:
        hit = None
        for k, cols in enumerate(diffs):
            for j, col in enumerate(cols):
                for (pos, m), c in col.items():
                    if m == zero:
                        hit = (k, j, pos, c)
                        break
                if hit:
                    break
            if hit:
                break
        if hit is None:
            break
        k, j, i, u = hit
        uinv = pow(u, p - 2, p)
        pivot_col = diffs[k][j]
        c_vec = {key: v for key, v in pivot_col.items() if key != (i, zero)}
        # d_k: correct the other columns, then drop column j and row i.
        new_cols = []
        for jj, col in enumerate(diffs[k]):
            if jj == j:
                continue
            b = vec_component(col, i)  # row-i entry of this column
            if b:
                col = vec_sub(col, poly_times_vec({m: (c * uinv) % p for m, c in b.items()},
                                                  c_vec, p), p)
            col = {key: v for key, v in col.items() if key[0] != i}
            new_cols.append(vec_drop_position(col, i))
        diffs[k] = new_cols
        # d_{k+1}: drop row j (position j of its columns).
        if k + 1 < len(diffs):
            diffs[k + 1] = [vec_drop_position({key: v for key, v in col.items()
                                               if key[0] != j}, j)
                            for col in diffs[k + 1]]
        # d_{k-1}: drop column i.
        if k - 1 >= 0:
            diffs[k - 1] = [col for jj, col in enumerate(diffs[k - 1]) if jj != i]
        del shifts[k + 1][j]
        del shifts[k][i]
        # Trim empty tail steps.
        while diffs and not shifts[len(diffs)]:
            diffs.pop()
            shifts.pop()
    return FreeResolution(res.ring, shifts, diffs)


# ---------------------------------------------------------------------------

class Module:
    """Finitely presented graded module over the ambient polynomial ring.

    A module is built on its minimal presentation: `shifts` and `relations`
    are computed once, at construction, by `minimal_presentation`.  It caches
    its resolution, Ext modules, annihilator and annihilator data
    (`cohomology.annihilator_data`); dimension and depth are read off those.
    """

    def __init__(self, ring_: Ring, shifts, relations, cyclic_ideal: Ideal | None = None):
        self.ring = ring_
        self.shifts, self.relations = self.minimal_presentation(ring_, shifts, relations)
        self.cyclic_ideal = cyclic_ideal
        self._resolution: FreeResolution | None = None
        self._ext: dict = {}
        self._ann: Ideal | None = None
        self._ann_data = None

    # -- constructors ---------------------------------------------------------
    @staticmethod
    def cyclic(ideal: Ideal) -> "Module":
        """S/I with its single degree-0 generator; presentations are cached."""
        for g in ideal.gens:
            if not g.is_homogeneous():
                raise PreconditionError(f"inhomogeneous ideal generator {g}")
        key = (id(ideal.ring), frozenset(ideal.gens))
        cached = _CYCLIC_CACHE.get(key)
        if cached is not None:
            return cached
        rels = [_lift(g) for g in ideal.gens]
        M = Module(ideal.ring, (0,), rels, cyclic_ideal=ideal)
        _CYCLIC_CACHE[key] = M
        return M

    @staticmethod
    def free(ring_: Ring, rank: int = 1, shifts=None) -> "Module":
        return Module(ring_, shifts or (0,) * rank, [])

    # -- minimal presentation ---------------------------------------------------
    @staticmethod
    def minimal_presentation(ring_: Ring, shifts, rels):
        """(shifts, relations) with unit entries pivoted away; Nakayama-minimal.

        The presentation is the one-step complex F_1 -> F_0, so the unit pivots
        cancel exactly as in `minimalize_complex`.  Raises PreconditionError on
        an inhomogeneous relation (`vec_degree`).  With no relations the input
        is already minimal and comes back unchanged.
        """
        shifts = tuple(shifts)
        rels = [r for r in rels if r]  # `minimalize_complex` copies them
        if not rels:
            return shifts, ()
        degs = [vec_degree(r, shifts) for r in rels]
        res = minimalize_complex(FreeResolution(ring_, [shifts, degs], [rels]))
        shifts = res.shifts[0]
        # The differential is gone when every relation cancelled; the
        # cancellation also leaves zero columns behind.
        rels = [r for cols in res.diffs for r in cols if r]
        # Prune to a minimal relation set so beta_1 is honest too.
        return shifts, tuple(minimal_vec_generators(rels, shifts, ring_))

    def minimal_generator_count(self) -> int:
        return len(self.shifts)

    def is_zero(self) -> bool:
        return not self.shifts

    # -- resolution -------------------------------------------------------------
    def resolution(self) -> FreeResolution:
        """Minimal free resolution by iterated syzygies; cached.

        Every kernel is presented by a degreewise-minimal generating set, which
        makes the whole resolution minimal, so its length is at most the
        variable count n (Hilbert's syzygy theorem).  Every column has passed
        `vec_degree`, so an (n + 1)-th differential is a fault of this code,
        not of the input: InternalInvariantError.
        """
        if self._resolution is not None:
            return self._resolution
        shifts = [self.shifts]
        diffs = []
        current = list(self.relations)
        current_shifts = list(self.shifts)
        while current:
            if len(diffs) == self.ring.nvars:
                raise InternalInvariantError("minimal resolution longer than the variable count")
            degs = [vec_degree(v, current_shifts) for v in current]
            diffs.append(list(current))
            shifts.append(tuple(degs))
            syz = syzygies_raw(current, len(current_shifts), self.ring)
            current_shifts = degs
            current = minimal_vec_generators(syz, degs, self.ring)
        self._resolution = FreeResolution(self.ring, shifts, diffs)
        return self._resolution

    def projective_dimension(self) -> int:
        if self.is_zero():
            raise ZeroModuleError("projective dimension of the zero module")
        return self.resolution().length

    # -- Ext^j(M, S) --------------------------------------------------------------
    def ext(self, j: int) -> "Module":
        """Presentation of Ext^j(M, S), minimalized; the dual face of H^{n-j}."""
        if j in self._ext:
            return self._ext[j]
        n = self.ring.nvars
        if j < 0 or j > n:
            raise PreconditionError(f"Ext index {j} out of range 0..{n}")
        res = self.resolution()
        length = res.length
        if j > length or self.is_zero():
            out = self._ext[j] = Module(self.ring, (), ())
            return out
        dual_shifts = tuple(-s for s in res.shifts[j])
        rank_j = len(res.shifts[j])
        # Kernel of the dualized outgoing map (transpose of d_{j+1}); syzygy
        # coordinates line up with the basis of F_j*.
        if j < length:
            kernel = syzygies_raw(transpose(res.diffs[j], rank_j),
                                  len(res.shifts[j + 1]), self.ring)
        else:
            zero = (0,) * n
            kernel = [{(r, zero): 1} for r in range(rank_j)]
        # Image of the dualized incoming map (transpose of d_j), empty columns dropped.
        image = []
        if j >= 1:
            image = [c for c in transpose(res.diffs[j - 1], len(res.shifts[j - 1])) if c]
        out = module_subquotient(kernel, image, rank_j, dual_shifts, self.ring)
        self._ext[j] = out
        return out

    # -- invariants ---------------------------------------------------------------
    def annihilator(self) -> Ideal:
        """Ann(M) = {f : f e_i in N for every i}, one `vector_colon` call; cached.

        The zero module has no generators e_i, so its annihilator is the unit ideal.
        """
        if self._ann is None:
            rank = len(self.shifts)
            zero = (0,) * self.ring.nvars
            es = [{(i, zero): 1} for i in range(rank)]
            self._ann = vector_colon(es, self.relations, rank, self.ring)
        return self._ann

    def dim(self) -> int:
        """Krull dimension, that of S/I or S/Ann M; ZeroModuleError for the zero module."""
        if self.is_zero():
            raise ZeroModuleError("dimension of the zero module")
        ideal = self.cyclic_ideal if self.cyclic_ideal is not None else self.annihilator()
        return ideal.krull_dimension()

    def depth(self) -> int:
        """depth = n - max{j : Ext^j(M, S) != 0}; consistent with Auslander-Buchsbaum."""
        for j in range(self.projective_dimension(), -1, -1):
            if not self.ext(j).is_zero():
                return self.ring.nvars - j
        raise InternalInvariantError("no nonvanishing Ext against a nonzero module")

    def is_cohen_macaulay(self) -> bool:
        return self.depth() == self.dim()

    # -- Hilbert data ----------------------------------------------------------------
    def _position_levels(self, top=None):
        """(shift, standard_levels) per generator of the minimal presentation.

        Each position's levels run against the leads, in that position, of a
        Groebner basis of the relations (each basis vector's first term);
        `top` bounds the total degree.
        """
        gb_leads = [next(iter(g)) for g in module_buchberger_raw(self.relations, self.ring.p)]
        for pos, s in enumerate(self.shifts):
            leads = [m for (q, m) in gb_leads if q == pos]
            yield s, standard_levels(leads, self.ring.nvars, None if top is None else top - s)

    def hilbert_function(self, degrees):
        """dim_k M_d for each d in `degrees`, via standard module monomials."""
        out = dict.fromkeys(degrees, 0)
        if out:
            for s, levels in self._position_levels(max(out)):
                for e, level in levels:
                    if e + s in out:
                        out[e + s] += len(level)
        return out

    def hilbert_numerator(self):
        """Numerator of the Hilbert series over (1-t)^n, from the minimal resolution."""
        res = self.resolution()
        numer: dict = {}
        sign = 1
        for degs in res.shifts:
            for s in degs:
                numer[s] = numer.get(s, 0) + sign
            sign = -sign
        return {d: c for d, c in sorted(numer.items()) if c}

    def length(self):
        """Total vector-space dimension; None when the module is not Artinian.

        The standard levels of each position of an Artinian module end on
        their own, so they are counted to the end.
        """
        if self.is_zero():
            return 0
        if self.dim() > 0:
            return None
        total = 0
        for _, levels in self._position_levels():
            for _, level in levels:
                total += len(level)
        return total

    def __repr__(self):
        if self.cyclic_ideal is not None:
            return f"Module(S/{self.cyclic_ideal!r})"
        return f"Module(rank {len(self.shifts)}, {len(self.relations)} relations)"


def module_subquotient(gens, image, ambient_rank, ambient_shifts, ring_: Ring) -> Module:
    """Present span(gens)/span(image) inside a free module, via one syzygy run.

    Relations of the subquotient are {c : sum_i c_i gens_i lies in span(image)},
    from `syzygies_raw` with the image as its relations, and the module is
    built on their minimal presentation like any other.
    """
    if not gens:
        return Module(ring_, (), ())
    degs = [vec_degree(g, ambient_shifts) for g in gens]
    return Module(ring_, degs, syzygies_raw(gens, ambient_rank, ring_, image))


def subquotient_presentation(A: Ideal, B: Ideal) -> Module:
    """The module A/B for nested ideals B <= A (containment is verified)."""
    if not A.contains_ideal(B):
        raise PreconditionError("subquotient requires B contained in A")
    R = A.ring
    if not all(g.is_homogeneous() for g in A.gens):
        raise PreconditionError("subquotient requires homogeneous generators")
    gens_a = A.minimal_generators()
    return module_subquotient([_lift(g) for g in gens_a], [_lift(g) for g in B.gens],
                              1, (0,), R)


def taylor_resolution(ideal: Ideal) -> FreeResolution:
    """The Taylor complex on a monomial generating set (exact, rarely minimal).

    Independent of the syzygy pipeline, so it serves as a cross-oracle for
    monomial Betti numbers after `minimalize_complex`.
    """
    if not ideal.is_monomial():
        raise PreconditionError("Taylor complex needs monomial generators")
    R = ideal.ring
    gens = []
    seen = set()
    for g in ideal.gens:
        m = next(iter(g.terms))
        if m not in seen:
            seen.add(m)
            gens.append(m)
    # Prune non-minimal monomial generators.
    gens = [m for m in gens if not any(n != m and _divides(n, m) for n in gens)]
    g = len(gens)
    if g > 20:
        raise PreconditionError(f"Taylor complex on {g} generators would have 2^{g} faces")
    if g == 0:
        return FreeResolution(R, [(0,)], [])

    def lcm_of(subset):
        out = [0] * R.nvars
        for i in subset:
            out = [max(a, b) for a, b in zip(out, gens[i])]
        return tuple(out)

    shifts = [(0,)]
    diffs = []
    prev_faces = {(): 0}
    for k in range(1, g + 1):
        faces = list(combinations(range(g), k))
        index = {f: i for i, f in enumerate(faces)}
        shifts.append(tuple(sum(lcm_of(f)) for f in faces))
        cols = []
        for f in faces:
            col = {}
            big = lcm_of(f)
            for idx, i in enumerate(f):
                sub = tuple(x for x in f if x != i)
                small = lcm_of(sub)
                quot = tuple(a - b for a, b in zip(big, small))
                coeff = 1 if idx % 2 == 0 else R.p - 1
                col[(prev_faces[sub], quot)] = coeff
            cols.append(col)
        diffs.append(cols)
        prev_faces = index
    return FreeResolution(R, shifts, diffs)
