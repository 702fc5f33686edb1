"""Local-cohomology-derived numbers, all read through graded duality.

For a module M over the ambient ring S in n variables, `dual(M, i)` is
Ext^{n-i}(M, S), the finitely generated dual of H^i(M), and every reading of
H^i goes through it:

  * socle dimension of H^i  =  minimal generator count of dual(M, i)
  * annihilator of H^i      =  annihilator of dual(M, i)
  * Hilbert function of H^i in degree j  =  that of dual(M, i) in -n-j

`socle_dimensions` returns the plain tuple (s_0, ..., s_d).  The three flags
of `cm_flags` come from depth and dim and one table, the dimensions of
dual(M, i) for i < dim M (`_dual_dims`).  `annihilator_data` reads n0, the
least power of m killing every H^i below the dimension, by counting the
standard levels of each annihilator to their end: a finite-length quotient
ends on its own, so no power is capped.

Ann H^0 of a cyclic S/I is read without Ext where it can be (`_ann_h0`), in
order: S when the leads of the cached grevlex basis of I leave no socle
monomial, since depth S/I >= depth S/in(I) (Bayer & Stillman 1987; Herzog &
Hibi, Monomial Ideals, 2011, section 3.3); I : K, for K = I : l^infinity and
l the sum of the variables, when that is m-primary or S; and otherwise Ann
Ext^n, as in every other slot.

The Stanley-Reisner route (links of the associated simplicial complex) gives
an independent oracle for the Hilbert functions when the defining ideal is
square-free monomial; everything is over the same prime field, and the
characteristic is part of every report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import comb

import numpy as np

from .errors import PreconditionError
from .groebner import Ideal, buchberger, standard_levels, unit_ideal
from .linalg import rank_mod_p
from .modules import Module
from .ring import Poly


def dual(M: Module, i: int) -> Module:
    """Ext^{n-i}(M, S) for n the variable count: the graded dual of H^i(M)."""
    return M.ext(M.ring.nvars - i)


def socle_dimensions(M: Module) -> tuple:
    """(s_0, ..., s_d): the socle dimension of H^i, as the generator count of
    dual(M, i)."""
    return tuple(dual(M, i).minimal_generator_count() for i in range(M.dim() + 1))


@dataclass(frozen=True)
class AnnihilatorData:
    """Annihilators of the below-top local cohomology and their product.

    `n0` is the least power of the maximal ideal killing every H^i, i < dim
    (`_least_power_inside`); it is None exactly when some annihilator is
    neither m-primary nor the unit ideal, that is when some H^i, i < dim,
    has infinite length.
    """

    annihilators: tuple  # Ideal for each i in 0..d-1
    product: Ideal
    n0: int | None

    def __getitem__(self, i) -> Ideal:
        return self.annihilators[i]

    @cached_property
    def cube(self) -> Ideal:
        """The cube of `product` on its minimal generators, built on first use:
        the constraint ideal of a `construct_c_sop` stage on this module."""
        return self.product.power(3).minimalized()


def _least_power_inside(target: Ideal) -> int | None:
    """Least k with m^k inside `target`, homogeneous input only; None exactly
    when `target` is not m-primary or S.

    m^k lies in a homogeneous J exactly when J has no standard monomial of
    degree k, so k counts the nonempty levels below it: the length of S/J is
    listed, and it is finite here (0 levels for S).
    """
    if target.krull_dimension() > 0:
        return None
    return sum(1 for _ in standard_levels(target.groebner().leads, target.ring.nvars))


def _substitute_last(polys, form):
    """The polys with their last variable replaced by the polynomial `form`."""
    R = form.ring
    powers = [R.one()]
    out = []
    for g in polys:
        f = R.zero()
        for m, c in g.terms.items():
            while len(powers) <= m[-1]:
                powers.append(powers[-1] * form)
            f = f + powers[m[-1]].term_mul(m[:-1] + (0,), c)
        out.append(f)
    return out


def _sum_of_variables_saturation(I: Ideal) -> Ideal:
    """K = (I : l^infinity) for l = x_1 + ... + x_n and homogeneous I.

    The substitution x_n -> x_n - x_1 - ... - x_{n-1} sends l to x_n.  For
    homogeneous J and grevlex with x_n last, dividing each reduced-basis
    element by its highest power of x_n gives a basis of J : x_n^infinity
    (Bayer & Stillman 1987); the elements x_n does not divide lie in J.  So I
    itself comes back exactly when no lead involves x_n, that is when l is a
    nonzerodivisor on S/I, and otherwise I plus the quotients, moved back.
    """
    if not I.gens:
        return I
    R = I.ring
    xs = R.gens()
    there = back = xs[-1]
    for x in xs[:-1]:
        there, back = there - x, back + x
    gb = buchberger(_substitute_last(I.gens, there))
    # In grevlex the lead of a homogeneous g carries the least power of x_n
    # among its terms, so that power divides g.
    quotients = [Poly(R, {m[:-1] + (m[-1] - lm[-1],): c for m, c in g.terms.items()})
                 for g, lm in zip(gb.elements, gb.leads) if lm[-1]]
    return I + _substitute_last(quotients, back) if quotients else I


def _ann_h0(I: Ideal) -> Ideal | None:
    """Ann H^0 of S/I, which is (I : sat I) for sat I the saturation at m, or
    None when this shortcut cannot decide.

    The finite-length part is sat(I)/I, so no Ext computation is needed; the
    duality route Ann Ext^n must agree, and is cross-checked in tests.  The
    outcomes, in order:

      1. The unit ideal when S/in(I) has no socle monomial, read off the
         leads of the basis I already caches
         (`GroebnerBasis.initial_socle_free`): then depth S/I >= 1, since
         depth S/I >= depth S/in(I) (Bayer & Stillman 1987; Herzog & Hibi,
         Monomial Ideals, 2011, section 3.3).  No basis is computed.
      2. A = I : K, for K = I : l^infinity with l the sum of the variables
         (`_sum_of_variables_saturation`), when A is m-primary or the unit
         ideal: K contains sat I, and equals it exactly then (K/I has finite
         length).  K is I itself when l is a nonzerodivisor, and then A is
         the unit ideal with no syzygy run (`Ideal.colon`); this covers
         depth >= 1 ideals such as (x^2, xy - z^2), whose in(I) has a socle
         monomial.
      3. None otherwise: l lies in an associated prime other than m (more
         often over small fields), and the caller reads Ann Ext^n instead.
    """
    if I.groebner().initial_socle_free():
        return unit_ideal(I.ring)
    K = _sum_of_variables_saturation(I)
    A = I.colon(K)
    return A if A.is_unit() or A.krull_dimension() == 0 else None


def annihilator_data(M: Module) -> AnnihilatorData:
    """Annihilators of H^0..H^{d-1} and their product; cached on the module."""
    if M._ann_data is not None:
        return M._ann_data
    d = M.dim()
    if d < 1:
        raise PreconditionError("annihilator data needs positive dimension")
    anns = []
    for i in range(d):
        A = _ann_h0(M.cyclic_ideal) if i == 0 and M.cyclic_ideal is not None else None
        anns.append(A if A is not None else dual(M, i).annihilator())
    product = unit_ideal(M.ring)
    for a in anns:
        product = product.product(Ideal(M.ring, a.minimal_generators()))
    product = product.minimalized()
    powers = [_least_power_inside(a) for a in anns]
    n0 = None if None in powers else max(powers)
    M._ann_data = AnnihilatorData(tuple(anns), product, n0)
    return M._ann_data


@dataclass(frozen=True)
class CmFlags:
    is_cm: bool
    is_generalized_cm: bool
    is_unmixed: bool


def _dual_dims(M: Module) -> tuple:
    """dim dual(M, i) for each i < dim M, with -1 where it vanishes.

    H^i has finite length exactly when its dual has dimension <= 0.  An
    associated prime of dimension i shows up exactly as an i-dimensional
    component of Ext^{n-i}(M, S), and no component of it is bigger
    (Eisenbud-Huneke-Vasconcelos), so M is unmixed exactly when no entry
    equals its index.
    """
    return tuple(-1 if E.is_zero() else E.dim()
                 for E in (dual(M, i) for i in range(M.dim())))


def cm_flags(M: Module) -> CmFlags:
    """Cohen-Macaulay, generalized-CM, and unmixedness of a nonzero module."""
    dims = _dual_dims(M)
    return CmFlags(M.is_cohen_macaulay(), all(e <= 0 for e in dims),
                   all(e != i for i, e in enumerate(dims)))


# ---------------------------------------------------------------------------
# Stanley-Reisner oracle.

class SimplicialComplex:
    """Faces of the complex dual to a square-free monomial ideal."""

    def __init__(self, nvars: int, faces):
        self.nvars = nvars
        self.faces = set(faces)  # frozensets, including frozenset() when nonvoid

    @staticmethod
    def from_squarefree_ideal(ideal: Ideal) -> "SimplicialComplex":
        for g in ideal.gens:
            if not g.is_monomial():
                raise PreconditionError("Stanley-Reisner complex needs a monomial ideal")
            (expo,) = g.terms
            if any(e > 1 for e in expo):
                raise PreconditionError("Stanley-Reisner complex needs square-free generators")
        if ideal.is_unit():
            return SimplicialComplex(ideal.ring.nvars, [])
        n = ideal.ring.nvars
        nonfaces = [frozenset(i for i, e in enumerate(next(iter(g.terms))) if e)
                    for g in ideal.gens]
        faces = []
        for k in range(n + 1):
            for combo in combinations(range(n), k):
                f = frozenset(combo)
                if not any(nf <= f for nf in nonfaces):
                    faces.append(f)
        return SimplicialComplex(n, faces)

    def is_void(self) -> bool:
        return not self.faces

    def dim(self) -> int:
        """Dimension of the complex; -1 when only the empty face is present."""
        return max(len(f) for f in self.faces) - 1

    def link(self, face) -> "SimplicialComplex":
        face = frozenset(face)
        lk = [g for g in self.faces if not (face & g) and (face | g) in self.faces]
        return SimplicialComplex(self.nvars, lk)

    def k_faces(self, k: int):
        return sorted((tuple(sorted(f)) for f in self.faces if len(f) == k + 1))

    def reduced_cohomology_dim(self, k: int, p: int) -> int:
        """dim of the k-th reduced simplicial cohomology over F_p.

        Over a field this equals the reduced homology dimension, computed from
        boundary-matrix ranks.  Conventions: the complex {empty face} has a
        one-dimensional (-1)-st cohomology; the void complex has none.
        """
        if self.is_void():
            return 0
        faces_k = self.k_faces(k)
        faces_km1 = self.k_faces(k - 1) if k >= 0 else []
        faces_kp1 = self.k_faces(k + 1)

        def boundary(rows_faces, cols_faces):
            # matrix of d: C_cols -> C_rows (drop one vertex, alternating signs)
            idx = {f: i for i, f in enumerate(rows_faces)}
            A = np.zeros((len(rows_faces), len(cols_faces)), dtype=np.int64)
            for j, f in enumerate(cols_faces):
                for pos in range(len(f)):
                    sub = f[:pos] + f[pos + 1:]
                    if sub in idx:
                        A[idx[sub], j] = 1 if pos % 2 == 0 else p - 1
            return A

        if k == -1:
            # reduced: C_{-1} = k spanned by the empty face
            dim_c = 1
            rank_down = 0
            rank_up = rank_mod_p(np.ones((1, len(self.k_faces(0)))), p) \
                if self.k_faces(0) else 0
        else:
            dim_c = len(faces_k)
            if dim_c == 0:
                return 0
            if k == 0:
                down = np.ones((1, dim_c), dtype=np.int64)  # augmentation to C_{-1}
            else:
                down = boundary(faces_km1, faces_k)
            rank_down = rank_mod_p(down, p)
            up = boundary(faces_k, faces_kp1)
            rank_up = rank_mod_p(up, p) if faces_kp1 else 0
        return dim_c - rank_down - rank_up


def hochster_hilbert(ideal: Ideal, i: int, degrees) -> dict:
    """Hilbert function of H^i of S/I on `degrees`, for square-free monomial I.

    Sums reduced link cohomology over the faces of the associated complex:
    the face F contributes in degree -j with multiplicity C(j-1, |F|-1), and
    the empty face contributes only in degree 0.
    """
    R = ideal.ring
    p = R.p
    complex_ = SimplicialComplex.from_squarefree_ideal(ideal)
    face_dims = {}
    for face in complex_.faces:
        lk = complex_.link(face)
        h = lk.reduced_cohomology_dim(i - len(face) - 1, p)
        if h:
            face_dims[face] = h
    out = {}
    for deg in degrees:
        if deg > 0:
            out[deg] = 0
            continue
        j = -deg
        total = 0
        for face, h in face_dims.items():
            f = len(face)
            if f == 0:
                total += h if j == 0 else 0
            elif j >= 1:
                total += h * comb(j - 1, f - 1)
        out[deg] = total
    return out


def local_cohomology_hilbert(M: Module, i: int, degrees) -> dict:
    """Hilbert function of H^i(M) on `degrees`, through the Ext dual.

    dim H^i(M)_j equals dim Ext^{n-i}(M, S)_{-n-j}.
    """
    n = M.ring.nvars
    h = dual(M, i).hilbert_function([-n - d for d in degrees])
    return {d: h[-n - d] for d in degrees}


def local_cohomology_length(M: Module, i: int):
    """Length of H^i(M) when finite (the dual Ext is Artinian), else None."""
    return dual(M, i).length()
