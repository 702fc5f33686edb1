"""Parameter elements and systems, certified deep systems, index of reducibility.

Deep systems are built back to front: the last element is drawn from the cube
of the product of the low local-cohomology annihilators of M, and each earlier
element from the same cube ideal of the successive quotient.  The cube of the
annihilator product sits inside the cube of the (uncomputable) colon-annihilator
intersection ideal, so every certificate carries the tag "ann-product-cube" to
make the surrogate auditable.

The index of reducibility of a parameter ideal is the socle dimension of the
Artinian quotient.  Two algorithms with no shared machinery compute it and
must agree: a degreewise span computation straight from the raw generators
(plain linear algebra, no bases computed; each degree works on the standard
representatives of S/J that the echelon form of J's slice leaves), and the
common kernel of the variable multiplication maps on the reduced monomial
basis (which leans on the Groebner engine, one normal form per distinct
non-standard shift).  Their lengths are cross-checked too; any disagreement
aborts loudly.

Nothing is built twice: each stage continues from the cut ideal I + (x) the
search just tested, and a finished system hands its Artinian quotient to
`index_of_reducibility`, which checks it and runs both routes on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (MethodDisagreement, PreconditionError, SearchExhausted,
                     ZeroModuleError)
from .groebner import Ideal
from .linalg import nullity_mod_p, rank_mod_p, rref_mod_p
from .modules import Module
from .ring import Poly, monomials_of_degree

_MASK = (1 << 64) - 1


class Rng:
    """Deterministic splitmix64 stream; spawn() derives independent substreams."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    @staticmethod
    def _mix(z: int) -> int:
        z = (z + 0x9E3779B97F4A7C15) & _MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return (z ^ (z >> 31)) & _MASK

    def next_int(self) -> int:
        z = self._mix(self.state)
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        return z

    def below(self, n: int) -> int:
        return self.next_int() % n

    def spawn(self, index: int) -> "Rng":
        return Rng(self._mix(self.state ^ self._mix(index + 0xA5A5A5A5)))


@dataclass(frozen=True)
class StageCertificate:
    """What was checked while producing one element of a deep system."""

    index: int              # which x_i (1-based, elements are built from the top down)
    degree: int
    seed: int
    dim_before: int
    dim_after: int
    constraint_gens: tuple  # printed generators of the cube ideal used


@dataclass(frozen=True)
class ParameterSystem:
    elements: tuple
    stages: tuple
    min_degree: int
    seed: int
    method: str = "ann-product-cube"
    # (I, elements, I + (elements)) as the construction left them, so that
    # index_of_reducibility need not rebuild the Artinian quotient.
    cut: tuple | None = field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def ideal(self, ring_) -> Ideal:
        return Ideal(ring_, list(self.elements))

    def to_payload(self):
        return {
            "elements": [str(x) for x in self.elements],
            "stages": [{
                "index": s.index,
                "degree": s.degree,
                "seed": s.seed,
                "dim_drop": [s.dim_before, s.dim_after],
                "cube_gens": list(s.constraint_gens),
            } for s in self.stages],
            "min_degree": self.min_degree,
            "seed": self.seed,
            "method": self.method,
        }


class ParameterList(list):
    """Elements of a system of parameters on S/I that carry, as `cut`, the
    triple (I, elements, I + (elements)) a ParameterSystem carries."""

    def __init__(self, elements, ideal: Ideal, quotient: Ideal):
        super().__init__(elements)
        self.cut = (ideal, tuple(self), quotient)


def is_system_of_parameters(elements, ideal: Ideal) -> bool:
    """True when the elements cut the dimension of S/I down to zero, one by one.

    A homogeneous element lowers the dimension by at most one, so d homogeneous
    elements reaching dimension 0 lower it one by one, and a single check of
    I + (elements) decides; other elements are checked stepwise.
    """
    M = Module.cyclic(ideal)
    if M.is_zero():
        raise ZeroModuleError("parameter systems of the zero module")
    d = M.dim()
    elems = list(elements)
    if len(elems) != d:
        return False
    if all(x.is_homogeneous() for x in elems):
        J = _quotient(elems, ideal, getattr(elements, "cut", None))
        return J.krull_dimension() == 0
    current = ideal
    for k, x in enumerate(elems, 1):
        current = current + x
        if current.krull_dimension() != d - k:
            return False
    return True


def _quotient(elems: list, ideal: Ideal, cut) -> Ideal:
    """I + (elems): the quotient in `cut` (the `cut` of a ParameterSystem or
    ParameterList) when it was built over this very `ideal` object with
    these elements, else a new ideal."""
    if cut is not None and cut[0] is ideal and cut[1] == tuple(elems):
        return cut[2]
    return ideal + elems


def find_parameter_element(ideal: Ideal, constraint: Ideal, min_degree: int,
                           rng: Rng, tries_per_degree: int = 12,
                           extra_degrees: int = 8) -> Poly:
    """A homogeneous element of `constraint`, of degree >= min_degree, that
    drops dim S/I by one.

    Candidates are random field combinations of {g * u} with g running over the
    constraint generators and u over the monomials padding g up to the target
    degree.  The degree escalates from the least achievable value; exhaustion
    raises SearchExhausted with the attempted degrees.
    """
    return _parameter_element(ideal, constraint, min_degree, rng, tries_per_degree,
                              extra_degrees)[0]


def _parameter_element(ideal: Ideal, constraint: Ideal, min_degree: int, rng: Rng,
                       tries_per_degree: int = 12, extra_degrees: int = 8):
    """find_parameter_element's (element x, cut I + (x)), the cut as tested."""
    R = ideal.ring
    p = R.field.p
    if constraint.is_zero():
        raise PreconditionError("parameter search needs a nonzero constraint ideal")
    d = ideal.krull_dimension()
    if d < 1:
        raise PreconditionError("parameter elements need positive dimension")
    if not all(g.is_homogeneous() for g in constraint.gens):
        raise PreconditionError("constraint generators must be homogeneous")
    gens = list(constraint.minimal_generators())
    least = min(g.degree() for g in gens)
    start = max(min_degree, least, 1)
    attempted = []
    for degree in range(start, start + extra_degrees + 1):
        pool = []
        for g in gens:
            pad = degree - g.degree()
            if pad < 0:
                continue
            for mono in monomials_of_degree(R.nvars, pad):
                pool.append(g.term_mul(mono, 1))
        if not pool:
            attempted.append(degree)
            continue
        for attempt in range(tries_per_degree):
            # Sparse combinations keep the downstream bases small; the density
            # doubles per attempt until the whole pool participates, so the
            # final attempts are dense and prime avoidance is near certain.
            want = min(len(pool), 4 << attempt)
            order = list(range(len(pool)))
            for t in range(want):
                j = t + rng.below(len(pool) - t)
                order[t], order[j] = order[j], order[t]
            cand = R.zero()
            for idx in sorted(order[:want]):
                cand = cand + pool[idx].scale(1 + rng.below(p - 1))
            if cand.is_zero():
                continue
            cut = ideal + cand
            if cut.krull_dimension() == d - 1:
                return cand, cut
        attempted.append(degree)
    raise SearchExhausted(
        f"no parameter element found in the constraint ideal "
        f"(degrees tried: {attempted})", attempted)


def construct_c_sop(ideal: Ideal, min_degree: int = 1, seed: int = 0) -> ParameterSystem:
    """A deep system of parameters certified through the annihilator-cube route.

    Stage i (from d down to 1) computes the cohomology-annihilator product of
    the current quotient, cubes it, and draws the element there; the recorded
    stage certificates make the construction reproducible and auditable.
    """
    from .cohomology import annihilator_data

    M = Module.cyclic(ideal)
    if M.is_zero():
        raise ZeroModuleError("deep systems of the zero module")
    d = M.dim()
    if d < 1:
        raise PreconditionError("deep systems need positive dimension")
    rng = Rng(seed)
    elements: list = [None] * d
    stages = []
    current = ideal
    for i in range(d, 0, -1):
        M_cur = Module.cyclic(current)
        ann = annihilator_data(M_cur)
        cube = ann.product.power(3)
        cube = Ideal(ideal.ring, cube.minimal_generators())
        stage_rng = rng.spawn(i)
        try:
            x, current = _parameter_element(current, cube, min_degree, stage_rng)
        except SearchExhausted as exc:
            raise SearchExhausted(f"stage {i}: {exc}", exc.attempted_degrees) from exc
        dim_before = M_cur.dim()
        dim_after = current.krull_dimension()
        elements[i - 1] = x
        stages.append(StageCertificate(
            index=i, degree=x.degree(), seed=stage_rng.state,
            dim_before=dim_before, dim_after=dim_after,
            constraint_gens=tuple(str(g) for g in cube.gens)))
    return ParameterSystem(tuple(elements), tuple(reversed(stages)), min_degree, seed,
                           cut=(ideal, tuple(elements), current))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrResult:
    value: int
    length: int
    methods: dict

    def to_payload(self):
        return {"value": self.value, "length": self.length,
                "methods": dict(self.methods), "agree": True}


def _socle_by_degreewise_spans(gens, ring_):
    """(socle dimension, length) of S/(gens) by raw degreewise linear algebra.

    Never touches the Groebner engine: in each degree e the slice J_e is
    spanned by variable shifts of J_{e-1} plus the new generators, held in
    reduced row echelon form.  The non-pivot columns of that form are the
    monomials standing for (S/J)_e, q_e of them, and a monomial of degree e
    reduces modulo J_e to minus the standard part of its pivot row, or to
    itself when its column is not a pivot.  So the degree-e socle is

        q_e  -  rank of the standard residues of x_v m (all v, standard m),

    a q_e x (n q_{e+1}) matrix gathered without any product.  Homogeneous
    generators and an Artinian quotient are required (the loop stops at the
    first empty slice of S/J); a nonzero constant gives the unit ideal, (0, 0).
    """
    p = ring_.field.p
    n = ring_.nvars
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not g.is_homogeneous():
            raise PreconditionError("degreewise socle needs homogeneous generators")
    by_degree: dict = {}
    for g in gens:
        by_degree.setdefault(g.degree(), []).append(g)
    if 0 in by_degree:
        return 0, 0

    total_socle = 0
    total_length = 0
    monos_e = monomials_of_degree(n, 0)
    j_rows = np.zeros((0, 1), dtype=np.int64)
    std_e = np.arange(1)  # columns of the standard monomials of degree e
    e = 0
    while std_e.size:
        if e > 600:
            raise PreconditionError("degreewise socle diverged; quotient not Artinian?")
        total_length += std_e.size
        # build the next slice J_{e+1}; shifts[v][i] is the column of x_v m_i
        monos_next = monomials_of_degree(n, e + 1)
        index = {m: i for i, m in enumerate(monos_next)}
        shifts = [np.array([index[m[:v] + (m[v] + 1,) + m[v + 1:]] for m in monos_e],
                           dtype=np.intp) for v in range(n)]
        k = j_rows.shape[0]
        new_gens = by_degree.get(e + 1, [])
        stacked = np.zeros((n * k + len(new_gens), len(monos_next)), dtype=np.int64)
        for v, cols in enumerate(shifts):
            stacked[v * k:(v + 1) * k, cols] = j_rows
        for r, g in enumerate(new_gens, n * k):
            for m, c in g.terms.items():
                stacked[r, index[m]] = c
        next_rows, next_pivots = rref_mod_p(stacked, p) if stacked.size else (stacked, [])
        next_rows = next_rows[:len(next_pivots)]
        std_next = np.setdiff1d(np.arange(len(monos_next)), next_pivots)
        # residue of every degree-(e+1) monomial in the standard basis
        residue = np.zeros((len(monos_next), std_next.size), dtype=np.int64)
        residue[next_pivots] = (-next_rows[:, std_next]) % p
        residue[std_next, np.arange(std_next.size)] = 1
        condition = np.hstack([residue[cols[std_e]] for cols in shifts])
        total_socle += std_e.size - rank_mod_p(condition, p)
        monos_e, j_rows, std_e = monos_next, next_rows, std_next
        e += 1
    return total_socle, total_length


def _socle_by_kernels(artinian: Ideal):
    """(socle dimension, length) of S/J through the Groebner engine: the common
    kernel of the multiplication-by-variable maps on the reduced monomial basis.

    A shifted basis monomial is its own normal form; every other shifted
    monomial is reduced once, whichever basis monomial and variable reach it.
    """
    R = artinian.ring
    basis = artinian.standard_monomials()
    length = len(basis)
    index = {m: i for i, m in enumerate(basis)}
    gb = artinian.groebner()
    forms: dict = {}
    rows = []
    for v in range(R.nvars):
        mat = np.zeros((length, length), dtype=np.int64)
        for j, m in enumerate(basis):
            shifted = m[:v] + (m[v] + 1,) + m[v + 1:]
            if shifted in index:
                mat[index[shifted], j] = 1
                continue
            if shifted not in forms:
                forms[shifted] = gb.normal_form(R.monomial(shifted))
            for mono, c in forms[shifted].terms.items():
                mat[index[mono], j] = c
        rows.append(mat)
    stacked = np.vstack(rows) if rows else np.zeros((0, length), dtype=np.int64)
    return nullity_mod_p(stacked, R.field.p), length


def socle_dimension_artinian(artinian: Ideal) -> IrResult:
    """Socle dimension of S/J for Artinian J, by two machinery-disjoint routes."""
    by_kernel, length = _socle_by_kernels(artinian)
    if length == 0:
        raise PreconditionError("the unit ideal has no socle")
    by_spans, span_length = _socle_by_degreewise_spans(artinian.gens, artinian.ring)
    if by_spans != by_kernel or span_length != length:
        raise MethodDisagreement(
            f"socle via spans = {by_spans} (length {span_length}), "
            f"via kernels = {by_kernel} (length {length})")
    return IrResult(by_kernel, length,
                    {"degreewise_spans": by_spans, "kernel_intersection": by_kernel})


def index_of_reducibility(elements, ideal: Ideal, verify: bool = True) -> IrResult:
    """ir of the parameter ideal generated by `elements` on S/I.

    The Artinian quotient I + (elements) is built once, or taken from a
    ParameterSystem or ParameterList built over `ideal`, and serves both the
    check and the two socle routes, so its basis is computed at most once.
    """
    elems = list(elements)
    J = _quotient(elems, ideal, getattr(elements, "cut", None))
    if verify and not is_system_of_parameters(ParameterList(elems, ideal, J), ideal):
        raise PreconditionError("the supplied elements are not a system of parameters")
    return socle_dimension_artinian(J)


def is_d_sequence(elements, ideal: Ideal):
    """The colon conditions ((x_1..x_i) : x_{i+1} x_j) = ((x_1..x_i) : x_j).

    Returns (True, None) or (False, (i, j)) with the first violating pair;
    indices follow the definition, so i counts prefix length and j > i.
    """
    elems = list(elements)
    d = len(elems)
    for i in range(d):
        prefix = ideal + elems[:i]
        for j in range(i, d):
            lhs = prefix.colon_element(elems[i] * elems[j])
            rhs = prefix.colon_element(elems[j])
            if lhs != rhs:
                return False, (i, j + 1)
    return True, None


def power_perturbation(system: ParameterSystem, exponents) -> list:
    """Element-wise powers of a deep system (still a deep system, same ir)."""
    return [x ** k for x, k in zip(system.elements, exponents)]
