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
(plain linear algebra, no bases computed; degree e + 1 eliminates only on the
border monomials x_v s, s standard of degree e, at most n q_e columns where
the full slice J_{e+1} has dim S_{e+1}, so the pivots of all degrees are at
most n times the length), and the common kernel of the variable
multiplication maps on the reduced monomial basis (which leans on the
Groebner engine: the maps are read off the reduced basis by border
induction, with no polynomial reduction).  Their lengths are cross-checked
too; any disagreement aborts loudly.

The span route resumes from its previous call.  Its state after degree step
e depends only on n, p and the generators of degree <= e + 1, so it is keyed
by (n, p) and their sorted term tuples, coefficients included: the random
systems I + (f_1, .., f_d) of one degree that `limit` draws share every step
below that degree.  `_SPAN_MEMO` holds one call's states below its top
generator degree, and never more.

One search serves every stage: `find_parameter_element` hands back x with the
cut I + (x) it tested, and the next stage continues from that cut.  A finished
system hands its Artinian quotient to `index_of_reducibility`, which always
checks it and runs both routes on it, so nothing is built twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .cohomology import annihilator_data
from .errors import (MethodDisagreement, PreconditionError, SearchExhausted,
                     ZeroModuleError)
from .groebner import Ideal
from .linalg import nullity_mod_p, rref_mod_p
from .modules import Module
from .ring import Poly, grevlex_key, monomials_of_degree

_MASK = (1 << 64) - 1
TRIES_PER_DEGREE = 12  # find_parameter_element's candidates per degree,
EXTRA_DEGREES = 8  # and its degrees past the least achievable one


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
    # (I, elements, I + (elements)) as the construction left them, so that
    # index_of_reducibility need not rebuild the Artinian quotient.
    cut: tuple | None = field(default=None, compare=False, repr=False)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

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
            "method": "ann-product-cube",
        }


class ParameterList(list):
    """Elements of a system of parameters on S/I that carry, as `cut`, the
    triple (I, elements, I + (elements)) a ParameterSystem carries."""

    def __init__(self, elements, ideal: Ideal, quotient: Ideal):
        super().__init__(elements)
        self.cut = (ideal, tuple(self), quotient)


def is_system_of_parameters(elements, ideal: Ideal) -> bool:
    """True when the d = dim S/I homogeneous elements cut S/I to dimension 0.

    A homogeneous element lowers the dimension by at most one, so the one
    check of I + (elements) means each element lowers it by exactly one.  An
    inhomogeneous element raises PreconditionError naming it: x - 1 cuts the
    dimension globally while it is a unit at the origin.
    """
    elems = list(elements)
    for x in elems:
        if not x.is_homogeneous():
            raise PreconditionError(f"parameter element {x} is not homogeneous")
    M = Module.cyclic(ideal)
    if M.is_zero():
        raise ZeroModuleError("parameter systems of the zero module")
    if len(elems) != M.dim():
        return False
    return _quotient(elems, ideal, getattr(elements, "cut", None)).krull_dimension() == 0


def _quotient(elems: list, ideal: Ideal, cut) -> Ideal:
    """I + (elems): the quotient in `cut` (the `cut` of a ParameterSystem or
    ParameterList) when it was built over this very `ideal` object with
    these elements, else a new ideal."""
    if cut is not None and cut[0] is ideal and cut[1] == tuple(elems):
        return cut[2]
    return ideal + elems


def _supports(f: Poly) -> set:
    """The variable sets of the terms of f, as bit masks."""
    return {sum(1 << i for i, e in enumerate(m) if e) for m in f.terms}


def _first_cut(ideal: Ideal, candidates, target: int):
    """(x, I + (x)) for the first nonzero candidate x whose cut has dimension
    `target`, or None when the candidates run out.  Candidates are drawn one
    at a time, so a lazy stream is consumed only up to the accepted one.

    A candidate is passed over with no basis computed when a set V of
    n - target - 1 variables meets every term of every generator of I and of
    x (a cover): then I + (x) lies in the prime (V), so dim S/(I + (x)) >=
    n - |V| > target.  The covers of I are found once, as bit masks.
    """
    n = ideal.ring.nvars
    terms = set().union(*map(_supports, ideal.gens))
    masks = (sum(1 << i for i in vs) for vs in combinations(range(n), n - target - 1))
    covers = [V for V in masks if all(s & V for s in terms)]
    for x in candidates:
        if x.is_zero():
            continue
        if covers:
            xs = _supports(x)
            if any(all(s & V for s in xs) for V in covers):
                continue
        cut = ideal + x
        if cut.krull_dimension() == target:
            return x, cut
    return None


def find_parameter_element(ideal: Ideal, constraint: Ideal, min_degree: int,
                           rng: Rng) -> tuple[Poly, Ideal]:
    """(x, I + (x)): a homogeneous element x of `constraint`, of degree
    >= min_degree, that drops dim S/I by one, with the cut it was tested on.

    Candidates are random field combinations of {g * u} with g running over the
    constraint generators and u over the monomials padding g up to the target
    degree.  The degree escalates from the least achievable value, with
    TRIES_PER_DEGREE candidates at each of EXTRA_DEGREES + 1 degrees;
    exhaustion raises SearchExhausted with the attempted degrees.
    """
    R = ideal.ring
    p = R.p
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

    def candidates(pool):
        for attempt in range(TRIES_PER_DEGREE):
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
            yield cand

    attempted = []
    for degree in range(start, start + EXTRA_DEGREES + 1):
        pool = [g.term_mul(mono, 1) for g in gens if degree >= g.degree()
                for mono in monomials_of_degree(R.nvars, degree - g.degree())]
        found = _first_cut(ideal, candidates(pool), d - 1) if pool else None
        if found is not None:
            return found
        attempted.append(degree)
    raise SearchExhausted(
        f"no parameter element found in the constraint ideal "
        f"(degrees tried: {attempted})", attempted)


def construct_c_sop(ideal: Ideal, min_degree: int = 1, seed: int = 0) -> ParameterSystem:
    """A deep system of parameters certified through the annihilator-cube route.

    Stage i (from d down to 1) computes the cohomology-annihilator product of
    the current quotient, cubes it, and draws the element there; the recorded
    stage certificates make the construction reproducible and auditable.  The
    cube is kept with the quotient module's annihilator data, so stage d of
    every construction on the same ring selects its generators once.
    """
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
        cube = annihilator_data(M_cur).cube
        stage_rng = rng.spawn(i)
        try:
            x, current = find_parameter_element(current, cube, min_degree, stage_rng)
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


# Cells of a temporary product table in the span route (8 MB of int64).
_PRODUCT_CELLS = 1 << 20


@lru_cache(maxsize=None)
def _shift_table(n: int, e: int):
    """(shifts, rep_v, rep_m, index) for degree e in n variables.

    shifts[v, i] is the position of x_v m_i in monomials_of_degree(n, e + 1),
    for m_i the i-th monomial of degree e; rep_v and rep_m give v and i at each
    position of shifts.ravel(); index maps each degree-(e + 1) monomial to its
    position.  Arrays are read-only, since every call shares them.
    """
    index = {m: i for i, m in enumerate(monomials_of_degree(n, e + 1))}
    monos = monomials_of_degree(n, e)
    shifts = np.array([[index[m[:v] + (m[v] + 1,) + m[v + 1:]] for m in monos]
                       for v in range(n)], dtype=np.intp).reshape(n, len(monos))
    rep_v = np.repeat(np.arange(n), len(monos))
    rep_m = np.tile(np.arange(len(monos)), n)
    for a in (shifts, rep_v, rep_m):
        a.setflags(write=False)
    return shifts, rep_v, rep_m, index


# The states of the last span-route call, keyed by its ring's (n, p): one
# (key, total_socle, total_length, residue, std) per degree step e with
# e + 1 below the call's top generator degree (`_socle_by_degreewise_spans`).
_SPAN_MEMO: dict = {}


def _socle_by_degreewise_spans(gens, ring_):
    """(socle dimension, length) of S/(gens) by raw degreewise linear algebra.

    Never touches the Groebner engine.  Degree by degree it carries the residue
    of every degree-e monomial in the coordinates of the q_e standard monomials
    s of degree e, which are linearly independent modulo J_e and span S_e
    modulo J_e.  Then (S/J)_{e+1} is spanned by the border monomials
    T_e = {x_v s}, at most n q_e of them, and is k^{T_e} modulo two kinds of
    relations:

    * each way of writing a monomial u = x_v m maps into k^{T_e} by putting
      the residue of m on the columns x_v s; one of them is taken as the image
      Phi(u), and the differences of the others from it are the images of x J_e;
    * Phi of every new generator of degree e + 1.

    One `rref_mod_p` call on the nonzero relations has only the |T_e| <= n q_e
    border columns, and its non-pivot columns are the standard monomials of
    degree e + 1, so the pivots of all degrees add up to at most n times the
    length.  (The full slice J_{e+1} has dim S_{e+1} columns.)  The residue of
    a border monomial is minus the standard part of its pivot row, or a unit
    vector when its column is no pivot; the residue of any other degree-(e + 1)
    monomial u is Phi(u) times those.  The degree-e socle is the nullity of

        the (n q_{e+1}) x q_e matrix of the maps s -> x_v s (all v),

    gathered from the border residues without any product.  Every product of
    two residues is reduced mod p before it is summed, and no sum has more
    terms than q_e or than one generator has, both far below 2^32, so every
    intermediate fits int64 for p < 2^31; the relations are left unreduced,
    in (-p, p) or such a sum, since `rref_mod_p` reduces its own copy.
    Homogeneous generators and an Artinian quotient are required (the loop
    stops at the first empty degree of S/J); a nonzero constant gives the
    unit ideal, (0, 0).  With D the top generator degree, (S/J)_e = 0 for
    every e > n(D - 1) when J is m-primary: its degree-D part generates an
    m-primary ideal, which over an infinite extension field holds a regular
    sequence of n forms of degree D, whose quotient ends in degree n(D - 1)
    (Bruns & Herzog, Cohen-Macaulay Rings).  A nonempty degree past that bound
    therefore means a quotient that is not Artinian, and raises.

    The state after step e, (total socle, total length, residue, std) of
    degree e + 1, depends only on n, p and the generators of degree <= e + 1.
    So a call resumes from the last one: step e is skipped and that call's
    state e loaded when its key, the sorted term tuples (coefficients
    included) of every generator of degree <= e + 1, is this call's.  A call
    that returns replaces `_SPAN_MEMO` with its own states for e + 1 below
    its top generator degree: the prefix that the draws J = I + (f_1, ..,
    f_d) of one degree share with their siblings.  The memo holds one call
    and never grows, its arrays are read-only, and a call that raises leaves
    it as it was.
    """
    p = ring_.p
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
    top = max(by_degree, default=0)
    previous = _SPAN_MEMO.get((n, p), ())
    states = []

    total_socle = 0
    total_length = 0
    residue = np.ones((1, 1), dtype=np.int64)  # degree-e monomials in standard coordinates
    std = np.zeros(1, dtype=np.intp)  # positions of the standard monomials of degree e
    key = ()
    e = 0
    while std.size:
        if e > n * (top - 1):
            raise PreconditionError("degreewise socle diverged; quotient not Artinian?")
        new_gens = by_degree.get(e + 1, [])
        key += (tuple(sorted(tuple(sorted(g.terms.items())) for g in new_gens)),)
        if e < len(previous) and previous[e][0] == key:
            state = previous[e]
        else:
            socle, *after = _span_step(n, p, e, residue, std, new_gens)
            state = (key, total_socle + socle, total_length + std.size, *after)
        _, total_socle, total_length, residue, std = state
        if e + 1 < top:
            for a in (residue, std):
                a.setflags(write=False)
            states.append(state)
        e += 1
    _SPAN_MEMO.clear()
    _SPAN_MEMO[n, p] = states
    return total_socle, total_length


def _span_step(n, p, e, residue, std, new_gens):
    """(degree-e socle, residue, std of degree e + 1): one degree step of
    `_socle_by_degreewise_spans`, from the residues and standard positions of
    degree e and the generators of degree e + 1."""
    q = std.size
    shifts, rep_v, rep_m, index = _shift_table(n, e)
    # border columns, in monomial order; col[v, j] is the column of x_v s_j
    border, col = np.unique(shifts[:, std], return_inverse=True)
    col = col.reshape(n, q)
    slot = np.full(len(residue), -1)
    slot[std] = np.arange(q)
    zero = ~residue.any(axis=1)
    # the representations u = x_v m, one per entry of shifts; Phi(u) takes
    # a standard m (a unit column) first, then one in J_e (the zero image)
    rep_u = shifts.ravel()
    priority = np.where(slot >= 0, 0, np.where(zero, 1, 2))[rep_m]
    order = np.lexsort((priority, rep_u))
    first = np.ones(rep_u.size, dtype=bool)
    first[1:] = rep_u[order[1:]] != rep_u[order[:-1]]
    phi = order[first]  # the representation chosen for each u
    rest = order[~first]
    base = phi[rep_u[rest]]
    relations = np.zeros((rest.size + len(new_gens), border.size), dtype=np.int64)
    rows = np.arange(rest.size)[:, None]
    relations[rows, col[rep_v[rest]]] = residue[rep_m[rest]]
    relations[rows, col[rep_v[base]]] -= residue[rep_m[base]]
    for r, g in enumerate(new_gens, rest.size):
        reps = phi[[index[m] for m in g.terms]]
        coeffs = np.array(list(g.terms.values()), dtype=np.int64)
        np.add.at(relations[r], col[rep_v[reps]],
                  (coeffs[:, None] * residue[rep_m[reps]]) % p)
    reduced, pivots = rref_mod_p(relations[relations.any(axis=1)], p)
    is_free = np.ones(border.size, dtype=bool)
    is_free[pivots] = False
    free = np.nonzero(is_free)[0]
    q_next = free.size
    # residues of the border monomials in the standard basis of degree e + 1
    res_border = np.zeros((border.size, q_next), dtype=np.int64)
    res_border[pivots] = (-reduced[:len(pivots)][:, free]) % p
    res_border[free, np.arange(q_next)] = 1
    multiplication = res_border[col].transpose(0, 2, 1).reshape(n * q_next, q)
    socle = nullity_mod_p(multiplication, p)
    # residue of every degree-(e + 1) monomial: Phi(u) times res_border
    phi_v, phi_m = rep_v[phi], rep_m[phi]
    res_next = np.zeros((len(phi), q_next), dtype=np.int64)
    unit = slot[phi_m] >= 0
    res_next[unit] = res_border[col[phi_v[unit], slot[phi_m[unit]]]]
    dense = np.nonzero(~unit & ~zero[phi_m])[0]
    step = max(1, _PRODUCT_CELLS // max(1, q * q_next))
    for at in range(0, dense.size, step):
        us = dense[at:at + step]
        products = residue[phi_m[us]][:, :, None] * res_border[col[phi_v[us]]]
        res_next[us] = (products % p).sum(axis=1) % p
    return socle, res_next, border[free]


def _multiplication_maps(artinian: Ideal):
    """(basis, maps): the reduced monomial basis of S/J, ascending in grevlex,
    and maps[v][j], the residue of x_v basis[j] as a sparse dict
    {index of a standard monomial: coefficient}.

    Read off the reduced Groebner basis by border induction, as FGLM does
    (Faugere, Gianni, Lazard & Mora 1993), with no polynomial reduction.  The
    border monomials b = x_v m (m standard, b not) are visited in increasing
    grevlex order.  A basis lead has residue minus its element's tail.  Any
    other b has a variable x_w with t = b / x_w a smaller border monomial, and
    NF(b) is the sum of c NF(x_w s) over the terms c s of NF(t); each x_w s
    lies below b, so it is standard or was visited already.
    """
    p = artinian.ring.p
    n = artinian.ring.nvars
    basis = artinian.standard_monomials()
    index = {m: i for i, m in enumerate(basis)}
    gb = artinian.groebner()
    shifted = [[m[:v] + (m[v] + 1,) + m[v + 1:] for m in basis] for v in range(n)]
    forms = {m: {i: 1} for m, i in index.items()}
    forms.update((lead, {index[m]: p - c for m, c in g.terms.items() if m != lead})
                 for g, lead in zip(gb.elements, gb.leads))
    for b in sorted({u for row in shifted for u in row} - forms.keys(), key=grevlex_key):
        for w in range(n):
            t = b[:w] + (b[w] - 1,) + b[w + 1:]
            if b[w] and t not in index:
                break
        acc: dict = {}
        for s, c in forms[t].items():
            for k, c2 in forms[shifted[w][s]].items():
                acc[k] = acc.get(k, 0) + c * c2
        forms[b] = {k: c % p for k, c in acc.items() if c % p}
    return basis, [[forms[u] for u in row] for row in shifted]


def _socle_by_kernels(artinian: Ideal):
    """(socle dimension, length) of S/J through the Groebner engine: the common
    kernel of the multiplication-by-variable maps on the reduced monomial
    basis, read off the reduced basis by `_multiplication_maps`."""
    basis, maps = _multiplication_maps(artinian)
    length = len(basis)
    stacked = np.zeros((len(maps) * length, length), dtype=np.int64)
    for v, row in enumerate(maps):
        for j, form in enumerate(row):
            for k, c in form.items():
                stacked[v * length + k, j] = c
    return nullity_mod_p(stacked, artinian.ring.p), length


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


def index_of_reducibility(elements, ideal: Ideal) -> IrResult:
    """ir of the parameter ideal generated by `elements` on S/I.

    The Artinian quotient I + (elements) is built once, or taken from a
    ParameterSystem or ParameterList built over `ideal`, and serves both the
    check and the two socle routes, so its basis is computed at most once.
    Any non-system, inhomogeneous elements included, is rejected before either route.
    """
    elems = list(elements)
    J = _quotient(elems, ideal, getattr(elements, "cut", None))
    if not is_system_of_parameters(ParameterList(elems, ideal, J), ideal):
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
