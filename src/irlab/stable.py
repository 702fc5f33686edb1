"""The stable value of the index of reducibility, its closed-form cross-checks,
and the empirical profile of the minimum index over deep parameter ideals.

The stable value N of a module is the common index of reducibility of all
certified deep systems of parameters; it is computed from one construction and
attested by reruns under independent seeds.  For special classes closed
formulas must reproduce it:

  * Cohen-Macaulay:              N = s_d
  * generalized CM:              N = sum_i C(d, i) s_i
  * sequentially generalized CM: the filtration double sum over the quotients
  * sequentially CM:             N = sum_i s_i
  * unmixed, dim 3, depth 2:     N = 2 s_2 + s_3 + s_2(S2-closure), the closure
                                 being supplied by the caller.

The limit profile reports, per depth level n, the minimum observed index over
random parameter systems of degree n.  The true minimum ranges over an
infinite family, so the profile is labelled an empirical upper-bound estimate
and never asserted to be the limit value itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .cohomology import (annihilator_data, cm_flags, dual, local_cohomology_length,
                         socle_dimensions)
from .errors import InternalInvariantError, PreconditionError, SearchExhausted
from .filtration import classify_sequential
from .groebner import Ideal, _lift
from .modules import Module
from .params import (ParameterList, ParameterSystem, Rng, _first_cut, construct_c_sop,
                     index_of_reducibility)
from .ring import Poly, monomials_of_degree

SUITE_MIN_DEGREES = (1, 2, 3)  # stability_suite's minimum degrees, in turn
SOP_RETRIES = 40  # random_sop's draws per element before it gives up


@dataclass(frozen=True)
class CrossCheck:
    applicable: bool
    value: int | None = None
    matches: bool | None = None
    note: str = ""

    def to_payload(self):
        return {"applicable": self.applicable, "value": self.value,
                "matches": self.matches, "note": self.note}


@dataclass(frozen=True)
class StableValueReport:
    value: int
    witness: ParameterSystem
    socle: tuple
    cross_checks: dict

    def all_applicable_match(self) -> bool:
        return all(c.matches for c in self.cross_checks.values()
                   if c.applicable and c.matches is not None)


def formula_gcm(M: Module):
    """Binomial socle formula for generalized CM modules, with the depth
    threshold 2*n0 below which parameter ideals must sit for it to bite.

    Returns (value, threshold) or None when the module is not generalized CM.
    """
    flags = cm_flags(M)
    if not flags.is_generalized_cm:
        return None
    d = M.dim()
    s = socle_dimensions(M)
    value = sum(comb(d, i) * s[i] for i in range(d + 1))
    # Every annihilator of H^i, i < d, is m-primary or S here, so n0 is an int.
    threshold = 2 * annihilator_data(M).n0 if d >= 1 else 0
    return value, threshold


def formula_seq(ideal: Ideal, cls):
    """Filtration double-sum formula for sequentially generalized CM modules.

    Evaluates, over the dimension filtration D_0 <= ... <= D_t = M,

        s_0(M) + sum_{i<t} sum_{j=1..d_{i+1}} (C(d_{i+1}, j) - C(d_i, j)) s_j(M/D_i)

    and, when the module is sequentially CM, verifies the collapse to
    sum_i s_i(M).  `cls` is classify_sequential(ideal).  Returns
    (value, collapse_value_or_None) or None when not sequentially generalized CM.
    """
    if not cls.is_sequentially_gcm:
        return None
    filt = cls.filtration
    M = Module.cyclic(ideal)
    s_m = socle_dimensions(M)
    # Filtration dims with the zero/finite-length step flattened to 0.
    dims = [max(0, d) for d in filt.dims] + [filt.top_dim]
    quotient_ideals = list(filt.ideals)  # M/D_i = S/K_i for i = 0..t-1
    t = len(quotient_ideals)
    value = s_m[0]
    for i in range(t):
        Q = Module.cyclic(quotient_ideals[i])
        s_q = socle_dimensions(Q)
        d_i, d_next = dims[i], dims[i + 1]
        for j in range(1, d_next + 1):
            weight = comb(d_next, j) - comb(d_i, j)
            if weight and j < len(s_q):
                value += weight * s_q[j]
    collapse = None
    if cls.is_sequentially_cm:
        collapse = sum(s_m)
        if collapse != value:
            raise InternalInvariantError(
                f"filtration formula {value} disagrees with socle sum {collapse} "
                f"on a sequentially CM module")
    return value, collapse


def _s2_cokernel(summands, ideal: Ideal) -> Module:
    """Cokernel of the diagonal map S/I -> (+) S/J_k, presented directly."""
    R = ideal.ring
    m = len(summands)
    rels = [_lift(g, k) for k, J in enumerate(summands) for g in J.gens]
    zero = (0,) * R.nvars
    rels.append({(k, zero): 1 for k in range(m)})
    return Module(R, (0,) * m, rels)


def formula_dim3(ideal: Ideal, s2, checks: dict | None = None) -> int:
    """Stable value of an unmixed module of dimension 3 and depth 2, from its
    supplied S2-closure: 2*s_2(M) + s_3(M) + s_2(S2).

    `s2` is a sequence of ideals: the closure splits as a direct sum of their
    cyclic quotients, and M injects diagonally.  The injection is verified
    (the summand intersection must be exactly I), and the cokernel is checked
    to be zero or Cohen-Macaulay of dimension <= 1.
    """
    M = Module.cyclic(ideal)
    if M.is_zero():
        raise PreconditionError("zero module")
    if M.dim() != 3:
        raise PreconditionError(f"dimension is {M.dim()}, need 3")
    if M.depth() != 2:
        raise PreconditionError(f"depth is {M.depth()}, need 2")
    if not cm_flags(M).is_unmixed:
        raise PreconditionError("module is not unmixed")
    s = socle_dimensions(M)
    if s2[0].intersect(*s2[1:]) != ideal:
        raise PreconditionError(
            "summand intersection differs from the defining ideal; "
            "the diagonal map would not be injective")
    D = _s2_cokernel(s2, ideal)
    if D.is_zero():
        cok_note = "cokernel is zero (module already S2)"
    else:
        dim_d = D.dim()
        if dim_d > 1 or not D.is_cohen_macaulay():
            raise PreconditionError(
                f"cokernel of the closure is not CM of dimension <= 1 "
                f"(dim {dim_d}, depth {D.depth()})")
        cok_note = f"cokernel is CM of dimension {dim_d}"
    s2_socle = sum(dual(Module.cyclic(J), 2).minimal_generator_count() for J in s2)
    if checks is not None:
        checks["cokernel"] = cok_note
        checks["s2_h2_socle"] = s2_socle
    return 2 * s[2] + s[3] + s2_socle


def deep_element_kills_h2(s2, element) -> bool:
    """Whether the given element annihilates H^2 of the supplied closure, the
    direct sum of the cyclic quotients by the ideals in `s2`.

    This is the one piece of the standard-system hypothesis on the closure
    that the dimension-3 formula leans on; it is checked directly as membership
    of the element in the Ext annihilators.
    """
    return all(dual(Module.cyclic(J), 2).annihilator().contains(element) for J in s2)


def stable_value(ideal: Ideal, seed: int = 0, s2=None) -> StableValueReport:
    """The stable value from one certified deep system, with every applicable
    closed formula evaluated against it.  `s2`, a sequence of ideals as in
    `formula_dim3`, adds the dimension-3 closure check."""
    M = Module.cyclic(ideal)
    witness = construct_c_sop(ideal, 1, seed)
    N = index_of_reducibility(witness, ideal).value
    s = socle_dimensions(M)
    flags = cm_flags(M)
    checks = {}

    if flags.is_cm:
        checks["cm_top_socle"] = CrossCheck(True, s[-1], s[-1] == N)
    else:
        checks["cm_top_socle"] = CrossCheck(False)

    g = formula_gcm(M)
    if g is not None:
        value, threshold = g
        checks["gcm_binomial"] = CrossCheck(True, value, value == N,
                                            note=f"deep threshold 2*n0 = {threshold}")
    else:
        checks["gcm_binomial"] = CrossCheck(False)

    cls = classify_sequential(ideal)
    fs = formula_seq(ideal, cls)
    if fs is not None:
        value, collapse = fs
        checks["seq_filtration_sum"] = CrossCheck(
            True, value, value == N,
            note="collapses to the socle sum" if collapse is not None else "")
    else:
        checks["seq_filtration_sum"] = CrossCheck(False)

    total = sum(s)
    checks["socle_sum"] = CrossCheck(
        cls.is_sequentially_cm, total,
        (total == N) if cls.is_sequentially_cm else None,
        note=f"lower bound {total} <= {N}" if total <= N else
             f"BOUND VIOLATED: {total} > {N}")

    if s2 is not None:
        notes: dict = {}
        try:
            value = formula_dim3(ideal, s2, notes)
            killed = deep_element_kills_h2(s2, witness.elements[0])
            checks["dim3_closure"] = CrossCheck(
                True, value, value == N,
                note=f"{notes.get('cokernel', '')}; deep element kills closure H^2: {killed}")
        except PreconditionError as exc:
            checks["dim3_closure"] = CrossCheck(False, note=str(exc))

    return StableValueReport(N, witness, s, checks)


def stability_suite(ideal: Ideal, trials: int = 5, seed: int = 0) -> list:
    """Indices of reducibility of `trials` independently seeded deep systems.

    Trial t asks for minimum degree SUITE_MIN_DEGREES[t mod 3]; all values
    must agree for the stable value to deserve its name.
    """
    rng = Rng(seed)
    out = []
    for t in range(trials):
        n = SUITE_MIN_DEGREES[t % len(SUITE_MIN_DEGREES)]
        sub = rng.spawn(t)
        system = construct_c_sop(ideal, n, sub.state)
        out.append(index_of_reducibility(system, ideal).value)
    return out


def goto_suzuki_bound(M: Module):
    """Diagnostic ceiling for generalized CM modules:
    sum_{i<d} C(d,i) * length(H^i) + s_d.  None when not applicable."""
    flags = cm_flags(M)
    if not flags.is_generalized_cm:
        return None
    d = M.dim()
    s = socle_dimensions(M)
    total = s[-1]
    for i in range(d):
        li = local_cohomology_length(M, i)
        if li is None:
            return None
        total += comb(d, i) * li
    return total


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LimitLevel:
    n: int
    requested: int
    completed: int
    min_ir: int | None
    deep_system_ir: int | None  # None when the deep construction failed
    histogram: dict
    below_top_socle: int
    failures: int

    def to_payload(self):
        return {"n": self.n, "samples": self.completed, "min_ir": self.min_ir,
                "deep_system_ir": self.deep_system_ir,
                "histogram": {str(k): v for k, v in sorted(self.histogram.items())},
                "below_top_socle": self.below_top_socle,
                "failures": self.failures}


@dataclass(frozen=True)
class LimitProfile:
    levels: tuple
    top_socle: int
    stable: int
    seed: int

    def to_payload(self):
        return {"levels": [lv.to_payload() for lv in self.levels],
                "top_socle_lower_bound": self.top_socle,
                "stable_upper_bound": self.stable,
                "estimate_kind": "empirical upper-bound estimate",
                "seed": self.seed}


def random_sop(ideal: Ideal, degree: int, rng: Rng):
    """A random system of parameters with all elements homogeneous of the
    given degree, as a ParameterList; None when SOP_RETRIES draws in a row
    fail for one element.

    Element i is the first nonzero draw that cuts the dimension of
    S/(I + earlier elements) by one.  For homogeneous I each homogeneous cut
    lowers the dimension by at most one, so when the first d draws are nonzero
    and cut I down to dimension 0, every one of them is accepted at its first
    try: that case costs one dimension check.  Otherwise the stream is rewound
    and the elements are found one at a time by `params._first_cut`.
    """
    R = ideal.ring
    p = R.p
    d = ideal.krull_dimension()
    monos = monomials_of_degree(R.nvars, degree)

    def draw():
        terms = {}
        for m in monos:
            c = rng.below(p)
            if c:
                terms[m] = c
        return Poly(R, terms)

    if d > 0 and all(g.is_homogeneous() for g in ideal.gens):
        state = rng.state
        elems = [draw() for _ in range(d)]
        if not any(f.is_zero() for f in elems):
            cut = ideal + elems
            if cut.krull_dimension() == 0:
                return ParameterList(elems, ideal, cut)
        rng.state = state
    current = ideal
    elems = []
    for i in range(d):
        found = _first_cut(current, (draw() for _ in range(SOP_RETRIES)), d - i - 1)
        if found is None:
            return None
        x, current = found
        elems.append(x)
    return ParameterList(elems, ideal, current)


def limit_profile(ideal: Ideal, n_max: int = 4, samples_per_n: int = 25,
                  seed: int = 0) -> LimitProfile:
    """Minimum observed index of reducibility per degree level n = 1..n_max.

    Each level samples random degree-n systems of parameters and also includes
    one certified deep system of minimum degree n, so the stable value is
    realized.  A random draw or deep construction that fails counts under
    `failures` and adds no observation.  Samples dipping under the top socle
    dimension are counted separately (the socle surjection that forces the
    lower bound only holds for deep enough parameter ideals).
    """
    M = Module.cyclic(ideal)
    s = socle_dimensions(M)
    rng = Rng(seed)
    witness = construct_c_sop(ideal, 1, rng.spawn(0).state)
    stable = index_of_reducibility(witness, ideal).value
    levels = []
    for n in range(1, n_max + 1):
        level_rng = rng.spawn(n)
        histogram: dict = {}
        failures = 0
        completed = 0
        min_ir = None
        for k in range(samples_per_n):
            q = random_sop(ideal, n, level_rng.spawn(k))
            if q is None:
                failures += 1
                continue
            value = index_of_reducibility(q, ideal).value
            histogram[value] = histogram.get(value, 0) + 1
            completed += 1
            min_ir = value if min_ir is None else min(min_ir, value)
        try:
            deep = construct_c_sop(ideal, n, level_rng.spawn(10**6).state)
            deep_ir = index_of_reducibility(deep, ideal).value
        except SearchExhausted:
            deep_ir = None
            failures += 1
        else:
            histogram[deep_ir] = histogram.get(deep_ir, 0) + 1
            min_ir = deep_ir if min_ir is None else min(min_ir, deep_ir)
        below = sum(cnt for v, cnt in histogram.items() if v < s[-1])
        levels.append(LimitLevel(n, samples_per_n, completed, min_ir, deep_ir,
                                 histogram, below, failures))
    return LimitProfile(tuple(levels), s[-1], stable, seed)
