"""Unmixed components, dimension filtrations, and sequential CM classification.

The largest submodule of S/I of dimension <= s is cut out by saturating I at
the annihilators of the low local cohomology: saturating successively by
Ann H^0, ..., Ann H^s removes exactly the primary components whose primes have
dimension <= s (each such prime contains the matching annihilator, and no
higher-dimensional prime does).  Stacking these saturations for s = 0..d-1
yields the dimension filtration deterministically; the randomized
parameter-element route below must agree with it, and does on every test.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import annihilator_data, cm_flags
from .errors import InternalInvariantError, PreconditionError, ZeroModuleError
from .groebner import Ideal, _divides, _mono_lcm
from .modules import Module, subquotient_presentation
from .params import Rng, find_parameter_element, is_system_of_parameters


def unmixed_component(ideal: Ideal, seed: int = 0, report: dict | None = None) -> Ideal:
    """The ideal K with K/I the largest lower-dimensional submodule of S/I.

    Finds a parameter element x inside the product of the low cohomology
    annihilators and saturates: K = (I : x^inf).  The result is independent of
    the element chosen; `report`, when given, records the element and whether
    a single colon already agreed with the full saturation.
    """
    M = Module.cyclic(ideal)
    if M.is_zero():
        raise ZeroModuleError("unmixed component of the zero module")
    if M.dim() < 1:
        raise PreconditionError("unmixed component needs positive dimension")
    constraint = annihilator_data(M).product
    x, _ = find_parameter_element(ideal, constraint, 1, Rng(seed))
    one_colon = ideal.colon_element(x)
    K = one_colon.saturation(x)
    if report is not None:
        report["element"] = str(x)
        report["single_colon_sufficed"] = one_colon == K
    return K


@dataclass(frozen=True)
class DimensionFiltration:
    """Ideals K_0 <= ... <= K_{t-1} presenting the dimension filtration of S/I.

    D_i = K_i/I; the top step D_t = M itself is implicit.  K_0 is the
    saturation of I at the maximal ideal, so D_0 is the finite-length part
    (K_0 = I encodes D_0 = 0).  `dims` lists dim D_i for the stored steps,
    with -1 standing for the zero module; `top_dim` is dim M.
    """

    ideals: tuple
    dims: tuple
    top_dim: int

    def step_modules(self):
        """The quotients D_1/D_0, ..., D_t/D_{t-1} as presented modules."""
        out = []
        chain = list(self.ideals)
        for lower, upper in zip(chain, chain[1:]):
            out.append(subquotient_presentation(upper, lower))
        if chain:
            out.append(Module.cyclic(chain[-1]))
        return out

    def satisfies_dimension_condition(self) -> bool:
        ds = [d for d in self.dims if d >= 0] + [self.top_dim]
        return all(a < b for a, b in zip(ds, ds[1:]))


def dimension_filtration(ideal: Ideal) -> DimensionFiltration:
    """The dimension filtration of S/I, by stacked annihilator saturations.

    K_s = K_{s-1} : (Ann H^s)^infinity from K_{-1} = I.  K_0 is the saturation
    at m, as Ann H^0 is m-primary or S, and I itself (no colon) at S.
    """
    M = Module.cyclic(ideal)
    if M.is_zero():
        raise ZeroModuleError("dimension filtration of the zero module")
    d = M.dim()
    if d == 0:
        return DimensionFiltration((), (), 0)
    ann = annihilator_data(M)
    kept = []
    K = ideal
    for s in range(d):
        K = K.saturation(ann[s])
        if not kept or K != kept[-1]:
            kept.append(K)
    dims = tuple(ideal.colon(K).krull_dimension() for K in kept)
    filt = DimensionFiltration(tuple(kept), dims, d)
    if not filt.satisfies_dimension_condition():
        raise InternalInvariantError("dimension filtration failed the dimension condition")
    return filt


# ---------------------------------------------------------------------------
# Monomial irreducible decomposition: the classical splitting recursion, kept
# free of the Groebner engine so it can serve as an independent oracle.

def _monomial_gens(ideal: Ideal):
    gens = []
    for g in ideal.gens:
        if not g.is_monomial():
            raise PreconditionError("decomposition implemented for monomial ideals only")
        gens.append(next(iter(g.terms)))
    return _prune_divisible(gens)


def _prune_divisible(monos):
    out = []
    for m in sorted(set(monos), key=sum):
        if not any(_divides(k, m) for k in out):
            out.append(m)
    return out


def _mono_intersect(gens_a, gens_b):
    return _prune_divisible([_mono_lcm(a, b) for a in gens_a for b in gens_b])


def monomial_primary_decomposition(ideal: Ideal):
    """Irredundant decomposition of a monomial ideal into irreducible ones.

    Splits a mixed generator m = u * w (u a pure variable power, w coprime to
    u) via I = (I + u) cap (I + w) and recurses; leaves are generated by pure
    variable powers.  The intersection of the returned components is verified
    to equal the input.
    """
    R = ideal.ring
    gens = _monomial_gens(ideal)
    if not gens:
        raise PreconditionError("the zero ideal has no primary decomposition here")

    guard = [0]

    def split(gs):
        guard[0] += 1
        if guard[0] > 4096:
            raise PreconditionError("decomposition generator blow-up guard tripped")
        for m in gs:
            support = [i for i, e in enumerate(m) if e]
            if len(support) > 1:
                v = support[0]
                u = tuple(m[v] if i == v else 0 for i in range(len(m)))
                w = tuple(0 if i == v else m[i] for i in range(len(m)))
                return split(_prune_divisible(gs + [u])) + split(_prune_divisible(gs + [w]))
        return [tuple(sorted(gs))]

    components = {c for c in split(gens)}
    # Irredundance: drop any component containing the intersection of the others.
    comps = [list(c) for c in sorted(components)]
    changed = True
    while changed:
        changed = False
        for i in range(len(comps)):
            others = comps[:i] + comps[i + 1:]
            if not others:
                continue
            inter = others[0]
            for o in others[1:]:
                inter = _mono_intersect(inter, o)
            if all(any(_divides(g, m) for g in comps[i]) for m in inter):
                comps.pop(i)
                changed = True
                break
    inter = comps[0]
    for o in comps[1:]:
        inter = _mono_intersect(inter, o)
    if set(inter) != set(gens):
        raise InternalInvariantError("decomposition does not intersect back to the input")
    return [Ideal(R, [R.monomial(m) for m in c]) for c in comps]


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SequentialClassification:
    is_sequentially_cm: bool
    is_sequentially_gcm: bool
    steps: tuple  # (dim, depth, is_cm, is_gcm) per quotient D_i/D_{i-1}
    filtration: DimensionFiltration


def classify_sequential(ideal: Ideal) -> SequentialClassification:
    """Test the dimension-filtration quotients for (generalized) CM-ness.  The
    dimension of D_i/D_{i-1} must be the filtration's colon-based `dims[i]`, and
    that of M/D_{t-1} its `top_dim`; InternalInvariantError otherwise."""
    filt = dimension_filtration(ideal)
    steps = []
    for Q, want in zip(filt.step_modules(), filt.dims[1:] + (filt.top_dim,)):
        if Q.dim() != want:
            raise InternalInvariantError(
                f"dimension filtration step has dimension {Q.dim()}, its colon gave {want}")
        flags = cm_flags(Q)
        steps.append((want, Q.depth(), flags.is_cm, flags.is_generalized_cm))
    return SequentialClassification(all(s[2] for s in steps), all(s[3] for s in steps),
                                    tuple(steps), filt)


def is_good_sop(elements, ideal: Ideal, filtration=None):
    """Check the vanishing intersections that make a sop good for a filtration.

    For each stored step (K_i, d_i), the part of S/I generated by the tail
    elements x_{d_i+1}, ..., x_d must meet K_i/I in 0, i.e.
    K_i cap ((tail) + I) <= I.  Returns (ok, witness) with the first violating
    polynomial; the zero step passes trivially.
    """
    elems = list(elements)
    if not is_system_of_parameters(elems, ideal):
        raise PreconditionError("good-sop check requires a verified system of parameters")
    filt = filtration or dimension_filtration(ideal)
    if isinstance(filt, (list, tuple)):
        # user-supplied chain of ideals: dim of each step K/I via (I : K)
        filt = DimensionFiltration(tuple(filt),
                                   tuple(ideal.colon(K).krull_dimension() for K in filt),
                                   Module.cyclic(ideal).dim())
        if not filt.satisfies_dimension_condition():
            raise PreconditionError("supplied filtration violates the dimension condition")
    for K, d_i in zip(filt.ideals, filt.dims):
        if d_i < 0:
            continue
        tail = elems[d_i:]
        if not tail:
            continue
        T = ideal + tail
        inter = K.intersect(T)
        for g in inter.gens:
            if not ideal.contains(g):
                return False, g
    return True, None
