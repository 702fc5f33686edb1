import json
from importlib import resources
from math import comb

import pytest
from oracles import (annihilator_by_colons, check_complex, has_unit_entries,
                     minimal_vec_generators_greedy, quotient_dimension_bruteforce,
                     random_monomial_ideal, syzygy_chain)

from irlab import modules
from irlab.cli import corpus_index, load_ring_spec
from irlab.errors import (InternalInvariantError, PreconditionError, ResourceBudgetExceeded,
                          ZeroModuleError)
from irlab.groebner import Ideal, _lift
from irlab.modules import (Module, minimal_vec_generators, minimalize_complex,
                           poly_times_vec, subquotient_presentation, taylor_resolution,
                           vec_degree, vec_sub)
from irlab.params import Rng
from irlab.ring import Poly, monomials_of_degree, ring


def hilbert_from_numerator(numer, nvars, degrees):
    """Expand numerator / (1-t)^nvars on the given degree window."""
    out = {}
    for d in degrees:
        total = 0
        for s, c in numer.items():
            k = d - s
            if k >= 0:
                total += c * comb(k + nvars - 1, nvars - 1)
        out[d] = total
    return out


# -- minimal generators of submodules --------------------------------------------

def random_raw_vector(R, rng, shifts, degree):
    """A random homogeneous raw vector of the given degree with at least one term."""
    p = R.p
    terms = [(pos, mono) for pos, shift in enumerate(shifts) if degree >= shift
             for mono in monomials_of_degree(R.nvars, degree - shift)]
    vec = {t: 1 + rng.below(p - 1) for t in terms if rng.below(3) == 0}
    return vec or {terms[rng.below(len(terms))]: 1}


def planted_vectors(R, rng, trial):
    """A few dense random vectors over rank <= 3, plus planted dependents."""
    p = R.p
    shifts = [rng.below(2) for _ in range(1 + trial % 3)]
    degs = [1 + rng.below(3) for _ in range(3 + rng.below(4))]
    vecs = [random_raw_vector(R, rng, shifts, d) for d in degs]
    # Planted dependents: sums, scalar multiples and monomial multiples.
    for _ in range(4):
        i, j = rng.below(len(degs)), rng.below(len(degs))
        a, b, scale = vecs[i], vecs[j], 1 + rng.below(p - 1)
        if degs[i] == degs[j] and i != j:
            total = {k: (a.get(k, 0) + scale * b.get(k, 0)) % p for k in set(a) | set(b)}
            vecs.append({k: c for k, c in total.items() if c})
            degs.append(degs[i])
        elif rng.below(2):
            vecs.append({k: c * scale % p for k, c in a.items()})
            degs.append(degs[i])
        else:
            var = rng.below(3)
            mono = tuple(int(v == var) for v in range(3))
            vecs.append(poly_times_vec({mono: scale}, a, p))
            degs.append(degs[i] + 1)
    return shifts, vecs


def sparse_gapped_vectors(R, rng, rank):
    """Sparse vectors over a free module of rank `rank`: low generators in
    degrees 1 and 2, candidates in degree 4, and planted dependents that add
    monomial multiples of low generators, across gaps of 2 and 3, to a
    candidate."""
    p, n = R.p, R.nvars
    shifts = [rng.below(2) for _ in range(rank)]

    def sparse(degree, terms):
        keys = [(pos, mono) for pos, shift in enumerate(shifts) if degree >= shift
                for mono in monomials_of_degree(n, degree - shift)]
        return {keys[rng.below(len(keys))]: 1 + rng.below(p - 1) for _ in range(terms)}

    low = [sparse(1 + rng.below(2), 1 + rng.below(3)) for _ in range(rank)]
    vecs = list(low)
    for _ in range(4):
        candidate = sparse(4, 1 + rng.below(3))
        planted = candidate if rng.below(2) else {}
        for _ in range(2):
            b = low[rng.below(len(low))]
            monos = monomials_of_degree(n, 4 - vec_degree(b, shifts))
            multiple = poly_times_vec({monos[rng.below(len(monos))]: 1 + rng.below(p - 1)}, b, p)
            planted = vec_sub(planted, multiple, p)
        vecs += [candidate, planted]
    return shifts, [v for v in vecs if v]


def single_term_vectors(R, rng, rank):
    """Single-term vectors spread over the positions of a rank `rank` free
    module, plus planted scalar and monomial multiples of some of them."""
    p, n = R.p, R.nvars
    shifts = [rng.below(3) for _ in range(rank)]
    vecs = []
    for _ in range(8):
        pos = rng.below(rank)
        monos = monomials_of_degree(n, 1 + rng.below(3))
        vecs.append({(pos, monos[rng.below(len(monos))]): 1 + rng.below(p - 1)})
    for _ in range(4):
        (pos, mono), = vecs[rng.below(len(vecs))]
        steps = monomials_of_degree(n, rng.below(2))
        step = steps[rng.below(len(steps))]
        vecs.append({(pos, tuple(a + b for a, b in zip(mono, step))): 1 + rng.below(p - 1)})
    return shifts, vecs


@pytest.mark.parametrize("p, nvars, rank, single", [
    pytest.param(2, 3, None, False, id="2"),
    pytest.param(32003, 3, None, False, id="32003"),
    pytest.param(2**31 - 1, 3, None, False, id="2147483647"),
    pytest.param(2, 5, 4, False, id="2-sparse-5vars-rank4"),
    pytest.param(32003, 6, 5, False, id="32003-sparse-6vars-rank5"),
    pytest.param(2**31 - 1, 6, 6, False, id="2147483647-sparse-6vars-rank6"),
    pytest.param(32003, 6, 4, True, id="32003-single-terms-6vars-rank4"),
])
def test_minimal_vec_generators_matches_greedy_span_tracker(p, nvars, rank, single):
    R = ring(("x", "y", "z", "u", "v", "w")[:nvars], p)
    rng = Rng(p)
    for trial in range(12):
        if single:
            shifts, vecs = single_term_vectors(R, rng, rank)
        elif rank is None:
            shifts, vecs = planted_vectors(R, rng, trial)
        else:
            shifts, vecs = sparse_gapped_vectors(R, rng, rank)
        order = list(range(len(vecs)))
        for t in range(len(order) - 1, 0, -1):
            k = rng.below(t + 1)
            order[t], order[k] = order[k], order[t]
        vecs = [vecs[k] for k in order]
        got = minimal_vec_generators(vecs, shifts, R)
        want = minimal_vec_generators_greedy(vecs, shifts, R)
        assert [id(v) for v in got] == [id(v) for v in want]
        assert len(got) < len(vecs)


def test_minimal_vec_generators_allocates_no_dense_matrix(monkeypatch):
    # Rank 30: the six variables kept in degree 1 on 29 positions, candidates
    # in degree 6.  One dense matrix over the degree-6 multiples and
    # candidates would hold about 6 * 10^8 cells.
    import numpy as np
    real_zeros = np.zeros

    def guarded_zeros(shape, *args, **kwargs):
        assert np.prod(shape) <= 10**7, f"dense allocation of shape {shape}"
        return real_zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", guarded_zeros)
    R = ring(("x", "y", "z", "u", "v", "w"), 32003)
    shifts = [0] * 29 + [6]
    variables = monomials_of_degree(6, 1)
    low = [{(pos, mono): 1} for pos in range(29) for mono in variables]
    x6, y6, xyzuvw = (6, 0, 0, 0, 0, 0), (0, 6, 0, 0, 0, 0), (1, 1, 1, 1, 1, 1)
    kept_candidate = {(29, (0,) * 6): 5, (3, y6): 1}
    candidates = [{(0, x6): 7}, kept_candidate, {(29, (0,) * 6): 2, (7, xyzuvw): 1},
                  {(28, xyzuvw): 3}]
    got = minimal_vec_generators(candidates + low, shifts, R)
    assert [id(v) for v in got] == [id(v) for v in low + [kept_candidate]]


def test_minimal_vec_generators_budget_counts_only_s_pairs(monkeypatch):
    # Candidates xy, x^2 + yz, y^2 + xz in degree 2 and z^3 in degree 3, all
    # kept.  Before z^3 has its turn, two S-pairs are reduced: (xy, x^2 + yz)
    # and (xy, y^2 + xz); the third pair has coprime leads.  The budget is
    # charged for those two pairs and not for the four candidates.
    R = ring(("x", "y", "z"), 32003)
    vecs = [{(0, m): 1 for m in terms} for terms in
            [[(1, 1, 0)], [(2, 0, 0), (0, 1, 1)], [(0, 2, 0), (1, 0, 1)], [(0, 0, 3)]]]
    monkeypatch.setenv("IRLAB_BUDGET", "2")
    assert minimal_vec_generators(vecs, [0], R) == vecs
    monkeypatch.setenv("IRLAB_BUDGET", "1")
    with pytest.raises(ResourceBudgetExceeded):
        minimal_vec_generators(vecs, [0], R)


# -- free resolutions -------------------------------------------------------------

def test_cyclic_cache_survives_hash_collisions(R3, monkeypatch):
    x, y, z = R3.gens()
    monkeypatch.setattr(Poly, "__hash__", lambda self: 0)
    a, b = Ideal(R3, [x * y, z]), Ideal(R3, [x * z, y])
    assert a != b
    assert Module.cyclic(a).cyclic_ideal == a
    assert Module.cyclic(b).cyclic_ideal == b


def test_koszul_resolution_of_point(R2):
    x, y = R2.gens()
    M = Module.cyclic(Ideal(R2, [x, y]))
    res = M.resolution()
    assert res.betti_numbers() == (1, 2, 1)
    check_complex(res)
    assert not has_unit_entries(res)


def test_plane_line_resolution(plane_and_line):
    res = Module.cyclic(plane_and_line).resolution()
    assert res.betti_numbers() == (1, 2, 1)
    assert res.shifts == [(0,), (2, 2), (3,)]
    check_complex(res)


def test_free_module_resolution(R3):
    res = Module.free(R3).resolution()
    assert res.betti_numbers() == (1,)
    assert res.length == 0


def test_resolution_length_bounded_by_variable_count(R3):
    rng = Rng(7)
    from test_groebner import random_homogeneous
    for _ in range(6):
        gens = [random_homogeneous(R3, rng, 1 + rng.below(3)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        I = Ideal(R3, gens)
        if I.is_unit():
            continue
        M = Module.cyclic(I)
        if M.is_zero():
            continue
        res = M.resolution()
        assert res.length <= R3.nvars
        check_complex(res)
        assert not has_unit_entries(res)


def test_resolution_past_the_variable_count_is_an_internal_fault(R2, monkeypatch):
    # a kernel selection that never empties would append a third differential
    # over two variables: a fault of the code, not of the homogeneous input
    x, y = R2.gens()
    M = Module(R2, (0,), [_lift(x), _lift(y)])
    monkeypatch.setattr(modules, "minimal_vec_generators",
                        lambda vecs, shifts, ring_: [{(0, (1, 0)): 1}])
    with pytest.raises(InternalInvariantError, match="variable count"):
        M.resolution()


def test_betti_numbers_presentation_independent(R3):
    x, y, z = R3.gens()
    lean = Module.cyclic(Ideal(R3, [x * y, x * z]))
    # same ideal, redundant generators
    fat = Module.cyclic(Ideal(R3, [x * y, x * z, x * y + x * z, x * y * z]))
    assert lean.resolution().betti_numbers() == fat.resolution().betti_numbers()


def test_non_minimal_resolution_still_resolves(R3):
    x, y, z = R3.gens()
    gens = [x * y, x * z, x * y + x * z]
    M = Module.cyclic(Ideal(R3, gens))
    raw = syzygy_chain(R3, (0,), [{(0, m): c for m, c in g.terms.items()} for g in gens])
    check_complex(raw)
    minimal = M.resolution()
    assert raw.betti_numbers()[1] > minimal.betti_numbers()[1]
    # unit-pivot cancellation recovers the minimal Betti numbers
    assert minimalize_complex(raw).betti_numbers() == minimal.betti_numbers()


def test_ext_index_out_of_range(R3):
    M = Module.free(R3)
    with pytest.raises(PreconditionError):
        M.ext(4)
    with pytest.raises(PreconditionError):
        M.ext(-1)


# -- Taylor complex as a cross-oracle ------------------------------------------------

def test_taylor_plane_line(plane_and_line):
    T = taylor_resolution(plane_and_line)
    check_complex(T)
    assert T.betti_numbers() == (1, 2, 1)
    assert T.shifts[2] == (3,)  # top shift is the lcm xyz


def test_taylor_principal(R3):
    x, _, _ = R3.gens()
    T = taylor_resolution(Ideal(R3, [x * x]))
    assert T.betti_numbers() == (1, 1)
    assert T.shifts == [(0,), (2,)]


def test_taylor_koszul(R3):
    T = taylor_resolution(Ideal(R3, list(R3.gens())))
    check_complex(T)
    assert T.betti_numbers() == (1, 3, 3, 1)


def test_taylor_rejects_nonmonomial(R3):
    x, y, _ = R3.gens()
    with pytest.raises(PreconditionError):
        taylor_resolution(Ideal(R3, [x + y]))


def test_taylor_generator_guard():
    from irlab.ring import ring
    R = ring(tuple(f"t{i}" for i in range(22)))
    gens = [R.variable(i) * R.variable((i + 1) % 22) for i in range(21)]
    with pytest.raises(PreconditionError):
        taylor_resolution(Ideal(R, gens))


def test_minimalized_taylor_matches_schreyer(two_planes_3d, two_planes_origin,
                                             plane_and_line, mixed6):
    for I in (plane_and_line, two_planes_origin, two_planes_3d, mixed6):
        got = minimalize_complex(taylor_resolution(I))
        check_complex(got)
        want = Module.cyclic(I).resolution()
        assert got.betti_numbers() == want.betti_numbers()
        assert [tuple(sorted(s)) for s in got.shifts] == \
            [tuple(sorted(s)) for s in want.shifts]


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_auslander_buchsbaum_and_taylor_betti_over_every_prime(p):
    """depth + pd = n, and the minimalized Taylor complex has the Betti numbers
    of the syzygy resolution; a triangular change of coordinates keeps them."""
    rng = Rng(p % 1000 + 3)
    for trial in range(30):
        R = ring(("x", "y", "z", "w", "v")[:2 + trial % 4], p)
        monomial, moved = random_monomial_ideal(R, rng)
        betti = None
        for gens in (monomial, moved):
            I = Ideal(R, gens)
            M = Module.cyclic(I)
            res = M.resolution()
            assert M.depth() + res.length == R.nvars
            if betti is None:
                betti = res.betti_numbers()
                assert minimalize_complex(taylor_resolution(I)).betti_numbers() == betti
            else:
                assert res.betti_numbers() == betti


# -- Ext ----------------------------------------------------------------------------

def test_ext_vanishing_above_depth_gap(plane_and_line):
    M = Module.cyclic(plane_and_line)
    assert M.ext(3).is_zero()  # depth 1 > 0 so the top Ext dies
    assert M.ext(0).is_zero()  # codim 1 kills Ext^0 too
    assert not M.ext(1).is_zero()
    assert not M.ext(2).is_zero()


def test_free_modules_are_rigid(R3):
    F = Module.free(R3)
    for j in range(1, 4):
        assert F.ext(j).is_zero()
    assert not F.ext(0).is_zero()


def test_ext3_of_two_planes_has_dimension_one(two_planes_3d):
    M = Module.cyclic(two_planes_3d)
    E = M.ext(3)
    assert not E.is_zero()
    assert E.dim() == 1


def test_ext_zero_outside_codim_projdim_window(two_planes_3d):
    M = Module.cyclic(two_planes_3d)
    codim = M.ring.nvars - M.dim()
    for j in range(0, codim):
        assert M.ext(j).is_zero()
    for j in range(M.projective_dimension() + 1, M.ring.nvars + 1):
        assert M.ext(j).is_zero()


def test_zero_modules_know_their_presentation(two_planes_3d, R3, monkeypatch):
    """Ext past the resolution length and a subquotient with no generators
    are zero modules that answer is_zero with no minimalization."""
    M = Module(two_planes_3d.ring, (0,), [{(0, m): c for m, c in g.terms.items()}
                                          for g in two_planes_3d.gens])
    length = M.resolution().length
    assert length < M.ring.nvars

    def refuse(*args):
        raise AssertionError("a zero module minimalized its presentation")

    monkeypatch.setattr(modules, "minimalize_complex", refuse)
    monkeypatch.setattr(modules, "minimal_vec_generators", refuse)
    for j in range(length + 1, M.ring.nvars + 1):
        assert M.ext(j).is_zero()
    assert modules.module_subquotient([], [], 1, (0,), R3).is_zero()


# -- invariants ------------------------------------------------------------------------

def test_invariants_two_planes_3d(two_planes_3d):
    M = Module.cyclic(two_planes_3d)
    assert M.dim() == 3
    assert M.depth() == 2


def test_invariants_plane_line(plane_and_line):
    M = Module.cyclic(plane_and_line)
    assert M.dim() == 2
    assert M.depth() == 1


def test_invariants_ambient_ring(R3):
    M = Module.free(R3)
    assert M.dim() == 3
    assert M.depth() == 3
    assert M.annihilator().is_zero()
    assert M.hilbert_numerator() == {0: 1}


def test_zero_module_flagged(R3):
    from irlab.groebner import unit_ideal
    Z = Module.cyclic(unit_ideal(R3))
    assert Z.is_zero()
    with pytest.raises(ZeroModuleError):
        Z.dim()


def test_auslander_buchsbaum(R3, plane_and_line, two_planes_3d, two_planes_origin, mixed6):
    for I in (plane_and_line, two_planes_3d, two_planes_origin, mixed6):
        M = Module.cyclic(I)
        assert M.depth() + M.projective_dimension() == M.ring.nvars


def test_annihilator_of_cyclic_module(plane_and_line):
    M = Module.cyclic(plane_and_line)
    assert M.annihilator() == plane_and_line


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_annihilator_matches_intersection_of_colons(p):
    # the one block colon against one colon per generator folded by binary
    # intersections, basis for basis, on random presentations of rank 1-3
    rng = Rng(p + 41)
    R = ring(("x", "y", "z"), p)
    nonzero = 0
    for trial in range(12):
        rank = 1 + trial % 3
        shifts = tuple(rng.below(2) for _ in range(rank))
        rels = [random_raw_vector(R, rng, shifts, 1 + rng.below(2))
                for _ in range(rank + 1 + rng.below(3))]
        got = Module(R, shifts, rels).annihilator()
        want = annihilator_by_colons(Module(R, shifts, rels))
        assert [g.terms for g in got.gens] == [g.terms for g in want.gens]
        nonzero += not got.is_zero()
    assert nonzero >= 3
    free = Module.free(R, 2)
    assert free.annihilator().is_zero() and annihilator_by_colons(free).is_zero()


# -- Hilbert data -------------------------------------------------------------------------

def test_hilbert_series_matches_direct_counts(plane_and_line):
    M = Module.cyclic(plane_and_line)
    numer = M.hilbert_numerator()
    window = range(0, 7)
    from_resolution = hilbert_from_numerator(numer, M.ring.nvars, window)
    direct = M.hilbert_function(window)
    assert from_resolution == direct
    # and the direct count agrees with plain degreewise linear algebra
    by_brute = quotient_dimension_bruteforce(plane_and_line.gens,
                                             plane_and_line.ring, 5)
    assert by_brute == sum(direct[d] for d in range(0, 6))


def test_hilbert_function_of_artinian_length(R2):
    x, y = R2.gens()
    M = Module.cyclic(Ideal(R2, [x * x, x * y, y * y]))
    assert M.length() == 3
    assert M.hilbert_function(range(0, 4)) == {0: 1, 1: 2, 2: 0, 3: 0}


def test_hilbert_function_with_shifted_generators(R2):
    # S/(x,y)^2 e_0 + S/(x, y^2) e_1(-1): degree 0 holds e_0, degree 1 holds
    # x e_0, y e_0 and e_1, degree 2 only y e_1.
    rels = [{(0, (2, 0)): 1}, {(0, (1, 1)): 1}, {(0, (0, 2)): 1},
            {(1, (1, 0)): 1}, {(1, (0, 2)): 1}]
    M = Module(R2, (0, 1), rels)
    assert M.hilbert_function(range(-1, 5)) == {-1: 0, 0: 1, 1: 3, 2: 1, 3: 0, 4: 0}
    assert M.length() == 5


def test_minimal_presentation_cancels_unit_entry(R2):
    # x e_0 + e_1 = 0 makes e_1 = -x e_0, so the module is free on e_0.
    unit_rel = {(0, (1, 0)): 1, (1, (0, 0)): 1}
    M = Module(R2, (0, 1), [unit_rel])
    assert (M.shifts, M.relations) == ((0,), ())
    # A second relation y e_1 becomes -x*y e_0 after the cancellation.
    M = Module(R2, (0, 1), [unit_rel, {(1, (0, 1)): 1}])
    p = R2.p
    assert (M.shifts, M.relations) == ((0,), ({(0, (1, 1)): p - 1},))


def test_a_module_minimalizes_once(R3, monkeypatch):
    # x e_0 + e_1, y e_1, z^2 e_0 is S/(xy, z^2) on e_0 once e_1 = -x e_0 is
    # cancelled; every later reading uses that presentation as it stands
    x, y, z = R3.gens()
    p = R3.p
    rels = [{(0, (1, 0, 0)): 1, (1, (0, 0, 0)): 1}, {(1, (0, 1, 0)): 1}, {(0, (0, 0, 2)): 1}]
    M = Module(R3, (0, 1), rels)
    assert (M.shifts, M.relations) == ((0,), ({(0, (1, 1, 0)): p - 1}, {(0, (0, 0, 2)): 1}))

    def refuse(*args):
        raise AssertionError("a built module minimalized its presentation again")

    monkeypatch.setattr(modules, "minimalize_complex", refuse)
    monkeypatch.setattr(modules, "minimal_vec_generators", refuse)
    assert not M.is_zero() and M.minimal_generator_count() == 1
    assert M.dim() == 1
    assert M.annihilator() == Ideal(R3, [x * y, z * z])
    assert M.hilbert_function(range(3)) == {0: 1, 1: 3, 2: 4}
    # the resolution selects minimal generators of each syzygy module, and
    # of nothing else
    seen = []

    def count(vecs, shifts, ring_):
        seen.append(tuple(shifts))
        return minimal_vec_generators(vecs, shifts, ring_)

    monkeypatch.setattr(modules, "minimal_vec_generators", count)
    res = M.resolution()
    assert res.betti_numbers() == (1, 2, 1)
    assert seen == [tuple(s) for s in res.shifts[1:]]


def random_unit_presentation(R, rng, trial):
    """Shifts of rank 1-3 and random homogeneous relations, some of them with
    a unit entry at a random position, so that some generators cancel."""
    p = R.p
    shifts = tuple(rng.below(3) for _ in range(1 + trial % 3))
    zero = (0,) * R.nvars
    rels = []
    for _ in range(len(shifts) + 1 + rng.below(3)):
        pos = rng.below(len(shifts))
        d = shifts[pos] + (rng.below(3) if rng.below(2) else 0)
        rel = random_raw_vector(R, rng, shifts, d)
        if d == shifts[pos] and rng.below(2):
            rel[(pos, zero)] = 1 + rng.below(p - 1)
        rels.append(rel)
    return shifts, rels


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_a_minimal_presentation_is_its_own(p):
    # rebuilding a module on its shifts and relations gives them back, on
    # random presentations with unit entries and on the Ext modules of the
    # golden and Cohen-Macaulay corpus specs; none has a unit entry left
    rng = Rng(p + 53)
    R = ring(("x", "y", "z"), p)
    built = []
    cancelled = 0
    for trial in range(18):
        shifts, rels = random_unit_presentation(R, rng, trial)
        M = Module(R, shifts, rels)
        cancelled += len(M.shifts) < len(shifts)
        built.append(M)
    assert cancelled >= 3
    for group in ("golden", "cm_controls"):
        for name in corpus_index()[group]:
            data = json.loads((resources.files("irlab") / "corpus" / name).read_text())
            M = Module.cyclic(load_ring_spec(data | {"characteristic": p}).ideal)
            built += [M] + [M.ext(j) for j in range(M.ring.nvars + 1)]
    for M in built:
        again = Module(M.ring, M.shifts, M.relations)
        assert (again.shifts, again.relations) == (M.shifts, M.relations), M
        zero = (0,) * M.ring.nvars
        assert all(m != zero for r in M.relations for (_, m) in r), M


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_an_inhomogeneous_relation_fails_at_construction(p):
    R = ring(("x", "y", "z"), p)
    # x + z^2, and the same inside a presentation whose other relation has a
    # unit entry
    inhomogeneous = {(0, (1, 0, 0)): 1, (0, (0, 0, 2)): 1}
    with pytest.raises(PreconditionError):
        Module(R, (0,), [inhomogeneous])
    with pytest.raises(PreconditionError):
        Module(R, (0, 1), [{(0, (1, 0, 0)): 1, (1, (0, 0, 0)): 1}, inhomogeneous])


# -- subquotients ------------------------------------------------------------------------

def test_subquotient_example(plane_and_line):
    x = plane_and_line.ring.variable("x")
    SQ = subquotient_presentation(Ideal(plane_and_line.ring, [x]), plane_and_line)
    assert SQ.shifts == (1,)  # one generator, in degree 1
    assert SQ.dim() == 1
    assert SQ.is_cohen_macaulay()
    y, z = plane_and_line.ring.variable("y"), plane_and_line.ring.variable("z")
    assert SQ.annihilator() == Ideal(plane_and_line.ring, [y, z])


def test_subquotient_equal_ideals_is_zero(plane_and_line):
    assert subquotient_presentation(plane_and_line, plane_and_line).is_zero()


def test_subquotient_maximal_ideal_betti(R2):
    x, y = R2.gens()
    SQ = subquotient_presentation(Ideal(R2, [x, y]), Ideal(R2, []))
    assert SQ.resolution().betti_numbers() == (2, 1)


def test_subquotient_rejects_inhomogeneous_generators(R3):
    x, y, _ = R3.gens()
    with pytest.raises(PreconditionError, match="subquotient requires homogeneous"):
        subquotient_presentation(Ideal(R3, [x + R3.one(), y]), Ideal(R3, [y]))


def test_subquotient_requires_containment(R3):
    x, y, _ = R3.gens()
    with pytest.raises(PreconditionError):
        subquotient_presentation(Ideal(R3, [x]), Ideal(R3, [y]))
