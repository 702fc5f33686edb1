import json
from importlib import resources

import pytest
from oracles import (flags_by_ext_loops, least_power_inside_by_membership,
                     random_monomial_ideal, triangular_change)

from irlab import cohomology, filtration, modules, params
from irlab.cli import corpus_index, load_corpus_spec, load_ring_spec
from irlab.cohomology import (CmFlags, SimplicialComplex, _ann_h0, _least_power_inside,
                              _sum_of_variables_saturation, annihilator_data, cm_flags,
                              hochster_hilbert, local_cohomology_hilbert,
                              local_cohomology_length, socle_dimensions)
from irlab.errors import PreconditionError, ZeroModuleError
from irlab.groebner import Ideal, maximal_ideal, unit_ideal
from irlab.modules import Module
from irlab.params import Rng
from irlab.ring import ring
from irlab.stable import formula_dim3


# -- socle dimensions ----------------------------------------------------------

def test_socle_two_planes_3d(two_planes_3d):
    assert tuple(socle_dimensions(Module.cyclic(two_planes_3d))) == (0, 0, 1, 2)


def test_socle_free_module(R3):
    s = socle_dimensions(Module.free(R3))
    assert tuple(s) == (0, 0, 0, 1)


def test_socle_plane_line(plane_and_line):
    assert tuple(socle_dimensions(Module.cyclic(plane_and_line))) == (0, 1, 1)


def test_socle_two_planes_origin(two_planes_origin):
    assert tuple(socle_dimensions(Module.cyclic(two_planes_origin))) == (0, 1, 2)


def test_socle_vanishes_below_depth_and_top_positive(two_planes_3d, plane_and_line):
    for I in (two_planes_3d, plane_and_line):
        M = Module.cyclic(I)
        s = socle_dimensions(M)
        for i in range(M.depth()):
            assert s[i] == 0
        assert s[-1] >= 1


def test_cm_type_equals_last_betti(R3):
    x, y, z = R3.gens()
    for gens in ([x * y], [x * y, x * z, y * z], [x * x - y * z]):
        I = Ideal(R3, gens)
        M = Module.cyclic(I)
        if not M.is_cohen_macaulay():
            continue
        assert socle_dimensions(M)[-1] == M.resolution().betti_numbers()[-1]


# -- annihilator data -----------------------------------------------------------

def test_cm_module_has_unit_annihilators(R3):
    x, y, _ = R3.gens()
    M = Module.cyclic(Ideal(R3, [x * y]))  # CM hypersurface
    data = annihilator_data(M)
    assert all(a.is_unit() for a in data.annihilators)
    assert data.product.is_unit()


def test_plane_line_middle_annihilator(plane_and_line):
    R = plane_and_line.ring
    data = annihilator_data(Module.cyclic(plane_and_line))
    y, z = R.variable("y"), R.variable("z")
    assert data[1].contains(y) and data[1].contains(z)
    assert Ideal(R, [y, z]) == data[1]
    assert data[1].krull_dimension() <= 1
    assert data.n0 is None  # not all annihilators are primary to the irrelevant ideal


def test_buchsbaum_annihilator_n0(two_planes_origin):
    data = annihilator_data(Module.cyclic(two_planes_origin))
    # middle cohomology has length one, so the maximal ideal kills it
    assert data[1] == maximal_ideal(two_planes_origin.ring)
    assert data.n0 == 1


def test_h0_annihilator_agrees_with_duality_route(plane_and_line, two_planes_3d):
    # the colon shortcut (I : sat I) must equal Ann Ext^n
    for I in (plane_and_line, two_planes_3d):
        M = Module.cyclic(I)
        n = M.ring.nvars
        E = M.ext(n)
        via_ext = unit_ideal(M.ring) if E.is_zero() else E.annihilator()
        assert annihilator_data(M)[0] == via_ext


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_h0_annihilator_agrees_with_duality_route_on_random_ideals(p):
    # the inputs of the depth-certificate sweep: monomial ideals and their
    # images under a triangular change of coordinates
    rng = Rng(p + 11)
    checked = 0
    for trial in range(16):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        for gens in random_monomial_ideal(R, rng):
            M = Module.cyclic(Ideal(R, gens))
            if M.dim() < 1:
                continue
            E = M.ext(R.nvars)
            via_ext = unit_ideal(R) if E.is_zero() else E.annihilator()
            assert annihilator_data(M)[0] == via_ext
            checked += 1
    assert checked


def test_h0_slot_runs_no_colon_on_depth_one_inputs(monkeypatch):
    # depth >= 1 is certified by the leads of the cached grevlex basis: no
    # substituted basis, no saturation, no colon
    def refuse(*args, **kwargs):
        raise AssertionError("the H^0 slot ran a colon on a depth >= 1 input")

    sqfree = load_corpus_spec("sqfree_15.json").ideal
    # a stage quotient I + (x) of construct_c_sop: depth 1, not monomial
    stage = sqfree + params.construct_c_sop(sqfree, 1, seed=0).elements[-1]
    assert not stage.is_monomial()
    monkeypatch.setattr(modules, "_CYCLIC_CACHE", {})
    monkeypatch.setattr(Ideal, "saturation", refuse)
    monkeypatch.setattr(Ideal, "colon", refuse)
    monkeypatch.setattr(cohomology, "_sum_of_variables_saturation", refuse)
    for I in (load_corpus_spec("cm_plane.json").ideal, sqfree, stage):
        assert annihilator_data(Module.cyclic(I))[0].is_unit()
    monkeypatch.undo()
    # one-sided: in(I) = (x^2, xy, xz^2, z^4) has the socle monomial xz, so the
    # check declines, yet depth S/I = 1 and the slot still reads S
    for p in (2, 3, 32003, 2**31 - 1):
        R = ring(("x", "y", "z"), p)
        x, y, z = R.gens()
        I = Ideal(R, [x * x, x * y - z * z])
        assert not I.groebner().initial_socle_free()
        M = Module.cyclic(I)
        assert M.depth() == 1 and annihilator_data(M)[0].is_unit()


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_h0_slot_equals_colon_by_the_saturation_on_depth_zero_ideals(p):
    # depth 0 by construction: a random monomial ideal cut with a power of m,
    # then moved by a triangular change of coordinates
    rng = Rng(p + 29)
    checked = 0
    for trial in range(12):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        m = maximal_ideal(R)
        monos, _ = random_monomial_ideal(R, rng)
        base = Ideal(R, monos).intersect(m.power(2 + rng.below(2)))
        gens = triangular_change(R, rng, [next(iter(g.terms)) for g in base.gens])
        I = Ideal(R, gens)
        sat = I.saturation(m)
        if I.krull_dimension() < 1 or sat == I:
            continue
        assert annihilator_data(Module.cyclic(Ideal(R, gens)))[0] == I.colon(sat)
        checked += 1
    assert checked


@pytest.mark.parametrize("p", [2, 32003])
def test_h0_slot_falls_back_when_the_sum_of_variables_saturates_to_s(p):
    # I = l (x, y, z) with l = x + y + z: I : l^infinity = S, so the colon
    # I : S = I is not m-primary, _ann_h0 cannot decide and the slot reads
    # Ann Ext^3, the annihilator of H^0 = (l)/I
    R = ring(("x", "y", "z"), p)
    x, y, z = R.gens()
    ell = x + y + z
    I = Ideal(R, [ell * v for v in (x, y, z)])
    K = _sum_of_variables_saturation(I)
    assert K.is_unit() and I.colon(K) == I and I.krull_dimension() == 2
    assert _ann_h0(I) is None
    assert annihilator_data(Module.cyclic(I))[0] == maximal_ideal(R)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_least_power_inside_counts_standard_levels(p):
    # random m-primary monomial ideals (pure powers plus random monomials) and
    # their moved copies, against one membership test per monomial
    rng = Rng(p + 41)
    for trial in range(12):
        R = ring(("x", "y", "z")[:1 + trial % 3], p)
        expos = [tuple(1 + rng.below(4) if j == i else 0 for j in range(R.nvars))
                 for i in range(R.nvars)]
        monos, _ = random_monomial_ideal(R, rng)
        expos += [next(iter(g.terms)) for g in monos]
        for gens in ([R.monomial(e) for e in expos], triangular_change(R, rng, expos)):
            J = Ideal(R, gens)
            assert _least_power_inside(J) == least_power_inside_by_membership(J)
    R1 = ring(("x",), p)
    (x,) = R1.gens()
    # no power is capped: x^65 counts its 65 levels
    for J, want in ((unit_ideal(R1), 0), (Ideal(R1, []), None), (Ideal(R1, [x**65]), 65),
                    (Ideal(R1, [x**64]), 64)):
        assert _least_power_inside(J) == least_power_inside_by_membership(J, cap=65) == want


def test_product_sits_inside_every_factor(two_planes_3d, plane_and_line,
                                          two_planes_origin):
    for I in (two_planes_3d, plane_and_line, two_planes_origin):
        data = annihilator_data(Module.cyclic(I))
        for a in data.annihilators:
            assert a.contains_ideal(data.product)


def test_annihilator_dimension_bound(two_planes_3d, plane_and_line,
                                     two_planes_origin):
    # dim S/a_i <= i for i below the dimension
    for I in (two_planes_3d, plane_and_line, two_planes_origin):
        data = annihilator_data(Module.cyclic(I))
        for i, a in enumerate(data.annihilators):
            assert a.krull_dimension() <= i


# -- flags -------------------------------------------------------------------------

def test_flags_two_planes_3d(two_planes_3d):
    flags = cm_flags(Module.cyclic(two_planes_3d))
    assert not flags.is_cm
    assert not flags.is_generalized_cm
    assert flags.is_unmixed


def test_flags_plane_line(plane_and_line):
    flags = cm_flags(Module.cyclic(plane_and_line))
    assert not flags.is_cm
    assert not flags.is_generalized_cm
    assert not flags.is_unmixed


def test_flags_free(R3):
    flags = cm_flags(Module.free(R3))
    assert flags.is_cm and flags.is_generalized_cm and flags.is_unmixed


def test_flags_buchsbaum(two_planes_origin):
    flags = cm_flags(Module.cyclic(two_planes_origin))
    assert not flags.is_cm
    assert flags.is_generalized_cm
    assert flags.is_unmixed


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_flags_table_matches_ext_loops(p):
    # one table of Ext dimensions against one loop per flag, and the socle
    # tuple against the Ext generator counts, on every corpus spec
    R = ring(("x", "y", "z"), p)
    x, y, z = R.gens()
    modules_ = [Module.free(R), Module.cyclic(Ideal(R, [x**2, y**2, z**2]))]
    for group in ("golden", "cm_controls", "random_squarefree"):
        for name in corpus_index()[group]:
            data = json.loads((resources.files("irlab") / "corpus" / name).read_text())
            modules_.append(Module.cyclic(load_ring_spec(data | {"characteristic": p}).ideal))
    for M in modules_:
        assert cm_flags(M) == flags_by_ext_loops(M), M
        n = M.ring.nvars
        assert socle_dimensions(M) == tuple(M.ext(n - i).minimal_generator_count()
                                            for i in range(M.dim() + 1)), M
    assert modules_[1].dim() == 0 and cm_flags(modules_[1]) == CmFlags(True, True, True)
    zero = Module.cyclic(unit_ideal(R))
    for reading in (cm_flags, socle_dimensions, annihilator_data):
        with pytest.raises(ZeroModuleError):
            reading(zero)


def test_flags_and_dim3_formula_run_no_parameter_search(monkeypatch):
    # unmixedness is read off the Ext dimensions, never by a randomized search
    def refuse(*args, **kwargs):
        raise AssertionError("unmixedness ran a parameter search")

    monkeypatch.setattr(modules, "_CYCLIC_CACHE", {})
    monkeypatch.setattr(filtration, "unmixed_component", refuse)
    monkeypatch.setattr(params, "find_parameter_element", refuse)
    expected = {"plane_and_line.json": (False, False, False),
                "two_planes_3d.json": (False, False, True),
                "two_planes_origin.json": (False, True, True)}
    for name, want in expected.items():
        flags = cm_flags(Module.cyclic(load_corpus_spec(name).ideal))
        assert (flags.is_cm, flags.is_generalized_cm, flags.is_unmixed) == want, name
    spec = load_corpus_spec("two_planes_3d.json")
    assert formula_dim3(spec.ideal, spec.s2) == 4


# -- Hochster oracle ----------------------------------------------------------------

def test_hochster_h0_of_positive_depth(plane_and_line):
    got = hochster_hilbert(plane_and_line, 0, range(-4, 2))
    assert all(v == 0 for v in got.values())


def test_hochster_disjoint_edges_middle_cohomology(two_planes_origin):
    got = hochster_hilbert(two_planes_origin, 1, range(-3, 1))
    assert got[0] == 1
    assert got[-1] == 0 and got[-2] == 0


def test_hochster_rejects_non_squarefree(R2):
    x, _ = R2.gens()
    with pytest.raises(PreconditionError):
        hochster_hilbert(Ideal(R2, [x * x]), 0, range(0, 1))


def test_hochster_single_variable():
    R = ring(("x",))
    I = Ideal(R, [R.variable(0)])
    got = hochster_hilbert(I, 0, range(-2, 1))
    assert got == {-2: 0, -1: 0, 0: 1}
    # the quotient is the field: H^0 = k in degree 0, and the Ext route agrees
    M = Module.cyclic(I)
    assert local_cohomology_hilbert(M, 0, range(-2, 1)) == got


def test_duality_matches_hochster_on_three_rings(plane_and_line, two_planes_3d,
                                                 two_planes_origin):
    for I in (plane_and_line, two_planes_origin, two_planes_3d):
        M = Module.cyclic(I)
        n = I.ring.nvars
        window = range(-n - 4, 3)
        for i in range(M.dim() + 1):
            assert hochster_hilbert(I, i, window) == \
                local_cohomology_hilbert(M, i, window), (str(I), i)


def test_length_of_middle_cohomology(two_planes_origin):
    M = Module.cyclic(two_planes_origin)
    assert local_cohomology_length(M, 0) == 0
    assert local_cohomology_length(M, 1) == 1
    assert local_cohomology_length(M, 2) is None  # top cohomology never finite here


# -- simplicial complex internals ------------------------------------------------------

def test_empty_complex_reduced_cohomology():
    only_empty = SimplicialComplex(2, [frozenset()])
    assert only_empty.reduced_cohomology_dim(-1, 32003) == 1
    assert only_empty.reduced_cohomology_dim(0, 32003) == 0


def test_two_points_reduced_cohomology():
    two_points = SimplicialComplex(2, [frozenset(), frozenset([0]), frozenset([1])])
    assert two_points.reduced_cohomology_dim(0, 32003) == 1
    assert two_points.reduced_cohomology_dim(-1, 32003) == 0


def test_circle_reduced_cohomology():
    # hollow triangle
    faces = [frozenset()] + [frozenset([i]) for i in range(3)] + \
        [frozenset(p) for p in ([0, 1], [0, 2], [1, 2])]
    circle = SimplicialComplex(3, faces)
    assert circle.reduced_cohomology_dim(0, 32003) == 0
    assert circle.reduced_cohomology_dim(1, 32003) == 1
