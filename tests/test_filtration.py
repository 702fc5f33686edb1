import json
from dataclasses import replace
from importlib import resources

import pytest
from oracles import top_dimensional_intersection

from irlab import filtration
from irlab.cli import EXIT_CROSSCHECK, corpus_index, load_ring_spec, main
from irlab.cohomology import _sum_of_variables_saturation, cm_flags
from irlab.errors import InternalInvariantError, PreconditionError
from irlab.filtration import (classify_sequential, dimension_filtration,
                              is_good_sop, monomial_primary_decomposition,
                              unmixed_component)
from irlab.groebner import Ideal
from irlab.modules import Module


# -- unmixed component ----------------------------------------------------------

def test_unmixed_component_plane_line(plane_and_line):
    R = plane_and_line.ring
    assert unmixed_component(plane_and_line) == Ideal(R, [R.variable("x")])


def test_unmixed_component_two_planes_3d(two_planes_3d):
    assert unmixed_component(two_planes_3d) == two_planes_3d


def test_unmixed_component_free(R3):
    assert unmixed_component(Ideal(R3, [])) == Ideal(R3, [])


def test_unmixed_component_seed_independent(plane_and_line):
    results = {unmixed_component(plane_and_line, seed=s) for s in range(10)}
    results = list(results)
    assert all(r == results[0] for r in results)


def test_single_colon_diagnostic(plane_and_line):
    report = {}
    unmixed_component(plane_and_line, seed=0, report=report)
    # the element sits in every low-dimensional associated prime, so one colon
    # already reaches the fixpoint here
    assert report["single_colon_sufficed"] is True


def test_unmixed_component_matches_monomial_oracle(plane_and_line, two_planes_3d,
                                                   two_planes_origin):
    for I in (plane_and_line, two_planes_3d, two_planes_origin):
        assert unmixed_component(I) == top_dimensional_intersection(I)


def test_module_unmixedness_agrees_with_component():
    # the Ext-dimension test against the saturation by a parameter element
    verdicts = set()
    for p in (2, 32003):
        for group in ("golden", "cm_controls", "random_squarefree"):
            for name in corpus_index()[group]:
                data = json.loads((resources.files("irlab") / "corpus" / name).read_text())
                I = load_ring_spec(data | {"characteristic": p}).ideal
                assert I.ring.p == p
                M = Module.cyclic(I)
                verdict = cm_flags(M).is_unmixed
                if M.dim() >= 1:
                    assert verdict is (unmixed_component(I) == I), (name, p)
                else:
                    assert verdict, (name, p)
                verdicts.add(verdict)
    assert verdicts == {True, False}


# -- monomial irreducible decomposition -------------------------------------------

def test_decomposition_two_planes_3d(two_planes_3d):
    comps = monomial_primary_decomposition(two_planes_3d)
    R = two_planes_3d.ring
    want = {Ideal(R, [R.variable("a"), R.variable("b")]),
            Ideal(R, [R.variable("c"), R.variable("d")])}
    assert set(comps) == want


def test_decomposition_plane_line(plane_and_line):
    R = plane_and_line.ring
    comps = monomial_primary_decomposition(plane_and_line)
    want = {Ideal(R, [R.variable("x")]),
            Ideal(R, [R.variable("y"), R.variable("z")])}
    assert set(comps) == want
    # engine-side check that the intersection really is the input
    inter = comps[0].intersect(comps[1])
    assert inter == plane_and_line


def test_decomposition_irreducible_input(R2):
    x, y = R2.gens()
    I = Ideal(R2, [x * x, y])
    comps = monomial_primary_decomposition(I)
    assert len(comps) == 1 and comps[0] == I


def test_decomposition_mixed_powers(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * x * y, z])
    comps = monomial_primary_decomposition(I)
    inter = comps[0]
    for c in comps[1:]:
        inter = inter.intersect(c)
    assert inter == I
    for c in comps:
        for g in c.gens:
            (expo,) = g.terms
            assert sum(1 for e in expo if e) == 1  # pure variable powers only


# -- dimension filtration ------------------------------------------------------------

def test_filtration_plane_line(plane_and_line):
    filt = dimension_filtration(plane_and_line)
    R = plane_and_line.ring
    assert list(filt.ideals) == [plane_and_line, Ideal(R, [R.variable("x")])]
    assert filt.dims == (-1, 1)
    assert filt.top_dim == 2
    assert filt.satisfies_dimension_condition()


def test_filtration_starts_at_a_depth_certified_ideal_itself(plane_and_line, two_planes_3d):
    # l = x_1 + ... + x_n regular on S/I: the first step is I, the same object
    for I in (plane_and_line, two_planes_3d):
        assert _sum_of_variables_saturation(I) is I
        assert dimension_filtration(I).ideals[0] is I


def test_filtration_unmixed_is_trivial(two_planes_3d):
    filt = dimension_filtration(two_planes_3d)
    assert list(filt.ideals) == [two_planes_3d]
    assert filt.dims == (-1,)


def test_filtration_artinian(R2):
    x, y = R2.gens()
    filt = dimension_filtration(Ideal(R2, [x * x, y]))
    assert filt.ideals == ()
    assert filt.top_dim == 0


def test_filtration_with_finite_part(R2):
    # one embedded point on a line: H^0 is the first step
    x, y = R2.gens()
    I = Ideal(R2, [x * y, x * x])
    filt = dimension_filtration(I)
    R = I.ring
    assert filt.ideals[0] == Ideal(R, [x])  # saturation pulls out the point
    assert filt.dims == (0,)
    assert filt.top_dim == 1


def test_filtration_three_dims(R4):
    # plane + line + embedded point, all in one ideal
    x, y, u, v = R4.gens()
    I = Ideal(R4, [x * u, x * v, y * u, y * v]).intersect(Ideal(R4, [x, y, u * u]))
    filt = dimension_filtration(I)
    dims = [d for d in filt.dims if d >= 0] + [filt.top_dim]
    assert dims == sorted(dims)
    assert filt.satisfies_dimension_condition()


def test_step_modules_have_increasing_dims(plane_and_line):
    filt = dimension_filtration(plane_and_line)
    mods = filt.step_modules()
    assert [m.dim() for m in mods] == [1, 2]


# -- sequential classification ----------------------------------------------------------

def test_classify_plane_line(plane_and_line):
    cls = classify_sequential(plane_and_line)
    assert cls.is_sequentially_cm
    assert cls.is_sequentially_gcm
    assert all(step[2] for step in cls.steps)


def test_classify_two_planes_3d(two_planes_3d):
    cls = classify_sequential(two_planes_3d)
    assert not cls.is_sequentially_cm
    assert not cls.is_sequentially_gcm  # single quotient with dim-1 middle cohomology
    (step,) = cls.steps
    assert step[0] == 3 and step[1] == 2


def test_classify_cm_is_trivially_sequential(R3):
    x, y, _ = R3.gens()
    cls = classify_sequential(Ideal(R3, [x * y]))
    assert cls.is_sequentially_cm
    assert len(cls.steps) == 1


def test_classify_buchsbaum(two_planes_origin):
    cls = classify_sequential(two_planes_origin)
    assert not cls.is_sequentially_cm
    assert cls.is_sequentially_gcm


def test_classify_checks_step_dims_against_the_filtration(monkeypatch, plane_and_line, capsys):
    # a filtration whose colon dims disagree with its step modules: (x)/I has
    # dimension 1, here claimed 0
    real = filtration.dimension_filtration

    def skewed(ideal):
        filt = real(ideal)
        assert filt.dims == (-1, 1)
        return replace(filt, dims=(-1, 0))

    monkeypatch.setattr(filtration, "dimension_filtration", skewed)
    with pytest.raises(InternalInvariantError):
        classify_sequential(plane_and_line)
    spec = resources.files("irlab") / "corpus" / "plane_and_line.json"
    assert main(["analyze", str(spec)]) == EXIT_CROSSCHECK
    assert "internal cross-check failure" in capsys.readouterr().err


# -- good systems of parameters -----------------------------------------------------------

def test_good_sop_plane_line(plane_and_line):
    R = plane_and_line.ring
    x_el = [R.parse("y - x"), R.parse("z")]
    ok, witness = is_good_sop(x_el, plane_and_line)
    assert ok and witness is None


def test_bad_sop_witness(plane_and_line):
    R = plane_and_line.ring
    x_el = [R.parse("z"), R.parse("y - x")]
    ok, witness = is_good_sop(x_el, plane_and_line)
    assert not ok
    assert witness is not None
    # the witness lies in the intersection but not in the ideal
    K = Ideal(R, [R.variable("x")])
    assert K.contains(witness)
    assert not plane_and_line.contains(witness)


def test_good_sop_trivial_filtration(two_planes_3d):
    from irlab.params import construct_c_sop
    system = construct_c_sop(two_planes_3d, 1, seed=4)
    ok, witness = is_good_sop(list(system), two_planes_3d)
    assert ok  # the only stored step is the zero module


def test_good_sop_requires_sop(plane_and_line):
    R = plane_and_line.ring
    with pytest.raises(PreconditionError):
        is_good_sop([R.variable("y"), R.variable("z")], plane_and_line)


def test_good_sop_user_supplied_filtration(plane_and_line):
    R = plane_and_line.ring
    user = [Ideal(R, [R.variable("x")])]
    ok, witness = is_good_sop([R.parse("y - x"), R.parse("z")],
                              plane_and_line, filtration=user)
    assert ok and witness is None
    bad = [Ideal(R, [R.variable("x")]), Ideal(R, [R.variable("x"), R.variable("y")])]
    with pytest.raises(PreconditionError):
        # two steps with the same dimension violate the dimension condition
        is_good_sop([R.parse("y - x"), R.parse("z")], plane_and_line,
                    filtration=bad)
