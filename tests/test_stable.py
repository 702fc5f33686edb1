import json
from importlib import resources

import pytest
from oracles import random_sop_stepwise

from irlab import stable
from irlab.cli import corpus_index
from irlab.cohomology import socle_dimensions
from irlab.errors import PreconditionError, SearchExhausted
from irlab.filtration import classify_sequential
from irlab.groebner import Ideal
from irlab.modules import Module
from irlab.params import construct_c_sop, index_of_reducibility
from irlab.stable import (deep_element_kills_h2, formula_dim3, formula_gcm,
                          formula_seq, goto_suzuki_bound, limit_profile,
                          random_sop, stability_suite, stable_value)
from irlab.params import Rng
from irlab.ring import ring


def _golden_ideals():
    """The golden rings at their own prime and at p = 2, where zero draws and
    failed cuts are common enough to rewind the one-shot draw."""
    for name in corpus_index()["golden"]:
        data = json.loads((resources.files("irlab") / "corpus" / name).read_text())
        for p in (data["characteristic"], 2):
            R = ring(data["variables"], p)
            yield f"{name} p={p}", Ideal(R, [R.parse(s) for s in data["ideal"]])


def test_random_sop_equals_stepwise_draws():
    for label, I in _golden_ideals():
        for degree in (1, 2, 3):
            for seed in range(20):
                want = random_sop_stepwise(I, degree, Rng(seed))
                rng = Rng(seed)
                got = random_sop(I, degree, rng)
                if want is None:
                    assert got is None, (label, degree, seed)
                    continue
                elems, cut = want
                assert list(got) == elems, (label, degree, seed)
                assert got.cut[2].gens == cut.gens, (label, degree, seed)


# -- stable value -----------------------------------------------------------------

def test_stable_two_planes_3d(two_planes_3d):
    report = stable_value(two_planes_3d, seed=0)
    assert report.value == 4
    assert report.socle == (0, 0, 1, 2)


def test_stable_of_cm_is_the_type(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y, x * z, y * z])
    report = stable_value(I, seed=0)
    s = socle_dimensions(Module.cyclic(I))
    assert report.value == s[-1] == 2
    check = report.cross_checks["cm_top_socle"]
    assert check.applicable and check.matches


def test_stable_plane_line_meets_socle_sum(plane_and_line):
    report = stable_value(plane_and_line, seed=1)
    assert report.value == 2
    check = report.cross_checks["socle_sum"]
    assert check.applicable and check.value == 2 and check.matches


def test_stable_seed_independent(plane_and_line):
    values = {stable_value(plane_and_line, seed=s).value for s in (0, 3, 17)}
    assert values == {2}


def test_stability_suite_mixed_degrees(two_planes_origin):
    # six trials take each of the minimum degrees 1, 2, 3 twice
    assert stable.SUITE_MIN_DEGREES == (1, 2, 3)
    values = stability_suite(two_planes_origin, trials=6, seed=5)
    assert set(values) == {4}


def test_failed_random_draw_is_counted_only_as_a_failure(plane_and_line, monkeypatch):
    # every other draw fails; it adds no histogram entry and no sample
    draw = stable.random_sop
    calls = []

    def flaky(ideal, degree, rng):
        calls.append(degree)
        return None if len(calls) % 2 else draw(ideal, degree, rng)

    monkeypatch.setattr(stable, "random_sop", flaky)
    profile = limit_profile(plane_and_line, n_max=2, samples_per_n=4, seed=0)
    assert len(calls) == 8
    for level in profile.levels:
        assert level.failures == 2 and level.completed == 2
        assert level.deep_system_ir is not None
        assert sum(level.histogram.values()) == level.completed + 1


# -- closed formulas -----------------------------------------------------------------

def test_formula_gcm_on_cm_collapses_to_type(R3):
    x, y, _ = R3.gens()
    M = Module.cyclic(Ideal(R3, [x * y]))
    value, threshold = formula_gcm(M)
    assert value == socle_dimensions(M)[-1] == 1


def test_formula_gcm_buchsbaum(two_planes_origin):
    M = Module.cyclic(two_planes_origin)
    value, threshold = formula_gcm(M)
    assert value == 4          # C(2,1)*1 + C(2,2)*2
    assert threshold == 2      # the middle cohomology dies in one power


def test_formula_gcm_not_applicable(plane_and_line):
    assert formula_gcm(Module.cyclic(plane_and_line)) is None


def test_formula_gcm_matches_deep_random_sops(two_planes_origin):
    # any system inside the square of the maximal ideal must give the formula value
    rng = Rng(100)
    hits = 0
    while hits < 4:
        q = random_sop(two_planes_origin, 2, rng.spawn(hits + 17))
        if q is None:
            continue
        assert index_of_reducibility(q, two_planes_origin).value == 4
        hits += 1


def test_formula_seq_plane_line(plane_and_line):
    value, collapse = formula_seq(plane_and_line, classify_sequential(plane_and_line))
    assert value == 2
    assert collapse == 2  # sequentially CM: double sum collapses to the socle sum


def test_formula_seq_cm_single_step(R3):
    x, y, _ = R3.gens()
    I = Ideal(R3, [x * y])
    value, collapse = formula_seq(I, classify_sequential(I))
    assert value == collapse == 1


def test_formula_seq_not_applicable(two_planes_3d):
    assert formula_seq(two_planes_3d, classify_sequential(two_planes_3d)) is None


def test_formula_dim3_golden(two_planes_3d, R5):
    checks = {}
    got = formula_dim3(two_planes_3d,
                       [Ideal(R5, ["a", "b"]), Ideal(R5, ["c", "d"])],
                       checks)
    assert got == 4
    assert checks["s2_h2_socle"] == 0  # the closure is CM, no middle cohomology
    assert "dimension 1" in checks["cokernel"]


def test_formula_dim3_closure_equal_to_module_matches_gcm_shape(two_planes_3d, R5):
    # with the closure taken to be the module itself the formula degenerates to
    # 3*s_2 + s_3, which is the binomial formula shape in this unmixed case
    got = formula_dim3(two_planes_3d, [two_planes_3d], {})
    s = socle_dimensions(Module.cyclic(two_planes_3d))
    assert got == 3 * s[2] + s[3]


def test_formula_dim3_preconditions(plane_and_line, two_planes_3d, R5):
    with pytest.raises(PreconditionError):
        formula_dim3(plane_and_line, [plane_and_line])  # dimension 2, not 3
    with pytest.raises(PreconditionError):
        # wrong closure: intersection of the summands is not the ideal
        formula_dim3(two_planes_3d, [Ideal(R5, ["a", "b"]), Ideal(R5, ["c", "e"])])


def test_formula_dim3_rejects_mixed_module(R5):
    # (a,b) cap (c,d) cap (b,d,e): dimension 3 and depth 2, but the plane
    # V(b,d,e) is a lower-dimensional associated component
    I = Ideal(R5, ["b*d", "a*d", "b*c", "a*c*e"])
    M = Module.cyclic(I)
    assert (M.dim(), M.depth()) == (3, 2)
    with pytest.raises(PreconditionError, match="module is not unmixed"):
        formula_dim3(I, [I])


def test_deep_element_kills_h2_trivially_for_cm_closure(two_planes_3d, R5):
    x = R5.parse("a^3 + c^3")
    assert deep_element_kills_h2([Ideal(R5, ["a", "b"]), Ideal(R5, ["c", "d"])], x)


def test_deep_element_kills_h2_reads_the_annihilator(two_planes_3d, R5):
    # two_planes_3d as its own closure: H^2 is dual to Ext^3, whose
    # annihilator is (a, b, c, d)
    for v in "abcd":
        assert deep_element_kills_h2([two_planes_3d], R5.parse(v))
    assert not deep_element_kills_h2([two_planes_3d], R5.parse("e"))


def test_stable_report_with_closure(two_planes_3d, R5):
    report = stable_value(two_planes_3d, seed=0,
                          s2=[Ideal(R5, ["a", "b"]), Ideal(R5, ["c", "d"])])
    check = report.cross_checks["dim3_closure"]
    assert check.applicable and check.value == 4 and check.matches
    assert report.all_applicable_match()


def test_goto_suzuki_is_an_upper_bound(two_planes_origin):
    M = Module.cyclic(two_planes_origin)
    bound = goto_suzuki_bound(M)
    assert bound == 4
    assert bound >= stable_value(two_planes_origin, seed=0).value


def test_goto_suzuki_not_applicable(plane_and_line):
    assert goto_suzuki_bound(Module.cyclic(plane_and_line)) is None


# -- socle additivity under a certified element ---------------------------------------

def test_socle_surjectivity_inequality(plane_and_line, two_planes_origin,
                                       two_planes_3d):
    # quotienting by the first listed element of a certified system can only
    # enlarge the next-to-top socle: s_{d-1}(M/x_1 M) >= s_d(M)
    for I in (plane_and_line, two_planes_origin, two_planes_3d):
        M = Module.cyclic(I)
        d = M.dim()
        s_top = socle_dimensions(M)[-1]
        system = construct_c_sop(I, 1, seed=2)
        quotient = Module.cyclic(I + system.elements[0])
        assert socle_dimensions(quotient)[d - 1] >= s_top


def test_socle_additivity_two_planes_3d(two_planes_3d):
    system = construct_c_sop(two_planes_3d, 1, seed=0)
    x = system.elements[-1]   # the element certified against M itself
    quotient = Module.cyclic(two_planes_3d + x)
    s_m = socle_dimensions(Module.cyclic(two_planes_3d))
    s_q = socle_dimensions(quotient)
    want = tuple(s_m[i] + s_m[i + 1] for i in range(len(s_m) - 1))
    assert tuple(s_q) == want == (0, 1, 3)


# -- the sampling profile -----------------------------------------------------------------

def test_profile_plane_line(plane_and_line):
    profile = limit_profile(plane_and_line, n_max=4, samples_per_n=20, seed=3)
    assert profile.stable == 2
    assert profile.top_socle == 1
    for lv in profile.levels:
        assert max(lv.histogram) <= 2      # nothing ever exceeds 2 on this ring
        assert lv.min_ir <= profile.stable
        if lv.n >= 2:
            assert lv.min_ir == 2
    assert profile.levels[0].min_ir in (1, 2)  # shallow systems may dip


def test_profile_cm_control_is_flat(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y, x * z, y * z])
    profile = limit_profile(I, n_max=3, samples_per_n=10, seed=1)
    for lv in profile.levels:
        assert lv.histogram == {2: lv.completed + 1}
        assert lv.below_top_socle == 0


def test_profile_sandwich_for_gcm(two_planes_origin):
    profile = limit_profile(two_planes_origin, n_max=3, samples_per_n=8, seed=2)
    M = Module.cyclic(two_planes_origin)
    alpha_expected, _ = formula_gcm(M)
    for lv in profile.levels:
        if lv.n >= 2:  # beyond the deep threshold
            assert lv.min_ir == alpha_expected == 4
            assert lv.below_top_socle == 0


def test_profile_payload_shape(plane_and_line):
    payload = limit_profile(plane_and_line, n_max=2, samples_per_n=5,
                            seed=0).to_payload()
    assert payload["estimate_kind"] == "empirical upper-bound estimate"
    assert len(payload["levels"]) == 2
    assert {"n", "samples", "min_ir", "deep_system_ir", "histogram",
            "below_top_socle", "failures"} <= set(payload["levels"][0])


def test_profile_counts_failed_deep_construction(plane_and_line, monkeypatch):
    import irlab.stable as stable_mod

    real = stable_mod.construct_c_sop

    def flaky(ideal, min_degree=1, seed=0):
        if min_degree == 2:
            raise SearchExhausted("no deep system", (2,))
        return real(ideal, min_degree, seed)

    monkeypatch.setattr(stable_mod, "construct_c_sop", flaky)
    profile = limit_profile(plane_and_line, n_max=2, samples_per_n=4, seed=0)
    ok, failed = profile.levels
    assert ok.deep_system_ir is not None
    assert sum(ok.histogram.values()) == ok.completed + 1
    assert failed.deep_system_ir is None
    assert failed.to_payload()["deep_system_ir"] is None
    assert failed.failures == failed.requested - failed.completed + 1
    assert sum(failed.histogram.values()) == failed.completed


# -- the inequality dichotomy -----------------------------------------------------------

def test_socle_sum_inequality_and_equality_cases(plane_and_line, two_planes_3d,
                                                 two_planes_origin):
    for I in (plane_and_line, two_planes_3d, two_planes_origin):
        N = stable_value(I, seed=0).value
        M = Module.cyclic(I)
        total = sum(socle_dimensions(M))
        assert N >= total
        is_seq_cm = classify_sequential(I).is_sequentially_cm
        assert (N == total) is is_seq_cm
