"""Acceptance suite: the package's exit criteria, one test per criterion.

Every expected number here is exact (symbolic computations over a prime
field; tolerance zero).  Each test prints a single pass/fail line; run with
`pytest -s tests/test_acceptance.py` to see the table, or rely on the exit
status.  A fixed master seed makes the whole suite reproducible.
"""

import time
from contextlib import contextmanager

from irlab.cli import corpus_index, load_corpus_spec
from irlab.cohomology import (annihilator_data, hochster_hilbert,
                              local_cohomology_hilbert, socle_dimensions)
from irlab.filtration import classify_sequential, unmixed_component
from irlab.groebner import Ideal
from irlab.modules import Module, minimalize_complex, taylor_resolution
from irlab.params import (Rng, construct_c_sop, index_of_reducibility,
                          is_d_sequence)
from irlab.stable import formula_dim3, formula_gcm, limit_profile, random_sop, stable_value

MASTER_SEED = 2025


@contextmanager
def criterion(number, title, budget_seconds=None):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    elapsed = time.time() - start
    stamp = f" ({elapsed:.1f}s)" if budget_seconds else ""
    print(f"[PASS] criterion {number}: {title}{stamp}")
    if budget_seconds is not None:
        assert elapsed < budget_seconds, \
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"


def _corpus_ideals(group):
    for name in corpus_index()[group]:
        yield name, load_corpus_spec(name).ideal


def test_criterion_1_two_planes_golden():
    with criterion(1, "5-variable two-plane ring: structure, stable value, "
                      "closure formula", budget_seconds=60):
        spec = load_corpus_spec("two_planes_3d.json")
        I = spec.ideal
        M = Module.cyclic(I)
        assert M.dim() == 3
        assert M.depth() == 2
        assert unmixed_component(I) == I
        assert tuple(socle_dimensions(M)) == (0, 0, 1, 2)
        report = stable_value(I, seed=MASTER_SEED, s2=spec.s2)
        assert report.value == 4
        check = report.cross_checks["dim3_closure"]
        assert check.applicable and check.value == 4 and check.matches
        assert formula_dim3(I, spec.s2) == 4


def test_criterion_2_plane_line_golden():
    with criterion(2, "plane-and-line ring: filtration, socle-sum equality, "
                      "pinned sampling profile", budget_seconds=120):
        I = load_corpus_spec("plane_and_line.json").ideal
        R = I.ring
        cls = classify_sequential(I)
        assert cls.is_sequentially_cm
        assert list(cls.filtration.ideals) == [I, Ideal(R, [R.variable("x")])]
        M = Module.cyclic(I)
        total = sum(socle_dimensions(M))
        report = stable_value(I, seed=MASTER_SEED)
        assert report.value == total == 2
        profile = limit_profile(I, n_max=4, samples_per_n=50, seed=MASTER_SEED)
        for level in profile.levels:
            assert level.completed >= 50, f"level {level.n}: {level.completed} samples"
            assert max(level.histogram) <= 2, \
                f"level {level.n} produced ir above 2: {level.histogram}"
            if level.n >= 2:
                assert level.min_ir == 2, f"level {level.n}: min {level.min_ir}"


def test_criterion_3_stable_value_seed_independence():
    with criterion(3, "ten independently seeded certified systems (and power "
                      "variants) give one ir per ring"):
        expected = {"two_planes_3d.json": 4, "two_planes_origin.json": 4,
                    "plane_and_line.json": 2}
        rng = Rng(MASTER_SEED)
        for name, want in expected.items():
            I = load_corpus_spec(name).ideal
            values = set()
            systems = []
            for t in range(10):
                system = construct_c_sop(I, 1 + t % 3, seed=rng.spawn(t).state)
                systems.append(system)
                values.add(index_of_reducibility(list(system), I).value)
            assert values == {want}, f"{name}: {values}"
            for system in systems[:2]:
                powers = [1 + rng.below(2) for _ in system.elements]
                perturbed = [x ** k for x, k in zip(system.elements, powers)]
                assert index_of_reducibility(perturbed, I).value == want, \
                    f"{name}: power-perturbed variant changed the value"


def test_criterion_4_gcm_formula():
    with criterion(4, "binomial socle formula on the 4-variable ring, matched "
                      "by deep parameter ideals"):
        I = load_corpus_spec("two_planes_origin.json").ideal
        M = Module.cyclic(I)
        value, threshold = formula_gcm(M)
        assert value == 4
        n0 = annihilator_data(M).n0
        assert threshold == 2 * n0 == 2
        rng = Rng(MASTER_SEED + 4)
        hits = 0
        attempts = 0
        while hits < 5 and attempts < 50:
            attempts += 1
            q = random_sop(I, threshold, rng.spawn(attempts))
            if q is None:
                continue
            result = index_of_reducibility(q, I)
            assert result.value == 4, f"deep sop gave {result.value}"
            assert result.methods["degreewise_spans"] == \
                result.methods["kernel_intersection"]
            hits += 1
        assert hits == 5


def test_criterion_5_corpus_sweep():
    with criterion(5, "random square-free corpus: stable value >= socle sum, "
                      "equality exactly on the sequentially CM members",
                   budget_seconds=600):
        seen_equality = 0
        seen_strict = 0
        for name, I in _corpus_ideals("random_squarefree"):
            M = Module.cyclic(I)
            s = socle_dimensions(M)
            total = sum(s)
            N = stable_value(I, seed=MASTER_SEED).value
            seq_cm = classify_sequential(I).is_sequentially_cm
            assert N >= total, f"{name}: N={N} < socle sum {total}"
            assert (N == total) is seq_cm, \
                f"{name}: N={N}, sum={total}, seq_cm={seq_cm}"
            # the companion characterization: N collapses to the top socle
            # dimension exactly for the Cohen-Macaulay members
            assert (N == s[-1]) is (M.depth() == M.dim()), \
                f"{name}: N={N}, top={s[-1]}, cm={M.depth() == M.dim()}"
            if seq_cm:
                seen_equality += 1
            else:
                seen_strict += 1
        # the corpus must exercise both sides of the dichotomy
        assert seen_equality > 0 and seen_strict > 0


def test_criterion_6_homological_cross_oracles():
    with criterion(6, "Taylor vs iterated-syzygy Betti numbers, simplicial vs "
                      "dual Hilbert functions, depth + pd = n"):
        groups = ["golden", "cm_controls", "random_squarefree"]
        for group in groups:
            for name, I in _corpus_ideals(group):
                M = Module.cyclic(I)
                n = I.ring.nvars
                res = M.resolution()
                assert M.depth() + res.length == n, f"{name}: AB fails"
                if I.is_zero() or not I.is_monomial():
                    continue
                taylor = minimalize_complex(taylor_resolution(I))
                assert taylor.betti_numbers() == res.betti_numbers(), \
                    f"{name}: Taylor {taylor.betti_numbers()} vs {res.betti_numbers()}"
                squarefree = all(all(e <= 1 for e in next(iter(g.terms)))
                                 for g in I.gens)
                if not squarefree:
                    continue
                window = range(-n - 3, 2)
                for i in range(M.dim() + 1):
                    assert hochster_hilbert(I, i, window) == \
                        local_cohomology_hilbert(M, i, window), f"{name}, H^{i}"


def test_criterion_7_northcott_control():
    with criterion(7, "CM controls: ten random systems each, constant ir equal "
                      "to the type and the last Betti number"):
        controls = ["cm_hypersurface.json", "cm_three_lines.json",
                    "cm_quadric_cone.json"]
        rng = Rng(MASTER_SEED + 7)
        for name in controls:
            I = load_corpus_spec(name).ideal
            M = Module.cyclic(I)
            s_top = socle_dimensions(M)[-1]
            betti_last = M.resolution().betti_numbers()[-1]
            assert s_top == betti_last, f"{name}: type {s_top} vs Betti {betti_last}"
            values = set()
            produced = 0
            trial = 0
            while produced < 10 and trial < 100:
                trial += 1
                degree = 1 + trial % 2
                q = random_sop(I, degree, rng.spawn(trial))
                if q is None:
                    continue
                values.add(index_of_reducibility(q, I).value)
                produced += 1
            assert produced == 10
            assert values == {s_top}, f"{name}: {values} != {{{s_top}}}"


def test_criterion_8_socle_additivity():
    with criterion(8, "socle additivity under a certified parameter element, "
                      "recomputed through the full dual pipeline"):
        I = load_corpus_spec("two_planes_3d.json").ideal
        M = Module.cyclic(I)
        s_m = socle_dimensions(M)
        system = construct_c_sop(I, 1, seed=MASTER_SEED)
        x = system.elements[-1]  # certified against the annihilator cube of M
        quotient = Module.cyclic(I + x)
        s_q = tuple(socle_dimensions(quotient))
        want = tuple(s_m[i] + s_m[i + 1] for i in range(M.dim()))
        assert s_q == want == (0, 1, 3), f"{s_q} vs {want}"


def test_criterion_9_property_suites():
    with criterion(9, "headless property suites: basis postconditions, "
                      "d-sequences, socle lower bounds, component stability"):
        rng = Rng(MASTER_SEED + 9)
        # Groebner postconditions on random homogeneous ideals.
        from test_groebner import random_homogeneous
        from irlab.ring import ring as make_ring
        R = make_ring(("x", "y", "z"))
        for t in range(15):
            sub = rng.spawn(t)
            gens = [random_homogeneous(R, sub, 1 + sub.below(3)) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            gb = Ideal(R, gens).groebner()
            for g in gens:
                assert gb.contains(g)
        # Certified systems: d-sequence property and the socle lower bound.
        for name in ("plane_and_line.json", "two_planes_origin.json",
                     "two_planes_3d.json"):
            I = load_corpus_spec(name).ideal
            s_top = socle_dimensions(Module.cyclic(I))[-1]
            for t in range(3):
                system = construct_c_sop(I, 1, seed=rng.spawn(100 + t).state)
                ok, witness = is_d_sequence(list(system), I)
                assert ok, f"{name}: d-sequence violation at {witness}"
                assert index_of_reducibility(list(system), I).value >= s_top
        # Unmixed components do not depend on the seed.
        for name in ("plane_and_line.json", "two_planes_3d.json"):
            I = load_corpus_spec(name).ideal
            components = {unmixed_component(I, seed=s) for s in range(10)}
            assert len(set(map(id, components))) >= 1
            first = next(iter(components))
            assert all(c == first for c in components)
