from collections import Counter

import pytest
from oracles import (first_cut_uncovered, is_sop_stepwise, multiplication_maps_by_normal_forms,
                     random_monomial_ideal, rref_exact, socle_by_full_slices,
                     socle_by_normal_forms, triangular_change)

from irlab import groebner, modules, params
from irlab.cohomology import socle_dimensions
from irlab.errors import PreconditionError, SearchExhausted
from irlab.groebner import Ideal, maximal_ideal, unit_ideal
from irlab.modules import Module
from irlab.params import (Rng, _multiplication_maps, _socle_by_degreewise_spans,
                          _socle_by_kernels, construct_c_sop, find_parameter_element,
                          index_of_reducibility, is_d_sequence,
                          is_system_of_parameters)
from irlab.ring import Poly, monomials_of_degree, ring


# -- rng ----------------------------------------------------------------------

def test_rng_deterministic():
    a = [Rng(42).next_int() for _ in range(5)]
    b = [Rng(42).next_int() for _ in range(5)]
    assert a == b


def test_rng_spawn_streams_differ():
    root = Rng(7)
    assert Rng(7).spawn(0).next_int() != Rng(7).spawn(1).next_int()
    assert root.spawn(3).next_int() == Rng(7).spawn(3).next_int()


# -- systems of parameters -------------------------------------------------------

def test_variables_are_a_sop_of_the_plane(R2):
    x, y = R2.gens()
    assert is_system_of_parameters([x, y], Ideal(R2, []))


def test_non_sop_detected(plane_and_line):
    R = plane_and_line.ring
    assert not is_system_of_parameters([R.variable("y"), R.variable("z")],
                                       plane_and_line)


def test_sop_of_plane_line(plane_and_line):
    R = plane_and_line.ring
    assert is_system_of_parameters([R.parse("y - x"), R.parse("z")], plane_and_line)


def test_wrong_length_is_not_a_sop(plane_and_line):
    R = plane_and_line.ring
    assert not is_system_of_parameters([R.parse("y - x")], plane_and_line)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_one_shot_sop_check_matches_the_stepwise_oracle(p):
    rng = Rng(p + 37)

    def form(R):
        f = R.zero()
        for m in monomials_of_degree(R.nvars, 1 + rng.below(2)):
            if rng.below(2):
                f = f + R.monomial(m, rng.below(p))
        return f

    verdicts = Counter()
    for trial in range(9):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        for gens in random_monomial_ideal(R, rng):
            I = Ideal(R, gens)
            d = I.krull_dimension()
            if d < 1:
                continue
            system = [form(R) for _ in range(d)]
            stuck = list(system)
            stuck[rng.below(d)] = gens[0] * form(R)  # an element of I cuts nothing
            for elems in (system, system + [form(R)], system[:-1], stuck):
                want = is_sop_stepwise(elems, I)
                assert is_system_of_parameters(elems, I) == want
                verdicts[want] += 1
    assert verdicts[True] and verdicts[False]


def _units_at_the_origin(R2, plane_and_line):
    """(elements, I, the unit named) for d elements that cut S/I to dimension
    0 though the first is a unit at the origin: (x - 1, y) on k[x, y] and
    (y - 1, z) on the plane and line even cut it one by one, and on the plane
    and line x - 1 misses the plane x = 0 and cuts the line y = z = 0 to a
    point, so (x - 1, y) drops the dimension from 2 to 0 at once."""
    R = plane_and_line.ring
    return [([R2.parse("x - 1"), R2.variable("y")], Ideal(R2, []), "x - 1"),
            ([R.parse("y - 1"), R.variable("z")], plane_and_line, "y - 1"),
            ([R.parse("x - 1"), R.variable("y")], plane_and_line, "x - 1")]


def test_inhomogeneous_elements_are_rejected_by_name(R2, plane_and_line):
    for elems, I, bad in _units_at_the_origin(R2, plane_and_line):
        assert len(elems) == I.krull_dimension() and (I + elems).krull_dimension() == 0
        with pytest.raises(PreconditionError,
                           match=f"parameter element {bad} is not homogeneous"):
            is_system_of_parameters(elems, I)


def test_ir_rejects_units_before_either_socle_route(R2, plane_and_line, monkeypatch):
    def refuse(*args):
        raise AssertionError("a socle route ran on an inhomogeneous element")

    monkeypatch.setattr(params, "_socle_by_kernels", refuse)
    monkeypatch.setattr(params, "_socle_by_degreewise_spans", refuse)
    for elems, I, bad in _units_at_the_origin(R2, plane_and_line):
        with pytest.raises(PreconditionError, match=f"parameter element {bad} is not"):
            index_of_reducibility(elems, I)


# -- parameter element search ------------------------------------------------------

def test_find_parameter_element_unconstrained(plane_and_line):
    R = plane_and_line.ring
    x, cut = find_parameter_element(plane_and_line, unit_ideal(R), 1, Rng(3))
    assert x.is_homogeneous() and x.degree() >= 1
    assert cut.gens == (plane_and_line + x).gens
    assert cut.krull_dimension() == 1


def test_find_parameter_element_in_maximal_ideal(R2):
    x, cut = find_parameter_element(Ideal(R2, []), maximal_ideal(R2), 1, Rng(1))
    assert x.degree() == 1
    assert cut.gens == (x,) and cut.krull_dimension() == 1


def test_find_respects_min_degree(plane_and_line):
    R = plane_and_line.ring
    x, cut = find_parameter_element(plane_and_line, unit_ideal(R), 3, Rng(3))
    assert x.degree() >= 3
    assert cut.gens == (plane_and_line + x).gens


def test_find_parameter_element_rejects_inhomogeneous_constraint(plane_and_line):
    R = plane_and_line.ring
    x, y, _ = R.gens()
    with pytest.raises(PreconditionError, match="constraint generators must be homogeneous"):
        find_parameter_element(plane_and_line, Ideal(R, [x + R.one(), y]), 1, Rng(0))


def test_search_exhausts_inside_top_component(plane_and_line, monkeypatch):
    # everything in (x) contains the plane, so the dimension never drops: the
    # search tries every degree its effort constants allow, here and at a
    # smaller effort
    R = plane_and_line.ring
    x = Ideal(R, [R.variable("x")])
    with pytest.raises(SearchExhausted) as err:
        find_parameter_element(plane_and_line, x, 1, Rng(0))
    assert err.value.attempted_degrees == tuple(range(1, params.EXTRA_DEGREES + 2))
    monkeypatch.setattr(params, "TRIES_PER_DEGREE", 3)
    monkeypatch.setattr(params, "EXTRA_DEGREES", 2)
    with pytest.raises(SearchExhausted) as err:
        find_parameter_element(plane_and_line, x, 1, Rng(0))
    assert err.value.attempted_degrees == (1, 2, 3)


# -- the cover certificate of _first_cut -----------------------------------------------

def sparse_candidates(R, rng, count):
    """`count` random homogeneous candidates of degree 1 or 2 with one to three
    terms, so that some lie in a variable prime and some escape every one."""
    for _ in range(count):
        monos = monomials_of_degree(R.nvars, 1 + rng.below(2))
        f = R.zero()
        for _ in range(1 + rng.below(3)):
            f = f + R.monomial(monos[rng.below(len(monos))], rng.below(R.p))
        yield f


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_cover_passes_over_only_non_parameters(p, monkeypatch):
    """A candidate passed over by a cover, which builds no cut, really fails
    to cut: (I + x) has dimension above the target."""
    rng = Rng(2600 + p % 1000)
    real = Ideal.krull_dimension
    cuts = []
    monkeypatch.setattr(Ideal, "krull_dimension", lambda self: cuts.append(self) or real(self))
    passed_over = reached = 0
    for n in (3, 4, 5):
        R = ring(tuple(f"x{i}" for i in range(n)), p)
        for _ in range(3):
            for gens in random_monomial_ideal(R, rng):
                I = Ideal(R, gens)
                target = I.krull_dimension() - 1
                if target < 0:
                    continue
                for x in sparse_candidates(R, rng, 8):
                    if x.is_zero():
                        continue
                    before = len(cuts)
                    params._first_cut(I, [x], target)
                    if len(cuts) > before:
                        reached += 1
                    else:
                        passed_over += 1
                        assert (I + x).krull_dimension() > target
    assert passed_over and reached


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_first_cut_matches_the_uncovered_loop(p):
    """Same x, an equal cut and the same random state as the loop with no
    cover test, on monomial ideals and their moved images."""
    rng = Rng(2700 + p % 1000)
    for n in (3, 4, 5):
        R = ring(tuple(f"x{i}" for i in range(n)), p)
        for _ in range(3):
            for gens in random_monomial_ideal(R, rng):
                I = Ideal(R, gens)
                d = I.krull_dimension()
                for target in range(d):
                    seed = rng.next_int()
                    a, b = Rng(seed), Rng(seed)
                    got = params._first_cut(I, sparse_candidates(R, a, 12), target)
                    want = first_cut_uncovered(I, sparse_candidates(R, b, 12), target)
                    assert a.state == b.state
                    if want is None:
                        assert got is None
                    else:
                        assert got[0] == want[0] and got[1] == want[1]


def test_candidate_escaping_the_cover_is_accepted(plane_and_line, monkeypatch):
    """(xy, xz) lies in (x), its one cover of n - target - 1 = 1 variable:
    x is passed over with no cut built, and y + z, which escapes (x), cuts."""
    R = plane_and_line.ring
    x, y, z = R.gens()
    real = Ideal.krull_dimension
    cuts = []
    monkeypatch.setattr(Ideal, "krull_dimension", lambda self: cuts.append(self) or real(self))
    got, cut = params._first_cut(plane_and_line, [x, y + z], 1)
    assert got == y + z and cut.gens == (plane_and_line + (y + z)).gens
    assert cuts == [cut]


# -- certified deep systems -----------------------------------------------------------

def test_c_sop_on_cm_ring(R2):
    system = construct_c_sop(Ideal(R2, []), 2, seed=9)
    assert len(system) == 2
    for x in system:
        assert x.degree() >= 2 and x.is_homogeneous()
    assert is_system_of_parameters(list(system), Ideal(R2, []))
    # CM quotients have unit constraint ideals at every stage
    for stage in system.stages:
        assert stage.constraint_gens == ("1",)


def test_c_sop_searches_once_per_stage(two_planes_3d, monkeypatch):
    calls = []
    search = params.find_parameter_element

    def counted(ideal, constraint, min_degree, rng):
        calls.append(ideal)
        return search(ideal, constraint, min_degree, rng)

    monkeypatch.setattr(params, "find_parameter_element", counted)
    system = construct_c_sop(two_planes_3d, 1, seed=2)
    assert len(calls) == len(system) == 3
    assert calls[0] is two_planes_3d


def _exhausted(ideal, constraint, min_degree, rng):
    raise SearchExhausted("no parameter element found in the constraint ideal "
                          "(degrees tried: [4, 5])", [4, 5])


def test_exhausted_stage_is_named(plane_and_line, monkeypatch):
    monkeypatch.setattr(params, "find_parameter_element", _exhausted)
    with pytest.raises(SearchExhausted) as err:
        construct_c_sop(plane_and_line, 1, seed=0)
    assert str(err.value).startswith("stage 2: no parameter element found")
    assert err.value.attempted_degrees == (4, 5)


def test_c_sop_two_planes_3d(two_planes_3d):
    system = construct_c_sop(two_planes_3d, 1, seed=2)
    assert len(system) == 3
    result = index_of_reducibility(list(system), two_planes_3d)
    assert result.value == 4
    # stage certificates expose the dimension drops
    drops = [(s.dim_before, s.dim_after) for s in sorted(system.stages,
                                                         key=lambda s: -s.index)]
    assert drops == [(3, 2), (2, 1), (1, 0)]
    # the first-built element is constrained to the annihilator cube of M
    top_stage = max(system.stages, key=lambda s: s.index)
    assert top_stage.degree >= 3


def test_c_sop_plane_line(plane_and_line):
    system = construct_c_sop(plane_and_line, 1, seed=5)
    result = index_of_reducibility(list(system), plane_and_line)
    assert result.value == 2


def test_c_sop_payload_roundtrip(plane_and_line):
    system = construct_c_sop(plane_and_line, 1, seed=5)
    payload = system.to_payload()
    assert payload["method"] == "ann-product-cube"
    assert len(payload["elements"]) == 2
    assert all({"index", "degree", "seed", "dim_drop", "cube_gens"} <=
               set(st.keys()) for st in payload["stages"])


# -- index of reducibility --------------------------------------------------------------

def test_regular_sequence_is_irreducible(R2):
    x, y = R2.gens()
    result = index_of_reducibility([x, y], Ideal(R2, []))
    assert result.value == 1
    assert result.length == 1
    assert index_of_reducibility(iter([x, y]), Ideal(R2, [])) == result


def test_shallow_sop_can_dip_below_the_stable_value(plane_and_line):
    R = plane_and_line.ring
    result = index_of_reducibility([R.parse("y - x"), R.parse("z")], plane_and_line)
    assert result.value == 1
    assert result.length == 2


def test_ir_methods_agree_and_are_recorded(two_planes_origin):
    system = construct_c_sop(two_planes_origin, 1, seed=0)
    result = index_of_reducibility(list(system), two_planes_origin)
    assert result.methods["degreewise_spans"] == result.methods["kernel_intersection"]
    assert result.value == 4


def test_ir_rejects_non_sop(plane_and_line):
    R = plane_and_line.ring
    with pytest.raises(PreconditionError):
        index_of_reducibility([R.variable("y"), R.variable("z")], plane_and_line)


def test_ir_at_least_top_socle_for_deep_systems(plane_and_line, two_planes_3d,
                                                two_planes_origin):
    for I in (plane_and_line, two_planes_origin, two_planes_3d):
        s_top = socle_dimensions(Module.cyclic(I))[-1]
        system = construct_c_sop(I, 1, seed=13)
        assert index_of_reducibility(list(system), I).value >= s_top


def test_ir_bounded_by_length(plane_and_line):
    system = construct_c_sop(plane_and_line, 2, seed=1)
    result = index_of_reducibility(list(system), plane_and_line)
    assert 1 <= result.value <= result.length


# -- the two socle routes ---------------------------------------------------------------

@pytest.mark.parametrize("variables, gens, expected", [
    (("x", "y"), ["x^2", "y^2"], (1, 4)),
    (("x", "y"), ["x^2", "x*y", "y^2"], (2, 3)),
    (("x", "y", "z"), ["x^2", "y^2", "z^2"], (1, 8)),
    # generators arriving in a later degree
    (("x", "y"), ["x^2", "y^3"], (1, 6)),
    (("x", "y", "z"), ["x", "y^2", "z^3"], (1, 6)),
    # a linear generator that is no variable
    (("x", "y", "z"), ["x + y", "x^2", "z^2"], (1, 4)),
    # non-monomial: a complete intersection of two quadrics
    (("x", "y"), ["x^2 - y^2", "x*y"], (1, 4)),
    # a long quotient, ending at n(D - 1) = 699 with no degree cap
    (("t",), ["t^700"], (1, 700)),
])
def test_socle_routes_hand_counts(variables, gens, expected):
    R = ring(variables)
    polys = [R.parse(g) for g in gens]
    assert _socle_by_degreewise_spans(polys, R) == expected
    assert _socle_by_kernels(Ideal(R, polys)) == expected
    assert socle_by_full_slices(polys, R) == expected


def test_span_route_never_reaches_the_groebner_engine(monkeypatch, R3):
    x, y, z = R3.gens()
    mixed = [x * x + y * z, y * y, z * z * 3 + x * y, x * z * z]
    mixed_expected = _socle_by_kernels(Ideal(R3, mixed))

    def refuse(*args, **kwargs):
        raise AssertionError("the span route called the Groebner engine")

    monkeypatch.setattr(groebner, "module_buchberger_raw", refuse)
    monkeypatch.setattr(groebner.Ideal, "groebner", refuse)
    assert _socle_by_degreewise_spans([x * x, y * y, z * z], R3) == (1, 8)
    assert _socle_by_degreewise_spans(mixed, R3) == mixed_expected


def test_span_route_unit_ideal(R2):
    x, y = R2.gens()
    assert _socle_by_degreewise_spans([R2.one()], R2) == (0, 0)
    assert _socle_by_degreewise_spans([x * x, R2.constant(5), y], R2) == (0, 0)


def _random_monomial_artinian(R, rng):
    """Pure powers of the variables plus one to three random monomials of
    degree 2-3, and the same ideal after a random triangular change of
    coordinates (so non-monomial, with the same socle and length)."""
    n = R.nvars
    expos = [tuple(1 + rng.below(3) if j == i else 0 for j in range(n))
             for i in range(n)]
    for _ in range(1 + rng.below(3)):
        monos = monomials_of_degree(n, 2 + rng.below(2))
        expos.append(monos[rng.below(len(monos))])
    return [R.monomial(e) for e in expos], triangular_change(R, rng, expos)


def _check_kernels_exactly(monkeypatch):
    """Make every `rref_mod_p` and `nullity_mod_p` call of `params` check its
    answer against `rref_exact`; returns the per-kernel call counts.

    Both ir routes end in `nullity_mod_p`, so a kernel fault could make them
    agree on a wrong socle dimension."""
    calls = Counter()
    rref, nullity = params.rref_mod_p, params.nullity_mod_p

    def checked_rref(A, p):
        rows, pivots = rref_exact(A.tolist(), p)
        reduced, got_pivots = rref(A, p)
        assert got_pivots == pivots and reduced[:len(pivots)].tolist() == rows
        assert not reduced[len(pivots):].any()
        calls["rref"] += 1
        return reduced, got_pivots

    def checked_nullity(A, p):
        got = nullity(A, p)
        assert got == A.shape[1] - len(rref_exact(A.tolist(), p)[1])
        calls["nullity"] += 1
        return got

    monkeypatch.setattr(params, "rref_mod_p", checked_rref)
    monkeypatch.setattr(params, "nullity_mod_p", checked_nullity)
    return calls


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_socle_routes_agree_on_random_artinian_quotients(p, monkeypatch):
    calls = _check_kernels_exactly(monkeypatch)
    # y = z = w = -x in S/J, so the quadric's three terms put three products
    # of residues near p^2 on the border column x*y when p = 2^31 - 1: exact
    # only when each product is reduced before they are summed
    R = ring(("x", "y", "z", "w"), p)
    crafted = [R.parse(g) for g in ("x + y", "x + z", "x + w", "3*x^2 - y^2 - y*z - y*w", "x^3")]
    assert _socle_by_degreewise_spans(crafted, R) == socle_by_full_slices(crafted, R) == (1, 3)
    rng = Rng(p)
    for trial in range(12):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        monomial, moved = _random_monomial_artinian(R, rng)
        expected = _socle_by_kernels(Ideal(R, monomial))
        assert _socle_by_degreewise_spans(monomial, R) == expected
        assert _socle_by_degreewise_spans(moved, R) == expected
        assert _socle_by_kernels(Ideal(R, moved)) == expected
        assert socle_by_full_slices(monomial, R) == expected
        assert socle_by_full_slices(moved, R) == expected
        with monkeypatch.context() as patched:
            patched.setattr(params, "_PRODUCT_CELLS", 1)  # one monomial per product chunk
            params._SPAN_MEMO.clear()  # so every degree runs chunked, none resumed
            assert _socle_by_degreewise_spans(moved, R) == expected
    assert calls["rref"] and calls["nullity"]


@pytest.mark.parametrize("variables, gens, induced", [
    # x^2 y is no lead: its residue comes from x^2 by the step through y
    (("x", "y"), ["x^2", "y^2"], {(2, 1): {}}),
    # tails: x^2 -> y^2, and x y^2 goes through the lead x y
    (("x", "y"), ["x^2 - y^2", "x*y"], {(1, 2): {}}),
    # x^2 y -> x y^2 through the tail of x y, then x y^2 -> y^3 in turn
    (("x", "y"), ["x*y - y^2", "x^3"], {(1, 2): {(0, 3): 1}, (2, 1): {(0, 3): 1}}),
    (("x", "y"), ["x^2 + x*y", "y^3"], {(2, 1): {(1, 2): -1}}),
])
def test_border_induction_hand_cases(variables, gens, induced):
    R = ring(variables)
    J = Ideal(R, [R.parse(g) for g in gens])
    basis, maps = _multiplication_maps(J)
    assert (basis, maps) == multiplication_maps_by_normal_forms(J)
    index = {m: i for i, m in enumerate(basis)}
    for b, form in induced.items():
        assert b not in index and b not in J.groebner().leads
        v = next(v for v in range(R.nvars) if b[v] and b[:v] + (b[v] - 1,) + b[v + 1:] in index)
        j = index[b[:v] + (b[v] - 1,) + b[v + 1:]]
        assert maps[v][j] == {index[m]: c % R.p for m, c in form.items()}
    assert _socle_by_kernels(J) == socle_by_normal_forms(J)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_border_induction_matches_normal_forms(p):
    rng = Rng(p)
    for trial in range(12):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        for gens in _random_monomial_artinian(R, rng):
            J = Ideal(R, gens)
            assert _multiplication_maps(J) == multiplication_maps_by_normal_forms(J)
            assert _socle_by_kernels(J) == socle_by_normal_forms(J)


def test_kernel_route_makes_no_normal_form(monkeypatch, two_planes_origin):
    quotients = [construct_c_sop(two_planes_origin, k, seed=0).cut[2] for k in (1, 2)]
    R = ring(("x", "y", "z"), 32003)
    quotients.append(Ideal(R, _random_monomial_artinian(R, Rng(5))[1]))
    expected = [socle_by_normal_forms(J) for J in quotients]

    def refuse(*args, **kwargs):
        raise AssertionError("the kernel route reduced a polynomial")

    monkeypatch.setattr(groebner.GroebnerBasis, "normal_form", refuse)
    assert [_socle_by_kernels(J) for J in quotients] == expected


def test_span_route_eliminates_on_border_columns_only(monkeypatch, two_planes_origin):
    # degree e eliminates on the monomials x_v s, s standard of degree e: at
    # most n q_e columns, and the pivots of all degrees add up to at most
    # n times the length (the full slice J_{e+1} has dim S_{e+1} columns)
    quotients = [construct_c_sop(two_planes_origin, k, seed=0).cut[2] for k in (1, 2)]
    rng = Rng(7)
    for trial in range(4):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3])
        quotients.append(Ideal(R, _random_monomial_artinian(R, rng)[1]))
    shapes = []
    rref = params.rref_mod_p

    def recording(A, p):
        reduced, pivots = rref(A, p)
        shapes.append((A.shape[1], len(pivots)))
        return reduced, pivots

    monkeypatch.setattr(params, "rref_mod_p", recording)
    for J in quotients:
        n = J.ring.nvars
        hilbert = Counter(sum(m) for m in J.standard_monomials())
        shapes.clear()
        params._SPAN_MEMO.clear()  # a resumed call skips the degrees it shares
        _, length = _socle_by_degreewise_spans(J.gens, J.ring)
        assert length == sum(hilbert.values())
        assert sum(pivots for _, pivots in shapes) <= n * length
        for e, (columns, _) in enumerate(shapes):
            assert columns <= n * hilbert[e], (e, columns, hilbert)
        assert len(shapes) == len(hilbert)  # one elimination per degree of S/J


# I = (xy - z^2, yz) cuts out the x- and y-axes, a curve, so one cubic more
# can make it Artinian.
_SPAN_BASE = ("x*y - z^2", "y*z")
_OTHER_PRIME = {2: 3, 3: 2, 32003: 2**31 - 1, 2**31 - 1: 32003}


def _cubic(R, rng, low):
    """A random cubic form f of R with low + (f) Artinian."""
    while True:
        f = Poly(R, {m: c for m in monomials_of_degree(R.nvars, 3) if (c := rng.below(R.p))})
        if Ideal(R, low + [f]).krull_dimension() == 0:
            return f


def _steps(calls, gens, R):
    """(result, degree steps computed) of one span-route call: the route
    makes one `rref_mod_p` call per degree step it does not resume."""
    before = calls["rref"]
    result = _socle_by_degreewise_spans(gens, R)
    return result, calls["rref"] - before


def _cold(calls, gens, R):
    params._SPAN_MEMO.clear()
    return _steps(calls, gens, R)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_span_route_resumes_below_the_top_degree(p, monkeypatch):
    calls = _check_kernels_exactly(monkeypatch)
    R = ring(("x", "y", "z"), p)
    base = [R.parse(g) for g in _SPAN_BASE]
    rng = Rng(2800 + p % 97)
    for _ in range(3):
        f, g = _cubic(R, rng, base), _cubic(R, rng, base)
        want, cold = _cold(calls, base + [g], R)
        assert want == socle_by_full_slices(base + [g], R)
        _cold(calls, base + [f], R)
        # steps 0 and 1 depend on the generators of degree <= 2 only, I's
        assert _steps(calls, base + [g], R) == (want, cold - 2)
        assert _steps(calls, [g] + base[::-1], R) == (want, cold - 2)  # order free
        # the memo holds that one call's states below degree 3, read-only
        (key, states), = params._SPAN_MEMO.items()
        assert key == (3, p) and len(states) == 2
        assert not any(a.flags.writeable for state in states for a in state[3:])


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_span_route_resumes_only_on_the_same_low_degrees(p, monkeypatch):
    calls = _check_kernels_exactly(monkeypatch)
    R = ring(("x", "y", "z"), p)
    base = [R.parse(g) for g in _SPAN_BASE]
    rng = Rng(2900 + p % 97)
    f, g = _cubic(R, rng, base), _cubic(R, rng, base)
    # another prime, the same term tuples: a monomial base and 0/1 cubics
    R_other = ring(("x", "y", "z"), _OTHER_PRIME[p])
    cubes = [R.parse("x^3 + y^3 + z^3"), R_other.parse("x^3 + y^3 + z^3")]
    monomial = [[Q.parse("x*y"), Q.parse("y*z"), Q.parse("z^2"), c]
                for Q, c in zip((R, R_other), cubes)]
    _cold(calls, monomial[0], R)
    assert _steps(calls, monomial[1], R_other) == _cold(calls, monomial[1], R_other)
    # another number of variables
    R4 = ring(("x", "y", "z", "w"), p)
    lifted = [Poly(R4, {m + (0,): c for m, c in h.terms.items()}) for h in base + [g]]
    _cold(calls, base + [f], R)
    assert _steps(calls, lifted + [R4.parse("w")], R4) == \
        _cold(calls, lifted + [R4.parse("w")], R4)
    # an extra linear form changes every step; a changed quadric coefficient
    # leaves step 0 (no generator of degree <= 1) shared.  At p = 2 the only
    # other coefficient of z^2 is 0, which leaves a plane, so there the
    # coefficient of xz changes from 0 to 1.
    x, y, z = R.gens()
    changed = [x * y - z * z * 2 if p > 2 else x * y - z * z + x * z, y * z]
    for gens, shared in ((base + [x + y + z, g], 0), (changed + [_cubic(R, rng, changed)], 1)):
        want, cold = _cold(calls, gens, R)
        assert want == socle_by_full_slices(gens, R)
        _cold(calls, base + [f], R)
        assert _steps(calls, gens, R) == (want, cold - shared)


def test_span_route_failure_keeps_the_memo(monkeypatch):
    R = ring(("x", "y", "z"), 32003)
    base = [R.parse(g) for g in _SPAN_BASE]
    rng = Rng(3000)
    f, g = _cubic(R, rng, base), _cubic(R, rng, base)
    _socle_by_degreewise_spans(base + [f], R)
    states = params._SPAN_MEMO[3, 32003]
    # S = k[t] with no generator passes the e > 600 guard
    with pytest.raises(PreconditionError, match="diverged"):
        _socle_by_degreewise_spans([], ring(("t",), 32003))
    assert list(params._SPAN_MEMO) == [(3, 32003)] and params._SPAN_MEMO[3, 32003] is states
    # a same-ring call that raises after resuming its first two steps
    step = params._span_step

    def failing(n, p, e, *args):
        if e == 2:
            raise ArithmeticError("injected")
        return step(n, p, e, *args)

    with monkeypatch.context() as patched:
        patched.setattr(params, "_span_step", failing)
        with pytest.raises(ArithmeticError):
            _socle_by_degreewise_spans(base + [g], R)
    assert list(params._SPAN_MEMO) == [(3, 32003)] and params._SPAN_MEMO[3, 32003] is states
    calls = _check_kernels_exactly(monkeypatch)
    want, cold = _cold(calls, base + [g], R)
    params._SPAN_MEMO[3, 32003] = states
    assert _steps(calls, base + [g], R) == (want, cold - 2)


# -- d-sequences ---------------------------------------------------------------------------

def test_regular_sequence_is_a_d_sequence(R3):
    ok, witness = is_d_sequence(list(R3.gens()), Ideal(R3, []))
    assert ok and witness is None


def test_constructed_systems_are_d_sequences(plane_and_line, two_planes_origin):
    for I in (plane_and_line, two_planes_origin):
        system = construct_c_sop(I, 1, seed=3)
        ok, witness = is_d_sequence(list(system), I)
        assert ok, witness


def test_d_sequence_violation_has_witness(R2):
    x, y = R2.gens()
    # (x^2, x*y): ((x^2) : x^2 y^2) is everything while ((x^2) : x*y) = (x)
    bad_ok, bad_witness = is_d_sequence([x * x, x * y], Ideal(R2, []))
    assert not bad_ok
    assert bad_witness == (1, 2)


# -- certified-system properties ---------------------------------------------------------------

def test_power_perturbation_keeps_ir(plane_and_line):
    system = construct_c_sop(plane_and_line, 1, seed=8)
    base = index_of_reducibility(list(system), plane_and_line).value
    rng = Rng(21)
    for _ in range(3):
        powers = [1 + rng.below(2) for _ in system.elements]
        perturbed = [x ** k for x, k in zip(system.elements, powers)]
        assert is_system_of_parameters(perturbed, plane_and_line)
        assert index_of_reducibility(perturbed, plane_and_line).value == base


def test_deep_and_sampled_systems_compute_no_basis_twice(two_planes_origin, monkeypatch):
    # each cut ideal and Artinian quotient is handed on with its basis, so
    # within one run no generator set of a proper ideal goes through
    # Buchberger a second time
    from irlab.stable import limit_profile, stability_suite

    original = groebner.buchberger
    for run in (stability_suite, lambda I: limit_profile(I, n_max=2, samples_per_n=5)):
        runs = Counter()

        def counting(gens):
            gb = original(gens)
            if not gb.is_unit_ideal():
                runs[frozenset(gens)] += 1
            return gb

        monkeypatch.setattr(groebner, "buchberger", counting)
        monkeypatch.setattr(modules, "_CYCLIC_CACHE", {})
        run(Ideal(two_planes_origin.ring, two_planes_origin.gens))  # no cached bases
        assert runs
        assert [sorted(map(str, gens)) for gens, n in runs.items() if n > 1] == []


def test_drop_last_element_recursion(two_planes_origin):
    """Dropping the last element passes to the quotient with the same ir."""
    from irlab.cohomology import annihilator_data

    I = two_planes_origin
    system = construct_c_sop(I, 1, seed=6)
    elems = list(system)
    full = index_of_reducibility(elems, I).value
    quotient = I + elems[-1]
    rest = elems[:-1]
    assert is_system_of_parameters(rest, quotient)
    assert index_of_reducibility(rest, quotient).value == full
    # re-certify from scratch: each remaining element still sits in the cube
    # ideal of its stage quotient (the stage quotients are unchanged)
    current = quotient
    for i in range(len(rest), 0, -1):
        cube = annihilator_data(Module.cyclic(current)).product.power(3)
        assert cube.contains(rest[i - 1])
        current = current + rest[i - 1]
