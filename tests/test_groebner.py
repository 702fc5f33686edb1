import pytest
from oracles import (_vkey, membership_bruteforce, module_buchberger_tuples,
                     normal_form_tuples, quotient_dimension_bruteforce,
                     random_monomial_ideal, standard_levels_by_filter,
                     tagged_projection)

from irlab.cohomology import _sum_of_variables_saturation
from irlab.errors import NotArtinianError, PreconditionError, ResourceBudgetExceeded
from irlab.groebner import (_B, GroebnerBasis, Ideal, _divides, _file_reducer, _layout, _lift,
                            _normal_form, buchberger, maximal_ideal, module_buchberger_raw,
                            standard_levels, syzygies_raw, unit_ideal, vector_colon)
from irlab.modules import Module
from irlab.params import Rng
from irlab.ring import Poly, grevlex_key, monomials_of_degree, ring


def random_homogeneous(R, rng, degree):
    from irlab.ring import monomials_of_degree
    f = R.zero()
    for m in monomials_of_degree(R.nvars, degree):
        c = rng.below(R.p)
        if c and rng.below(2):
            f = f + R.monomial(m, c)
    return f


def module_normal_form(R, basis, f):
    """Remainder of raw vector f by the raw reduced basis, in the packed engine."""
    L = _layout(R.nvars)
    by_pos = {}
    for g in map(L.pack_vec, basis):
        _file_reducer(by_pos, L, next(iter(g)), g)
    return L.unpack_vec(_normal_form(L.pack_vec(f), by_pos, L, R.p))


# -- buchberger -----------------------------------------------------------------

def test_monomial_ideal_is_its_own_basis(R3):
    x, y, z = R3.gens()
    gb = Ideal(R3, [x * y, x * z]).groebner()
    assert {str(g) for g in gb.elements} == {"x*y", "x*z"}


def test_linear_elimination(R3):
    x, y, _ = R3.gens()
    gb = Ideal(R3, [x + y, x - y]).groebner()
    assert {str(g) for g in gb.elements} == {"x", "y"}


def test_collapsed_quotient_standard_monomials(R3):
    # z = 0 and y = x identified force a 2-dimensional quotient algebra
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y, x * z, y - x, z])
    basis = I.standard_monomials()
    assert len(basis) == 2
    assert (0, 0, 0) in basis
    (other,) = [m for m in basis if sum(m) == 1]
    assert sum(other) == 1  # one linear monomial survives; x and y are identified
    assert I.contains(x - y)
    # brute force linear algebra in degrees <= 3 agrees with the count
    assert quotient_dimension_bruteforce(I.gens, R3, 3) == 2


def test_every_generator_reduces_to_zero(R3):
    rng = Rng(11)
    for _ in range(10):
        gens = [random_homogeneous(R3, rng, 1 + rng.below(3)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(R3, gens)
        gb = I.groebner()
        for g in gens:
            assert gb.contains(g)


def test_spolynomials_reduce_to_zero(R3):
    rng = Rng(12)
    for _ in range(6):
        gens = [random_homogeneous(R3, rng, 1 + rng.below(3)) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = Ideal(R3, gens).groebner()
        elems = list(gb.elements)
        p = R3.p
        for i in range(len(elems)):
            for j in range(i + 1, len(elems)):
                li, lj = gb.leads[i], gb.leads[j]
                lcm = tuple(max(a, b) for a, b in zip(li, lj))
                s = elems[i].term_mul(tuple(a - b for a, b in zip(lcm, li)), 1) \
                    - elems[j].term_mul(tuple(a - b for a, b in zip(lcm, lj)), 1)
                assert gb.normal_form(s).is_zero()


def test_reduced_basis_unique_under_permutation(R3):
    x, y, z = R3.gens()
    gens = [x * y - z * z, x * z + y * y, y * z - x * x]
    a = Ideal(R3, gens).groebner()
    b = Ideal(R3, list(reversed(gens))).groebner()
    assert [g.terms for g in a.elements] == [g.terms for g in b.elements]


def test_budget_guard(R3, monkeypatch):
    x, y, z = R3.gens()
    gens = [x ** 3 - y * z * z, y ** 3 - x * z * z, z ** 3 - x * y * y]
    vecs = [{(0, m): c for m, c in g.terms.items()} | {(1, (0, 0, 0)): 1} for g in gens]
    monkeypatch.setenv("IRLAB_BUDGET", "1")
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(gens)
    with pytest.raises(ResourceBudgetExceeded):
        module_buchberger_raw(vecs, R3.p)
    with pytest.raises(ResourceBudgetExceeded):
        Ideal(R3, gens).groebner()



# -- packed terms against the tuple engine ------------------------------------------

PRIMES = (2, 3, 32003, 2**31 - 1)


def random_terms(rng, n, count, top):
    """(position, exponent) terms with positions 0-2 and exponents up to `top`,
    degrees at most B."""
    out = []
    while len(out) < count:
        m = tuple(rng.below(top + 1) for _ in range(n))
        if sum(m) <= _B:
            out.append((rng.below(3), m))
    return out


@pytest.mark.parametrize("top", [3, 2**20, _B])
def test_packed_terms_round_trip_order_and_divide(top):
    rng = Rng(11 + top)
    for n in range(1, 7):
        L = _layout(n)
        terms = random_terms(rng, n, 40, top)
        # A few near neighbours so that ties and unit steps are compared too.
        terms += [(pos, m[:-1] + (max(m[-1] - 1, 0),)) for pos, m in terms[:10]]
        packed = [L.pack(t) for t in terms]
        assert [L.unpack(t) for t in packed] == terms
        assert sorted(terms, key=_vkey) == [L.unpack(t) for t in sorted(packed)]
        for a, pa in zip(terms, packed):
            for b, pb in zip(terms, packed):
                assert L.divides(pa, pb) == (a[0] == b[0] and _divides(a[1], b[1]))
        # A product is one addition, as long as every degree stays within B.
        for (pos, m), t in zip(terms[:10], packed):
            zero = L.pack((0, (0,) * n))
            for _, a in terms[10:20]:
                if sum(m) + sum(a) <= _B:
                    assert L.unpack(t + L.pack((0, a)) - zero) == \
                        (pos, tuple(x + y for x, y in zip(m, a)))


def random_raw_vector(rng, n, rank, p, degree, homogeneous):
    """A dense raw vector: every monomial of the degree(s) in every position,
    each with probability 3/4 and a random coefficient."""
    degrees = [degree] if homogeneous else range(degree + 1)
    vec = {}
    for pos in range(rank):
        for d in degrees:
            for m in monomials_of_degree(n, d):
                c = rng.below(p)
                if c and rng.below(4):
                    vec[(pos, m)] = c
    return vec


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_packed_engine_matches_tuple_oracle(p, rank):
    """Bases and remainders equal the tuple engine's, term order included;
    rank 1 reduces through GroebnerBasis."""
    rng = Rng(100 * rank + p % 97)
    for n in range(2, 7):
        R = ring(tuple(f"x{i}" for i in range(n)), p)
        for trial in range(2):
            homogeneous = trial == 0
            # Quadrics only where the bases stay small.
            degree = 1 + (n <= 4 if homogeneous else rank == 1) * rng.below(2)
            count = rank + 1 + rng.below(2)
            vecs = [random_raw_vector(rng, n, rank, p, degree, homogeneous)
                    for _ in range(count)]
            want = module_buchberger_tuples(vecs, p)
            got = module_buchberger_raw(vecs, p)
            assert [list(g.items()) for g in got] == [list(g.items()) for g in want]
            # Each vector comes lead first, as GroebnerBasis reads it.
            assert all(next(iter(g)) == max(g, key=_vkey) for g in got)
            gb = GroebnerBasis(R, got) if rank == 1 else None
            for _ in range(3):
                f = random_raw_vector(rng, n, rank, p, degree + 1, homogeneous)
                rem = list(normal_form_tuples(f, got, p).items())
                if gb is None:
                    assert list(module_normal_form(R, got, f).items()) == rem
                else:
                    nf = gb.normal_form(Poly(R, {m: c for (_, m), c in f.items()}))
                    assert [((0, m), c) for m, c in nf.terms.items()] == rem


def test_packed_engine_matches_tuple_oracle_on_syzygies(R4):
    """The graph vectors of a syzygy run, monomial and moved, as rank grows."""
    p = R4.p
    rng = Rng(41)
    for _ in range(4):
        for gens in random_monomial_ideal(R4, rng):
            vecs = [{(0, m): c for m, c in g.terms.items()} | {(1 + i, (0,) * 4): 1}
                    for i, g in enumerate(gens)]
            got = module_buchberger_raw(vecs, p)
            assert [list(g.items()) for g in got] == \
                [list(g.items()) for g in module_buchberger_tuples(vecs, p)]


def test_exponent_past_the_field_fails_closed(R3):
    """No degree above B enters a packed field: not from the input, not from an
    S-polynomial, not from a reduction step."""
    p = R3.p
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_buchberger_raw([{(0, (_B + 1, 0, 0)): 1}], p)
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_buchberger_raw([{(0, (_B, 1, 0)): 1, (0, (0, 0, _B + 1)): 1}], p)
    # x^(B-1) z and z^2 share z: their lcm has degree B + 1, and z times the
    # tail z^B would not fit its field.
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_buchberger_raw([{(0, (_B - 1, 0, 1)): 1, (0, (0, 0, _B)): 1},
                               {(0, (0, 0, 2)): 1}], p)
    # Degree B itself is fine: x^B + z^B and y^B + 2 z^B are a reduced basis.
    vecs = [{(0, (_B, 0, 0)): 1, (0, (0, 0, _B)): 1}, {(0, (0, _B, 0)): 1, (0, (0, 0, _B)): 2}]
    assert module_buchberger_raw(vecs, p) == module_buchberger_tuples(vecs, p) == vecs[::-1]
    # x e_0 + y^B e_1: reducing x^2 e_0 would bring in x y^B e_1, in a
    # remainder and in the S-polynomial of a run.
    basis = [{(0, (1, 0, 0)): 1, (1, (0, _B, 0)): 1}]
    assert module_normal_form(R3, basis, {(0, (1, 0, 0)): 1}) == {(1, (0, _B, 0)): p - 1}
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_normal_form(R3, basis, {(0, (2, 0, 0)): 1})
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_normal_form(R3, basis, {(1, (0, 0, _B + 1)): 1})
    with pytest.raises(ResourceBudgetExceeded, match="32-bit"):
        module_buchberger_raw(basis + [{(0, (2, 0, 0)): 1}], p)


# -- normal form ------------------------------------------------------------------

def test_normal_form_member(R3):
    x, y, z = R3.gens()
    gb = Ideal(R3, [x * y, x * z]).groebner()
    assert gb.normal_form(x * y * z).is_zero()


def test_normal_form_standard_monomial(R3):
    x, y, z = R3.gens()
    gb = Ideal(R3, [x * y, x * z]).groebner()
    assert gb.normal_form(x) == x


def test_normal_form_single_step(R3):
    x, y, z = R3.gens()
    gb = Ideal(R3, [x * y, x * z]).groebner()
    assert gb.normal_form(y * x + z) == z


def test_normal_form_is_membership_test(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * x - y * z, y * y - x * z])
    f = (x * x - y * z) * y + (y * y - x * z) * (x + z)
    assert I.contains(f)
    assert not I.contains(x)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def test_normal_form_is_reduced_and_canonical(R3):
    x, y, z = R3.gens()
    gens = [x * x - y * z, y * y - x * z]
    gb = buchberger(gens)
    assert gb.leads == tuple(max(g.terms, key=grevlex_key) for g in gb.elements)
    rng = Rng(5)
    for _ in range(8):
        deg = 2 + rng.below(3)
        f = random_homogeneous(R3, rng, deg)
        nf = gb.normal_form(f)
        # f - NF(f) lies in I by plain linear algebra, with no Groebner basis.
        assert membership_bruteforce(f - nf, gens, deg)
        assert not any(_divides(lm, m) for lm in gb.leads for m in nf.terms)
        h = random_homogeneous(R3, rng, deg - 2)
        for g in gens:
            assert gb.normal_form(f + h * g) == nf


def test_module_normal_form_rank_two(R3):
    p = R3.p
    vecs = [
        {(0, (2, 0, 0)): 1, (0, (0, 1, 1)): p - 1, (1, (1, 0, 0)): 3},
        {(0, (0, 2, 0)): 1, (1, (0, 0, 1)): 5},
        {(1, (0, 1, 0)): 1, (1, (0, 0, 1)): 2},
    ]
    gb = module_buchberger_raw(vecs, p)
    leads = [next(iter(g)) for g in gb]
    rng = Rng(9)
    for _ in range(6):
        f = {(rng.below(2), tuple(rng.below(3) for _ in range(3))): 1 + rng.below(p - 1)
             for _ in range(5)}
        nf = module_normal_form(R3, gb, f)
        # Terms come out descending in position-over-term, lead first.
        assert list(nf) == sorted(nf, key=lambda t: (-t[0], grevlex_key(t[1])),
                                  reverse=True)
        assert not any(q == pos and _divides(lm, m)
                       for q, lm in leads for pos, m in nf)
        # f - NF(f) is a member, and adding a multiple of a generator is invisible.
        diff = dict(f)
        for t, c in nf.items():
            diff[t] = (diff.get(t, 0) - c) % p
        assert not module_normal_form(R3, gb, {t: c for t, c in diff.items() if c})
        shift = tuple(rng.below(2) for _ in range(3))
        for v in vecs:
            g = dict(f)
            for (pos, m), c in v.items():
                t = (pos, tuple(a + b for a, b in zip(m, shift)))
                g[t] = (g.get(t, 0) + 7 * c) % p
            assert module_normal_form(R3, gb, {t: c for t, c in g.items() if c}) == nf


# -- ideal operations --------------------------------------------------------------

def test_intersection_of_two_planes_pairs(R5):
    a, b, c, d, e = R5.gens()
    got = Ideal(R5, [a, b]).intersect(Ideal(R5, [c, d]))
    want = Ideal(R5, [a * c, a * d, b * c, b * d])
    assert got == want


def test_colon_recovers_residual(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * y, x * z])
    got = I.colon_element(x)
    assert got == Ideal(R3, [y, z])
    # definitional: y*x and z*x are members, and brute-force containment agrees
    assert I.contains(y * x) and I.contains(z * x)
    for g in got.gens:
        assert membership_bruteforce(g * x, list(I.gens), 4)


def test_colon_by_ideal_matches_elementwise_intersection(R3):
    rng = Rng(31)
    for _ in range(5):
        I = Ideal(R3, [random_homogeneous(R3, rng, 2) for _ in range(2)])
        J = Ideal(R3, [random_homogeneous(R3, rng, 1) for _ in range(2)])
        if I.is_zero() or J.is_zero():
            continue
        one_shot = I.colon(J)
        stepwise = None
        for g in J.gens:
            q = I.colon_element(g)
            stepwise = q if stepwise is None else stepwise.intersect(q)
        assert one_shot == stepwise


def test_sum_with_zero_is_identity(R3):
    x, y, _ = R3.gens()
    A = Ideal(R3, [x * y])
    assert A + Ideal(R3, []) == A


def test_intersection_contains_product_and_sits_in_both(R3):
    rng = Rng(41)
    for _ in range(8):
        A = Ideal(R3, [random_homogeneous(R3, rng, 1 + rng.below(2)) for _ in range(2)])
        B = Ideal(R3, [random_homogeneous(R3, rng, 1 + rng.below(2)) for _ in range(2)])
        if A.is_zero() or B.is_zero():
            continue
        inter = A.intersect(B)
        for g in inter.gens:
            assert A.contains(g) and B.contains(g)
        for g in A.product(B).gens:
            assert inter.contains(g)


def test_intersection_dimension_inclusion_exclusion(R3):
    # dim (S/(A n B))_d = dim (S/A)_d + dim (S/B)_d - dim (S/(A+B))_d, with every
    # dimension counted by linear algebra in degrees <= 4, no Groebner basis.
    rng = Rng(43)
    checked = 0
    while checked < 6:
        A = Ideal(R3, [random_homogeneous(R3, rng, 1 + rng.below(2)) for _ in range(2)])
        B = Ideal(R3, [random_homogeneous(R3, rng, 1 + rng.below(2)) for _ in range(2)])
        if A.is_zero() or B.is_zero():
            continue
        inter = A.intersect(B)
        for g in inter.gens:
            assert A.contains(g) and B.contains(g)
        for d in range(5):
            want = (quotient_dimension_bruteforce(A.gens, R3, d)
                    + quotient_dimension_bruteforce(B.gens, R3, d)
                    - quotient_dimension_bruteforce(A.gens + B.gens, R3, d))
            assert quotient_dimension_bruteforce(inter.gens, R3, d) == want
        checked += 1


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_colons_and_intersections_come_out_as_reduced_bases(p):
    # Each route projects a position-over-term basis onto its leading
    # coordinate, which leaves the reduced grevlex basis of the result, in the
    # order and with the term order that `groebner()` produces.
    rng = Rng(p + 5)
    R = ring(("x", "y", "z"), p)

    def rand_vec(degree):
        return {(pos, m): c for pos in range(2)
                for m, c in random_homogeneous(R, rng, degree).terms.items()}

    for _ in range(6):
        I = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(3)) for _ in range(3)])
        J = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(2)) for _ in range(2)])
        f = random_homogeneous(R, rng, 1 + rng.below(2))
        M = Module(R, (0, 0), [rand_vec(1 + rng.below(2)) for _ in range(3)])
        for X in (I.colon(J), I.colon_element(f), I.intersect(J), M.annihilator()):
            assert [list(g.terms.items()) for g in X.gens] \
                == [list(g.terms.items()) for g in X.groebner().elements]


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_nary_intersection_matches_chained_binary(p):
    # one block colon of e_0 + ... + e_k against I_0 e_0 (+) ... (+) I_k e_k
    # against k binary intersections, basis for basis
    rng = Rng(p + 31)
    R = ring(("x", "y", "z"), p)
    for trial in range(8):
        ideals = [Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(2))
                            for _ in range(1 + rng.below(3))])
                  for _ in range(2 + trial % 3)]
        chained = ideals[0]
        for J in ideals[1:]:
            chained = chained.intersect(J)
        got = ideals[0].intersect(*ideals[1:])
        assert [g.terms for g in got.gens] == [g.terms for g in chained.gens]
        assert got.intersect().gens == got.gens


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_vector_colon_of_no_vectors_is_the_unit_ideal(p):
    R = ring(("x", "y"), p)
    for rels, rank in (([], 1), ([{(0, (1, 0)): 1}, {(1, (0, 1)): 1}], 2)):
        got = vector_colon([], rels, rank, R)
        assert got.is_unit() and got.gens == (R.one(),)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_colon_skips_generators_the_ideal_contains(p):
    # I : g = S for g in I, so I : J = I : (J + I) = the intersection of the
    # element colons, and I : I is the unit ideal
    rng = Rng(p + 23)
    R = ring(("x", "y", "z"), p)
    for _ in range(6):
        I = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(3)) for _ in range(3)])
        J = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(2)) for _ in range(2)])
        if I.is_zero() or J.is_zero():
            continue
        got = I.colon(J)
        assert got == I.colon(J + I)
        stepwise = None
        for g in J.gens:
            q = I.colon_element(g)
            stepwise = q if stepwise is None else stepwise.intersect(q)
        assert got == stepwise
        assert I.colon(I).is_unit()


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_colon_results_carry_their_reduced_basis(p):
    # the basis a colon, an intersection or an annihilator is born with is the
    # one a fresh Buchberger run on its generators produces, term for term
    rng = Rng(p + 7)
    R = ring(("x", "y", "z"), p)

    def rand_vec(degree):
        return {(pos, m): c for pos in range(2)
                for m, c in random_homogeneous(R, rng, degree).terms.items()}

    def terms(gb):
        return [list(g.terms.items()) for g in gb.elements]

    for _ in range(6):
        I = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(3)) for _ in range(3)])
        J = Ideal(R, [random_homogeneous(R, rng, 1 + rng.below(2)) for _ in range(2)])
        f = random_homogeneous(R, rng, 1 + rng.below(2))
        M = Module(R, (0, 0), [rand_vec(1 + rng.below(2)) for _ in range(3)])
        for X in (I.colon(J), I.colon_element(f), I.intersect(J), M.annihilator()):
            assert X._gb is not None
            if X.gens:
                fresh = buchberger(X.gens)
                assert terms(X._gb) == terms(fresh) and X._gb.leads == fresh.leads
            else:
                assert not X._gb.elements


def test_saturation_stabilizes(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x * x * y, x * x * z])
    sat = I.saturation(x)
    assert sat == Ideal(R3, [y, z])


def test_saturation_by_an_element_asks_no_unit_check(R3, monkeypatch):
    # a constant generator alone marks the unit ideal up front; any other
    # unit ideal stops at its first colon, and I comes back as itself
    def refuse(self):
        raise AssertionError("saturation ran a Groebner unit check")

    x, y, z = R3.gens()
    I = Ideal(R3, [x * x * y, x * x * z])
    monkeypatch.setattr(Ideal, "is_unit", refuse)
    assert I.saturation(x) == Ideal(R3, [y, z])
    assert I.saturation(Ideal(R3, [x, x - R3.one()])) is I


def _sum_of_variables(R):
    ell = R.zero()
    for x in R.gens():
        ell = ell + x
    return ell


def test_saturation_by_the_unit_ideal_runs_no_colon(R3, monkeypatch):
    # I : S^infinity = I, returned as the object itself
    def refuse(*args, **kwargs):
        raise AssertionError("saturation by S ran a colon")

    x, y, z = R3.gens()
    I = Ideal(R3, [x * x * y, x * x * z])
    monkeypatch.setattr(Ideal, "colon", refuse)
    assert I.saturation(unit_ideal(R3)) is I
    assert I.saturation(R3.one()) is I


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_depth_certificate_matches_full_saturation(p):
    # K = I : l^infinity for l = x_1 + ... + x_n comes back as I itself exactly
    # when l is regular on S/I, and it is the saturation at m whenever I : K is
    # m-primary or the unit ideal, the case the H^0 slot reads it in.
    rng = Rng(p + 11)
    fired = declined = read = 0
    for trial in range(16):
        R = ring(("x", "y", "z", "w")[:2 + trial % 3], p)
        ell = _sum_of_variables(R)
        for gens in random_monomial_ideal(R, rng):
            I = Ideal(R, gens)
            K = _sum_of_variables_saturation(I)
            regular = K is I
            assert regular == (I.colon(ell) == I)
            assert K == Ideal(R, gens).saturation(ell)
            A = I.colon(K)
            if A.is_unit() or A.krull_dimension() == 0:
                assert K == Ideal(R, gens).saturation(maximal_ideal(R))
                read += not regular
            fired += regular
            declined += not regular
    assert fired and declined and read


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_depth_certificate_hand_cases(p):
    R = ring(("x", "y"), p)
    x, y = R.gens()
    m = maximal_ideal(R)
    # depth S/(x + y) = 1, but l = x + y lies in the associated prime: the
    # certificate must decline with K = S, and I : K = I is not m-primary
    line = Ideal(R, [x + y])
    K = _sum_of_variables_saturation(line)
    assert K.is_unit() and line.colon(K) == line
    assert line.saturation(m) is line
    # depth 0: K for (x^2, xy) is (x), I : K = m, so K is the saturation
    fat = Ideal(R, [x * x, x * y])
    K = _sum_of_variables_saturation(fat)
    assert fat.colon(K) == m
    assert K == Ideal(R, [x]) == fat.saturation(m)
    # the zero ideal and a regular linear section are certified
    for I in (Ideal(R, []), Ideal(R, [x])):
        assert _sum_of_variables_saturation(I) is I
        assert I.saturation(m) is I


# -- dimension ----------------------------------------------------------------------

def test_dimension_plane_and_line(plane_and_line):
    assert plane_and_line.krull_dimension() == 2


def test_dimension_two_planes_3d(two_planes_3d):
    assert two_planes_3d.krull_dimension() == 3


def test_dimension_zero_ideal(R3):
    assert Ideal(R3, []).krull_dimension() == 3


def test_dimension_unit_ideal(R3):
    assert unit_ideal(R3).krull_dimension() == -1


def test_dimension_is_initial_ideal_invariant(R3):
    # dimension only depends on the lead terms: recompute from the initial ideal
    rng = Rng(77)
    checked = 0
    while checked < 50:
        gens = [random_homogeneous(R3, rng, 1 + rng.below(3)) for _ in range(2)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        I = Ideal(R3, gens)
        gb = I.groebner()
        initial = Ideal(R3, [R3.monomial(m) for m in gb.leads])
        assert I.krull_dimension() == initial.krull_dimension()
        checked += 1


# -- standard monomials ----------------------------------------------------------------

def test_standard_monomials_complete_intersection(R2):
    x, y = R2.gens()
    I = Ideal(R2, [x * x, y])
    assert I.standard_monomials() == [(0, 0), (1, 0)]


def test_standard_monomials_not_artinian(R2):
    x, _ = R2.gens()
    with pytest.raises(NotArtinianError):
        Ideal(R2, [x]).standard_monomials()


def test_standard_monomials_with_bound(R2):
    x, _ = R2.gens()
    got = Ideal(R2, [x]).standard_monomials(degree_bound=2)
    assert got == [(0, 0), (0, 1), (0, 2)]


def test_standard_monomials_degree_bound_zero(R2):
    x, y = R2.gens()
    assert Ideal(R2, [x]).standard_monomials(degree_bound=0) == [(0, 0)]
    assert Ideal(R2, [x, y]).standard_monomials(degree_bound=0) == [(0, 0)]
    assert Ideal(R2, [R2.one()]).standard_monomials(degree_bound=0) == []


@pytest.mark.parametrize("artinian", [False, True], ids=["top=5", "top=None"])
def test_standard_levels_match_degreewise_filter(artinian):
    rng = Rng(23)
    for trial in range(40):
        n = 1 + rng.below(4)
        leads = [tuple(rng.below(4) for _ in range(n)) for _ in range(rng.below(5))]
        leads = [m for m in leads if any(m)]
        if artinian:
            leads += [tuple(1 + rng.below(4) if j == i else 0 for j in range(n))
                      for i in range(n)]
        top = None if artinian else 5
        got = dict(standard_levels(leads, n, top))
        assert got == dict(standard_levels_by_filter(leads, n, top)), (n, leads)


@pytest.mark.parametrize("top", [0, 1, None])
def test_standard_levels_closure_matches_the_filter_oracle(top):
    rng = Rng(29 + (top or 7))
    for trial in range(60):
        n = 1 + trial % 4
        leads = [tuple(rng.below(4) for _ in range(n)) for _ in range(rng.below(5))]
        # redundant multiples and duplicates of the leads drawn so far
        for m in list(leads):
            if rng.below(2):
                leads.append(m)
            if rng.below(2):
                leads.append(tuple(e + rng.below(3) for e in m))
        if top is None:  # pure powers keep the quotient Artinian
            leads += [tuple(1 + rng.below(4) if j == i else 0 for j in range(n))
                      for i in range(n)]
        assert list(standard_levels(leads, n, top)) == \
            list(standard_levels_by_filter(leads, n, top)), (n, leads)
    for n in range(1, 5):
        unit = [(0,) * n, (1,) + (0,) * (n - 1)]
        assert list(standard_levels(unit, n, top)) == [] == \
            list(standard_levels_by_filter(unit, n, top))


# -- syzygies ----------------------------------------------------------------------------

def _pairs_to_zero(syz, polys):
    R = polys[0].ring
    for s in syz:
        acc = R.zero()
        for (pos, m), c in s.items():
            acc = acc + polys[pos].term_mul(m, c)
        assert acc.is_zero()


def test_koszul_syzygy(R2):
    x, y = R2.gens()
    syz = syzygies_raw([_lift(x), _lift(y)], 1, R2)
    assert len(syz) == 1
    _pairs_to_zero(syz, [x, y])


def test_syzygy_of_plane_line_generators(R3):
    x, y, z = R3.gens()
    syz = syzygies_raw([_lift(x * y), _lift(x * z)], 1, R3)
    assert len(syz) == 1
    (only,) = syz
    # the relation z*(xy) - y*(xz) up to scalar
    assert set(only) == {(0, (0, 0, 1)), (1, (0, 1, 0))}
    _pairs_to_zero(syz, [x * y, x * z])


def test_single_nonzerodivisor_has_no_syzygies(R3):
    x, y, _ = R3.gens()
    assert syzygies_raw([_lift(x * x + y * y)], 1, R3) == []


def test_syzygies_pair_to_zero_random(R3):
    rng = Rng(55)
    for _ in range(8):
        polys = [random_homogeneous(R3, rng, 1 + rng.below(3)) for _ in range(3)]
        polys = [g for g in polys if not g.is_zero()]
        if len(polys) < 2:
            continue
        _pairs_to_zero(syzygies_raw([_lift(f) for f in polys], 1, R3), polys)


@pytest.mark.parametrize("p", PRIMES)
def test_syzygies_with_relations_match_tagged_projection(p):
    """Tagging only the vs gives the colon the fully tagged run projects to,
    list for list and term order included; no relations is the syzygy module."""
    rng = Rng(p + 61)
    for trial in range(48):
        n, rank = 2 + trial % 2, 1 + trial % 3
        R = ring(tuple(f"x{i}" for i in range(n)), p)

        def rand(degree):
            return random_raw_vector(rng, n, rank, p, degree, True)

        vs = [rand(1 + rng.below(2)) for _ in range(1 + rng.below(3))]
        relations = [rand(1 + rng.below(2)) for _ in range(trial % 4)]
        want = tagged_projection(vs, relations, rank, R)
        got = syzygies_raw(vs, rank, R, relations)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in want]


def test_module_groebner_reduced_and_contains(R3):
    x, y, z = R3.gens()
    vecs = [
        {(0, (1, 0, 0)): 1, (1, (0, 1, 0)): 1},
        {(0, (0, 1, 0)): 1, (1, (0, 0, 1)): 1},
    ]
    gb = module_buchberger_raw(vecs, R3.p)
    for v in vecs:
        assert not module_normal_form(R3, gb, v)
    assert module_normal_form(R3, gb, {(0, (0, 0, 0)): 1})

    # Coprime leads x*e0, y*e0 at rank 2: the S-pair (yz - xw)*e1 must survive,
    # so the product criterion may not prune it.
    R = ring(("x", "y", "z", "w"))
    p = R.p
    gb = module_buchberger_raw([{(0, (1, 0, 0, 0)): 1, (1, (0, 0, 1, 0)): 1},
                                {(0, (0, 1, 0, 0)): 1, (1, (0, 0, 0, 1)): 1}], p)
    assert len(gb) == 3
    assert {(1, (0, 1, 1, 0)): 1, (1, (1, 0, 0, 1)): p - 1} in gb

    # Single-term vectors: the minimal set, monic, position 1 before position 0,
    # ascending in the term order within a position.
    x_, y_, z_ = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    terms = [((1, x_), 3), ((0, y_), 1), ((1, (2, 0, 0)), 1), ((0, (0, 1, 1)), 5),
             ((1, z_), 2)]
    gb = module_buchberger_raw([{t: c} for t, c in terms], R3.p)
    assert gb == [{(1, z_): 1}, {(1, x_): 1}, {(0, y_): 1}]


def test_equal_ideals_hash_equal(R3):
    x, y, _ = R3.gens()
    a, b = Ideal(R3, [x, y]), Ideal(R3, [x, x + y])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_minimal_generators_prunes(R3):
    x, y, z = R3.gens()
    I = Ideal(R3, [x, y, x + y, x * z])
    assert I.minimal_generators() == (x, x + y)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_minimal_generators_match_their_definition(p):
    """g is kept exactly when it lies outside the ideal of the kept earlier
    generators and all later ones, decided by brute-force linear algebra."""
    R = ring(("x", "y", "z"), p)
    x, y, z = R.gens()
    rng = Rng(p + 7)
    for trial in range(8):
        base = [random_homogeneous(R, rng, 1 + rng.below(3)) for _ in range(3)]
        base = [g for g in base if not g.is_zero()] + [x + y]
        # Planted redundant generators: a scalar multiple, monomial multiples
        # and combinations of multiples, in the top degree of a and b and above.
        a, b = base[rng.below(len(base))], base[rng.below(len(base))]
        planted = [a.scale(1 + rng.below(p - 1)), a * z]
        for top in (max(a.degree(), b.degree()), max(a.degree(), b.degree()) + 1):
            ma = monomials_of_degree(3, top - a.degree())
            mb = monomials_of_degree(3, top - b.degree())
            planted.append(a.term_mul(ma[rng.below(len(ma))], 1 + rng.below(p - 1))
                           + b.term_mul(mb[rng.below(len(mb))], 1 + rng.below(p - 1)))
        I = Ideal(R, base + planted)
        gens = sorted(I.gens, key=lambda g: (g.degree(), grevlex_key(g.lead_monomial())))
        want = []
        for i, g in enumerate(gens):
            rest = want + gens[i + 1:]
            if not membership_bruteforce(g, rest, g.degree()):
                want.append(g)
        assert I.minimal_generators() == tuple(want)
        assert len(want) < len(gens)


@pytest.mark.parametrize("p", [2, 3, 32003, 2**31 - 1])
def test_minimal_generators_select_themselves(p):
    """A minimal generating set is its own selection, so `minimalized` may
    hand it over as known."""
    R = ring(("x", "y", "z"), p)
    rng = Rng(p + 11)
    for trial in range(8):
        gens = [random_homogeneous(R, rng, 1 + rng.below(3)) for _ in range(2 + rng.below(4))]
        gens += [g * h for g in gens[:2] for h in R.gens()[:1 + rng.below(3)]]
        I = Ideal(R, gens)
        if I.is_zero():
            continue
        mingens = I.minimal_generators()
        assert Ideal(R, mingens).minimal_generators() == mingens
        M = I.minimalized()
        assert M.gens == mingens and M.minimal_generators() == mingens and M == I


def test_minimal_generators_reject_inhomogeneous_input(R3):
    x, y, _ = R3.gens()
    with pytest.raises(PreconditionError, match="minimal generators"):
        Ideal(R3, [x + R3.one(), y, x * y]).minimal_generators()
