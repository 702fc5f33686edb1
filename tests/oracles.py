"""Brute-force oracles used by the tests: definitional, engine-independent."""

import heapq
from itertools import combinations
from operator import add

import numpy as np

from irlab.cohomology import CmFlags
from irlab.errors import PreconditionError, ResourceBudgetExceeded
from irlab.filtration import (_mono_intersect, _monomial_gens,
                              monomial_primary_decomposition)
from irlab.groebner import (Ideal, _divides, _mono_lcm, spair_budget, syzygies_raw, unit_ideal,
                            vector_colon)
from irlab.linalg import SpanTracker, rank_mod_p, rref_mod_p
from irlab.modules import FreeResolution, poly_times_vec, vec_degree, vec_sub
from irlab.ring import grevlex_key, monomials_of_degree


def monomials_up_to_degree(nvars, d):
    out = []
    for k in range(d + 1):
        out.extend(monomials_of_degree(nvars, k))
    return out


def membership_bruteforce(f, gens, degree_bound):
    """Whether f lies in the span of monomial multiples of gens up to the bound.

    For homogeneous data this decides ideal membership in degrees <= bound by
    plain linear algebra over the prime field, with no division or bases.
    """
    R = f.ring
    p = R.p
    products = []
    for g in gens:
        if g.is_zero():
            continue
        gdeg = g.degree()
        for k in range(degree_bound - gdeg + 1):
            for mono in monomials_of_degree(R.nvars, k):
                products.append(g.term_mul(mono, 1))
    keys = sorted({m for q in products for m in q.terms} | set(f.terms))
    index = {m: i for i, m in enumerate(keys)}
    tracker = SpanTracker(len(keys), p)

    def densify(poly):
        row = np.zeros(len(keys), dtype=np.int64)
        for m, c in poly.terms.items():
            row[index[m]] = c
        return row

    for q in products:
        tracker.add(densify(q))
    return tracker.contains(densify(f))


def minimal_vec_generators_greedy(vecs, shifts, ring_):
    """Graded-Nakayama selection one vector at a time through a SpanTracker.

    In degree order (input order within a degree), keep a vector exactly when
    it lies outside the span of the monomial multiples of the kept
    lower-degree vectors and the degree-d vectors before it.
    """
    p, n = ring_.p, ring_.nvars

    def degree(vec):
        pos, mono = next(iter(vec))
        return sum(mono) + shifts[pos]

    items = [(degree(v), v) for v in vecs if v]
    kept = []
    for d in sorted({e for e, _ in items}):
        batch = [v for e, v in items if e == d]
        span = [poly_times_vec({mono: 1}, w, p) for e, w in kept
                for mono in monomials_of_degree(n, d - e)]
        keys = sorted({k for v in span + batch for k in v})
        index = {k: i for i, k in enumerate(keys)}
        tracker = SpanTracker(len(keys), p)

        def densify(vec):
            row = np.zeros(len(keys), dtype=np.int64)
            for k, c in vec.items():
                row[index[k]] = c
            return row

        for v in span:
            tracker.add(densify(v))
        kept.extend((d, v) for v in batch if tracker.add(densify(v)))
    return [v for _, v in kept]


def multiply_bruteforce(a, b):
    """Schoolbook product, term by term, without the Poly.__mul__ fast path."""
    R = a.ring
    out = R.zero()
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            out = out + R.monomial(tuple(x + y for x, y in zip(m1, m2)), c1 * c2)
    return out


def quotient_dimension_bruteforce(gens, ring_, degree_bound):
    """Vector-space dimension of (S/I)_{<= bound} by spanning the ideal's slice."""
    p = ring_.p
    monos = monomials_up_to_degree(ring_.nvars, degree_bound)
    index = {m: i for i, m in enumerate(monos)}
    tracker = SpanTracker(len(monos), p)
    count = 0
    for g in gens:
        gdeg = g.degree()
        for k in range(degree_bound - gdeg + 1):
            for mono in monomials_of_degree(ring_.nvars, k):
                q = g.term_mul(mono, 1)
                row = np.zeros(len(monos), dtype=np.int64)
                for m, c in q.terms.items():
                    row[index[m]] = c
                if tracker.add(row):
                    count += 1
    return len(monos) - count


def rref_exact(rows, p):
    """Reduced row echelon form over Z/p by Gaussian elimination in Python ints.

    Returns (nonzero rows as int lists, pivot columns); no fixed-width arithmetic.
    """
    A = [[int(x) % p for x in row] for row in rows]
    ncols = len(A[0]) if A else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], -1, p)
        A[r] = [a * inv % p for a in A[r]]
        for i in range(len(A)):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(a - f * b) % p for a, b in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
    return A[:r], pivots


def check_complex(res):
    """Assert that consecutive differentials of a FreeResolution compose to zero."""
    p = res.ring.p
    for k in range(len(res.diffs) - 1):
        lower = res.diffs[k]
        for col in res.diffs[k + 1]:
            acc = {}
            for (pos, m), c in col.items():
                piece = poly_times_vec({m: c}, lower[pos], p)
                acc = vec_sub(acc, {kk: (p - v) % p for kk, v in piece.items()}, p)
            assert not acc, f"d_{k + 1} o d_{k + 2} != 0"


def syzygy_chain(ring_, shifts, relations):
    """The free resolution of the presentation (shifts, relations) by iterated
    `syzygies_raw`, with no minimalization at any step.  It takes the
    presentation itself, since a `Module` holds only its minimal one."""
    shifts = [tuple(shifts)]
    diffs = []
    current = list(relations)
    while current:
        degs = tuple(vec_degree(v, shifts[-1]) for v in current)
        diffs.append(current)
        current = syzygies_raw(current, len(shifts[-1]), ring_)
        shifts.append(degs)
    return FreeResolution(ring_, shifts, diffs)


def tagged_projection(vs, relations, rank, ring_):
    """{c : sum_i c_i vs_i lies in span(relations)} with every relation tagged
    too: the syzygies of [vs | relations] from `syzygies_raw` with no
    relations, read off in the coordinates of the vs, zero ones dropped."""
    t = len(vs)
    out = []
    for s in syzygies_raw(list(vs) + list(relations), rank, ring_):
        proj = {(pos, m): c for (pos, m), c in s.items() if pos < t}
        if proj:
            out.append(proj)
    return out


def annihilator_by_colons(M):
    """Ann(M) as the intersection of the scalar colons (N : e_i): one colon per
    generator of the minimal presentation, folded by binary intersections."""
    shifts, rels = M.shifts, M.relations
    if not shifts:
        return unit_ideal(M.ring)
    zero = (0,) * M.ring.nvars
    ann = None
    for i in range(len(shifts)):
        colon = vector_colon([{(i, zero): 1}], rels, len(shifts), M.ring)
        ann = colon if ann is None else ann.intersect(colon)
        if ann.is_zero():
            break
    return ann


def flags_by_ext_loops(M):
    """CmFlags of a nonzero module with one loop per flag over Ext^{n-i}(M, S),
    i < dim M, and Cohen-Macaulay read as depth == dim."""
    n = M.ring.nvars
    gcm = unmixed = True
    for i in range(M.dim()):
        E = M.ext(n - i)
        if not E.is_zero() and E.dim() > 0:
            gcm = False
    for i in range(M.dim()):
        E = M.ext(n - i)
        if not E.is_zero() and E.dim() == i:
            unmixed = False
    return CmFlags(M.depth() == M.dim(), gcm, unmixed)


def least_power_inside_by_membership(target, cap=64):
    """Least k <= cap with every monomial of degree k in `target`, one normal
    form per monomial; None when there is none."""
    R = target.ring
    gb = target.groebner()
    for k in range(cap + 1):
        if all(gb.contains(R.monomial(m)) for m in monomials_of_degree(R.nvars, k)):
            return k
    return None


def has_unit_entries(res):
    """Whether some differential of a FreeResolution has a constant entry."""
    zero = (0,) * res.ring.nvars
    return any(m == zero for cols in res.diffs for col in cols for (_, m) in col)


def top_dimensional_intersection(ideal):
    """Intersection of the maximal-dimension components of a monomial ideal.

    Oracle counterpart of `unmixed_component` on monomial input.
    """
    comps = monomial_primary_decomposition(ideal)
    top = max(c.krull_dimension() for c in comps)
    gens = None
    for c in comps:
        if c.krull_dimension() == top:
            cg = _monomial_gens(c)
            gens = cg if gens is None else _mono_intersect(gens, cg)
    R = ideal.ring
    return Ideal(R, [R.monomial(m) for m in gens])


def triangular_change(R, rng, expos):
    """The monomials x^e for e in `expos` after a random triangular change of
    coordinates x_i -> x_i + sum_{j>i} c_j x_j: no longer monomial, but the
    ideal keeps its depth, dimension, socle and length."""
    n, p = R.nvars, R.p
    xs = R.gens()
    forms = []
    for i in range(n):
        form = xs[i]
        for j in range(i + 1, n):
            form = form + xs[j] * rng.below(p)
        forms.append(form)
    moved = []
    for expo in expos:
        f = R.one()
        for form, k in zip(forms, expo):
            f = f * form ** k
        moved.append(f)
    return moved


def random_monomial_ideal(R, rng):
    """One to n+1 random monomials of degree 1-3, and the same ideal after a
    random triangular change of coordinates."""
    n = R.nvars
    expos = []
    for _ in range(1 + rng.below(n + 1)):
        monos = monomials_of_degree(n, 1 + rng.below(3))
        expos.append(monos[rng.below(len(monos))])
    return [R.monomial(e) for e in expos], triangular_change(R, rng, expos)


def is_sop_stepwise(elements, ideal):
    """Whether the elements cut dim S/I down by exactly one each, ending at 0."""
    d = ideal.krull_dimension()
    if len(elements) != d:
        return False
    current = ideal
    for k, x in enumerate(elements, 1):
        current = current + x
        if current.krull_dimension() != d - k:
            return False
    return True


def first_cut_uncovered(ideal, candidates, target):
    """`params._first_cut` with no cover test: (x, I + (x)) for the first
    nonzero candidate whose cut has dimension `target`, or None."""
    for x in candidates:
        if x.is_zero():
            continue
        cut = ideal + x
        if cut.krull_dimension() == target:
            return x, cut
    return None


def random_sop_stepwise(ideal, degree, rng, retries=40):
    """`stable.random_sop` one element at a time: each element is the first
    nonzero draw of random coefficients on the degree's monomials that cuts
    the dimension by one.  Returns (elements, I + (elements)), or None."""
    R = ideal.ring
    p = R.p
    d = ideal.krull_dimension()
    monos = monomials_of_degree(R.nvars, degree)
    current = ideal
    elems = []
    for i in range(d):
        found = None
        for _ in range(retries):
            cand = R.zero()
            for m in monos:
                c = rng.below(p)
                if c:
                    cand = cand + R.monomial(m, c)
            if cand.is_zero():
                continue
            cut = current + cand
            if cut.krull_dimension() == d - i - 1:
                found = cand
                break
        if found is None:
            return None
        elems.append(found)
        current = cut
    return elems, current


def socle_by_full_slices(gens, ring_):
    """(socle dimension, length) of S/(gens) by row-reducing every full slice J_e.

    The reference for `params._socle_by_degreewise_spans`, which eliminates
    on the border columns only.

    Never touches the Groebner engine: in each degree e the slice J_e is
    spanned by variable shifts of J_{e-1} plus the new generators, held in
    reduced row echelon form.  The non-pivot columns of that form are the
    monomials standing for (S/J)_e, q_e of them, and a monomial of degree e
    reduces modulo J_e to minus the standard part of its pivot row, or to
    itself when its column is not a pivot.  So the degree-e socle is

        q_e  -  rank of the standard residues of x_v m (all v, standard m),

    a q_e x (n q_{e+1}) matrix gathered without any product.  Homogeneous
    generators and an Artinian quotient are required (the loop stops at the
    first empty slice of S/J); a nonzero constant gives the unit ideal, (0, 0).
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

    total_socle = 0
    total_length = 0
    monos_e = monomials_of_degree(n, 0)
    j_rows = np.zeros((0, 1), dtype=np.int64)
    std_e = np.arange(1)  # columns of the standard monomials of degree e
    e = 0
    while std_e.size:
        if e > 600:
            raise PreconditionError("degreewise socle diverged; quotient not Artinian?")
        total_length += std_e.size
        # build the next slice J_{e+1}; shifts[v][i] is the column of x_v m_i
        monos_next = monomials_of_degree(n, e + 1)
        index = {m: i for i, m in enumerate(monos_next)}
        shifts = [np.array([index[m[:v] + (m[v] + 1,) + m[v + 1:]] for m in monos_e],
                           dtype=np.intp) for v in range(n)]
        k = j_rows.shape[0]
        new_gens = by_degree.get(e + 1, [])
        stacked = np.zeros((n * k + len(new_gens), len(monos_next)), dtype=np.int64)
        for v, cols in enumerate(shifts):
            stacked[v * k:(v + 1) * k, cols] = j_rows
        for r, g in enumerate(new_gens, n * k):
            for m, c in g.terms.items():
                stacked[r, index[m]] = c
        next_rows, next_pivots = rref_mod_p(stacked, p) if stacked.size else (stacked, [])
        next_rows = next_rows[:len(next_pivots)]
        std_next = np.setdiff1d(np.arange(len(monos_next)), next_pivots)
        # residue of every degree-(e+1) monomial in the standard basis
        residue = np.zeros((len(monos_next), std_next.size), dtype=np.int64)
        residue[next_pivots] = (-next_rows[:, std_next]) % p
        residue[std_next, np.arange(std_next.size)] = 1
        condition = np.hstack([residue[cols[std_e]] for cols in shifts])
        total_socle += std_e.size - rank_mod_p(condition, p)
        monos_e, j_rows, std_e = monos_next, next_rows, std_next
        e += 1
    return total_socle, total_length


def multiplication_maps_by_normal_forms(artinian):
    """(basis, maps) as `params._multiplication_maps` returns them, from one
    `GroebnerBasis.normal_form` per distinct non-standard shift x_v m of a
    standard monomial m: the reference for its border induction."""
    R = artinian.ring
    basis = artinian.standard_monomials()
    index = {m: i for i, m in enumerate(basis)}
    gb = artinian.groebner()
    forms = {m: {i: 1} for m, i in index.items()}

    def residue(u):
        if u not in forms:
            forms[u] = {index[m]: c for m, c in gb.normal_form(R.monomial(u)).terms.items()}
        return forms[u]

    return basis, [[residue(m[:v] + (m[v] + 1,) + m[v + 1:]) for m in basis]
                   for v in range(R.nvars)]


def socle_by_normal_forms(artinian):
    """(socle dimension, length) of S/J as the nullity of the stacked
    multiplication maps of `multiplication_maps_by_normal_forms`: the
    reference for `params._socle_by_kernels`."""
    basis, maps = multiplication_maps_by_normal_forms(artinian)
    length = len(basis)
    stacked = np.zeros((len(maps) * length, length), dtype=np.int64)
    for v, row in enumerate(maps):
        for j, form in enumerate(row):
            for k, c in form.items():
                stacked[v * length + k, j] = c
    return length - rank_mod_p(stacked, artinian.ring.p), length


def standard_levels_by_filter(leads, n, top=None):
    """`groebner.standard_levels` by testing every candidate of each level
    against every lead: (degree, set) pairs up to the first empty level, or
    up to `top`."""
    level = {(0,) * n}
    degree = 0
    while top is None or degree <= top:
        level = {m for m in level if not any(_divides(lm, m) for lm in leads)}
        if not level:
            return
        yield degree, level
        level = {m[:i] + (m[i] + 1,) + m[i + 1:] for m in level for i in range(n)}
        degree += 1


# ---------------------------------------------------------------------------
# The tuple Groebner engine: the oracle for the packed-int engine in
# `irlab.groebner`.  A raw vector is a dict {(position, exponent tuple): coeff}.

def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _desc(m):
    """Grevlex key of m with every int negated: ascending is descending grevlex."""
    return (-sum(m), m[::-1])


def _vkey(pm):
    """Position-over-term key of a (position, exponent) term; position 0 highest."""
    return (-pm[0], grevlex_key(pm[1]))


def _v_divides(a, b):
    return a[0] == b[0] and _divides(a[1], b[1])


def _v_sub_scaled(target, src, expo, coeff, p):
    """target -= coeff * x^expo * src, in place."""
    for (pos, m), c in src.items():
        kkey = (pos, tuple(a + b for a, b in zip(m, expo)))
        v = (target.get(kkey, 0) - coeff * c) % p
        if v:
            target[kkey] = v
        else:
            target.pop(kkey, None)


def _add_reducer(by_pos, lt, g):
    """File monic raw vector g with lead term lt as (lead exponent, tail terms)."""
    tail = [(pos, m, c) for (pos, m), c in g.items() if (pos, m) != lt]
    by_pos.setdefault(lt[0], []).append((lt[1], tail))


def _v_normal_form(f, by_pos, dkeys, p):
    """Fully reduced remainder of raw vector f, its terms in descending order.

    `by_pos` maps a position to its reducers (lead exponent, tail) in basis
    order; only reducers leading in a term's own position can divide it.
    Terms wait in a min-heap on (position, descending key); a term that
    cancels leaves `work` and its heap entry is skipped when popped.  `dkeys`
    caches the descending key per exponent and may be shared between calls.
    """
    work = dict(f)
    heap = []
    for pos, m in work:
        d = dkeys.get(m)
        if d is None:
            d = dkeys[m] = _desc(m)
        heap.append((pos, d, m))
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    out = {}
    while heap:
        pos, _, m = pop(heap)
        t = (pos, m)
        c = work.pop(t, None)
        if c is None:
            continue
        for lm, tail in by_pos.get(pos, ()):
            if _divides(lm, m):
                shift = _mono_sub(m, lm)
                for gp, gm, gc in tail:
                    m2 = tuple(map(add, gm, shift))
                    kk = (gp, m2)
                    old = work.get(kk)
                    if old is None:
                        work[kk] = (-c * gc) % p
                        d = dkeys.get(m2)
                        if d is None:
                            d = dkeys[m2] = _desc(m2)
                        push(heap, (gp, d, m2))
                    else:
                        v = (old - c * gc) % p
                        if v:
                            work[kk] = v
                        else:
                            del work[kk]
                break
        else:
            out[t] = c
    return out


def _v_monic(f, lt, p):
    c = f[lt]
    if c == 1:
        return f
    inv = pow(c, p - 2, p)
    return {t: (v * inv) % p for t, v in f.items()}


def module_buchberger_tuples(vecs, p):
    """Reduced Groebner basis of raw vectors under position-over-term, on tuples.

    The engine as it was before terms were packed into ints: exponent tuples,
    a heap on (position, descending key) and a per-run key cache.  Every pair
    is queued, and the criteria run when it is popped, so the pair order may
    differ from `groebner.module_buchberger_raw`'s; the reduced basis is
    unique, so the bases must be equal, term order included.  The same
    reducer choice makes `normal_form_tuples` equal `groebner._normal_form`.

    Only same-position pairs are formed.  The chain criterion always applies;
    the product criterion only when every input vector lies in position 0 (it
    is unsound for modules of higher rank).  One descending-key cache serves
    every reduction of the run.
    """
    budget = spair_budget()
    G = [dict(v) for v in vecs if v]
    if not G:
        return []
    # Fast path: single-term vectors are a Groebner basis after minimalization.
    if all(len(g) == 1 for g in G):
        kept = []
        for t in sorted({next(iter(g)) for g in G}, key=_vkey):
            if not any(_v_divides(k, t) for k in kept):
                kept.append(t)
        return [{t: 1} for t in kept]

    rank1 = all(pos == 0 for g in G for pos, _ in g)
    leads = [max(g, key=_vkey) for g in G]
    G = [_v_monic(g, lt, p) for g, lt in zip(G, leads)]
    by_pos: dict = {}
    for lt, g in zip(leads, G):
        _add_reducer(by_pos, lt, g)
    dkeys: dict = {}
    heap = []
    for i, j in combinations(range(len(G)), 2):
        if leads[i][0] == leads[j][0]:
            heapq.heappush(heap, (sum(_mono_lcm(leads[i][1], leads[j][1])), j, i))
    done = set()
    spent = 0
    while heap:
        _, j, i = heapq.heappop(heap)
        done.add((i, j))
        li, lj = leads[i], leads[j]
        lcm = _mono_lcm(li[1], lj[1])
        # Product criterion: coprime leads reduce to 0 in the ring case.
        if rank1 and all(a + b == c for a, b, c in zip(li[1], lj[1], lcm)):
            continue
        # Chain criterion.
        skip = False
        for k in range(len(G)):
            if k == i or k == j or leads[k][0] != li[0]:
                continue
            if _divides(leads[k][1], lcm) \
                    and (min(i, k), max(i, k)) in done \
                    and (min(j, k), max(j, k)) in done:
                skip = True
                break
        if skip:
            continue
        spent += 1
        if spent > budget:
            raise ResourceBudgetExceeded(f"S-pair budget {budget} exceeded")
        s = {}
        _v_sub_scaled(s, G[i], _mono_sub(lcm, li[1]), p - 1, p)
        _v_sub_scaled(s, G[j], _mono_sub(lcm, lj[1]), 1, p)
        rem = _v_normal_form(s, by_pos, dkeys, p)
        if rem:
            lt = next(iter(rem))
            rem = _v_monic(rem, lt, p)
            G.append(rem)
            leads.append(lt)
            _add_reducer(by_pos, lt, rem)
            new = len(G) - 1
            for t in range(new):
                if leads[t][0] == lt[0]:
                    heapq.heappush(heap, (sum(_mono_lcm(leads[t][1], lt[1])), new, t))

    # Minimalize: drop elements whose lead is divisible by another lead.
    order_idx = sorted(range(len(G)), key=lambda i: _vkey(leads[i]))
    kept = []
    for i in order_idx:
        if not any(_v_divides(leads[k], leads[i]) for k in kept):
            kept.append(i)
    # Tail-reduce to the unique reduced basis.  A lead divides no term below
    # it, so every tail reduces against all minimal elements at once, and the
    # lead (coefficient 1) stays first.
    by_pos = {}
    for i in kept:
        _add_reducer(by_pos, leads[i], G[i])
    reduced = []
    for i in kept:
        lt = leads[i]
        tail = {t: c for t, c in G[i].items() if t != lt}
        reduced.append({lt: 1, **_v_normal_form(tail, by_pos, dkeys, p)})
    reduced.sort(key=lambda g: _vkey(next(iter(g))))
    return reduced


def normal_form_tuples(f, basis, p):
    """Remainder of raw vector f by the raw vectors `basis`, in basis order."""
    by_pos: dict = {}
    for g in basis:
        _add_reducer(by_pos, max(g, key=_vkey), g)
    return _v_normal_form(f, by_pos, {}, p)
