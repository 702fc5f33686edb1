"""Groebner bases for ideals and free-module submodules, and ideal arithmetic.

One Buchberger, with normal selection and the classical pair criteria (no
F4/F5), serves ideals and submodules of free modules alike: an ideal runs as
rank-1 input, every polynomial lifted to position 0.  The chain criterion
always applies; the product criterion only at rank 1, where it is sound.
There is one monomial order, grevlex (`ring.grevlex_key`); the module order
is position-over-term over it (position 0 highest), which doubles as the
elimination device behind syzygies.  Every colon, intersection and
annihilator is one `vector_colon` call: {f : f v_t in N for every t} with v_t
in block t of a block module that repeats N's relations in every block, read
off one `syzygies_raw` run on the graph of the summed vector, the relations
untagged.  Its basis elements inside the tag positions are the reduced basis
of the result, so the result carries it and Buchberger never runs on it again.
`Ideal.colon` gives no block to a generator that I already contains, since
I : g = S for g in I.
Every basis returned is reduced, monic and sorted, hence canonical for the
ideal.

Inside the engine every term (position, m) in n variables is one int,
K(m) - (position << S) with K(m) = deg(m) << nW | sum_i (B - m_i) << iW, in
W = 32-bit fields, B = 2^31 - 1 and S = (n + 1) W (Bachmann & Schoenemann
1998, packed exponent vectors).  Int order is position-over-term grevlex;
x^a times a term is the addition of K(x^a) - K(1); divisibility is one masked
subtraction whose guard bits (the top bit of each variable field) survive
exactly when every exponent is large enough.  Reduction pops the negated
terms from a heap, so each step takes the next leading term instead of
scanning.  Terms are packed where they enter the engine (`module_buchberger_raw`,
`minimal_generators_raw`, and `GroebnerBasis.normal_form`, which files its packed
reducers on first use) and unpacked where they leave; everything outside sees
exponent tuples.  No degree above B may reach a field: the input is checked
as it is packed, and every S-polynomial and reduction step first bounds the
degree of the terms it makes by the lcm's (or the reduced term's) degree plus
the reducer's tail excess.  Past B the run raises
ResourceBudgetExceeded instead of carrying into the next field.

Minimal generators are picked inside one run (`minimal_generators_raw`): each
candidate waits in the pair heap after the S-pairs of its shifted degree and
is kept when its remainder is nonzero, which is exact (La Scala & Stillman
1998).  The run stops after the last candidate; the pairs left lie above it.

A single Buchberger run aborts with ResourceBudgetExceeded once it spends its
S-pair budget (default 200000; override with the IRLAB_BUDGET environment
variable, a positive integer).  The budget caps every run alike and counts
only the S-pairs it reduces; a selection run's candidates never count.
"""

from __future__ import annotations

import heapq
import os
from itertools import combinations

from .errors import (NotArtinianError, PreconditionError, ResourceBudgetExceeded,
                     RingMismatchError)
from .ring import Poly, Ring, grevlex_key

DEFAULT_SPAIR_BUDGET = 200_000


def spair_budget():
    """S-pairs one Buchberger run may reduce: IRLAB_BUDGET when set, else the default."""
    raw = os.environ.get("IRLAB_BUDGET")
    if not raw:
        return DEFAULT_SPAIR_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise PreconditionError(f"IRLAB_BUDGET must be a positive integer, not {raw!r}")
    return budget


# ---------------------------------------------------------------------------
# Raw helpers.  A raw vector is a dict {(position, expo tuple): coeff} in a free
# module of some rank; an ideal is the rank-1 case, every term in position 0.
# The order is position-over-term with position 0 highest, so leading positions
# can be eliminated block-wise.

def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


# ---------------------------------------------------------------------------
# Packed terms, laid out as the module docstring says: one W-bit field per
# variable holding B - m_i, one holding deg(m), and -position above them.

_W = 32
_B = (1 << (_W - 1)) - 1  # largest degree a packed term may carry
_FIELD = (1 << _W) - 1


def _field_overflow():
    return ResourceBudgetExceeded(
        f"a term degree would exceed {_B} = 2^{_W - 1} - 1, the limit of the "
        f"{_W}-bit packed exponent fields")


class _Layout:
    """Packing constants for n variables."""

    __slots__ = ("shifts", "nw", "s", "varmask", "guard", "degmask", "base")

    def __init__(self, n):
        self.shifts = tuple(i * _W for i in range(n))
        self.nw = n * _W
        self.s = self.nw + _W
        self.varmask = (1 << self.nw) - 1
        self.guard = sum(1 << (sh + _W - 1) for sh in self.shifts)
        self.degmask = _FIELD << self.nw
        self.base = sum(_B << sh for sh in self.shifts)

    def pack(self, term):
        pos, m = term
        d = sum(m)
        if d > _B:
            raise _field_overflow()
        k = self.base + (d << self.nw)
        for e, sh in zip(m, self.shifts):
            k -= e << sh
        return k - (pos << self.s)

    def unpack(self, t):
        return -(t >> self.s), tuple([_B - ((t >> sh) & _FIELD) for sh in self.shifts])

    def pack_vec(self, vec):
        return {self.pack(t): c for t, c in vec.items()}

    def unpack_vec(self, vec):
        return {self.unpack(t): c for t, c in vec.items()}

    def divides(self, a, b):
        """Whether packed term a divides packed term b (same position included)."""
        return a >> self.s == b >> self.s and \
            (((a & self.varmask) | self.guard) - (b & self.varmask)) & self.guard == self.guard


_LAYOUTS: dict = {}


def _layout(n) -> _Layout:
    L = _LAYOUTS.get(n)
    if L is None:
        L = _LAYOUTS[n] = _Layout(n)
    return L


def _file_reducer(by_pos, L, lt, g):
    """File monic packed vector g with lead lt in `by_pos`, and return it as
    (guarded lead, lead, cap, tail).

    The guarded lead is the lead's variable fields with every guard bit set,
    so a term t is divisible exactly when guarded lead - (t & varmask) keeps
    every guard bit.  A tail term can exceed the lead in degree only in a
    lower position.  The cap is B minus that excess (if any), as degree bits:
    the terms a multiple of g by x^a brings in stay within B when x^a times
    the lead has degree bits at most cap.
    """
    nw = L.nw
    tail = [(t, c) for t, c in g.items() if t != lt]
    ld = (lt >> nw) & _FIELD
    excess = max([((t >> nw) & _FIELD) - ld for t, _ in tail] + [0])
    r = ((lt & L.varmask) | L.guard, lt, (_B - excess) << nw, tail)
    by_pos.setdefault(lt >> L.s, []).append(r)
    return r


def _normal_form(f, by_pos, L, p):
    """Fully reduced remainder of packed vector f, its terms in descending order.

    `by_pos` maps `t >> S` (minus the position) to its reducers in basis
    order, the first divisor being the one used; only reducers leading in a
    term's own position can divide it.  Terms wait negated in a min-heap; a
    term that cancels leaves `work` and its heap entry is skipped when popped.
    """
    work = dict(f)
    heap = [-t for t in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    s, varmask, guard, degmask = L.s, L.varmask, L.guard, L.degmask
    out = {}
    while heap:
        t = -pop(heap)
        c = work.pop(t, None)
        if c is None:
            continue
        tv = t & varmask
        for glead, lt, cap, tail in by_pos.get(t >> s, ()):
            if (glead - tv) & guard == guard:
                if t & degmask > cap:
                    raise _field_overflow()
                shift = t - lt
                for gt, gc in tail:
                    kk = gt + shift
                    old = work.get(kk)
                    if old is None:
                        work[kk] = (-c * gc) % p
                        push(heap, -kk)
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


def _monic(f, lt, p):
    c = f[lt]
    if c == 1:
        return f
    inv = pow(c, p - 2, p)
    return {t: (v * inv) % p for t, v in f.items()}


def _degree(L, t, shifts):
    """Degree of packed term t, plus the shift of its position when shifts is given."""
    return ((t >> L.nw) & _FIELD) + (shifts[-(t >> L.s)] if shifts else 0)


def _first_undivided(L, terms, shifts=None):
    """Indices, by (shifted degree, index), of the packed terms that no earlier
    kept term divides: minimalization of leads, or the selection on single
    terms.  A divisor comes first, and of equal terms the first is kept."""
    kept = []
    for i in sorted(range(len(terms)), key=lambda i: (_degree(L, terms[i], shifts), i)):
        if not any(L.divides(terms[k], terms[i]) for k in kept):
            kept.append(i)
    return kept


def _buchberger(raw, p, shifts=None):
    """(layout, packed elements, leads, picked) of one run on the nonzero raw vectors.

    Pairs go by sugar, lcm degree plus the shift of its position.  With shifts
    None the vectors seed the basis and `picked` is None; otherwise they are
    the candidates of a selection (module docstring), and `picked` lists the
    indices into `raw` of those kept.  Single terms form no pairs (S-vectors
    of terms vanish): a plain run returns them, a selection picks by `_first_undivided`.
    """
    idx = [k for k, v in enumerate(raw) if v]
    if not idx:
        return None, [], [], []
    L = _layout(len(next(iter(raw[idx[0]]))[1]))
    vecs = [L.pack_vec(raw[k]) for k in idx]
    if all(len(g) == 1 for g in vecs):
        leads = [next(iter(g)) for g in vecs]
        if shifts is None:
            return L, vecs, leads, None
        return L, vecs, leads, [idx[k] for k in _first_undivided(L, leads, shifts)]
    budget = spair_budget()
    s_bits, nw = L.s, L.nw
    rank1 = all(t >= 0 for g in vecs for t in g)
    G, leads, reducers, expos, degs = [], [], [], [], []
    by_pos: dict = {}
    same_pos: dict = {}  # position key -> indices of the elements leading there
    heap = []

    def add(g, lt):
        g = _monic(g, lt, p)
        new = len(G)
        G.append(g)
        leads.append(lt)
        reducers.append(_file_reducer(by_pos, L, lt, g))
        m = L.unpack(lt)[1]
        expos.append(m)
        degs.append(sum(m))
        same = same_pos.setdefault(lt >> s_bits, [])
        sh = shifts[-(lt >> s_bits)] if shifts else 0
        for t in same:
            d = sum(map(max, expos[t], m))
            heapq.heappush(heap, (d + sh, 0, new, t, d))
        same.append(new)

    if shifts is None:
        for g in vecs:
            add(g, max(g))
        picked = None
    else:
        heap = [(_degree(L, max(g), shifts), 1, k) for k, g in enumerate(vecs)]
        heapq.heapify(heap)
        waiting, picked = len(vecs), []
    done = set()
    spent = 0
    varmask, guard, degmask = L.varmask, L.guard, L.degmask
    positions = -(1 << s_bits)  # the bits of a packed term that hold -position
    while heap and (picked is None or waiting):
        entry = heapq.heappop(heap)
        if entry[1]:  # a candidate's turn
            rem = _normal_form(vecs[entry[2]], by_pos, L, p)
            if rem:
                add(rem, next(iter(rem)))
                picked.append(idx[entry[2]])
            waiting -= 1
            continue
        _, _, j, i, d = entry  # d: the degree of the lcm, unshifted
        done.add((i, j))
        # Product criterion: coprime leads reduce to 0 in the ring case.
        if rank1 and d == degs[i] + degs[j]:
            continue
        # The lcm keeps the smaller field of the two leads in every variable.
        a, b = leads[i] & varmask, leads[j] & varmask
        ge = ((a | guard) - b) & guard
        ge |= ge - (ge >> (_W - 1))
        lcm_t = (d << nw) + ((b & ge) | (a & ~ge)) + (leads[i] & positions)
        # Chain criterion.
        glcm = lcm_t & varmask
        skip = False
        for k in same_pos[leads[i] >> s_bits]:
            if k != i and k != j and (reducers[k][0] - glcm) & guard == guard \
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
        for k, sign in ((i, 1), (j, -1)):
            _, lt, cap, _ = reducers[k]
            if lcm_t & degmask > cap:
                raise _field_overflow()
            shift = lcm_t - lt
            for t, c in G[k].items():
                kk = t + shift
                v = (s.get(kk, 0) + sign * c) % p
                if v:
                    s[kk] = v
                else:
                    s.pop(kk, None)
        rem = _normal_form(s, by_pos, L, p)
        if rem:
            add(rem, next(iter(rem)))
    return L, G, leads, picked


def module_buchberger_raw(vecs, p):
    """Reduced Groebner basis of raw vectors under position-over-term.

    Only same-position pairs are formed.  The chain criterion always applies;
    the product criterion only when every input vector lies in position 0 (it
    is unsound for modules of higher rank).  The run packs its input, works on
    packed terms throughout and unpacks the basis it returns: each vector
    monic, its terms in descending order, so its first term is its lead.
    """
    L, G, leads, _ = _buchberger(vecs, p)
    # Minimalize, then tail-reduce to the unique reduced basis.  A lead divides
    # no term below it, so every tail reduces against all minimal elements at
    # once, and the lead (coefficient 1) stays first.
    kept = _first_undivided(L, leads)
    by_pos = {}
    for i in kept:
        _file_reducer(by_pos, L, leads[i], G[i])
    reduced = []
    for i in kept:
        lt = leads[i]
        tail = {t: c for t, c in G[i].items() if t != lt}
        reduced.append({lt: 1, **_normal_form(tail, by_pos, L, p)})
    reduced.sort(key=lambda g: next(iter(g)))
    return [L.unpack_vec(g) for g in reduced]


def minimal_generators_raw(vecs, shifts, p):
    """Indices into `vecs` of the minimal generators `modules.minimal_vec_generators`
    selects, in its order, from one selection run of `_buchberger`.  The vectors
    must be homogeneous for the generator degrees `shifts`."""
    return _buchberger(vecs, p, shifts)[3]


def _lift(f: Poly, position=0):
    """The polynomial f as a raw vector, every term in `position`."""
    return {(position, m): c for m, c in f.terms.items()}


class GroebnerBasis:
    """Reduced Groebner basis of an ideal, bound to a ring.

    Built from rank-1 raw vectors as `module_buchberger_raw` returns them,
    lead first: `elements` are their Polys, `leads` the exponents of their
    first terms.  The first `normal_form` files the packed reducers.
    """

    __slots__ = ("ring", "elements", "leads", "_by_pos")

    def __init__(self, ring_: Ring, raw_vecs):
        self.ring = ring_
        self.elements = tuple(Poly(ring_, {m: c for (_, m), c in v.items()})
                              for v in raw_vecs)
        self.leads = tuple(next(iter(g.terms)) for g in self.elements)
        self._by_pos = None

    def normal_form(self, f: Poly) -> Poly:
        if f.ring is not self.ring:
            raise RingMismatchError("polynomial over a different ring")
        L = _layout(self.ring.nvars)
        if self._by_pos is None:
            self._by_pos = {}
            for g in self.elements:
                packed = {L.pack((0, m)): c for m, c in g.terms.items()}
                _file_reducer(self._by_pos, L, next(iter(packed)), packed)
        rem = _normal_form({L.pack((0, m)): c for m, c in f.terms.items()},
                           self._by_pos, L, self.ring.p)
        return Poly(self.ring, {L.unpack(t)[1]: c for t, c in rem.items()})

    def contains(self, f: Poly) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant() \
            and not self.elements[0].is_zero()


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by `gens`."""
    polys = [g for g in gens if not g.is_zero()]
    if not polys:
        raise ValueError("cannot infer the ring from an empty generator list; "
                         "use Ideal(ring, []) instead")
    R = polys[0].ring
    for g in polys:
        if g.ring is not R:
            raise RingMismatchError("generators over different rings")
    return GroebnerBasis(R, module_buchberger_raw([_lift(g) for g in polys], R.p))


def syzygies_raw(vecs, rank, ring_: Ring, relations=()):
    """Reduced basis of {c : sum_i c_i vecs_i lies in span(relations)}.

    The vecs (raw, of rank `rank`) enter as graph vectors (v_i, e_i) and the
    relations untagged, as in Singular's `modulo`.  Position-over-term puts the
    tags last, so the basis elements with no term below `rank` are that basis,
    shifted down by `rank`: the syzygies of the vecs when there are no relations.
    """
    zero_expo = (0,) * ring_.nvars
    graph = []
    for i, v in enumerate(vecs):
        g = dict(v)
        g[(rank + i, zero_expo)] = 1
        graph.append(g)
    gb = module_buchberger_raw(graph + list(relations), ring_.p)
    out = []
    for g in gb:
        if all(pos >= rank for pos, _ in g):
            out.append({(pos - rank, m): c for (pos, m), c in g.items()})
    return out


def vector_colon(vs, relations, rank, ring_: Ring) -> "Ideal":
    """{f : f v_t lies in span(relations) for every t}, for raw vectors v_t of rank `rank`.

    The one block-module construction: v_t goes to block t (positions
    t*rank, ..., t*rank + rank - 1), every block holds a copy of the
    relations, and the sum of the placed v_t is the single vector of one
    `syzygies_raw` run.  That run returns the reduced basis of the result, in
    order, so the ideal carries it and never runs Buchberger on it again.
    With no vectors the condition is empty and the result is the unit ideal.
    """
    if not vs:
        return unit_ideal(ring_)
    v = {(t * rank + pos, m): c for t, vt in enumerate(vs) for (pos, m), c in vt.items()}
    blocks = [{(t * rank + pos, m): c for (pos, m), c in r.items()}
              for t in range(len(vs)) for r in relations]
    gb = GroebnerBasis(ring_, syzygies_raw([v], len(vs) * rank, ring_, blocks))
    out = Ideal(ring_, gb.elements)
    out._gb = gb
    return out


# ---------------------------------------------------------------------------

class Ideal:
    """An ideal of the ambient ring, presented by finitely many generators.

    Generators are kept nonzero; the zero ideal has an empty tuple.  Reduced
    bases, dimensions and generator prunings are cached on the instance.
    """

    __slots__ = ("ring", "gens", "_gb", "_dim", "_mingens")

    def __init__(self, ring_: Ring, gens):
        self.ring = ring_
        seen = []
        for g in gens:
            if isinstance(g, str):
                g = ring_.parse(g)
            if g.ring is not ring_:
                raise RingMismatchError("generator over a different ring")
            if not g.is_zero() and g not in seen:
                seen.append(g)
        self.gens = tuple(seen)
        self._gb = None
        self._dim = None
        self._mingens = None

    # -- basics ---------------------------------------------------------------
    def groebner(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = buchberger(self.gens) if self.gens else GroebnerBasis(self.ring, [])
        return self._gb

    def contains(self, f: Poly) -> bool:
        return self.groebner().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        gb = self.groebner()
        return all(gb.contains(g) for g in other.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return bool(self.gens) and self.groebner().is_unit_ideal()

    def is_monomial(self) -> bool:
        return all(g.is_monomial() for g in self.gens)

    def __eq__(self, other):
        if not isinstance(other, Ideal) or self.ring is not other.ring:
            return False
        a = [g.terms for g in self.groebner().elements]
        b = [g.terms for g in other.groebner().elements]
        return a == b

    def __hash__(self):
        # Equal ideals share their reduced basis, as __eq__ compares it.
        return hash((id(self.ring), self.groebner().elements))

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner})"

    # -- arithmetic -------------------------------------------------------------
    def __add__(self, other):
        other = self._coerce(other)
        return Ideal(self.ring, self.gens + other.gens)

    def _coerce(self, other):
        if isinstance(other, Ideal):
            if other.ring is not self.ring:
                raise RingMismatchError("ideals over different rings")
            return other
        if isinstance(other, Poly):
            return Ideal(self.ring, [other])
        if isinstance(other, (list, tuple)):
            return Ideal(self.ring, other)
        raise TypeError(f"cannot treat {other!r} as an ideal")

    def product(self, other):
        other = self._coerce(other)
        prods = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ring, prods)

    def power(self, k):
        out = Ideal(self.ring, [self.ring.one()])
        for _ in range(k):
            out = out.product(self)
        return out

    def intersect(self, *others):
        """I cap J_1 cap ..., the colon of e_0 + e_1 + ... against I e_0 (+) J_1 e_1 (+) ...

        One `vector_colon` run on a single vector of rank 1 + len(others).
        """
        ideals = (self,) + tuple(self._coerce(J) for J in others)
        zero = (0,) * self.ring.nvars
        rels = [_lift(f, t) for t, J in enumerate(ideals) for f in J.gens]
        return vector_colon([{(t, zero): 1 for t in range(len(ideals))}], rels,
                            len(ideals), self.ring)

    def colon_element(self, f: Poly):
        """(I : f), the colon by the principal ideal (f)."""
        return self.colon(f)

    def colon(self, other):
        """(I : J) in one syzygy run: f with f*g in I for every generator g of J.

        The `vector_colon` of the generators g_t of J against the generators of
        I; no auxiliary intersections needed.  A generator g that I contains
        gives I : g = S, so it gets no block, and with none left the result is
        the unit ideal.
        """
        other = self._coerce(other)
        gb = self.groebner()
        gens = [g for g in other.gens if not gb.contains(g)]
        return vector_colon([_lift(g) for g in gens], [_lift(f) for f in self.gens], 1,
                            self.ring)

    def saturation(self, other):
        """(I : other^infinity), by iterating the colon to a fixpoint; I itself,
        and no basis, when `other` has a constant generator (else S stops at one colon)."""
        other = self._coerce(other)
        if any(g.is_constant() for g in other.gens):
            return self
        current = self
        while True:
            nxt = current.colon(other)
            if nxt == current:
                return current
            current = nxt

    # -- combinatorics of the initial ideal ------------------------------------
    def krull_dimension(self) -> int:
        """dim S/I via maximal independent variable sets modulo the initial ideal.

        Returns -1 for the unit ideal; nvars for the zero ideal.
        """
        if self._dim is not None:
            return self._dim
        R = self.ring
        if self.is_zero():
            self._dim = R.nvars
            return self._dim
        gb = self.groebner()
        if gb.is_unit_ideal():
            self._dim = -1
            return self._dim
        leads = gb.leads
        n = R.nvars
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
        best = 0
        for size in range(n, 0, -1):
            found = False
            for subset in combinations(range(n), size):
                sset = set(subset)
                if all(not s <= sset for s in supports):
                    found = True
                    break
            if found:
                best = size
                break
        self._dim = best
        return best

    def standard_monomials(self, degree_bound=None):
        """Monomials outside the initial ideal, ascending in grevlex.

        With no bound the quotient must be Artinian (NotArtinianError otherwise);
        the result is then the full finite monomial basis of S/I.
        """
        if degree_bound is None and self.krull_dimension() > 0:
            raise NotArtinianError("quotient is not Artinian; pass a degree bound")
        levels = standard_levels(self.groebner().leads, self.ring.nvars, degree_bound)
        return sorted((m for _, level in levels for m in level), key=grevlex_key)

    def minimal_generators(self):
        """A minimal generating set of a homogeneous ideal; cached.

        The generators are sorted by (degree, grevlex lead), and g is kept
        exactly when it lies outside the ideal of the kept lower-degree
        generators and the later ones of its degree: the rule of
        `minimal_generators_raw` on the generators with each degree in reverse
        order.  Kept generators come back in sorted order.  Raises
        PreconditionError on an inhomogeneous generator.
        """
        if self._mingens is None:
            gens = sorted(self.gens, key=lambda g: (g.degree(), grevlex_key(g.lead_monomial())))
            if not all(g.is_homogeneous() for g in gens):
                raise PreconditionError("minimal generators need homogeneous generators")
            last = len(gens) - 1
            kept = {last - k for k in minimal_generators_raw(
                [_lift(g) for g in reversed(gens)], [0], self.ring.p)}
            self._mingens = tuple(g for k, g in enumerate(gens) if k in kept)
        return self._mingens

    def minimalized(self) -> "Ideal":
        """The same ideal on its minimal generators, which it knows as its own
        (a minimal generating set is its own selection)."""
        out = Ideal(self.ring, self.minimal_generators())
        out._mingens = out.gens
        return out


def maximal_ideal(ring_: Ring) -> Ideal:
    return Ideal(ring_, ring_.gens())


def unit_ideal(ring_: Ring) -> Ideal:
    out = Ideal(ring_, [ring_.one()])
    out._gb = GroebnerBasis(ring_, [_lift(ring_.one())])
    return out


def standard_levels(leads, n, top=None):
    """Yield (degree, set of monomials) outside the monomial ideal of `leads`.

    Standard monomials are closed under division, so each level grows from the
    one below by closure: a candidate u = x_i m (m in the level below, i at or
    past the last variable of m, so each u comes once) is standard when it is
    no lead and every u / x_k is in the level below.  Stops at the first empty
    level, or after degree `top`; with no `top` the quotient must be Artinian
    for this to end.
    """
    leads = set(leads)
    level = {(0,) * n} - leads
    degree = 0
    while level and (top is None or degree <= top):
        yield degree, level
        below, level = level, set()
        for m in below:
            last = max((k for k in range(n) if m[k]), default=0)
            for i in range(last, n):
                u = m[:i] + (m[i] + 1,) + m[i + 1:]
                if u not in leads and all(
                        k == i or not u[k] or u[:k] + (u[k] - 1,) + u[k + 1:] in below
                        for k in range(last + 1)):
                    level.add(u)
        degree += 1
