"""Outside-in span tracer for the irlab package.

The tracer never edits irlab's source.  It replaces selected functions and
methods with timing wrappers after import.  Several irlab modules bind names
by value at import time (``from .groebner import syzygies_raw``), so each
wrapper is rebound in every ``irlab.*`` namespace that holds the original
object.  Names imported at call time (``from .linalg import rref_mod_p``)
read the defining module's attribute, which is the wrapper by then.

Spans are kept in flat arrays (name, start, end, parent span, operation id)
and written out by the worker when a traced round ends.  Aggregates are kept
alongside: calls, self time (span minus its direct children) and total time
(outermost spans only, so recursion is not double counted).
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array

# Layer -> wrapped names.  A dotted name is ``Class.method``.  The ``ring``
# layer is deliberately absent: Poly arithmetic calls are too small to time
# from outside without distortion, so their cost shows as caller self time.
WRAPPED = {
    "cli": ["load_ring_spec", "analyze_payload", "cmd_analyze", "cmd_stable",
            "cmd_limit", "emit_report"],
    "groebner": ["buchberger", "syzygies_raw", "GroebnerBasis.normal_form",
                 "Ideal.saturation", "Ideal.colon", "Ideal.colon_element",
                 "Ideal.intersect", "Ideal.krull_dimension",
                 "Ideal.standard_monomials", "Ideal.minimal_generators"],
    "linalg": ["rref_mod_p", "rank_mod_p", "nullity_mod_p", "SpanTracker.add"],
    "modules": ["minimal_vec_generators", "minimalize_complex", "Module.cyclic",
                "Module.minimal_presentation", "Module.resolution", "Module.ext",
                "Module.annihilator", "Module.depth"],
    "cohomology": ["annihilator_data", "socle_dimensions", "cm_flags"],
    "filtration": ["unmixed_component", "dimension_filtration",
                   "classify_sequential"],
    "params": ["is_system_of_parameters", "find_parameter_element",
               "construct_c_sop", "index_of_reducibility",
               "socle_dimension_artinian", "_socle_by_degreewise_spans"],
    "stable": ["formula_gcm", "formula_seq", "formula_dim3", "stable_value",
               "stability_suite", "goto_suzuki_bound", "random_sop",
               "limit_profile"],
}


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.op = -1
        self.stack: list = []  # [span index, name id, child time]
        self.stats: list = []  # per name id: [calls, total_s, self_s]
        self.depth: list = []  # per name id: open spans of that name
        self.pairs: dict = {}  # (parent name id, child name id) -> calls
        self.counters: dict = {}

    # -- wrapping --------------------------------------------------------------
    def _intern(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = len(self.span_names)
            self.name_ids[name] = nid
            self.span_names.append(name)
            self.stats.append([0, 0.0, 0.0])
            self.depth.append(0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """A timing wrapper for `fn`; `after(args, result)` runs on success."""
        nid = self._intern(name)
        stats, depth, stack, pairs = self.stats[nid], self.depth, self.stack, self.pairs
        starts, ends, names, parents, ops = (self.starts, self.ends, self.names,
                                             self.parents, self.ops)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            if stack:
                parent = stack[-1]
                parents.append(parent[0])
                key = (parent[1], nid)
                pairs[key] = pairs.get(key, 0) + 1
            else:
                parents.append(-1)
            names.append(nid)
            ops.append(tracer.op)
            ends.append(0.0)
            frame = [i, nid, 0.0]
            stack.append(frame)
            depth[nid] += 1
            t0 = clock()
            starts.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                stack.pop()
                depth[nid] -= 1
                dur = t1 - t0
                stats[0] += 1
                stats[2] += dur - frame[2]
                if depth[nid] == 0:
                    stats[1] += dur
                if stack:
                    stack[-1][2] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def install(self) -> None:
        """Wrap every name in WRAPPED and rebind it wherever irlab holds it."""
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if (name == "irlab" or name.startswith("irlab.")) and m is not None]
        seen_modules = weakref.WeakSet()  # Module objects given to annihilator_data
        seen_cyclic = weakref.WeakSet()  # Module objects Module.cyclic returned

        def rref_after(args, result):
            A = args[0]
            self.count("linalg.rref_mod_p.cells", int(A.shape[0]) * int(A.shape[1]))

        def cyclic_after(args, result):
            # Every cached module was returned once when it was created, so a
            # module seen before is a cache hit.
            if result in seen_cyclic:
                self.count("modules.Module.cyclic.hits")
            else:
                seen_cyclic.add(result)

        def annihilator_after(args, result):
            M = args[0]
            if M in seen_modules:
                self.count("cohomology.annihilator_data.repeat_calls")
            else:
                seen_modules.add(M)

        def random_sop_after(args, result):
            if result is not None:
                self.count("stable.random_sop.successes")

        def find_after(args, result):
            self.count("params.find_parameter_element.accepted")

        hooks = {
            "linalg.rref_mod_p": rref_after,
            "modules.Module.cyclic": cyclic_after,
            "cohomology.annihilator_data": annihilator_after,
            "stable.random_sop": random_sop_after,
            "params.find_parameter_element": find_after,
        }
        for layer, names in WRAPPED.items():
            module = sys.modules[f"irlab.{layer}"]
            for dotted in names:
                full = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(self.wrap(full, raw.__func__, hooks.get(full)))
                    else:
                        wrapped = self.wrap(full, raw, hooks.get(full))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(module, dotted)
                wrapped = self.wrap(full, original, hooks.get(full))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapped)

    # -- results ---------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregates for the parent process: stats, parent/child pair counts,
        counters, and the root spans of operations (start, end) for the
        wall-time coverage check."""
        roots = [(self.starts[i], self.ends[i]) for i in range(len(self.starts))
                 if self.parents[i] == -1 and self.ops[i] >= 0]
        return {
            "stats": {self.span_names[i]: s for i, s in enumerate(self.stats)},
            "pairs": [[self.span_names[a], self.span_names[b], n]
                      for (a, b), n in self.pairs.items()],
            "counters": dict(self.counters),
            "roots": roots,
            "spans": len(self.starts),
        }

    def write_spans(self, path) -> None:
        """One tab-separated line per span: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.span_names
            for i in range(len(self.starts)):
                fh.write(f"{names[self.names[i]]}\t{self.starts[i]!r}\t{self.ends[i]!r}"
                         f"\t{self.parents[i]}\t{self.ops[i]}\n")
