"""Command-line surface: analyze / ir / stable / limit / reproduce-examples.

Input files are UTF-8 JSON ring specifications:

    {
      "label": "two 3-planes meeting along a line",
      "characteristic": 32003,
      "variables": ["a", "b", "c", "d", "e"],
      "ideal": ["a*c", "a*d", "b*c", "b*d"],
      "s2_ification": {"summands": [["a", "b"], ["c", "d"]]}
    }

`load_ring_spec` checks the JSON shape of a spec; `ring.ring` owns the rest of
the input grammar (variable names match [A-Za-z_][A-Za-z0-9_]*, distinct; a
prime characteristic below 2^31; ASCII polynomial tokens).  Generators, S2
summand generators included, and `ir --params` must be homogeneous.  A spec is
checked and parsed once; the `RingSpec` returned holds the parsed ideal and S2
summand ideals as plain fields.

Every command emits the same fixed-schema JSON report (text mode renders the
same data); reruns with equal (input, seed, version) are byte-identical.
Exit codes: 0 ok, 1 input/parse or usage error, 2 resource or search budget,
3 internal cross-check or invariant failure, 4 non-sop input, 5 failed golden assertion.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from importlib import resources

from .cohomology import cm_flags, socle_dimensions
from .errors import (InternalInvariantError, IrlabError, MethodDisagreement,
                     PolynomialParseError, PreconditionError, ResourceBudgetExceeded,
                     SearchExhausted)
from .filtration import classify_sequential, unmixed_component
from .groebner import Ideal
from .modules import Module
from .params import (ParameterList, construct_c_sop, index_of_reducibility,
                     is_system_of_parameters)
from .ring import ring
from .stable import (goto_suzuki_bound, limit_profile, stability_suite,
                     stable_value)

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_CROSSCHECK = 3
EXIT_NOT_SOP = 4
EXIT_GOLDEN = 5


def _parse_homogeneous(R, text, what):
    """`text` parsed over R; PreconditionError naming it unless it is homogeneous."""
    f = R.parse(text)
    if not f.is_homogeneous():
        raise PreconditionError(f"{what} {text!r} is not homogeneous")
    return f


@dataclass(frozen=True)
class RingSpec:
    """A loaded ring spec: the report label, the ideal (proper, homogeneous
    generators, parsed once; its ring carries the characteristic) and the S2
    summand ideals or None."""

    label: str
    ideal: Ideal
    s2: tuple | None


def _strings(value, what):
    """`value` as a tuple of strings; PreconditionError unless it is a JSON list of them."""
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise PreconditionError(f"{what} must be a list of strings, got {value!r:.60}")
    return tuple(value)


def load_ring_spec(path_or_dict) -> RingSpec:
    """Check a ring spec's JSON shape, then build its ring (`ring` checks the names
    and the characteristic) and parse over it (so bad input fails with a
    position).  Every generator, S2 summands too, must be homogeneous;
    the ideal must not be S."""
    if isinstance(path_or_dict, dict):
        data = path_or_dict
        label = data.get("label", "<inline>")
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:  # its text names the file
            raise PreconditionError(str(exc)) from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise PreconditionError(f"{path_or_dict}: {exc}") from exc
        if not isinstance(data, dict):
            raise PreconditionError(f"{path_or_dict}: a ring spec must be a JSON object")
        label = data.get("label", str(path_or_dict))
    if "variables" not in data or "ideal" not in data:
        raise PreconditionError("ring spec needs 'variables' and 'ideal' fields")
    if not isinstance(label, str):
        raise PreconditionError(f"label must be a string, got {label!r:.60}")
    # Every shape is checked before anything is parsed.
    variables = _strings(data["variables"], "variables")
    ideal_strings = _strings(data["ideal"], "ideal")
    summands = None
    if "s2_ification" in data:
        raw_s2 = data["s2_ification"]
        if not isinstance(raw_s2, dict) or "summands" not in raw_s2:
            raise PreconditionError("s2_ification currently supports the 'summands' form")
        summands = raw_s2["summands"]
        if not isinstance(summands, list) or not summands:
            raise PreconditionError(
                f"s2_ification summands must be a nonempty list, got {summands!r:.60}")
        summands = [_strings(g, "each s2_ification summand") for g in summands]
    try:
        R = ring(variables, data.get("characteristic", 32003))
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None
    ideal = Ideal(R, [_parse_homogeneous(R, s, "generator") for s in ideal_strings])
    if ideal.is_unit():
        raise PreconditionError("the ideal is the unit ideal; the module is zero")
    s2 = None
    if summands is not None:
        s2 = tuple(Ideal(R, [_parse_homogeneous(R, s, "S2 summand generator") for s in gens])
                   for gens in summands)
    return RingSpec(label, ideal, s2)


def base_report(spec: RingSpec, seed: int) -> dict:
    return {
        "input": spec.label,
        "char": spec.ideal.ring.p,
        "dim": None,
        "depth": None,
        "socle_dims": None,
        "flags": None,
        "filtration": None,
        "stable_value": None,
        "cross_checks": None,
        "alpha_profile": None,
        "diagnostics": {},
        "seed": seed,
        "version": VERSION,
    }


def _filtration_payload(ideal: Ideal):
    cls = classify_sequential(ideal)
    filt = cls.filtration
    steps = []
    for K, d in zip(filt.ideals, filt.dims):
        steps.append({"ideal": [str(g) for g in K.gens] or ["0"],
                      "dim": d if d >= 0 else None})
    return cls, {"steps": steps, "top_dim": filt.top_dim,
                 "satisfies_dimension_condition": filt.satisfies_dimension_condition()}


def analyze_payload(spec: RingSpec, seed: int) -> dict:
    ideal = spec.ideal
    M = Module.cyclic(ideal)
    report = base_report(spec, seed)
    report["dim"] = M.dim()
    report["depth"] = M.depth()
    report["socle_dims"] = list(socle_dimensions(M))
    flags = cm_flags(M)
    cls, filt_payload = _filtration_payload(ideal)
    report["flags"] = {
        "cm": flags.is_cm,
        "generalized_cm": flags.is_generalized_cm,
        "unmixed": flags.is_unmixed,
        "seq_cm": cls.is_sequentially_cm,
        "seq_gcm": cls.is_sequentially_gcm,
    }
    report["filtration"] = filt_payload
    gsb = goto_suzuki_bound(M)
    if gsb is not None:
        report["diagnostics"]["upper_bound_gcm"] = gsb
    if M.dim() >= 1:
        from .cohomology import annihilator_data
        data = annihilator_data(M)
        report["diagnostics"]["cohomology_annihilators"] = {
            "a_ideals": [[str(g) for g in a.minimal_generators()] or ["1"]
                         for a in data.annihilators],
            "a_product": [str(g) for g in data.product.minimal_generators()] or ["1"],
            "n0": data.n0,
        }
        diag: dict = {}
        unm = unmixed_component(ideal, seed=seed, report=diag)
        if unm != cls.filtration.ideals[-1]:
            raise InternalInvariantError(
                "the unmixed component disagrees with the filtration's top step")
        report["diagnostics"]["unmixed_component"] = {
            "ideal": [str(g) for g in unm.gens] or ["0"], **diag}
    return report


def render_text(report: dict, out) -> None:
    def emit(key, value, indent=0):
        pad = "  " * indent
        if isinstance(value, dict):
            print(f"{pad}{key}:", file=out)
            for k, v in value.items():
                emit(k, v, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:", file=out)
            for i, v in enumerate(value):
                emit(str(i), v, indent + 1)
        else:
            print(f"{pad}{key}: {value}", file=out)

    for key, value in report.items():
        if value is None:
            continue
        emit(key, value)


def emit_report(report: dict, args) -> None:
    if getattr(args, "text", False):
        render_text(report, sys.stdout)
    else:
        print(json.dumps(report, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    spec = load_ring_spec(args.file)
    report = analyze_payload(spec, args.seed)
    emit_report(report, args)
    return EXIT_OK


def cmd_ir(args) -> int:
    spec = load_ring_spec(args.file)
    ideal = spec.ideal
    R = ideal.ring
    report = base_report(spec, args.seed)
    if args.params:
        parsed = [_parse_homogeneous(R, s.strip(), "parameter")
                  for s in args.params.split(",") if s.strip()]
        elems = ParameterList(parsed, ideal, ideal + parsed)
        if not is_system_of_parameters(elems, ideal):
            d = Module.cyclic(ideal).dim()
            dims = []
            current = ideal
            for x in elems:
                current = current + x
                dims.append(current.krull_dimension())
            print(f"not a system of parameters: expected length {d}, "
                  f"prefix dimensions {dims}", file=sys.stderr)
            return EXIT_NOT_SOP
        result = index_of_reducibility(elems, ideal)
        report["diagnostics"]["ir"] = {
            "elements": [str(x) for x in elems],
            **result.to_payload(),
        }
    else:
        system = construct_c_sop(ideal, args.min_degree, args.seed)
        result = index_of_reducibility(system, ideal)
        report["diagnostics"]["ir"] = {
            "certificate": system.to_payload(),
            **result.to_payload(),
        }
    emit_report(report, args)
    return EXIT_OK


def cmd_stable(args) -> int:
    spec = load_ring_spec(args.file)
    ideal = spec.ideal
    report = base_report(spec, args.seed)
    sv = stable_value(ideal, seed=args.seed, s2=spec.s2)
    trials = stability_suite(ideal, trials=args.trials, seed=args.seed)
    report["stable_value"] = sv.value
    report["socle_dims"] = list(sv.socle)
    report["cross_checks"] = {k: v.to_payload() for k, v in sorted(sv.cross_checks.items())}
    report["diagnostics"]["witness"] = sv.witness.to_payload()
    report["diagnostics"]["stability"] = {
        "trials": trials,
        "all_agree": len(set(trials)) == 1 and (not trials or trials[0] == sv.value),
    }
    emit_report(report, args)
    if not sv.all_applicable_match() or not report["diagnostics"]["stability"]["all_agree"]:
        print("cross-check failure: an applicable formula or a rerun disagrees "
              "with the stable value", file=sys.stderr)
        return EXIT_CROSSCHECK
    return EXIT_OK


def cmd_limit(args) -> int:
    spec = load_ring_spec(args.file)
    ideal = spec.ideal
    report = base_report(spec, args.seed)
    profile = limit_profile(ideal, n_max=args.nmax, samples_per_n=args.samples,
                            seed=args.seed)
    report["alpha_profile"] = profile.to_payload()
    report["stable_value"] = profile.stable
    emit_report(report, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bundled corpus and the golden runner.

def load_corpus_spec(name: str) -> RingSpec:
    with (resources.files("irlab") / "corpus" / name).open("r", encoding="utf-8") as fh:
        data = json.load(fh)
    data.setdefault("label", name)
    return load_ring_spec(data)


def corpus_index() -> dict:
    with (resources.files("irlab") / "corpus" / "index.json").open("r") as fh:
        return json.load(fh)


def golden_assertions():
    """The bundled worked examples, as (name, thunk) pairs returning details.

    Thunks raise AssertionError with a message on failure.
    """

    def two_planes_structure():
        spec = load_corpus_spec("two_planes_3d.json")
        M = Module.cyclic(spec.ideal)
        assert M.dim() == 3, f"dim {M.dim()} != 3"
        assert M.depth() == 2, f"depth {M.depth()} != 2"
        assert socle_dimensions(M) == (0, 0, 1, 2), f"socle {socle_dimensions(M)}"
        assert cm_flags(M).is_unmixed, "should be unmixed"
        return "dim 3, depth 2, socle (0,0,1,2), unmixed"

    def two_planes_stable():
        spec = load_corpus_spec("two_planes_3d.json")
        sv = stable_value(spec.ideal, seed=0, s2=spec.s2)
        assert sv.value == 4, f"stable value {sv.value} != 4"
        c = sv.cross_checks["dim3_closure"]
        assert c.applicable and c.value == 4 and c.matches, f"closure formula {c}"
        return "stable value 4 = dimension-3 closure formula"

    def two_planes_socle_additivity():
        spec = load_corpus_spec("two_planes_3d.json")
        ideal = spec.ideal
        system = construct_c_sop(ideal, 1, seed=0)
        x = system.elements[-1]  # drawn from the annihilator cube of M itself
        quotient = Module.cyclic(ideal + x)
        got = socle_dimensions(quotient)
        assert got == (0, 1, 3), f"socle of M/xM is {got}, want (0, 1, 3)"
        return "socle additivity under a certified parameter element"

    def plane_line_structure():
        spec = load_corpus_spec("plane_and_line.json")
        ideal = spec.ideal
        cls = classify_sequential(ideal)
        assert cls.is_sequentially_cm, "should be sequentially CM"
        filt = cls.filtration
        R = ideal.ring
        assert list(filt.ideals) == [ideal, Ideal(R, [R.variable("x")])], \
            f"filtration {[str(k) for k in filt.ideals]}"
        return "filtration 0 < (x)/I < M, sequentially CM"

    def plane_line_stable():
        spec = load_corpus_spec("plane_and_line.json")
        ideal = spec.ideal
        M = Module.cyclic(ideal)
        sv = stable_value(ideal, seed=0)
        total = sum(socle_dimensions(M))
        assert sv.value == 2 == total, f"N {sv.value}, socle sum {total}"
        return "stable value 2 = socle sum (sequential CM equality)"

    def plane_line_profile():
        spec = load_corpus_spec("plane_and_line.json")
        profile = limit_profile(spec.ideal, n_max=3, samples_per_n=15, seed=0)
        for lv in profile.levels:
            assert max(lv.histogram) <= 2, f"level {lv.n} exceeded 2: {lv.histogram}"
            if lv.n >= 2:
                assert lv.min_ir == 2, f"level {lv.n} min {lv.min_ir}"
        return "profile pinned at 2 from depth level 2 on, never above 2"

    def buchsbaum_binomial():
        spec = load_corpus_spec("two_planes_origin.json")
        ideal = spec.ideal
        M = Module.cyclic(ideal)
        from .stable import formula_gcm
        got = formula_gcm(M)
        assert got is not None and got[0] == 4, f"binomial formula {got}"
        sv = stable_value(ideal, seed=0)
        assert sv.value == 4, f"stable {sv.value}"
        return "binomial socle formula 4 = stable value"

    def cm_control():
        spec = load_corpus_spec("cm_three_lines.json")
        ideal = spec.ideal
        M = Module.cyclic(ideal)
        s = socle_dimensions(M)
        sv = stable_value(ideal, seed=0)
        betti = M.resolution().betti_numbers()
        assert sv.value == s[-1] == betti[-1] == 2, \
            f"N {sv.value}, top socle {s[-1]}, last Betti {betti[-1]}"
        return "CM control: stable value = type = last Betti number = 2"

    return [
        ("two_planes_3d structure", two_planes_structure),
        ("two_planes_3d stable value", two_planes_stable),
        ("two_planes_3d socle additivity", two_planes_socle_additivity),
        ("plane_and_line filtration", plane_line_structure),
        ("plane_and_line stable value", plane_line_stable),
        ("plane_and_line limit profile", plane_line_profile),
        ("two_planes_origin binomial formula", buchsbaum_binomial),
        ("cm_three_lines Northcott control", cm_control),
    ]


def cmd_reproduce(args) -> int:
    import time
    rows = []
    failed = None
    for name, thunk in golden_assertions():
        if args.filter and args.filter not in name:
            continue
        start = time.time()
        try:
            detail = thunk()
            rows.append((name, "pass", time.time() - start, detail))
        except AssertionError as exc:
            rows.append((name, "FAIL", time.time() - start, str(exc)))
            if failed is None:
                failed = name
    if not rows:
        print(f"no golden assertion matches filter {args.filter!r}", file=sys.stderr)
        return EXIT_INPUT
    width = max(len(r[0]) for r in rows)
    for name, status, dt, detail in rows:
        print(f"{name:<{width}}  {status:<4}  {dt:6.1f}s  {detail}")
    if failed is not None:
        print(f"first failing assertion: {failed}", file=sys.stderr)
        return EXIT_GOLDEN
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors on the input-error exit code, not on 2 (budget)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


# The least value of each count option; below it the option is an input error.
_COUNT_FLOORS = {"min_degree": 1, "trials": 1, "nmax": 1, "samples": 0}


def _check_counts(args) -> None:
    for dest, least in _COUNT_FLOORS.items():
        value = getattr(args, dest, least)
        if value < least:
            raise PreconditionError(
                f"--{dest.replace('_', '-')} must be at least {least}, got {value}")


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="irlab",
        description="Indices of reducibility of parameter ideals: invariants, "
                    "stable values, and sampling profiles for graded quotient rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="ring spec JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--text", action="store_true", help="render as text instead of JSON")

    p = sub.add_parser("analyze", help="dimension, depth, socle vector, flags, filtration")
    common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("ir", help="index of reducibility of a parameter ideal")
    common(p)
    p.add_argument("--params", help="comma-separated parameter elements; "
                                    "omitted: construct a certified deep system")
    p.add_argument("--min-degree", type=int, default=1, dest="min_degree")
    p.set_defaults(func=cmd_ir)

    p = sub.add_parser("stable", help="stable value with formula cross-checks")
    common(p)
    p.add_argument("--trials", type=int, default=5)
    p.set_defaults(func=cmd_stable)

    p = sub.add_parser("limit", help="empirical profile of minimal ir per depth level")
    common(p)
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--samples", type=int, default=25)
    p.set_defaults(func=cmd_limit)

    p = sub.add_parser("reproduce-examples", help="run the bundled golden assertions")
    p.add_argument("--filter", default=None)
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_counts(args)
        return args.func(args)
    except (PolynomialParseError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ResourceBudgetExceeded, SearchExhausted) as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exhausted: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except (MethodDisagreement, InternalInvariantError) as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_CROSSCHECK
    except IrlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
