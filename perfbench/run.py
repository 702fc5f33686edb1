"""irlab benchmark: closed-loop CLI operations on the bundled corpus.

    python3 perfbench/run.py --workload deep-stable --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --record-reference

Run from the root of a checkout; the program is imported from ``src/``.  One
client runs one operation (ring x command) at a time through
``irlab.cli.main(argv)`` in a single-threaded worker process.  A run is a
series of rounds; each round starts a fresh worker, so irlab's caches start
cold, and runs every operation of the workload once, in an order drawn from
``--seed``.  Rounds repeat until ``--seconds`` would be exceeded.  Every report
is checked against the SHA-256 digest recorded in ``reference.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(medians over rounds); with ``--trace 1`` rounds alternate untraced and
traced, and it carries the per-layer metrics of the traced rounds.  Human
readable tables go to stdout before that line; mismatches and self-test
warnings go to stderr.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
CORPUS = SRC / "irlab" / "corpus"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"

# irlab's own seed for every operation.  Per-ring cost depends strongly on it
# (see README.md), so it is pinned: runs differ only in operation order, and
# two commits are compared on identical work.
IRLAB_SEED = 0
# An operation slower than this is killed and counted as failed.  Needed
# because one unlucky parameter draw can cost minutes: `stable` on sqfree_08
# takes over 300 s at seed 0 (README.md, heavy tail).
OP_TIMEOUT_S = 60.0
# Nothing is started after this many seconds, so a run ends within 180 s.
RUN_DEADLINE_S = 150.0
SETUP_PROBES = 5
# The worker's core-speed probe (worker.py) takes this long on an uncontended
# core of the 2-vCPU host it was tuned on.  Times in the result line are
# reference-core seconds: measured seconds x REF_PROBE_S / mean probe time.
REF_PROBE_S = 0.0003
# An operation with at least this many probes (a second of them) is scaled by
# its own probes; a shorter one by its round's.
OWN_SCALE_PROBES = 20
# Workers run pinned to one core, so the probe measures the core they run on.
WORKER_CPU = max(os.sched_getaffinity(0))
SMALL_PRIME, LARGE_PRIME = 32003, 2147483647


@dataclass(frozen=True)
class Op:
    command: str
    spec: str
    p: int
    extra: tuple = ()
    seed: int = IRLAB_SEED

    @property
    def key(self) -> str:
        return " ".join((self.command, self.spec, f"p={self.p}") + self.extra)

    @property
    def spec_path(self) -> Path:
        return WORK / "specs" / f"{self.spec}_p{self.p}.json"

    def argv(self) -> list:
        return [self.command, str(self.spec_path), "--seed", str(self.seed), *self.extra]


def corpus_names() -> list:
    index = json.loads((CORPUS / "index.json").read_text())
    groups = ("golden", "cm_controls", "random_squarefree")
    return [name[:-len(".json")] for g in groups for name in index[g]]


WORKLOADS = {
    # Certified deep systems: stable_value plus the 5-trial stability suite.
    "deep-stable": lambda: [Op("stable", s, SMALL_PRIME)
                            for s in ("two_planes_origin", "sqfree_13", "sqfree_15")],
    # Hundreds of ir calls on random non-monomial systems, at a small and a
    # large prime.
    "limit-sampling": lambda: [
        Op("limit", s, p, ("--nmax", str(nmax), "--samples", str(samples)))
        for p in (SMALL_PRIME, LARGE_PRIME)
        for s, nmax, samples in (("two_planes_origin", 4, 25), ("sqfree_13", 3, 10))],
    # Every bundled spec at three primes: many tiny syzygy runs, no ir.
    "corpus-analyze": lambda: [Op("analyze", s, p)
                               for p in (2, SMALL_PRIME, LARGE_PRIME)
                               for s in corpus_names()],
}


def write_specs(ops) -> None:
    (WORK / "specs").mkdir(parents=True, exist_ok=True)
    for op in ops:
        data = json.loads((CORPUS / f"{op.spec}.json").read_text())
        data["characteristic"] = op.p
        data.setdefault("label", op.spec)
        op.spec_path.write_text(json.dumps(data, sort_keys=True, indent=1))


def steal_ticks():
    """Host steal ticks summed over CPUs, from /proc/stat (read only)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def scale_of(probes) -> float:
    """Reference-core seconds per measured second, from (count, summed seconds)
    of speed probes; 1.0 when there are none."""
    count, seconds = probes
    return REF_PROBE_S * count / seconds if count else 1.0


class WorkerError(Exception):
    pass


class Worker:
    """A worker process with line-based JSON requests and replies."""

    def __init__(self, specs, trace: bool = False, spans: Path | None = None):
        start = time.perf_counter()
        # A single-threaded worker: no idle BLAS thread pool (irlab's integer
        # matrix products do not use BLAS).
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(WORKER_CPU)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.buf = b""
        self.rss_mb = self.cpu_s = None
        self.probes = [0, 0.0]  # count and summed seconds of speed probes
        config = {"src": str(SRC), "specs": [str(s) for s in specs], "trace": trace,
                  "spans": str(spans) if spans else None}
        try:
            self.send(config)
            self.read(OP_TIMEOUT_S)
        except WorkerError:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def send(self, obj) -> None:
        try:
            self.proc.stdin.write((json.dumps(obj) + "\n").encode())
            self.proc.stdin.flush()
        except BrokenPipeError as exc:
            raise WorkerError("worker exited") from exc

    def read(self, timeout: float):
        fd = self.proc.stdout.fileno()
        deadline = time.perf_counter() + timeout
        while b"\n" not in self.buf:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise WorkerError(f"no reply within {timeout:.1f} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise WorkerError("worker exited")
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        reply = json.loads(line)
        count, seconds = reply["speed"]
        self.probes[0] += count
        self.probes[1] += seconds
        return reply

    def _reap(self) -> None:
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # kilobytes on Linux
        self.cpu_s = usage.ru_utime + usage.ru_stime

    def close(self, trace: bool = False):
        """End the worker; returns its trace summary when traced."""
        summary = None
        try:
            self.proc.stdin.close()
            if trace:
                summary = self.read(OP_TIMEOUT_S)["trace"]
        except (WorkerError, BrokenPipeError):
            self.proc.kill()
        finally:
            self._reap()
        return summary

    def kill(self) -> None:
        self.proc.kill()
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        self._reap()


@dataclass
class Round:
    traced: bool
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    steal: int | None = None
    op_s: dict = field(default_factory=dict)  # measured seconds
    op_scale: dict = field(default_factory=dict)  # long operations only
    digests: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)  # op key -> reason
    window: tuple = (0.0, 0.0)
    trace: dict | None = None
    probes: tuple = (0, 0.0)

    @property
    def scale(self) -> float:
        """Reference-core seconds per measured second in this round."""
        return scale_of(self.probes)


def run_round(ops, order, traced: bool, spans: Path | None, deadline: float,
              op_timeout: float = OP_TIMEOUT_S) -> Round:
    specs = sorted({op.spec_path for op in ops})
    steal0 = steal_ticks()
    rnd = Round(traced)
    workers, worker = [], None
    first = None
    try:
        for k in order:
            op = ops[k]
            if deadline - time.perf_counter() <= 0:
                rnd.failures[op.key] = "run deadline reached before it started"
                continue
            if worker is None:  # the first, or the last one timed out or died
                try:
                    worker = Worker(specs, traced, spans)
                except WorkerError as exc:
                    rnd.failures[op.key] = f"worker did not start: {exc}"
                    continue
                workers.append(worker)
                if first is None:  # a restart's set-up counts as wall time
                    rnd.setup_s, first = worker.setup_s, time.perf_counter()
            left = min(op_timeout, deadline - time.perf_counter())
            t0 = time.perf_counter()
            try:
                worker.send({"op": k, "argv": op.argv()})
                reply = worker.read(left)
            except WorkerError as exc:
                rnd.op_s[op.key] = time.perf_counter() - t0
                worker.kill()
                worker = None
                rnd.failures[op.key] = str(exc)
                continue
            rnd.op_s[op.key] = time.perf_counter() - t0
            if reply["speed"][0] >= OWN_SCALE_PROBES:
                rnd.op_scale[op.key] = scale_of(reply["speed"])
            rnd.digests[op.key] = reply["sha256"]
            if reply["rc"] != 0:
                rnd.failures[op.key] = f"exit {reply['rc']}: {reply['error']}"
        last = time.perf_counter()
        if first is not None:
            rnd.wall_s, rnd.window = last - first, (first, last)
        if worker is not None:
            rnd.trace = worker.close(traced)
    finally:
        for w in workers:
            if w.proc.returncode is None:
                w.kill()
    steal1 = steal_ticks()
    rnd.steal = None if steal0 is None or steal1 is None else steal1 - steal0
    rnd.cpu_s = sum(w.cpu_s for w in workers)
    rnd.probes = (sum(w.probes[0] for w in workers), sum(w.probes[1] for w in workers))
    rnd.rss_mb = max((w.rss_mb for w in workers), default=0.0)
    return rnd


def check_reference(rounds, reference) -> None:
    for rnd in rounds:
        for key, digest in rnd.digests.items():
            want = reference.get(key)
            if want != digest and key not in rnd.failures:
                rnd.failures[key] = (f"report digest {digest[:16]} differs from "
                                     f"reference {str(want)[:16]}")


def median(values):
    return statistics.median(values) if values else float("nan")


def slowest(rnd: Round) -> float:
    """Measured seconds of the round's slowest operation."""
    return max(rnd.op_s.values(), default=float("nan"))


def slowest_ref(rnd: Round) -> float:
    """Reference-core seconds of the round's slowest operation."""
    return max((s * rnd.op_scale.get(key, rnd.scale) for key, s in rnd.op_s.items()),
               default=float("nan"))


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(rnd: Round) -> dict:
    """Per-layer metrics of one traced round, as {name: (value, unit)}."""
    summary = rnd.trace
    stats = summary["stats"]
    pairs = {(a, b): n for a, b, n in summary["pairs"]}
    counters = summary["counters"]

    def calls(name):
        return stats[name][0]

    def total(name):
        return stats[name][1]

    def self_s(name):
        return stats[name][2]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name in ("groebner.syzygies_raw", "groebner.buchberger",
                 "groebner.GroebnerBasis.normal_form", "linalg.rref_mod_p",
                 "linalg.SpanTracker.add"):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.self_s"] = (self_s(name), "s")
    out["groebner.Ideal.saturation.calls"] = (calls("groebner.Ideal.saturation"), "count")
    out["groebner.Ideal.saturation.colon_iters"] = (
        pairs.get(("groebner.Ideal.saturation", "groebner.Ideal.colon"), 0), "count")
    out["groebner.Ideal.krull_dimension.calls"] = (
        calls("groebner.Ideal.krull_dimension"), "count")
    out["linalg.rref_mod_p.cells"] = (counters.get("linalg.rref_mod_p.cells", 0), "count")
    out["modules.Module.minimal_presentation.calls"] = (
        calls("modules.Module.minimal_presentation"), "count")
    cyclic = calls("modules.Module.cyclic")
    out["modules.Module.cyclic.calls"] = (cyclic, "count")
    out["modules.Module.cyclic.hit_ratio"] = (
        ratio(counters.get("modules.Module.cyclic.hits", 0), cyclic), "ratio")
    out["modules.cyclic_cache_entries"] = (counters["modules.cyclic_cache_entries"], "count")
    out["cohomology.annihilator_data.calls"] = (calls("cohomology.annihilator_data"), "count")
    out["cohomology.annihilator_data.repeat_calls"] = (
        counters.get("cohomology.annihilator_data.repeat_calls", 0), "count")
    out["params.construct_c_sop.calls"] = (calls("params.construct_c_sop"), "count")
    out["params.find_parameter_element.calls"] = (
        calls("params.find_parameter_element"), "count")
    candidates = pairs.get(("params.find_parameter_element",
                            "groebner.Ideal.krull_dimension"), 0)
    out["params.find_parameter_element.candidates"] = (candidates, "count")
    out["params.find_parameter_element.accept_ratio"] = (
        ratio(counters.get("params.find_parameter_element.accepted", 0), candidates), "ratio")
    out["params.index_of_reducibility.calls"] = (
        calls("params.index_of_reducibility"), "count")
    sop = calls("stable.random_sop")
    out["stable.random_sop.calls"] = (sop, "count")
    out["stable.random_sop.success_ratio"] = (
        ratio(counters.get("stable.random_sop.successes", 0), sop), "ratio")
    for name in ("groebner.Ideal.colon", "groebner.Ideal.intersect",
                 "modules.Module.resolution", "modules.Module.ext",
                 "modules.Module.annihilator", "cohomology.annihilator_data",
                 "cohomology.socle_dimensions", "cohomology.cm_flags",
                 "filtration.unmixed_component", "filtration.classify_sequential",
                 "params.construct_c_sop", "params.index_of_reducibility",
                 "stable.stable_value", "stable.stability_suite", "stable.limit_profile",
                 "cli.load_ring_spec"):
        out[f"{name}.total_s"] = (total(name), "s")
    spans_s = total("params._socle_by_degreewise_spans")
    out["params.ir.spans_s"] = (spans_s, "s")
    out["params.ir.kernel_s"] = (total("params.socle_dimension_artinian") - spans_s, "s")
    root_s = sum(end - start for start, end in summary["roots"])
    out["other_s"] = (rnd.wall_s - root_s, "s")
    return {name: (value * rnd.scale if unit == "s" else value, unit)
            for name, (value, unit) in out.items()}


# Layer times that read exactly 0.0 on a workload that never reaches the layer
# (ir on corpus-analyze, the filtration on limit-sampling, each stable.* entry
# point outside its own workload).  They are printed in the table; the result
# line carries their call counts instead.
TABLE_ONLY = ("linalg.rref_mod_p.self_s", "groebner.Ideal.intersect.total_s",
              "cohomology.cm_flags.total_s", "filtration.unmixed_component.total_s",
              "filtration.classify_sequential.total_s", "params.construct_c_sop.total_s",
              "params.index_of_reducibility.total_s", "params.ir.spans_s",
              "params.ir.kernel_s", "stable.stable_value.total_s",
              "stable.stability_suite.total_s", "stable.limit_profile.total_s")


# Wrapped names each workload must call at least once (tracer self-test).
ALWAYS = ("cli.load_ring_spec", "cli.emit_report", "groebner.buchberger",
          "groebner.syzygies_raw", "groebner.GroebnerBasis.normal_form",
          "groebner.Ideal.saturation", "groebner.Ideal.colon", "groebner.Ideal.krull_dimension",
          "groebner.Ideal.minimal_generators", "modules.Module.cyclic",
          "modules.Module.minimal_presentation", "modules.Module.resolution",
          "modules.Module.ext", "modules.Module.annihilator",
          "cohomology.annihilator_data", "cohomology.socle_dimensions",
          "params.find_parameter_element")
IR = ("params.construct_c_sop", "params.index_of_reducibility",
      "params.socle_dimension_artinian", "params._socle_by_degreewise_spans",
      "params.is_system_of_parameters", "linalg.rref_mod_p", "linalg.rank_mod_p",
      "linalg.nullity_mod_p", "groebner.Ideal.standard_monomials")
PREDICTED = {
    "deep-stable": ALWAYS + IR + (
        "cli.cmd_stable", "cohomology.cm_flags", "filtration.unmixed_component",
        "filtration.dimension_filtration", "filtration.classify_sequential",
        "stable.stable_value", "stable.stability_suite", "stable.formula_gcm",
        "stable.formula_seq"),
    "limit-sampling": ALWAYS + IR + (
        "cli.cmd_limit", "stable.limit_profile", "stable.random_sop"),
    "corpus-analyze": ALWAYS + (
        "cli.cmd_analyze", "cli.analyze_payload", "cohomology.cm_flags",
        "filtration.unmixed_component", "filtration.dimension_filtration",
        "filtration.classify_sequential", "stable.goto_suzuki_bound",
        "groebner.Ideal.colon_element"),
}


def self_test(workload, rounds) -> list:
    """Problems found in the traced rounds; an empty list when all is well."""
    problems = []
    untraced = [r for r in rounds if not r.traced]
    for rnd in rounds:
        if not rnd.traced or rnd.trace is None:
            continue
        stats = rnd.trace["stats"]
        for name in PREDICTED[workload]:
            if stats.get(name, [0])[0] == 0:
                problems.append(f"{name} recorded no call")
        for ref in untraced:
            for key, digest in rnd.digests.items():
                if key in ref.digests and ref.digests[key] != digest:
                    problems.append(f"traced report of {key} differs from untraced")
        first, last = rnd.window
        roots = sorted(rnd.trace["roots"])
        if any(s < first or e > last for s, e in roots):
            problems.append("a root span lies outside the round's wall window")
        if any(b[0] < a[1] for a, b in zip(roots, roots[1:])):
            problems.append("root spans overlap")
    return problems


# -- the run -------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool, reference: dict):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    ops = WORKLOADS[workload]()
    write_specs(ops)
    specs = sorted({op.spec_path for op in ops})
    setups, probes = [], [0, 0.0]
    for _ in range(SETUP_PROBES):
        probe = Worker(specs)
        setups.append(probe.setup_s)
        probe.close()
        probes = [a + b for a, b in zip(probes, probe.probes)]
    rng = random.Random(f"{workload}/{seed}")
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    rounds = []
    needed = 2 if trace else 1  # a traced run needs an untraced and a traced round
    start = time.perf_counter()
    while True:
        longest = max((r.setup_s + r.wall_s for r in rounds), default=0.0)
        if len(rounds) >= needed and time.perf_counter() - start + longest > seconds:
            break
        if time.perf_counter() >= deadline:
            break
        order = list(range(len(ops)))
        rng.shuffle(order)
        traced = trace and len(rounds) % 2 == 1
        spans = spans_dir / f"{workload}-seed{seed}-round{len(rounds)}.tsv" if traced else None
        rounds.append(run_round(ops, order, traced, spans, deadline))
    check_reference(rounds, reference)
    setups += [r.setup_s for r in rounds if r.op_s]
    for r in rounds:
        probes = [a + b for a, b in zip(probes, r.probes)]
    # Set-up is too short to sample well on its own, so it takes the run's scale.
    return ops, [x * scale_of(probes) for x in setups], rounds


def report(workload, seed, trace, ops, setups, rounds) -> dict:
    attempted = len(ops) * len(rounds)
    failed = sum(len(r.failures) for r in rounds)
    for i, rnd in enumerate(rounds):
        for key, reason in rnd.failures.items():
            print(f"FAILED round {i}: {key}: {reason}", file=sys.stderr)
    print(f"# irlab benchmark  workload={workload}  seed={seed}  trace={int(trace)}  "
          f"irlab seed={IRLAB_SEED}  rounds={len(rounds)}")
    print("# round  traced  setup_s  wall_s  slowest_op_s  worker_cpu_s  steal_ticks  "
          "peak_rss_mb  failed  scale   (measured seconds; scale = reference s per s)")
    for i, r in enumerate(rounds):
        print(f"  {i:5d}  {int(r.traced):6d}  {r.setup_s:7.3f}  {r.wall_s:6.2f}  "
              f"{slowest(r):12.3f}  {r.cpu_s:12.2f}  {r.steal!s:>11}  {r.rss_mb:11.1f}  "
              f"{len(r.failures):6d}  {r.scale:.3f}")
    plain = [r for r in rounds if not r.traced]
    e2e = {
        "setup_s": (median(setups), "s", len(setups)),
        "wall_s": (median([r.wall_s * r.scale for r in plain]), "s", len(plain)),
        "slowest_op_s": (median([slowest_ref(r) for r in plain]), "s", len(plain)),
        "peak_rss_mb": (median([r.rss_mb for r in plain]), "MB", len(plain)),
    }
    print("# end-to-end (median over samples; times in reference-core seconds)")
    for name, (value, unit, n) in e2e.items():
        print(f"  {name:<14} {value:12.4f} {unit:<5} n={n}")
    print(f"  {'failed_frac':<14} {failed / attempted:12.4f} ratio n={attempted}")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit, _) in e2e.items()}

    if trace:
        traced = [r for r in rounds if r.traced and r.trace is not None]
        per_round = [layer_metrics(r) for r in traced]
        # Counts repeat exactly from one traced round to the next; times vary.
        layers = {name: ((median if unit == "s" else statistics.median_low)(
                      [m[name][0] for m in per_round]), unit)
                  for name, (_, unit) in per_round[0].items()} if per_round else {}
        overhead = (median([r.wall_s * r.scale for r in traced]) / e2e["wall_s"][0] - 1.0
                    if traced else float("nan"))
        layers["trace.overhead_frac"] = (overhead, "ratio")
        print(f"# per-layer (traced rounds: {len(traced)}; spans per round: "
              f"{[r.trace['spans'] for r in traced]})")
        for name, (value, unit) in layers.items():
            print(f"  {name:<45} {value:14.4f} {unit}")
        problems = self_test(workload, rounds)
        for problem in problems:
            print(f"SELF-TEST: {problem}", file=sys.stderr)
        print(f"# tracer self-test: {'ok' if not problems else f'{len(problems)} problems'}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in layers.items() if name not in TABLE_ONLY}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_reference() -> None:
    """Run one untraced round of every workload and store its report digests."""
    digests = {}
    deadline = time.perf_counter() + 3600
    for workload, build in WORKLOADS.items():
        ops = build()
        write_specs(ops)
        rnd = run_round(ops, list(range(len(ops))), False, None, deadline)
        if rnd.failures:
            raise SystemExit(f"{workload}: failures while recording: {rnd.failures}")
        digests.update(rnd.digests)
        print(f"{workload}: {len(rnd.digests)} reports in {rnd.wall_s:.1f} s")
    REFERENCE.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store the report digests of this checkout")
    args = parser.parse_args(argv)
    if not (SRC / "irlab" / "cli.py").is_file():
        print(f"no irlab source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    try:
        ops, setups, rounds = run(args.workload, args.seed, args.seconds, bool(args.trace),
                                  reference)
    except WorkerError as exc:  # irlab does not import or a spec does not load
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, args.seed, bool(args.trace), ops, setups, rounds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
