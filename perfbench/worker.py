"""One benchmark worker: a fresh interpreter, so irlab's caches start cold.

    python3 worker.py CPU

The worker pins itself to core CPU and starts a core-speed sampler (below)
before anything else.  Protocol, one JSON object per line.  The first stdin
line configures the worker: {"src": path, "specs": [paths], "trace": bool,
"spans": path or null}.  The worker imports irlab, optionally installs the
tracer, loads and validates every spec with ``load_ring_spec`` and answers
{"ready": true}.  Each further stdin line {"op": k, "argv": [...]} runs
``irlab.cli.main(argv)`` with stdout and stderr captured, and answers
{"op": k, "rc", "sha256", "error"}.  End of stdin ends the round; a traced
worker first answers {"trace": summary} and writes its spans.  Every answer
also carries "speed": [count, sum of seconds] of the sampler's probes since
the previous answer.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import threading
import time
import traceback

# The core-speed probe: a fixed product of two sparse dict polynomials, in the
# style of irlab's own arithmetic but independent of its code, so a change to
# irlab cannot change the probe.  On a shared host the core's speed changes by
# up to 1.75x within seconds (a busy hyperthread sibling); the probe's mean
# duration over an interval measures it for that interval.
_F = {(i % 3, i % 2, (i * 7) % 4, i % 5, (i * 3) % 2): 1 + i for i in range(12)}
_G = {((i * 5) % 3, i % 4, i % 2, (i * 2) % 3, i % 3): 7 + 3 * i for i in range(10)}
PROBE_EVERY_S = 0.05


def probe() -> float:
    start = time.perf_counter()
    res = {}
    for _ in range(2):
        for m1, c1 in _F.items():
            for m2, c2 in _G.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = (res.get(m, 0) + c1 * c2) % 32003
                if v:
                    res[m] = v
                else:
                    res.pop(m, None)
    return time.perf_counter() - start


class SpeedSampler:
    """Runs `probe` every PROBE_EVERY_S on the worker's (pinned) core.

    The probe needs the interpreter lock, so it runs between the main
    thread's bytecodes, on the same core; its cost is about 1 % of the run.
    """

    def __init__(self):
        self.samples: list = []
        self.taken = 0
        threading.Thread(target=self._loop, daemon=True).start()

    def _loop(self):
        while True:
            time.sleep(PROBE_EVERY_S)
            self.samples.append(probe())

    def drain(self) -> list:
        """[count, sum] of the probes since the previous call."""
        new = self.samples[self.taken:]
        self.taken += len(new)
        return [len(new), sum(new)]


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    sampler = SpeedSampler()
    out = sys.stdout

    def answer(obj):
        obj["speed"] = sampler.drain()
        out.write(json.dumps(obj) + "\n")
        out.flush()

    config = json.loads(sys.stdin.readline())
    sys.path.insert(0, config["src"])
    import irlab  # noqa: F401  (imports every layer)
    from irlab import cli

    tracer = None
    if config["trace"]:
        from tracer import Tracer  # the script's directory is on sys.path
        tracer = Tracer()
        tracer.install()
    for path in config["specs"]:
        cli.load_ring_spec(path)
    answer({"ready": True})

    for line in sys.stdin:
        request = json.loads(line)
        if tracer is not None:
            tracer.op = request["op"]
        captured, errors = io.StringIO(), io.StringIO()
        error = None
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(errors):
                rc = cli.main(request["argv"])
        except Exception:  # an uncaught exception is a failed operation
            rc, error = None, traceback.format_exc(limit=3)
        if error is None and rc != 0:
            error = errors.getvalue()[-400:]
        digest = hashlib.sha256(captured.getvalue().encode("utf-8")).hexdigest()
        answer({"op": request["op"], "rc": rc, "sha256": digest, "error": error})

    if tracer is not None:
        tracer.op = -1
        cache = sys.modules["irlab.modules"]._CYCLIC_CACHE
        tracer.count("modules.cyclic_cache_entries", len(cache))
        answer({"trace": tracer.summary()})
        if config.get("spans"):
            tracer.write_spans(config["spans"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
