"""One traced operation outside the timed workloads, for the heavy tail.

    python3 perfbench/split.py stable sqfree_17 [--seed 0] [--timeout 900]

Runs `irlab <command> <spec> --seed N` once in a traced worker and prints its
wall time and the self time of every wrapped name, largest first, as a share
of the wall time.  Run from the root of a checkout.
"""

import argparse
import sys
import time

from run import Op, SMALL_PRIME, run_round, write_specs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command")
    parser.add_argument("spec")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeout", type=float, default=900.0)
    args = parser.parse_args()
    op = Op(args.command, args.spec, SMALL_PRIME, seed=args.seed)
    write_specs([op])
    rnd = run_round([op], [0], True, None, time.perf_counter() + args.timeout,
                    op_timeout=args.timeout)
    if rnd.failures or rnd.trace is None:
        print(f"failed: {rnd.failures}", file=sys.stderr)
        return 1
    print(f"{op.key} seed={args.seed}: wall {rnd.wall_s:.1f} s, worker cpu {rnd.cpu_s:.1f} s")
    stats = sorted(rnd.trace["stats"].items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s) in stats:
        if self_s >= 0.005 * rnd.wall_s:
            print(f"  {name:<40} self {self_s:8.2f} s ({100 * self_s / rnd.wall_s:4.1f} %)"
                  f"  total {total:8.2f} s  calls {calls}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
