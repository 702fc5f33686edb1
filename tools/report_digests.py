#!/usr/bin/env python3
"""Print one SHA-256 per CLI report, to check that a change leaves every report
byte-identical.

Runs `irlab analyze|ir|stable <spec> --seed 0` and
`irlab limit <spec> --nmax 2 --samples 5 --seed 0` on each of the 27 bundled
corpus specs, and `irlab reproduce-examples` with its timing column masked,
each in a fresh interpreter on the source tree next to this script.  After
them come the same four commands on each stretch spec in `tools/stretch/`
(6-variable and non-monomial ideals the corpus lacks), except the pairs in
`SKIPPED`.  Each `ir <spec>` line is followed by `ir --params <spec>`, the
digest of `irlab ir <spec> --params <that report's certificate elements>
--seed 0` (the exit of `ir` itself when it failed).  Every line reads
`<sha256>  <command> <spec>`; a nonzero exit code from a command is printed
in place of its digest, as `exit <code>  <command> <spec>`.

Save the list of one checkout and check another against it:

    python3 tools/report_digests.py > before.txt            # first checkout
    python3 tools/report_digests.py --check before.txt      # second checkout

With `--check FILE` the lines are still printed; every line that differs
from FILE (changed, missing or extra) is also reported on stderr, and the
exit code is 1 when any line differs or any command exited nonzero, else 0.
"""

import argparse
import difflib
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "irlab" / "corpus"
STRETCH = ROOT / "tools" / "stretch"
COMMANDS = (("analyze",), ("ir",), ("stable",), ("limit", "--nmax", "2", "--samples", "5"))
GROUPS = ("golden", "cm_controls", "random_squarefree")
STRETCH_SPECS = ("minors23", "two3planes6", "mixed6", "plane_line5")
# (command, stretch spec) pairs left out, with the reason.
SKIPPED = {("stable", "two3planes6"): "about as long on its own as the 155 other lines "
                                      "together (70-80 s against 70 s on a 2-core host)"}
TIMING = re.compile(r"  (pass|FAIL)  +\d+\.\ds  ")


def irlab(*argv):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "irlab.cli", *argv], env=env,
                          capture_output=True, text=True)


def line(proc, label, out=None):
    if proc.returncode:
        return f"exit {proc.returncode}  {label}"
    text = proc.stdout if out is None else out
    return f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {label}"


def digest_lines():
    """Yield the digest line of every command, in a fixed order."""
    index = json.loads((CORPUS / "index.json").read_text())
    corpus = [(CORPUS, name[:-len(".json")]) for group in GROUPS for name in index[group]]
    stretch = [(STRETCH, name) for name in STRETCH_SPECS]
    with tempfile.TemporaryDirectory() as tmp:
        yield from spec_lines(corpus, tmp)
        proc = irlab("reproduce-examples")
        masked = "".join(TIMING.sub(r"  \1  <time>  ", row, count=1)
                         for row in proc.stdout.splitlines(keepends=True))
        yield line(proc, "reproduce-examples", masked)
        yield from spec_lines(stretch, tmp)


def spec_lines(specs, tmp):
    """Yield the digest line of every command on every (directory, name) spec."""
    for folder, name in specs:
        # The label is fixed here, so no report depends on a file path.
        data = json.loads((folder / f"{name}.json").read_text())
        data.setdefault("label", name)
        path = Path(tmp) / f"{name}.json"
        path.write_text(json.dumps(data, sort_keys=True, indent=1))
        for command, *options in COMMANDS:
            if (command, name) not in SKIPPED:
                proc = irlab(command, str(path), *options, "--seed", "0")
                yield line(proc, f"{command} {name}")
            if command == "ir":
                # the certified elements, handed back through --params
                if not proc.returncode:
                    cert = json.loads(proc.stdout)["diagnostics"]["ir"]["certificate"]
                    proc = irlab("ir", str(path), "--params", ",".join(cert["elements"]),
                                 "--seed", "0")
                yield line(proc, f"ir --params {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare against a saved digest list; exit 1 on any difference")
    args = parser.parse_args(argv)
    saved = Path(args.check).read_text().splitlines() if args.check else None
    got = []
    for row in digest_lines():
        print(row, flush=True)
        got.append(row)
    if saved is None:
        return 0
    bad = [row for row in got if row.startswith("exit ")]
    for row in bad:
        print(f"nonzero exit: {row}", file=sys.stderr)
    diff = list(difflib.unified_diff(saved, got, args.check, "this checkout", lineterm=""))
    for row in diff:
        print(row, file=sys.stderr)
    if bad or diff:
        return 1
    print(f"all {len(got)} digests match {args.check}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
