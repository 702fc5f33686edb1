"""What the benchmark relies on: the names its tracer wraps, and its reports."""

import hashlib
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from irlab import cli

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves():
    missing = []
    for layer, names in load_wrapped().items():
        module = importlib.import_module(f"irlab.{layer}")
        for dotted in names:
            if "." in dotted:
                cls_name, meth = dotted.split(".")
                cls = getattr(module, cls_name, None)
                if cls is None or meth not in cls.__dict__:
                    missing.append(f"{layer}.{dotted}")
            elif not hasattr(module, dotted):
                missing.append(f"{layer}.{dotted}")
    assert not missing, f"traced names gone from irlab: {missing}"


# -- report digests -------------------------------------------------------------
# The benchmark checks every report against a recorded SHA-256 digest; these
# run a fast subset in process, so a changed report fails here as well.

ROOT = TRACER.parent.parent
REFERENCE = ROOT / "perfbench" / "reference.json"
CORPUS = ROOT / "src" / "irlab" / "corpus"


DIGEST_OPS = [("stable", s, 32003, ())
              for s in ("two_planes_origin", "sqfree_13", "sqfree_15")]
DIGEST_OPS += [("limit", "two_planes_origin", p, ("--nmax", "4", "--samples", "25"))
               for p in (32003, 2147483647)]
DIGEST_OPS += [("limit", "sqfree_13", p, ("--nmax", "3", "--samples", "10"))
               for p in (32003, 2147483647)]
DIGEST_OPS += [("analyze", name[:-len(".json")], 2, ())
               for group in ("golden", "cm_controls", "random_squarefree")
               for name in cli.corpus_index()[group]]
DIGEST_KEYS = [" ".join((c, s, f"p={p}") + extra) for c, s, p, extra in DIGEST_OPS]


@pytest.mark.parametrize("command,spec,p,extra", DIGEST_OPS, ids=DIGEST_KEYS)
def test_report_digest_matches_reference(command, spec, p, extra, tmp_path, capsys):
    data = json.loads((CORPUS / f"{spec}.json").read_text())
    data["characteristic"] = p
    data.setdefault("label", spec)
    path = tmp_path / f"{spec}_p{p}.json"
    path.write_text(json.dumps(data, sort_keys=True, indent=1))
    capsys.readouterr()
    assert cli.main([command, str(path), "--seed", "0", *extra]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    reference = json.loads(REFERENCE.read_text())
    assert digest == reference[" ".join((command, spec, f"p={p}") + extra)]
