"""The benchmark tracer wraps irlab names by lookup; each must still exist."""

import importlib
import importlib.util
from pathlib import Path

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
