"""The benchmark under bench/ is frozen between its own revisions and calls
the program by name, so those names must keep resolving.  These tests only
read bench/: they load its span tables and scan the source of its workloads."""

import importlib
import importlib.util
import re
from pathlib import Path

from scgroups import groupring, linalg, scissors

BENCH = Path(__file__).resolve().parent.parent / "bench"

# how bench/workloads.py spells each module it calls into
WORKLOAD_ALIASES = {
    "scissors": r"prog\.scissors|sc",
    "valuation": r"prog\.valuation|val",
    "groupring": r"prog\.groupring|gr",
}


def _module(name):
    return importlib.import_module(f"scgroups.{name}")


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _spans()
    for modname, attr, *_ in spans.FUNCTIONS:
        assert callable(getattr(_module(modname), attr, None)), (modname, attr)
    assert set(spans.RELATION_METHODS) <= {m for _, _, m, *_ in spans.METHODS}
    for modname, cls, meth, *_ in spans.METHODS + spans.GENERATORS:
        klass = getattr(_module(modname), cls)
        assert callable(getattr(klass, meth, None)), (modname, cls, meth)


def test_workload_names_resolve():
    text = (BENCH / "workloads.py").read_text()
    for modname, alias in WORKLOAD_ALIASES.items():
        names = set(re.findall(rf"(?<![\w.])(?:{alias})\.(\w+)", text))
        assert names, modname
        for name in names:
            assert hasattr(_module(modname), name), (modname, name)


def test_shared_objects():
    # bench/test_checks.py needs the tracer to rebind this alias
    assert scissors.hnf_rows is linalg.hnf_rows
    assert scissors.pb_add is scissors.rp_add is groupring.add
    assert scissors.pb_scale is scissors.rp_scale is groupring.scale
