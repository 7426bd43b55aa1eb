"""The benchmark tracer wraps package functions by name: every name it
reads must still exist, or a rename would break a traced pass."""

import importlib.util
from pathlib import Path

from metaice import lattice, rvertex

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    hooks = _tracer().HOOKS
    assert hooks
    for owner, attrs, name, _span, _hook in hooks:
        for attr in attrs:
            assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)
    # the counters the tracer reads besides the wrapped calls
    assert isinstance(len(rvertex._R_MEMO), int)
    info = lattice._enumerate.cache_info()
    assert info.hits >= 0 and info.misses >= 0
