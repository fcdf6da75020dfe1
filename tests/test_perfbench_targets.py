"""perfbench's traced run (``perfbench/run.py --trace 1``) wraps the
program's functions by ``module:qualname``. A refactor that renames or
moves one of them stops that run, so every target must still resolve to a
function of its own module or class. The test only reads ``perfbench/``."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.core.coverage import coverage_bounds


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans = _load_spans()
TARGETS = {**spans.QUERY_TARGETS, **spans.BUILD_TARGETS, **spans.STORAGE_TARGETS}


@pytest.mark.parametrize("target", sorted(set(TARGETS.values())))
def test_trace_target_resolves(target):
    mod_name, _, qualname = target.partition(":")
    owner = importlib.import_module(mod_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr, None)), target
    if isinstance(owner, type):
        # A wrapper on an inherited method would not see the class's calls.
        assert attr in owner.__dict__, target


def test_coverage_bounds_parameters_read_by_position():
    """The ``count_bins`` hook reads ``(beta, h, uniq, M)`` from the first
    four positional arguments of ``coverage_bounds``."""
    params = list(inspect.signature(coverage_bounds).parameters)
    assert params[:4] == ["beta", "h", "uniq", "M"]
