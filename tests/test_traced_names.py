"""The callables perfbench/tracer.py traces, resolved by name against the
reca under test, so that renaming or removing one fails here and not
only when the benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

import reca

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("module, path, span", tracer.TARGETS,
                         ids=[span for _, _, span in tracer.TARGETS])
def test_every_traced_name_resolves(module, path, span):
    owner, attr = tracer.resolve(reca, module, path)
    assert callable(getattr(owner, attr)), span
