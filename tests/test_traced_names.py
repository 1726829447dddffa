"""The callables perfbench/tracer.py traces, resolved by name against the
reca under test, so that renaming or removing one fails here and not
only when the benchmark runs."""

import pytest

import reca

from conftest import load_file

tracer = load_file("perfbench/tracer.py")


@pytest.mark.parametrize("module, path, span", tracer.TARGETS,
                         ids=[span for _, _, span in tracer.TARGETS])
def test_every_traced_name_resolves(module, path, span):
    owner, attr = tracer.resolve(reca, module, path)
    assert callable(getattr(owner, attr)), span
