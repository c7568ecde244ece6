"""The benchmark's tracer must fit the program's module attributes.

``perfbench/spans.py`` wraps functions by module attribute name; a refactor
that renames or removes one of them fails here instead of in a traced
benchmark run.
"""

import importlib.util
import os
import sys

from pollencast import backtest, cli, gbm, pipeline

SPANS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    modules = (backtest, cli, gbm, pipeline)
    before = [dict(vars(m)) for m in modules]
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert any(vars(m) != b for m, b in zip(modules, before))
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before
