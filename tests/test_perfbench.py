"""The benchmark's tracer must fit the program's module attributes.

``perfbench/spans.py`` wraps functions by module attribute name; a refactor
that renames or removes one of them fails here instead of in a traced
benchmark run.  Its fit span counts trees and split nodes by walking
``model.trees``, so those views must keep matching the tree arrays.
"""

import importlib.util
import os
import sys

import numpy as np

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


def test_fit_span_counts_trees_and_splits():
    # the tracer counts split nodes by walking ``model.trees``
    rng = np.random.default_rng(3)
    X = rng.normal(size=(80, 6))
    y = X[:, 0] + rng.normal(size=80)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        result = gbm.fit(X, y, gbm.GBMConfig(n_trees=9, max_depth=3,
                                             min_samples_leaf=2))
    finally:
        tracer.uninstall()
    (span,) = [s for s in tracer.spans if s.name == "gbm.fit"]
    left = result.model.arrays.left
    splits = int(np.count_nonzero(left != np.arange(left.size)))  # leaves loop
    assert span.counts == {"trees": 9, "split_nodes": splits}
    assert 9 < splits <= 9 * 7
