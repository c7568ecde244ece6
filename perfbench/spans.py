"""In-memory spans around the calls into each pollencast module.

The program has no tracing of its own, so the traced run patches module
attributes: each public function a module calls (or imports by name) is
replaced by a wrapper that records a span with its parent, then restored.
``build_s2`` binds ``gbm.fit`` as a default argument, so its wrapper passes
the traced fit through the public ``stage1_fit`` hook instead.
"""

from __future__ import annotations

import os
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from pollencast import backtest, cli, gbm, pipeline


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class CapturedFit:
    """Inputs and result of one ``gbm.fit`` call, kept for the curve check."""

    X: np.ndarray
    y: np.ndarray
    result: Any


def _split_nodes(model) -> int:
    count = 0
    for tree in model.trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                count += 1
                stack.extend((node.left, node.right))
    return count


def _file_bytes(*paths: str) -> int:
    return sum(os.path.getsize(p) for p in paths)


class Tracer:
    """Records spans while installed; ``op`` tags spans with the operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.fits: list[CapturedFit] = []
        self.op = 0
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def _wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        count: Callable[..., dict[str, float]] | None = None,
        prepare: Callable[[tuple, dict], tuple[tuple, dict]] | None = None,
    ) -> None:
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            span = Span(name, self.op, self._stack[-1] if self._stack else None,
                        time.perf_counter())
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span.counts = count(result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        def fit_counts(result, X, y, *_a, **_k):
            self.fits.append(CapturedFit(np.array(X), np.array(y), result))
            return {"trees": len(result.model.trees),
                    "split_nodes": _split_nodes(result.model)}

        def with_traced_fit(args, kwargs):
            # stage1_fit is build_s2's 11th parameter
            if len(args) < 11 and "stage1_fit" not in kwargs:
                kwargs = dict(kwargs, stage1_fit=gbm.fit)
            return args, kwargs

        def rows_used(result, *_a, **_k):
            return {"rows_used": len(result)}

        w = self._wrap
        w(gbm, "fit", "gbm.fit", fit_counts)
        w(gbm, "predict_batch", "gbm.predict_batch",
          lambda r, model, X, *_a, **_k: {"rows": len(X)})
        w(pipeline, "build_feature_matrix", "features.build_feature_matrix",
          lambda r, *_a, **_k: {"rows_built": len(r)})
        w(pipeline, "build_s1", "pipeline.build_s1", rows_used)
        w(pipeline, "build_s2", "pipeline.build_s2", rows_used, with_traced_fit)
        w(pipeline, "fit_stage1", "pipeline.fit_stage1")
        w(pipeline, "fit_stage2", "pipeline.fit_stage2")
        w(pipeline, "predict_series", "pipeline.predict_series", rows_used)
        w(cli, "ingest_csv", "data.ingest_csv",
          lambda r, *_a, **_k: {"rows": len(r)})
        w(cli, "train_forecaster", "pipeline.train_forecaster")
        w(cli, "save_forecaster", "pipeline.save_forecaster",
          lambda r, fc, path, *_a, **_k: {"bytes": _file_bytes(path)})
        w(cli, "load_forecaster", "pipeline.load_forecaster",
          lambda r, path, *_a, **_k: {"bytes": _file_bytes(path)})
        w(cli, "fit_wls", "wls.fit_wls")
        w(cli, "final_forecast", "wls.final_forecast")
        w(backtest, "rolling_backtest", "backtest.rolling_backtest")
        w(backtest, "emit_report", "backtest.emit_report",
          lambda r, *_a, **_k: {"bytes": _file_bytes(*r)})
        w(backtest, "train_forecaster", "backtest.train_forecaster")
        w(backtest, "fit_wls", "wls.fit_wls")
        w(backtest, "final_forecast", "wls.final_forecast")
        w(backtest, "min_days", "wls.min_days")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived per-layer metrics --------------------------------------

    def _named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def _seconds(self, name: str) -> float:
        return sum(s.seconds for s in self._named(name))

    def _count(self, name: str, key: str) -> float:
        return sum(s.counts.get(key, 0) for s in self._named(name))

    def _fold_max(self) -> float:
        """Slowest fold per backtest: a fold runs from its train_forecaster
        call to the next fold's, the last one to the end of the backtest."""
        total = 0.0
        for i, outer in enumerate(self.spans):
            if outer.name != "backtest.rolling_backtest":
                continue
            starts = [s.start for s in self.spans
                      if s.parent == i and s.name == "backtest.train_forecaster"]
            ends = starts[1:] + [outer.end]
            total += max((b - a for a, b in zip(starts, ends)), default=0.0)
        return total

    def _build_s2_self(self) -> float:
        total = 0.0
        for i, span in enumerate(self.spans):
            if span.name == "pipeline.build_s2":
                fits = sum(s.seconds for s in self.spans
                           if s.parent == i and s.name == "gbm.fit")
                total += span.seconds - fits
        return total

    def layer_metrics(self, n_ops: int, overhead_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, per traced operation, with its unit."""
        per_op = 1.0 / n_ops
        trees = self._count("gbm.fit", "trees")
        rows_built = self._count("features.build_feature_matrix", "rows_built")
        rows_used = sum(self._count(n, "rows_used") for n in (
            "pipeline.build_s1", "pipeline.build_s2", "pipeline.predict_series"))
        fit_s = self._seconds("gbm.fit")
        return {
            "data.ingest_csv.s": (self._seconds("data.ingest_csv") * per_op, "s"),
            "data.ingest_csv.rows": (self._count("data.ingest_csv", "rows") * per_op, "count"),
            "features.build_feature_matrix.s": (
                self._seconds("features.build_feature_matrix") * per_op, "s"),
            "features.build_feature_matrix.calls": (
                len(self._named("features.build_feature_matrix")) * per_op, "count"),
            "features.rows_built": (rows_built * per_op, "count"),
            "features.rows_used_ratio": (
                rows_used / rows_built if rows_built else 0.0, "ratio"),
            "gbm.fit.s": (fit_s * per_op, "s"),
            "gbm.fit.calls": (len(self._named("gbm.fit")) * per_op, "count"),
            "gbm.fit.trees": (trees * per_op, "count"),
            "gbm.fit.ms_per_tree": (1000.0 * fit_s / trees if trees else 0.0, "ms"),
            "gbm.split_nodes": (self._count("gbm.fit", "split_nodes") * per_op, "count"),
            "gbm.predict_batch.s": (self._seconds("gbm.predict_batch") * per_op, "s"),
            "gbm.predict_batch.rows": (
                self._count("gbm.predict_batch", "rows") * per_op, "count"),
            "pipeline.build_s1.s": (self._seconds("pipeline.build_s1") * per_op, "s"),
            "pipeline.fit_stage1.s": (self._seconds("pipeline.fit_stage1") * per_op, "s"),
            "pipeline.fit_stage2.s": (self._seconds("pipeline.fit_stage2") * per_op, "s"),
            "pipeline.build_s2.s": (self._seconds("pipeline.build_s2") * per_op, "s"),
            "pipeline.build_s2.self_s": (self._build_s2_self() * per_op, "s"),
            "pipeline.build_s2.fits": (
                sum(1 for s in self.spans if s.name == "gbm.fit" and s.parent is not None
                    and self.spans[s.parent].name == "pipeline.build_s2") * per_op,
                "count"),
            "pipeline.predict_series.s": (
                self._seconds("pipeline.predict_series") * per_op, "s"),
            "pipeline.save_forecaster.s": (
                self._seconds("pipeline.save_forecaster") * per_op, "s"),
            "pipeline.load_forecaster.s": (
                self._seconds("pipeline.load_forecaster") * per_op, "s"),
            "pipeline.bundle_bytes": (
                (self._count("pipeline.save_forecaster", "bytes")
                 + self._count("pipeline.load_forecaster", "bytes")) * per_op, "bytes"),
            "wls.fit_wls.s": (self._seconds("wls.fit_wls") * per_op, "s"),
            "wls.fit_wls.calls": (len(self._named("wls.fit_wls")) * per_op, "count"),
            "wls.min_days.s": (self._seconds("wls.min_days") * per_op, "s"),
            "backtest.train_forecaster.s": (
                self._seconds("backtest.train_forecaster") * per_op, "s"),
            "backtest.fold_max_s": (self._fold_max() * per_op, "s"),
            "backtest.emit_report.s": (self._seconds("backtest.emit_report") * per_op, "s"),
            "backtest.report_bytes": (
                self._count("backtest.emit_report", "bytes") * per_op, "bytes"),
            "trace.overhead_s": (overhead_s, "s"),
        }

    def to_json_obj(self) -> list[dict]:
        return [
            {"name": s.name, "op": s.op, "parent": s.parent, "start": s.start,
             "end": s.end, "counts": s.counts}
            for s in self.spans
        ]
