"""Builders shared by the test modules."""

from __future__ import annotations

import base64
import contextlib
import csv
import datetime as dt
import io
import math
import os
import struct
import time
from dataclasses import asdict
from typing import Mapping, Sequence

import numpy as np
import pytest
from hypothesis import strategies as st

from pollencast import gbm, pipeline
from pollencast.data import (
    CSV_COLUMNS,
    MAX_FILL_GAP_DAYS,
    SEASON_WINDOW_DAYS,
    SERIES_NAMES,
    DailyRecord,
    Dataset,
    SeasonDefinition,
    SeasonLabel,
)
from pollencast.errors import (
    GapTooLargeError,
    InsufficientDataError,
    InvalidRecordError,
    LengthMismatchError,
    MissingColumnError,
    NonFiniteError,
    NonMonotoneDatesError,
    WrongWindowLengthError,
)
from pollencast.features import WINDOW_LEN, _window_stats

#: Valid placeholder covariates for records whose weather does not matter.
NEUTRAL_WEATHER = dict(
    tmax=15.0,
    tmin=5.0,
    tavg=10.0,
    precip=0.0,
    humidity=60.0,
    wind_speed=3.0,
    pressure=1013.0,
    sunshine_hours=6.0,
    dew_point=4.0,
    cloud_cover=40.0,
    soil_temp=8.0,
)


@contextlib.contextmanager
def cores(n: int):
    """Train as if this process had ``n`` cores: the fit pool's size."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_cores", lambda: n)
        yield


def wait_for(path, timeout: float) -> bool:
    """Whether the file ``path`` exists within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def make_record(date: dt.date, pollen: float, **overrides: float) -> DailyRecord:
    fields = dict(NEUTRAL_WEATHER)
    fields.update(overrides)
    return DailyRecord(date=date, pollen=pollen, **fields)


def dataset_from_pollen(pollen: Sequence[float], first_date: dt.date) -> Dataset:
    """Dataset with the given pollen series and neutral weather."""
    records = tuple(
        make_record(first_date + dt.timedelta(days=i), float(v))
        for i, v in enumerate(pollen)
    )
    return Dataset(records=records)


def year_dataset(pollen: Sequence[float], year: int = 2001) -> Dataset:
    """Single-year dataset; ``pollen`` must cover the year exactly."""
    first = dt.date(year, 1, 1)
    n_days = (dt.date(year, 12, 31) - first).days + 1
    if len(pollen) != n_days:
        raise ValueError(f"need {n_days} values for year {year}, got {len(pollen)}")
    return dataset_from_pollen(pollen, first)


def year_length(year: int) -> int:
    return (dt.date(year, 12, 31) - dt.date(year, 1, 1)).days + 1


def label_brute_force(data: Dataset, definition: SeasonDefinition, year: int) -> SeasonLabel:
    """Oracle version of ``pollencast.data.label_season``: a literal scan of
    every window.

    Same contract, no vectorization, no shortcuts.
    """
    if not data.covers_year(year):
        raise InsufficientDataError(f"dataset does not fully cover year {year}")

    n = len(data)

    def is_typical(idx: int) -> bool:
        if idx < 0 or idx >= n:
            return False
        return data.records[idx].pollen > definition.delta_c

    window = SEASON_WINDOW_DAYS
    i0 = data.index_of(dt.date(year, 1, 1))
    i1 = data.index_of(dt.date(year, 12, 31))

    start_candidates = []
    for i in range(i0, i1 + 1):
        count = sum(1 for j in range(i, i + window) if is_typical(j))
        if count >= definition.delta_n:
            start_candidates.append(i)
    if not start_candidates:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    start_idx = min(start_candidates)

    end_candidates = []
    for i in range(i0, i1 + 1):
        count = sum(1 for j in range(i - window + 1, i + 1) if is_typical(j))
        if count >= definition.delta_n and i >= start_idx:
            end_candidates.append(i)
    if not end_candidates:
        return SeasonLabel(year=year, start_day=None, end_day=None)
    end_idx = max(end_candidates)

    return SeasonLabel(year=year, start_day=start_idx - i0 + 1, end_day=end_idx - i0 + 1)


def reference_split_gains(
    V: np.ndarray, R: np.ndarray, node_mean: float, min_leaf: int
) -> np.ndarray:
    """Gain of the split after every position, in the plain expression the
    split kernel must reproduce bit for bit.

    ``V`` and ``R`` are (features, k) values and residuals, each row in that
    feature's ascending value order.  Illegal positions get -inf.
    """
    k = V.shape[1]
    centered = R - node_mean
    csum = np.cumsum(centered, axis=1)
    total = csum[:, -1:]
    n_left = np.arange(1, k, dtype=np.float64)
    n_right = k - n_left
    s_left = csum[:, :-1]
    s_right = total - s_left
    gain = s_left**2 / n_left + s_right**2 / n_right - total**2 / k
    valid = (V[:, :-1] < V[:, 1:]) & (n_left >= min_leaf) & (n_right >= min_leaf)
    return np.where(valid, gain, -np.inf)


def reference_best_split(
    V: np.ndarray, R: np.ndarray, node_mean: float, min_leaf: int
) -> tuple[int, int, float]:
    """(feature, position, gain) chosen from :func:`reference_split_gains`:
    each feature's first best position, then the first best feature;
    (-1, -1, -inf) when no split is legal."""
    gain = reference_split_gains(V, R, node_mean, min_leaf)
    pos = np.argmax(gain, axis=1)
    best = gain[np.arange(V.shape[0]), pos]
    f = int(np.argmax(best))
    if not np.isfinite(best[f]):
        return -1, -1, -np.inf
    return f, int(pos[f]), float(best[f])


def reference_predict(model, x: np.ndarray) -> float:
    """Scalar reference for ``gbm.predict_batch``: walk each tree from its
    root with the split rule ``x[feature] <= threshold`` goes left, and add
    the leaves in tree order."""
    acc = 0.0
    for tree in model.trees:
        node = tree
        while not node.is_leaf:
            node = node.left if x[node.feature] <= node.threshold else node.right
        acc += node.value
    return model.base_prediction + model.learning_rate * acc


def model_from_trees(
    trees: Sequence[dict],
    feature_count: int,
    base_prediction: float = 0.0,
    learning_rate: float = 1.0,
    config: gbm.GBMConfig | None = None,
    catalog_version: str = "",
) -> gbm.GBMModel:
    """A model with hand-made trees, given as nested node objects:
    ``{"value": v}`` for a leaf and ``{"feature": f, "threshold": t,
    "left": ..., "right": ...}`` for a split, decoded by
    :func:`reference_decode_trees`."""
    return gbm.GBMModel(
        base_prediction=float(base_prediction),
        arrays=reference_decode_trees(list(trees), feature_count),
        learning_rate=float(learning_rate),
        feature_count=feature_count,
        config=config or gbm.GBMConfig(),
        catalog_version=catalog_version,
    )


def nested_trees(arrays: gbm.TreeArrays) -> list[dict]:
    """The trees as the nested node objects of :func:`model_from_trees`."""
    return arrays.nested(
        lambda v: {"value": v},
        lambda f, t, left, right: {"feature": f, "threshold": t,
                                   "left": left, "right": right})


def window_features(window: Sequence[float], reference: float = 0.0) -> np.ndarray:
    """The 29 catalog statistics of one 14-value window, in catalog order:
    ``features._window_stats`` on that window alone.

    ``reference`` is the series threshold behind the ``n_above_ref`` count.
    """
    arr = np.asarray(window, dtype=np.float64)
    if arr.shape != (WINDOW_LEN,):
        raise WrongWindowLengthError(
            f"window must have exactly {WINDOW_LEN} values, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise NonFiniteError("window contains non-finite values")
    return _window_stats(arr[None, :], np.array([float(reference)]))[0]


def split_search(
    values: np.ndarray, targets: np.ndarray, min_leaf: int = 1
) -> tuple[float, float] | None:
    """Best (threshold, gain) for one feature through the split kernel, or
    None when no legal split.

    Thresholds are midpoints between consecutive distinct sorted values;
    gain is the variance-reduction SSE gain; equal gains resolve to the
    smallest threshold.
    """
    values = np.asarray(values, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if values.shape != targets.shape or values.ndim != 1:
        raise LengthMismatchError(
            f"values {values.shape} and targets {targets.shape} must match"
        )
    k = values.size
    if k < 2 or np.all(targets == targets[0]):
        return None
    order = np.lexsort((targets, values))
    v = values[order]
    r = targets[order]
    c = r - r.mean()
    _, i, gain = gbm._best_split(
        v[None, :], np.arange(k)[None, :], c[None, :], min_leaf, gbm._Scratch(k))
    if i < 0 or gain <= 0.0:
        return None
    return gbm._midpoint(v[i], v[i + 1]), gain


def _parse_float(text: str, column: str, line: int) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise NonFiniteError(f"line {line}: cannot parse {column}={text!r}") from None
    if not math.isfinite(value):
        raise NonFiniteError(f"line {line}: {column}={text!r} is not finite")
    return value


def _readable(reader: csv.DictReader):
    """The rows of ``reader``; a line it cannot read raises
    :class:`InvalidRecordError` naming that line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InvalidRecordError(f"line {reader.reader.line_num}: {exc}") from exc


def reference_ingest_csv(path: str, column_map: Mapping[str, str] | None = None) -> Dataset:
    """Oracle for ``pollencast.data.ingest_csv``: a ``csv.DictReader`` that
    checks each line's fields and builds a :class:`DailyRecord` per line,
    then a :class:`Dataset` from the records.

    Same contract, line by line.  Errors name the physical line that
    ``csv.reader`` last read (``DictReader.line_num`` does not count the
    blank lines it skips).
    """
    mapping = dict(column_map or {})
    header_for = {name: mapping.get(name, name) for name in CSV_COLUMNS}

    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidRecordError(f"{path} is not UTF-8: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    try:
        headers = reader.fieldnames or []
    except csv.Error as exc:
        raise InvalidRecordError(f"line {reader.reader.line_num}: {exc}") from exc
    missing = [header_for[c] for c in CSV_COLUMNS if header_for[c] not in headers]
    if missing:
        raise MissingColumnError(f"missing columns in {path}: {', '.join(missing)}")

    records: list[DailyRecord] = []
    filled: list[dt.date] = []
    for row in _readable(reader):
        lineno = reader.reader.line_num
        raw_date = row[header_for["date"]]
        try:
            date = dt.date.fromisoformat(raw_date)
        except (TypeError, ValueError):
            raise NonMonotoneDatesError(
                f"line {lineno}: bad date {raw_date!r}"
            ) from None
        values = {  # + 0.0: a dataset holds a -0.0 it reads as 0.0
            name: _parse_float(row[header_for[name]], name, lineno) + 0.0
            for name in SERIES_NAMES
        }
        rec = DailyRecord(date=date, **values)
        if records:
            gap = (date - records[-1].date).days - 1
            if gap < 0:
                raise NonMonotoneDatesError(
                    f"line {lineno}: date {date} not after {records[-1].date}"
                )
            if gap > MAX_FILL_GAP_DAYS:
                raise GapTooLargeError(
                    f"{gap}-day gap before {date} exceeds "
                    f"{MAX_FILL_GAP_DAYS}-day fill limit"
                )
            last = records[-1]
            for k in range(1, gap + 1):
                fill_date = last.date + dt.timedelta(days=k)
                records.append(
                    DailyRecord(
                        date=fill_date,
                        **{name: getattr(last, name) for name in SERIES_NAMES},
                    )
                )
                filled.append(fill_date)
        records.append(rec)

    return Dataset(records=tuple(records), filled_dates=tuple(filled))


def reference_decode_trees(trees: list, feature_count: int, what: str = "model") -> gbm.TreeArrays:
    """Nested node objects (the trees of the retired ``gbm-json-v1``
    format) as node arrays: a walk that checks every field through
    ``gbm.json_field`` and appends each node with ``_Nodes.add``.

    Hand-made test trees go through it, and it decodes bundles of that
    format for comparison with the flat node arrays."""
    nodes = gbm._Nodes()
    for tree in trees:
        # (object holding the node, key of the node in it or None, parent, depth)
        todo: list[tuple[object, str | None, int, int]] = [(tree, None, -1, 0)]
        while todo:
            holder, key, parent, depth = todo.pop()
            obj = holder if key is None else gbm.json_field(holder, key, (dict,), what)
            if isinstance(obj, dict) and "value" in obj:
                value = float(gbm.json_field(obj, "value", gbm.NUMBER, what))
                i = nodes.add(0, 0.0, value, depth)
            else:
                feature = gbm.json_field(obj, "feature", (int,), what)
                if not 0 <= feature < feature_count:
                    raise InvalidRecordError(
                        f"{what}: split feature {feature} outside [0, {feature_count})"
                    )
                threshold = float(gbm.json_field(obj, "threshold", gbm.NUMBER, what))
                i = nodes.add(feature, threshold, 0.0, depth)
                todo.append((obj, "right", i, depth + 1))
                todo.append((obj, "left", i, depth + 1))
            if key is None:
                nodes.roots.append(i)
            else:
                getattr(nodes, key)[parent] = i
    return nodes.arrays()


#: (field, struct format of one item) of the packed node arrays of a
#: ``gbm-json-v3`` object: int32 indices and float64 numbers, little-endian.
PACKED_FIELDS = (("feature", "<i"), ("threshold", "<d"), ("left", "<i"),
                 ("right", "<i"), ("value", "<d"), ("roots", "<i"))


def pack(items, item: str) -> str:
    """``items`` as the base64 text of their packed ``item`` bytes (a
    struct format such as ``"<i"``): the encoding of a ``gbm-json-v3``
    node array, for damaged arrays too."""
    return base64.b64encode(b"".join(struct.pack(item, v) for v in items)).decode()


def unpack(doc: dict, key: str) -> list:
    """The packed node array ``doc[key]`` of a valid ``gbm-json-v3`` object
    as a list of numbers."""
    item = dict(PACKED_FIELDS)[key]
    return [v for (v,) in struct.iter_unpack(item, base64.b64decode(doc[key]))]


#: Characters outside the base64 alphabet, or padding out of place.
NOT_BASE64 = ["!", "-", "_", " ", "\n", "=", "\u00e9"]
#: The bytes of a float64 NaN and infinities.
NON_FINITE_BYTES = [struct.pack("<d", v) for v in (math.nan, math.inf, -math.inf)]


def damaged_text(draw, text: str) -> str:
    """A packed node array's text with two characters swapped, one dropped
    or replaced by one outside base64, its bytes cut (often inside an
    item), or the bytes of a NaN or an infinity spliced in at an 8-byte
    boundary; ``draw`` is a hypothesis ``st.composite`` draw."""
    if not text:
        return draw(st.sampled_from(["A", "="]))
    kind = draw(st.sampled_from(["swap", "drop", "replace", "cut", "splice"]))
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError:  # damaged before
        kind = "swap"
    at = draw(st.integers(0, len(text) - 1))
    if kind == "drop":
        return text[:at] + text[at + 1:]
    if kind == "replace":
        return text[:at] + draw(st.sampled_from(NOT_BASE64)) + text[at + 1:]
    if kind == "swap":
        other = draw(st.integers(0, len(text) - 1))
        chars = list(text)
        chars[at], chars[other] = chars[other], chars[at]
        return "".join(chars)
    if kind == "cut":
        raw = raw[:draw(st.integers(0, len(raw)))]
    else:
        at = draw(st.integers(0, len(raw) // 8)) * 8
        raw = raw[:at] + draw(st.sampled_from(NON_FINITE_BYTES)) + raw[at + 8:]
    return base64.b64encode(raw).decode()


def reference_check_trees(doc: dict, feature_count: int, what: str = "model") -> gbm.TreeArrays:
    """Oracle for the node-array checks of ``gbm.from_obj``: the packed
    node arrays of a ``gbm-json-v3`` object as node arrays, unpacked one
    item at a time and checked one node at a time.

    Each array is a base64 string of whole items; every float is finite and
    every node feature lies in ``[0, feature_count)``.  Each tree runs from
    its root to the next root and is walked from the root: a leaf points to
    itself, a split's left child is the next node and its right child lies
    after that inside the tree, and every node of the tree is reached
    exactly once.  ``levels`` is the depth of the deepest node reached.
    """
    lists = {}
    for key, item in PACKED_FIELDS:
        text = gbm.json_field(doc, key, (str,), what)
        try:
            raw = base64.b64decode(text, validate=True)
        except ValueError:
            raise InvalidRecordError(f"{what}: {key!r} is not base64") from None
        if len(raw) % struct.calcsize(item):
            raise InvalidRecordError(f"{what}: {key!r} ends inside an item")
        items = [v for (v,) in struct.iter_unpack(item, raw)]
        if item == "<d" and not all(map(math.isfinite, items)):
            raise InvalidRecordError(f"{what}: {key!r} holds a non-finite number")
        lists[key] = items
    feature, left, right, roots = (lists[k] for k in ("feature", "left", "right", "roots"))
    n = len(lists["value"])
    if any(len(lists[k]) != n for k in ("feature", "threshold", "left", "right")):
        raise InvalidRecordError(f"{what}: node arrays of unequal lengths")
    if any(not 0 <= f < feature_count for f in feature):
        raise InvalidRecordError(f"{what}: a node feature outside [0, {feature_count})")
    ends = roots[1:] + [n]
    if (roots[:1] != [0] if n else roots) or any(a >= b for a, b in zip(roots, ends)):
        raise InvalidRecordError(f"{what}: bad roots {roots}")
    levels = 0
    for root, end in zip(roots, ends):
        reached = set()
        todo = [(root, 0)]
        while todo:
            i, depth = todo.pop()
            if i in reached:
                raise InvalidRecordError(f"{what}: node {i} has two parents")
            reached.add(i)
            levels = max(levels, depth)
            if left[i] == i:
                if right[i] != i:
                    raise InvalidRecordError(f"{what}: leaf {i} has a right child")
                continue
            if left[i] != i + 1 or not i + 1 < right[i] < end:
                raise InvalidRecordError(f"{what}: split {i} has bad children")
            todo += [(left[i], depth + 1), (right[i], depth + 1)]
        if len(reached) != end - root:
            raise InvalidRecordError(f"{what}: a node of tree {root} is not reached")
    cols = [np.array(lists[k], dtype=np.float64 if item == "<d" else np.intp)
            for k, item in PACKED_FIELDS]
    return gbm.TreeArrays(*cols, levels=levels)
