"""Gradient-boosted regression trees with squared-error loss, from scratch.

Stagewise boosting: each tree fits the current residuals with greedy CART
splits chosen by variance reduction.  Candidate thresholds sit at midpoints
between consecutive distinct sorted values; ties go to the lowest feature
index, then the smallest threshold.

Determinism is part of the contract: training rows are brought into a
canonical order before fitting so the resulting model is bit-identical
under any permutation of the input rows, and serialized models round-trip
losslessly through JSON.

The split search is the exact greedy algorithm on presorted columns
(Chen & Guestrin 2016, arXiv:1603.02754), in numpy only.  A node is a
(features, k) matrix of row indices, row f holding the node's rows in
ascending order of feature f, plus the matching matrix of values; the root
is one stable argsort per fit, and children keep their parent's order.
For each node the kernel gathers the centred residuals into a (features,
k) matrix, takes running sums along each row and evaluates
``s_left**2/n_left + s_right**2/n_right - total**2/k`` at every position;
the first maximum over (feature, position) wins.  Each step below is
arranged so that every gain, and hence every tree, is bit-identical to
evaluating that expression on the whole matrix with fresh arrays:

* Only positions that leave ``min_samples_leaf`` rows on both sides are
  evaluated.  The others would be -inf and could never win.
* The expression runs term by term, in place, in the same order of
  operations (square, divide, add, subtract), so each value is rounded the
  same way.  Positions where the value does not change are set to -inf
  after the arithmetic.
* The residuals are centred before the gather, which gives the same
  numbers as centring the gathered matrix.
* A child's order and values are gathered from its parent's with 1-D
  ``take`` at the positions of the parent's rows that go to that side.
  This keeps each row's order and copies values, so it equals sorting and
  gathering again.
* The gain temporaries, the gathered residuals and the children's
  matrices live in buffers allocated once per fit.  Fresh temporaries of
  this size are returned to the system on release and page-fault again on
  the next node, which costs more than the arithmetic.
* Without subsampling the root's sorted value matrix is the same for every
  tree and is computed once per fit.
* Children at ``max_depth`` are leaves and read only their first order row
  (its rows give the leaf mean, in the same summation order), so the last
  split level partitions that row only.

A model keeps all its trees in one set of flat node arrays
(:class:`TreeArrays`), written in preorder by the builder.  The
``gbm-json-v3`` object holds each array as one base64 string of its
little-endian bytes (int32 indices, float64 numbers): saving is
``tobytes`` on each array, loading is ``np.frombuffer`` on each string plus
checks over whole arrays, with no Python object per node.  A leaf is its
own child, so prediction moves every (tree, row) pair down one level per
step, as many steps as the deepest tree has levels.  The leaf values are
then added tree by tree from 0.0 with a running sum, which rounds as
adding one tree at a time does; ``np.sum`` may add pairwise and round
differently.  ``GBMModel.trees``
rebuilds nested :class:`TreeNode` views on access; prediction never reads
them.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    InvalidRecordError,
    LengthMismatchError,
    NonFiniteError,
    TooFewRowsError,
    WrongFeatureCountError,
)

SERIALIZATION_FORMAT = "gbm-json-v3"

#: The most trees a model may have: the saved roots are int32 node indices.
MAX_TREES = 2**31 - 1


@dataclass(frozen=True)
class GBMConfig:
    n_trees: int = 200
    max_depth: int = 3
    learning_rate: float = 0.05
    min_samples_leaf: int = 5
    subsample_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name, least in (("n_trees", 1), ("max_depth", 0),
                            ("min_samples_leaf", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise InvalidRecordError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        if self.n_trees > MAX_TREES:
            raise InvalidRecordError(
                f"n_trees must be at most {MAX_TREES}, got {self.n_trees}")
        for name in ("learning_rate", "subsample_fraction"):
            value = getattr(self, name)
            if isinstance(value, bool) or not 0.0 < value <= 1.0:
                raise InvalidRecordError(f"{name} must be in (0, 1], got {value!r}")


class TreeNode(NamedTuple):
    """A read-only view of one node: a split (feature, threshold, left,
    right) or a leaf (value).  Rows with ``x[feature] <= threshold`` go left.
    """

    feature: int | None = None
    threshold: float | None = None
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None
    value: float | None = None

    @property
    def is_leaf(self) -> bool:
        return self.feature is None


class TreeArrays(NamedTuple):
    """Every node of an ensemble, one array per field.

    Node i splits rows on ``feature[i] <= threshold[i]`` into ``left[i]``
    and ``right[i]``; a leaf points to itself on both sides, holds
    ``value[i]``.  Each tree's nodes are contiguous and a parent comes
    before its children; the builder writes them in preorder, with leaves
    of feature 0 and threshold 0.0.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    roots: np.ndarray  # each tree's root, in tree order
    levels: int  # depth of the deepest tree: the steps of a traversal

    def nested(self, leaf: Callable, split: Callable) -> list:
        """Each tree built bottom-up with ``leaf(value)`` and
        ``split(feature, threshold, left, right)``, in tree order."""
        feature, threshold, left, right, value = (a.tolist() for a in self[:5])
        made: list = [None] * len(value)
        for i in range(len(value) - 1, -1, -1):  # children before parents
            made[i] = leaf(value[i]) if left[i] == i else split(
                feature[i], threshold[i], made[left[i]], made[right[i]])
        return [made[r] for r in self.roots.tolist()]


class _Nodes:
    """Node fields appended in preorder, turned into :class:`TreeArrays`."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[float] = []
        self.roots: list[int] = []
        self.levels = 0

    def add(self, feature: int, threshold: float, value: float, depth: int) -> int:
        """Append a node pointing to itself; a split's caller links its
        children once they exist."""
        i = len(self.value)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(i)
        self.right.append(i)
        self.value.append(value)
        self.levels = max(self.levels, depth)
        return i

    def arrays(self, first: int = 0) -> TreeArrays:
        """The trees from node ``first`` on, indexed from 0, read-only."""
        cols = [
            np.array(self.feature[first:], dtype=np.intp),
            np.array(self.threshold[first:], dtype=np.float64),
            np.array(self.left[first:], dtype=np.intp) - first,
            np.array(self.right[first:], dtype=np.intp) - first,
            np.array(self.value[first:], dtype=np.float64),
            np.array([r for r in self.roots if r >= first], dtype=np.intp) - first,
        ]
        for a in cols:
            a.setflags(write=False)
        return TreeArrays(*cols, levels=self.levels)


@dataclass(frozen=True, eq=False)
class GBMModel:
    base_prediction: float
    arrays: TreeArrays
    learning_rate: float
    feature_count: int
    config: GBMConfig
    catalog_version: str = ""

    @property
    def trees(self) -> tuple[TreeNode, ...]:
        """The trees as nested :class:`TreeNode` views, built on each access."""
        return tuple(self.arrays.nested(lambda v: TreeNode(value=v), TreeNode))


class FitResult(NamedTuple):
    model: GBMModel
    curve: np.ndarray  # training MSE before any tree, then after each tree


def _validate_matrix(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise WrongFeatureCountError(f"X must be 2-D, got shape {X.shape}")
    if y.shape != (X.shape[0],):
        raise LengthMismatchError(
            f"y length {y.shape} does not match {X.shape[0]} rows"
        )
    if not np.isfinite(X).all() or not np.isfinite(y).all():
        raise NonFiniteError("training data contains non-finite values")
    return X, y


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order independent of input permutation: sort by all columns, then y."""
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1))
    return np.lexsort((y,) + keys)


def _leading(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The first cells of a flat buffer as a C-contiguous ``shape`` matrix."""
    return buf[: shape[0] * shape[1]].reshape(shape)


class _Scratch(NamedTuple):
    """Flat buffers for the temporaries of :func:`_split_gains`."""

    gain: np.ndarray
    right: np.ndarray
    tie: np.ndarray

    @classmethod
    def of(cls, cells: int) -> "_Scratch":
        return cls(np.empty(cells), np.empty(cells), np.empty(cells, dtype=bool))


def _split_gains(
    V: np.ndarray, C: np.ndarray, min_leaf: int, scratch: _Scratch
) -> np.ndarray:
    """SSE gain of every legal split of one node, one row per feature.

    ``V`` and ``C`` are (features, k) matrices of values and of residuals
    minus the node mean, each row in that feature's ascending value order;
    ``C`` is overwritten with its running sums.
    Column j is the split after position ``min_leaf - 1 + j``: only
    positions that leave ``min_leaf`` rows on both sides are computed.
    Positions where the value does not change get -inf.  The result is a
    view of ``scratch.gain``.
    """
    k = V.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf
    shape = (V.shape[0], max(hi - lo, 0))
    gain = _leading(scratch.gain, shape)
    right = _leading(scratch.right, shape)
    tie = _leading(scratch.tie, shape)
    csum = np.cumsum(C, axis=1, out=C)
    total = csum[:, -1:]
    s_left = csum[:, lo:hi]
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    # s_left**2/n_left + s_right**2/n_right - total**2/k, term by term
    np.square(s_left, out=gain)
    gain /= n_left
    right[...] = total  # then subtract: faster than one broadcast subtract
    right -= s_left
    np.square(right, out=right)
    right /= k - n_left
    gain += right
    gain -= np.square(total) / k
    np.greater_equal(V[:, lo:hi], V[:, lo + 1 : hi + 1], out=tie)
    np.putmask(gain, tie, -np.inf)
    return gain


def _best_split(
    V: np.ndarray, C: np.ndarray, min_leaf: int, scratch: _Scratch
) -> tuple[int, int, float]:
    """Best (feature, position, gain) of one node, or (-1, -1, -inf).

    Position i splits after the (i+1)-th row of the feature's order.  Equal
    gains go to the lowest feature, then the lowest position: the first
    maximum of the gain matrix in row-major order.
    """
    gain = _split_gains(V, C, min_leaf, scratch)
    if gain.size == 0:
        return -1, -1, -np.inf
    f, j = divmod(int(np.argmax(gain)), gain.shape[1])
    best = float(gain[f, j])
    if not np.isfinite(best):
        return -1, -1, -np.inf
    return f, j + min_leaf - 1, best


def _midpoint(lo: float, hi: float) -> float:
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: midpoint may round up to the right value
        thr = lo
    return float(thr)


class _TreeBuilder:
    """Grows the trees of one fit on presorted per-feature row orders.

    A node is a (features, k) matrix of row indices, row f listing the
    node's rows in ascending order of feature f, and the matching matrix of
    values; the leaves below the last split level keep order row 0 only.
    The nodes of one depth own disjoint row slots ``[start, start + k)`` of
    ``[0, rows)``: a left child takes the first k_left slots of its parent,
    the right child the rest.  The matrices of the nodes at depth d + 1
    live in ``_orders[d]`` and ``_values[d]`` at the cells of their slots,
    so every pending node keeps them without allocation.
    """

    def __init__(self, n_features: int, residual: np.ndarray, cfg: GBMConfig) -> None:
        self.n_rows = residual.size
        self.residual = residual
        self.min_leaf = cfg.min_samples_leaf
        self.max_depth = cfg.max_depth
        cells = n_features * self.n_rows
        self._centered = np.empty(cells)
        self._scratch = _Scratch.of(cells)
        # children of the last split level are leaves and keep only row 0
        self._orders = [
            np.empty(cells if d + 1 < self.max_depth else self.n_rows, dtype=np.intp)
            for d in range(self.max_depth)
        ]
        self._values = [np.empty(cells) for _ in range(self.max_depth - 1)]
        self.nodes = _Nodes()
        # (rows, value) per leaf of the current tree, for the residual update
        self.leaves: list[tuple[np.ndarray, float]] = []

    def grow(self, root: np.ndarray, V: np.ndarray) -> int:
        """One tree from the root's order and value matrices; returns its root."""
        self.leaves = []
        i = self._build(root, V, 0, 0)
        self.nodes.roots.append(i)
        return i

    def _build(
        self, node_order: np.ndarray, V: np.ndarray | None, depth: int, start: int
    ) -> int:
        rows = node_order[0]
        res = self.residual[rows]
        value = float(res.mean())
        k = rows.size
        if (
            depth >= self.max_depth
            or k < 2 * self.min_leaf
            or bool(np.all(res == res[0]))
        ):
            return self._leaf(rows, value, depth)

        # centring the n residuals before the gather gives the same values
        # as centring the (features, k) gathered matrix
        C = (self.residual - value).take(
            node_order, out=_leading(self._centered, node_order.shape), mode="clip"
        )
        f, i, gain = _best_split(V, C, self.min_leaf, self._scratch)
        if f < 0 or gain <= 0.0:
            return self._leaf(rows, value, depth)
        thr = _midpoint(V[f, i], V[f, i + 1])

        in_left = np.zeros(self.n_rows, dtype=bool)
        in_left[node_order[f, : i + 1]] = True
        if depth + 1 == self.max_depth:
            node_order = node_order[:1]  # the children are leaves
        flat = node_order.ravel()
        mask = in_left.take(flat, out=self._scratch.tie[: flat.size], mode="clip")
        left_at = np.flatnonzero(mask)
        np.logical_not(mask, out=mask)
        right_at = np.flatnonzero(mask)
        left = self._child(flat, V, left_at, depth, start, i + 1)
        right = self._child(flat, V, right_at, depth, start + i + 1, k - i - 1)
        node = self.nodes.add(f, thr, 0.0, depth)
        self.nodes.left[node] = self._build(*left)
        self.nodes.right[node] = self._build(*right)
        return node

    def _child(
        self,
        flat: np.ndarray,
        V: np.ndarray,
        at: np.ndarray,
        depth: int,
        slot: int,
        size: int,
    ) -> tuple[np.ndarray, np.ndarray | None, int, int]:
        """``_build`` arguments of the child at flat positions ``at`` of its
        parent's order, stored at the child's slot of the depth buffers."""
        n_orders = at.size // size
        cells = slice(n_orders * slot, n_orders * (slot + size))
        # take(mode="clip") writes into out= directly; compress() and
        # mode="raise" copy through a temporary
        order = flat.take(at, out=self._orders[depth][cells], mode="clip")
        values = None
        if depth + 1 < self.max_depth:
            values = V.ravel().take(at, out=self._values[depth][cells], mode="clip")
            values = values.reshape(n_orders, size)
        return order.reshape(n_orders, size), values, depth + 1, slot

    def _leaf(self, rows: np.ndarray, value: float, depth: int) -> int:
        self.leaves.append((rows, value))
        return self.nodes.add(0, 0.0, value, depth)


def fit(X: np.ndarray, y: np.ndarray, cfg: GBMConfig | None = None) -> FitResult:
    """Train a boosted ensemble; returns the model and its training curve.

    ``curve[0]`` is the MSE of the base prediction alone, ``curve[m]`` the
    MSE after m trees; with full subsampling the curve never increases.
    Constant targets are legal and produce a model that always predicts
    that constant.
    """
    cfg = cfg or GBMConfig()
    X, y = _validate_matrix(X, y)
    n = X.shape[0]
    min_rows = max(2 * cfg.min_samples_leaf, 2)
    if n < min_rows:
        raise TooFewRowsError(f"need at least {min_rows} rows, got {n}")

    order = _canonical_order(X, y)
    X = np.ascontiguousarray(X[order])
    y = y[order]

    base = float(y.mean())
    residual = y - base
    XT = np.ascontiguousarray(X.T)
    sorted_by_feature = np.ascontiguousarray(
        np.argsort(X, axis=0, kind="stable").T  # (features, n)
    )

    rng = np.random.default_rng(cfg.seed)
    subsample = cfg.subsample_fraction < 1.0
    m_rows = max(2 * cfg.min_samples_leaf, int(cfg.subsample_fraction * n))
    root = sorted_by_feature
    # without subsampling every tree's root is the same sorted value matrix
    root_values = np.take_along_axis(XT, root, axis=1)

    curve = np.empty(cfg.n_trees + 1)
    curve[0] = float(np.mean(residual**2))
    builder = _TreeBuilder(X.shape[1], residual, cfg)
    for m in range(1, cfg.n_trees + 1):
        if subsample:
            chosen = rng.choice(n, size=min(m_rows, n), replace=False)
            in_sub = np.zeros(n, dtype=bool)
            in_sub[chosen] = True
            root = sorted_by_feature.ravel().compress(
                in_sub.take(sorted_by_feature.ravel())
            ).reshape(X.shape[1], chosen.size)
            root_values = np.take_along_axis(XT, root, axis=1)
        first = builder.grow(root, root_values)
        if subsample:
            tree = builder.nodes.arrays(first)
            residual -= cfg.learning_rate * tree.value[_leaf_nodes(tree, X)[0]]
        else:
            for rows, value in builder.leaves:
                residual[rows] -= cfg.learning_rate * value
        curve[m] = float(np.mean(residual**2))

    model = GBMModel(
        base_prediction=base,
        arrays=builder.nodes.arrays(),
        learning_rate=cfg.learning_rate,
        feature_count=X.shape[1],
        config=cfg,
    )
    return FitResult(model=model, curve=curve)


def predict(model: GBMModel, x: np.ndarray) -> float:
    """Prediction for one feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.feature_count,):
        raise WrongFeatureCountError(
            f"expected {model.feature_count} features, got shape {x.shape}"
        )
    if not np.isfinite(x).all():
        raise NonFiniteError("feature vector contains non-finite values")
    return float(predict_batch(model, x[None, :])[0])


def _leaf_nodes(t: TreeArrays, X: np.ndarray) -> np.ndarray:
    """The leaf that each row of ``X`` reaches in each tree, (trees, rows):
    ``t.levels`` steps of one level each, where a leaf is its own child."""
    node = np.repeat(t.roots[:, None], X.shape[0], axis=1)
    row_start = np.arange(X.shape[0]) * X.shape[1]  # offsets into flat
    flat = np.ascontiguousarray(X).ravel()
    for _ in range(t.levels):
        x = flat.take(t.feature.take(node) + row_start)
        goes_left = x <= t.threshold.take(node)
        node = np.where(goes_left, t.left.take(node), t.right.take(node))
    return node


#: Rows traversed at once, so that the (trees, rows) temporaries stay small.
_ROW_BLOCK = 1024


def predict_batch(model: GBMModel, X: np.ndarray) -> np.ndarray:
    """Predictions for a matrix of rows; equals row-wise :func:`predict`."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise WrongFeatureCountError(
            f"expected (rows, {model.feature_count}), got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise NonFiniteError("feature matrix contains non-finite values")
    t = model.arrays
    acc = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _ROW_BLOCK):
        block = X[lo : lo + _ROW_BLOCK]
        # 0.0, then each tree's leaf values; a running sum adds them in tree
        # order, where np.sum may add pairwise and round differently
        leaves = np.zeros((t.roots.size + 1, block.shape[0]))
        t.value.take(_leaf_nodes(t, block), out=leaves[1:], mode="clip")
        acc[lo : lo + block.shape[0]] = np.cumsum(leaves, axis=0)[-1]
    return model.base_prediction + model.learning_rate * acc


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


#: JSON number types for :func:`json_field`; ``true`` is not a number.
NUMBER = (int, float)


def json_field(doc: object, key: str, kinds: tuple[type, ...], what: str = "model"):
    """``doc[key]`` if ``doc`` is a JSON object holding one of ``kinds`` there.

    JSON decoding yields exact built-in types, so the type is compared
    exactly; anything else raises :class:`InvalidRecordError`.
    """
    present = isinstance(doc, dict) and key in doc
    value = doc[key] if present else None
    if type(value) not in kinds:
        names = " or ".join(k.__name__ for k in kinds)
        got = type(value).__name__ if present else "nothing"
        raise InvalidRecordError(f"{what}: {key!r} must be {names}, got {got}")
    return value


def json_number(doc: object, key: str, what: str = "model") -> float:
    """``doc[key]`` as a float if it is a finite JSON number."""
    try:
        value = float(json_field(doc, key, NUMBER, what))
    except OverflowError as exc:  # an integer too large for a float
        raise InvalidRecordError(f"{what}: {key!r}: {exc}") from exc
    if not math.isfinite(value):
        raise InvalidRecordError(f"{what}: {key!r} must be finite, got {value}")
    return value


def json_array(
    doc: object, key: str, kinds: tuple[type, ...], dtype: type, what: str = "model"
) -> np.ndarray:
    """``doc[key]`` as a read-only 1-D array of ``dtype`` if it is a JSON
    list of ``kinds`` only; a float array must be finite.

    The element types are compared exactly, as in :func:`json_field`:
    ``np.array`` alone would take ``true`` for 1.
    """
    items = json_field(doc, key, (list,), what)
    if not set(map(type, items)) <= set(kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise InvalidRecordError(f"{what}: {key!r} must hold only {names}")
    try:
        arr = np.array(items, dtype=dtype)
    except OverflowError as exc:  # an integer too large for dtype
        raise InvalidRecordError(f"{what}: {key!r}: {exc}") from exc
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidRecordError(f"{what}: {key!r} must hold only finite numbers")
    arr.setflags(write=False)
    return arr


#: The packed node arrays of a model object, the fields of
#: :class:`TreeArrays`: (key, stored little-endian dtype, loaded dtype).
_NODE_FIELDS = (
    ("feature", "<i4", np.intp),
    ("threshold", "<f8", np.float64),
    ("left", "<i4", np.intp),
    ("right", "<i4", np.intp),
    ("value", "<f8", np.float64),
    ("roots", "<i4", np.intp),
)


def _packed(a: np.ndarray, stored: str) -> str:
    """``a`` as the base64 text of its ``stored`` bytes."""
    return base64.b64encode(a.astype(stored).tobytes()).decode("ascii")


def _unpacked(doc: object, key: str, stored: str, dtype: type, what: str) -> np.ndarray:
    """``doc[key]`` as a read-only 1-D array of ``dtype`` if it is the
    base64 text of whole ``stored`` items; a float array must be finite."""
    text = json_field(doc, key, (str,), what)
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise InvalidRecordError(f"{what}: {key!r} is not base64: {exc}") from exc
    item = np.dtype(stored).itemsize
    if len(raw) % item:
        raise InvalidRecordError(
            f"{what}: {key!r} holds {len(raw)} bytes, not whole {item}-byte items")
    arr = np.frombuffer(raw, dtype=stored).astype(dtype)
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise InvalidRecordError(f"{what}: {key!r} must hold only finite numbers")
    arr.setflags(write=False)
    return arr


def _checked_trees(cols: list[np.ndarray], feature_count: int, what: str) -> TreeArrays:
    """The node arrays as :class:`TreeArrays` if they encode trees that
    prediction can walk; the checks run over whole arrays.

    Each tree is the nodes from its root to the next root.  A leaf points
    to itself on both sides; a split's left child is the next node and its
    right child lies after that, inside the split's tree; every node but a
    root has exactly one parent.  Children thus come after their parents,
    and ``levels`` is the depth of the deepest node, found by pointer
    jumping along the parents.
    """
    feature, _, left, right, value, roots = cols
    n = value.size
    if any(a.size != n for a in cols[:4]):
        raise InvalidRecordError(f"{what}: the node arrays must have equal lengths")
    if (roots.size == 0) != (n == 0) or roots.size and (
        roots[0] != 0 or roots[-1] >= n or (np.diff(roots) <= 0).any()
    ):
        raise InvalidRecordError(
            f"{what}: 'roots' must increase strictly from 0 and stay below {n}")
    if n and (feature.min() < 0 or feature.max() >= feature_count):
        raise InvalidRecordError(f"{what}: a node feature lies outside "
                                 f"[0, {feature_count})")
    node = np.arange(n)
    leaf = left == node
    if (right[leaf] != node[leaf]).any():
        raise InvalidRecordError(f"{what}: a leaf must point to itself on both sides")
    split = node[~leaf]
    tree_end = np.append(roots[1:], n)[np.searchsorted(roots, split, side="right") - 1]
    if (left[split] != split + 1).any():
        raise InvalidRecordError(f"{what}: a split's left child must be the next node")
    if ((right[split] <= split + 1) | (right[split] >= tree_end)).any():
        raise InvalidRecordError(
            f"{what}: a split's right child must come after its left child, "
            "inside the split's tree")
    children = np.concatenate([left[split], right[split]])
    is_child = np.ones(n, dtype=bool)
    is_child[roots] = False
    if not np.array_equal(np.bincount(children, minlength=n), is_child):
        raise InvalidRecordError(
            f"{what}: every node but a root must have exactly one parent")
    # depth[i] is the distance from node i up to parent[i]; each step
    # doubles it until every parent is a root
    parent = node.copy()
    parent[children] = np.concatenate([split, split])
    depth = is_child.astype(np.intp)
    while not np.array_equal(up := parent[parent], parent):
        depth += depth[parent]
        parent = up
    return TreeArrays(*cols, levels=int(depth.max()) if n else 0)


def to_obj(model: GBMModel) -> dict:
    """The JSON object of :func:`to_json`, for embedding in other documents."""
    doc = {
        "format": SERIALIZATION_FORMAT,
        "config": asdict(model.config),
        "base_prediction": model.base_prediction,
        "learning_rate": model.learning_rate,
        "feature_count": model.feature_count,
        "catalog_version": model.catalog_version,
    }
    for name, stored, _ in _NODE_FIELDS:
        doc[name] = _packed(getattr(model.arrays, name), stored)
    return doc


def from_obj(doc: object, what: str = "model") -> GBMModel:
    """Inverse of :func:`to_obj`; a malformed object raises
    :class:`InvalidRecordError` naming ``what``."""
    fmt = json_field(doc, "format", (str,), what)
    if fmt != SERIALIZATION_FORMAT:
        raise InvalidRecordError(f"{what}: unsupported model format {fmt!r}")
    settings = json_field(doc, "config", (dict,), what)
    if not all(math.isfinite(v) for v in settings.values() if type(v) is float):
        raise InvalidRecordError(f"{what}: config values must be finite")
    try:
        config = GBMConfig(**settings)
    except (TypeError, InvalidRecordError) as exc:
        raise InvalidRecordError(f"{what}: bad config: {exc}") from exc
    feature_count = json_field(doc, "feature_count", (int,), what)
    cols = [_unpacked(doc, name, stored, dtype, what)
            for name, stored, dtype in _NODE_FIELDS]
    return GBMModel(
        base_prediction=json_number(doc, "base_prediction", what),
        arrays=_checked_trees(cols, feature_count, what),
        learning_rate=json_number(doc, "learning_rate", what),
        feature_count=feature_count,
        config=config,
        catalog_version=json_field(doc, "catalog_version", (str,), what),
    )


def to_json(model: GBMModel) -> str:
    """Lossless, versioned JSON form; stable bytes for identical models."""
    return json.dumps(to_obj(model), sort_keys=True, indent=2)


def from_json(text: str) -> GBMModel:
    return from_obj(json.loads(text))
