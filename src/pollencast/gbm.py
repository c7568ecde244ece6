"""Gradient-boosted regression trees with squared-error loss, from scratch.

Stagewise boosting: each tree fits the current residuals with greedy CART
splits chosen by variance reduction.  Candidate thresholds sit at midpoints
between consecutive distinct sorted values; ties go to the lowest feature
index, then the smallest threshold.  Each row's residual then drops by the
learning rate times the value of the leaf that prediction's walk takes it
to; a row subsample only picks the rows that grow a tree.

Determinism is part of the contract: training rows are brought into a
canonical order before fitting so the resulting model is bit-identical
under any permutation of the input rows, and serialized models round-trip
losslessly through JSON.  The canonical order sorts by every column, then
y; it is found by sorting on the leading columns first, 16 and then twice
as many while two neighbouring rows still tie on all of them, since the
later keys only break those ties.

The split search is the exact greedy algorithm on presorted columns
(Chen & Guestrin 2016, arXiv:1603.02754), in numpy only.  A node is a
(features, k) matrix of row indices, row f holding the node's rows in
ascending order of feature f; the root is one stable argsort per fit, and
children keep their parent's order.  The chosen split is the first maximum
over (feature, position) of ``s_left**2/n_left + s_right**2/n_right -
total**2/k``, where ``s_left`` is the running sum of the node's centred
residuals in the feature's order and ``total`` its last value.  The search
holds those residuals positions-major, as a (k, features) matrix, so the
running sums take one vectorised add per position over every feature.

Most features cannot win, so the search screens them.  With ``n_right = k
- n_left >= min_samples_leaf`` at every legal position and ``q =
s_left**2 * k / (n_left * n_right)``, the gain is exactly::

    gain = q - 2 * total * s_left / n_right + total**2 * (1/n_right - 1/k)

With ``|s_left| <= s_max_f = sqrt(qmax_f / min(k / (n_left * n_right)))``,
feature f's best gain is at most::

    B_f = qmax_f + (2 * |total_f| * s_max_f + total_f**2) / min_samples_leaf
          + 1e-9 * (qmax_f + total_f**2 + |total_f| * s_max_f) + 1e-300

The centred residuals sum to ``total``, 0 up to rounding, so ``B_f`` sits
just above ``qmax_f``.  The 1e-9 and the 1e-300 cover the rounding of
both formulas, subnormal numbers included.  A feature whose ``|total| +
s_max`` passes 1e153, where the gain's squares may overflow, gets an
infinite bound.  ``q`` takes two passes over the running sums and a
maximum down each feature's column.  The exact gains of the 8 features
with the largest ``qmax`` give a floor ``g_low``; every feature with ``not
(B_f < g_low)`` is a candidate, so a NaN bound is one, and a floor of -inf or NaN makes
every feature one.  The candidates get their exact gains and the first
maximum over them, in ascending feature order, wins: the same (feature,
position, gain) as the full search, bit for bit.  Each step below is
arranged so that every exact gain, and hence every tree, is bit-identical
to evaluating the expression on the whole matrix with fresh arrays:

* Only positions that leave ``min_samples_leaf`` rows on both sides are
  evaluated.  The others would be -inf and could never win.
* The expression runs term by term, in place, in the same order of
  operations (square, divide, add, subtract), so each value is rounded the
  same way.  Positions where the value does not change are set to -inf
  after the arithmetic.
* Running sums add row i of the positions-major matrix into row i + 1, one
  add per position over all features.  Each feature's sums thus add its
  values one at a time in its own order, as ``np.cumsum`` along its row
  would, and do not depend on the features beside it.
* The residuals are centred before the gather, which gives the same
  numbers as centring the gathered matrix.  The gather reads the order
  matrix in place, features-major, and is then copied transposed into the
  positions-major matrix; the screen, the probes and the candidates read
  its rows and columns.
* Nodes carry order matrices only.  The few candidate rows gather their
  values from the fit's ``XT`` through their order rows, and a threshold
  reads ``XT`` at its two rows.
* A child's order is gathered from its parent's with 1-D ``take`` at the
  positions of the parent's rows that go to that side.  This keeps each
  row's order, so it equals sorting again.
* The screen's temporaries, the gathered residuals, each feature's best
  gain and position and the children's matrices live in buffers allocated
  once per fit, a depth's buffer when a node first reaches that depth.
  Fresh temporaries of this size are returned to the system on release and
  page-fault again on the next node, which costs more than the arithmetic.
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
import math
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import json_text, parse_json
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
        self.newest_levels = 0  # depth of the tree being written

    def add(self, feature: int, threshold: float, value: float, depth: int) -> int:
        """Append a node pointing to itself; a split's caller links its
        children once they exist, a root's caller appends it to ``roots``."""
        i = len(self.value)
        self.feature.append(feature)
        self.threshold.append(threshold)
        self.left.append(i)
        self.right.append(i)
        self.value.append(value)
        # a node of depth 0 starts a new tree
        self.newest_levels = max(self.newest_levels, depth) if depth else 0
        self.levels = max(self.levels, depth)
        return i

    def arrays(self, newest: bool = False) -> TreeArrays:
        """Every tree, or the newest alone with its nodes indexed from 0,
        read-only.  The newest tree is read without the earlier ones."""
        first = self.roots[-1] if newest else 0
        cols = [
            np.array(self.feature[first:], dtype=np.intp),
            np.array(self.threshold[first:], dtype=np.float64),
            np.array(self.left[first:], dtype=np.intp) - first,
            np.array(self.right[first:], dtype=np.intp) - first,
            np.array(self.value[first:], dtype=np.float64),
            np.array([0] if newest else self.roots, dtype=np.intp),
        ]
        for a in cols:
            a.setflags(write=False)
        return TreeArrays(*cols, levels=self.newest_levels if newest else self.levels)


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


#: Columns of the first sort in :func:`_canonical_order`.  In the fits of a
#: training 13-14 leading columns told every row apart, so one sort of 16
#: usually settles the order.
_LEADING_KEYS = 16


def _canonical_order(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row order independent of input permutation: sort by all columns, then y.

    The later keys only break ties of the earlier ones, so when no two
    neighbouring rows of the order by the first m columns tie on all m, it
    is the order by every column.  m starts at :data:`_LEADING_KEYS` and
    doubles while some neighbours tie; the last sort takes every column
    and then y.
    """
    m = _LEADING_KEYS
    while m < X.shape[1]:
        order = np.lexsort(X[:, m - 1 :: -1].T)  # the last key sorts first
        lead = X[order, :m]
        if not (lead[1:] == lead[:-1]).all(axis=1).any():
            return order
        m *= 2
    keys = tuple(X[:, j] for j in range(X.shape[1] - 1, -1, -1))
    return np.lexsort((y,) + keys)


def _leading(buf: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """The first cells of a flat buffer as a C-contiguous ``shape`` matrix."""
    return buf[: shape[0] * shape[1]].reshape(shape)


class _Scratch:
    """Flat buffers for the temporaries of :func:`_split_gains` and
    :func:`_best_split`.  ``gain`` and ``tie`` hold a whole node; ``right``
    holds only the rows that get exact gains, so it starts at ``right_cells``
    and grows when a node needs more.  ``best`` and ``at`` hold one gain and
    one position per feature, allocated by the first node."""

    __slots__ = ("gain", "right", "tie", "best", "at")

    def __init__(self, cells: int, right_cells: int = 0) -> None:
        self.gain = np.empty(cells)
        self.right = np.empty(right_cells)
        self.tie = np.empty(cells, dtype=bool)
        self.best = np.empty(0)
        self.at = np.empty(0, dtype=np.intp)

    def right_for(self, shape: tuple[int, int]) -> np.ndarray:
        """The first cells of ``right`` as a ``shape`` matrix."""
        if self.right.size < shape[0] * shape[1]:
            self.right = np.empty(shape[0] * shape[1])
        return _leading(self.right, shape)

    def per_feature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """``best`` and ``at`` for ``n`` features, every gain -inf."""
        if self.best.size < n:
            self.best = np.empty(n)
            self.at = np.empty(n, dtype=np.intp)
        self.best[:n] = -np.inf
        return self.best[:n], self.at[:n]


def _split_gains(
    V: np.ndarray, csum: np.ndarray, min_leaf: int, scratch: _Scratch
) -> np.ndarray:
    """SSE gain of every legal split of some features of one node, one row
    per feature.

    ``V`` holds each feature's values in ascending order and ``csum`` the
    running sums of the residuals minus the node mean, in the same order.
    Column j is the split after position ``min_leaf - 1 + j``: only
    positions that leave ``min_leaf`` rows on both sides are computed.
    Positions where the value does not change get -inf.  The result is a
    view of ``scratch.gain``.
    """
    k = V.shape[1]
    lo, hi = min_leaf - 1, k - min_leaf
    shape = (V.shape[0], max(hi - lo, 0))
    gain = _leading(scratch.gain, shape)
    right = scratch.right_for(shape)
    tie = _leading(scratch.tie, shape)
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


#: Features whose exact gains give the floor ``g_low`` on a node's best
#: gain, those with the largest ``qmax``.  The winner is nearly always among
#: them: on the benchmark's fits 0.2-1.7 more features per node reached
#: the floor, so 8 exact rows cut all but a few of the 349.
_PROBES = 8

#: Relative slack of a feature's gain bound.  The gain expression and the
#: bound each round by a few units in the last place, about 1e-15 of
#: ``qmax + total**2 + |total|*s_max``; 1e-9 covers both many times over and
#: still cuts the features that cannot win.
_REL_SLACK = 1e-9

#: Absolute slack of a bound, for rounding on subnormal numbers: 2**-1074
#: per operation, and up to about ``2 * |total| * 1e-161`` of the cross
#: term where ``qmax`` underflowed (the relative slack covers that once
#: ``|total|`` passes about 1e-152).  1e-300 covers both and vanishes
#: beside any gain of real data.
_ABS_SLACK = 1e-300

#: Past this ``|total| + s_max`` a square of the gain expression may
#: overflow (near 1.3e154), so the bound could miss an inf or NaN gain;
#: such a feature is always a candidate.
_S_OVERFLOW = 1e153


def _best_split(
    XT: np.ndarray, order: np.ndarray, C: np.ndarray, min_leaf: int, scratch: _Scratch
) -> tuple[int, int, float]:
    """Best (feature, position, gain) of one node, or (-1, -1, -inf).

    ``order`` is the node's (features, k) matrix of rows, row f in
    ascending order of ``XT[f]``, and ``C`` the residuals minus the node
    mean gathered through it, positions-major: ``C[i, f]`` belongs to row
    ``order[f, i]``.  ``C`` is overwritten with its running sums down the
    positions.  Position i splits after the (i+1)-th row of the feature's
    order.  Equal gains go to the lowest feature, then the lowest position:
    the first maximum of :func:`_split_gains` over all features in
    row-major order.  Only the features whose gain bound reaches the best
    exact gain of the :data:`_PROBES` probes get their exact gains (module
    docstring).
    """
    n_features, k = order.shape
    lo, hi = min_leaf - 1, k - min_leaf
    if hi <= lo:
        return -1, -1, -np.inf
    # one add per position over every feature; each feature still adds its
    # values in position order, as np.cumsum along its row would
    prev = C[0]
    for row in C[1:]:
        np.add(prev, row, out=row)
        prev = row
    total = C[-1]
    n_left = np.arange(lo + 1, hi + 1, dtype=np.float64)
    weight = k / (n_left * (k - n_left))
    q = _leading(scratch.gain, (hi - lo, n_features))
    np.square(C[lo:hi], out=q)
    q *= weight[:, None]
    qmax = q.max(axis=0)
    t_abs = np.abs(total)
    # the weight is least where n_left * n_right is largest, at k // 2
    s_max = np.sqrt(qmax / (k / (k // 2 * (k - k // 2))))
    ts = t_abs * s_max
    # the bound of the module docstring, its terms gathered by factor
    bound = (
        qmax * (1.0 + _REL_SLACK)
        + ts * (2.0 / min_leaf + _REL_SLACK)
        + total * total * (1.0 / min_leaf + _REL_SLACK)
        + _ABS_SLACK
    )
    bound[t_abs + s_max > _S_OVERFLOW] = np.inf

    # at[f] is read only where best[f] is finite, so once f was evaluated
    best, at = scratch.per_feature(n_features)

    def evaluate(rows: np.ndarray) -> None:
        V = XT.ravel().take(order[rows] + (rows * XT.shape[1])[:, None])
        gain = _split_gains(V, C[:, rows].T, min_leaf, scratch)
        pos = gain.argmax(axis=1)
        best[rows] = gain[np.arange(rows.size), pos]
        at[rows] = pos

    probes = np.arange(n_features)
    if n_features > _PROBES:
        probes = np.argpartition(qmax, n_features - _PROBES)[-_PROBES:]
    evaluate(probes)
    # a NaN floor compares false, so every feature is then a candidate
    candidate = ~(bound < best[probes].max())
    candidate[probes] = False
    rest = np.flatnonzero(candidate)
    if rest.size:
        evaluate(rest)
    f = int(np.argmax(best))
    if not np.isfinite(best[f]):
        return -1, -1, -np.inf
    return f, int(at[f]) + lo, float(best[f])


def _midpoint(lo: float, hi: float) -> float:
    thr = (lo + hi) / 2.0
    if thr >= hi:  # adjacent floats: midpoint may round up to the right value
        thr = lo
    return float(thr)


class _TreeBuilder:
    """Grows the trees of one fit on presorted per-feature row orders.

    A node is a (features, k) matrix of row indices, row f listing the
    node's rows in ascending order of feature f; the leaves below the last
    split level keep order row 0 only.  A split node's centred residuals
    are gathered through it into the screen's buffer and copied transposed
    into ``_centered``, the (k, features) matrix that :func:`_best_split`
    sums.  Values are read from ``XT`` through the order rows that need
    them.  The nodes of one depth own disjoint row slots ``[start, start +
    k)`` of ``[0, rows)``: a left child takes the first k_left slots of its
    parent, the right child the rest.  The order matrices of the nodes at
    depth d + 1 live in ``_orders[d]`` at the cells of their slots, so every
    pending node keeps them without allocation.  A depth's buffer is allocated when a node first reaches it, so a deep
    ``max_depth`` costs only the levels the trees grow.
    """

    def __init__(self, XT: np.ndarray, residual: np.ndarray, cfg: GBMConfig) -> None:
        self.XT = XT
        self.n_rows = residual.size
        self.residual = residual
        self.min_leaf = cfg.min_samples_leaf
        self.max_depth = cfg.max_depth
        self._cells = XT.size
        self._centered = np.empty(self._cells)
        # the probes' exact gains; more candidate rows grow it
        self._scratch = _Scratch(self._cells, _PROBES * self.n_rows)
        self._orders: list[np.ndarray] = []
        self.nodes = _Nodes()

    def grow(self, root: np.ndarray) -> TreeArrays:
        """One tree from the root's order matrix; returns its arrays alone."""
        self.nodes.roots.append(self._build(root, 0, 0))
        return self.nodes.arrays(newest=True)

    def _level(self, depth: int) -> np.ndarray:
        """The buffer of the children of the nodes at ``depth``."""
        while len(self._orders) <= depth:
            # children of the last split level are leaves and keep only row 0
            last = len(self._orders) + 1 == self.max_depth
            self._orders.append(
                np.empty(self.n_rows if last else self._cells, dtype=np.intp))
        return self._orders[depth]

    def _build(self, node_order: np.ndarray, depth: int, start: int) -> int:
        res = self.residual[node_order[0]]
        value = float(res.mean())
        k = res.size
        if (
            depth >= self.max_depth
            or k < 2 * self.min_leaf
            or bool(np.all(res == res[0]))
        ):
            return self.nodes.add(0, 0.0, value, depth)

        # centring the n residuals before the gather gives the same values
        # as centring the gathered matrix; the gather reads node_order in
        # place, into the screen's buffer, and its copy is positions-major
        gathered = (self.residual - value).take(
            node_order, out=_leading(self._scratch.gain, node_order.shape),
            mode="clip")
        C = _leading(self._centered, (k, node_order.shape[0]))
        np.copyto(C, gathered.T)
        f, i, gain = _best_split(self.XT, node_order, C, self.min_leaf, self._scratch)
        if f < 0 or gain <= 0.0:
            return self.nodes.add(0, 0.0, value, depth)
        thr = _midpoint(self.XT[f, node_order[f, i]], self.XT[f, node_order[f, i + 1]])

        in_left = np.zeros(self.n_rows, dtype=bool)
        in_left[node_order[f, : i + 1]] = True
        if depth + 1 == self.max_depth:
            node_order = node_order[:1]  # the children are leaves
        flat = node_order.ravel()
        mask = in_left.take(flat, out=self._scratch.tie[: flat.size], mode="clip")
        left_at = np.flatnonzero(mask)
        np.logical_not(mask, out=mask)
        right_at = np.flatnonzero(mask)
        left = self._child(flat, left_at, depth, start, i + 1)
        right = self._child(flat, right_at, depth, start + i + 1, k - i - 1)
        node = self.nodes.add(f, thr, 0.0, depth)
        self.nodes.left[node] = self._build(*left)
        self.nodes.right[node] = self._build(*right)
        return node

    def _child(
        self, flat: np.ndarray, at: np.ndarray, depth: int, slot: int, size: int
    ) -> tuple[np.ndarray, int, int]:
        """``_build`` arguments of the child at flat positions ``at`` of its
        parent's order, stored at the child's slot of the depth buffer."""
        n_orders = at.size // size
        cells = slice(n_orders * slot, n_orders * (slot + size))
        # take(mode="clip") writes into out= directly; compress() and
        # mode="raise" copy through a temporary
        order = flat.take(at, out=self._level(depth)[cells], mode="clip")
        return order.reshape(n_orders, size), depth + 1, slot


def fit(X: np.ndarray, y: np.ndarray, cfg: GBMConfig | None = None) -> FitResult:
    """Train a boosted ensemble; returns the model and its training curve.

    Tree m grows on a ``subsample_fraction`` of the rows drawn with ``seed``
    (all rows at 1.0, with no draw).  Then every row's residual drops by
    ``learning_rate`` times the value of the leaf that :func:`_leaf_nodes`,
    the walk of :func:`predict_batch`, takes it to.  ``curve[0]`` is the
    MSE of the base prediction alone, ``curve[m]`` the MSE after m trees;
    with full subsampling the curve never increases.  Constant targets are
    legal and produce a model that always predicts that constant.
    """
    cfg = cfg or GBMConfig()
    X, y = _validate_matrix(X, y)
    n = X.shape[0]
    min_rows = max(2 * cfg.min_samples_leaf, 2)
    if n < min_rows:
        raise TooFewRowsError(f"need at least {min_rows} rows, got {n}")

    order = _canonical_order(X, y)
    XT = np.ascontiguousarray(X.T[:, order])  # (features, n), rows in order
    y = y[order]
    n_features = XT.shape[0]

    base = float(y.mean())
    residual = y - base
    sorted_by_feature = np.argsort(XT, axis=1, kind="stable")

    rng = np.random.default_rng(cfg.seed)
    m_rows = max(2 * cfg.min_samples_leaf, int(cfg.subsample_fraction * n))
    root = sorted_by_feature

    curve = np.empty(cfg.n_trees + 1)
    curve[0] = float(np.mean(residual**2))
    builder = _TreeBuilder(XT, residual, cfg)
    for m in range(1, cfg.n_trees + 1):
        if cfg.subsample_fraction < 1.0:
            chosen = rng.choice(n, size=min(m_rows, n), replace=False)
            in_sub = np.zeros(n, dtype=bool)
            in_sub[chosen] = True
            root = sorted_by_feature.ravel().compress(
                in_sub.take(sorted_by_feature.ravel())
            ).reshape(n_features, chosen.size)
        tree = builder.grow(root)
        residual -= cfg.learning_rate * tree.value.take(_leaf_nodes(tree, XT.T)[0])
        curve[m] = float(np.mean(residual**2))

    model = GBMModel(
        base_prediction=base,
        arrays=builder.nodes.arrays(),
        learning_rate=cfg.learning_rate,
        feature_count=n_features,
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


def _leaf_nodes(t: TreeArrays, X: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """The leaf that each row of ``X[rows]`` reaches in each tree, (trees,
    rows): ``t.levels`` steps of one level each, where a leaf is its own
    child.  ``X`` must be C- or F-contiguous; it is read in place through
    its strides, whichever rows are asked for."""
    row_step, col_step = (s // X.itemsize for s in X.strides)
    flat = X.ravel(order="K")  # X's memory, a view
    feature = t.feature if col_step == 1 else t.feature * col_step
    row_start = np.arange(*rows.indices(X.shape[0])) * row_step  # offsets into flat
    node = np.repeat(t.roots[:, None], row_start.size, axis=1)
    for _ in range(t.levels):
        x = flat.take(feature.take(node) + row_start)
        goes_left = x <= t.threshold.take(node)
        node = np.where(goes_left, t.left.take(node), t.right.take(node))
    return node


#: Rows traversed at once, so that the (trees, rows) temporaries stay small.
_ROW_BLOCK = 1024


def predict_batch(model: GBMModel, X: np.ndarray) -> np.ndarray:
    """Predictions for a matrix of rows; equals row-wise :func:`predict`.

    A C- or F-contiguous ``X`` is read in place, block by block; any other
    layout is copied to C order once."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_count:
        raise WrongFeatureCountError(
            f"expected (rows, {model.feature_count}), got shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise NonFiniteError("feature matrix contains non-finite values")
    if not (X.flags.c_contiguous or X.flags.f_contiguous):
        X = np.ascontiguousarray(X)
    t = model.arrays
    acc = np.empty(X.shape[0])
    for lo in range(0, X.shape[0], _ROW_BLOCK):
        rows = slice(lo, min(lo + _ROW_BLOCK, X.shape[0]))
        # 0.0, then each tree's leaf values; a running sum adds them in tree
        # order, where np.sum may add pairwise and round differently
        leaves = np.zeros((t.roots.size + 1, rows.stop - lo))
        t.value.take(_leaf_nodes(t, X, rows), out=leaves[1:], mode="clip")
        acc[rows] = np.cumsum(leaves, axis=0)[-1]
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
    return json_text(to_obj(model))


def from_json(text: str) -> GBMModel:
    return from_obj(parse_json(text, "model"))
