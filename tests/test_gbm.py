import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from helpers import (
    PACKED_FIELDS,
    damaged_text,
    model_from_trees,
    nested_trees,
    pack,
    reference_best_split,
    reference_check_trees,
    reference_decode_trees,
    reference_predict,
    reference_split_gains,
    split_search,
    unpack,
)
from pollencast import gbm
from pollencast.errors import (
    InvalidRecordError,
    LengthMismatchError,
    NonFiniteError,
    TooFewRowsError,
    WrongFeatureCountError,
)
from pollencast.gbm import (
    GBMConfig,
    fit,
    from_json,
    predict,
    predict_batch,
    to_json,
)


def make_regression(seed, rows=500, features=8):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, size=(rows, features))
    y = X[:, 3].copy()
    return X, y


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_trees=0),
            dict(max_depth=-1),
            dict(learning_rate=0.0),
            dict(learning_rate=1.5),
            dict(min_samples_leaf=0),
            dict(subsample_fraction=0.0),
            dict(subsample_fraction=1.2),
            dict(n_trees=2.5),
            dict(n_trees=True),
            dict(max_depth=1.5),
            dict(min_samples_leaf=2.0),
            dict(seed=-1),
            dict(seed=1.5),
            dict(n_trees=2**31),
            dict(n_trees=10**21),
            dict(learning_rate=True),
            dict(subsample_fraction=True),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidRecordError):
            GBMConfig(**kwargs)


class TestSplitSearch:
    def test_obvious_separator(self):
        result = split_search([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 10.0, 10.0], 1)
        assert result is not None
        thr, gain = result
        assert thr == 2.5
        assert gain == pytest.approx(100.0)  # SSE drops from 100 to 0

    def test_constant_targets(self):
        assert split_search([1.0, 2.0, 3.0], [5.0, 5.0, 5.0], 1) is None

    def test_constant_values(self):
        assert split_search([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], 1) is None

    def test_min_leaf_respected(self):
        result = split_search([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 10.0, 10.0], 2)
        assert result is not None
        assert result[0] == 2.5
        assert split_search([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 10.0, 10.0], 3) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            split_search([1.0, 2.0], [1.0, 2.0, 3.0], 1)

    def test_tie_smallest_threshold(self):
        # Symmetric target pattern: splitting after the first or before the
        # last value gains the same; the smaller threshold must win.
        result = split_search([1.0, 2.0, 3.0], [10.0, 0.0, 10.0], 1)
        assert result is not None
        assert result[0] == 1.5

    @staticmethod
    def oracle(values, targets, min_leaf):
        values = [float(v) for v in values]
        targets = [float(t) for t in targets]

        def sse(ts):
            if not ts:
                return 0.0
            m = sum(ts) / len(ts)
            return sum((t - m) ** 2 for t in ts)

        parent = sse(targets)
        best = None
        distinct = sorted(set(values))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2.0
            if thr >= hi:
                thr = lo
            left = [t for v, t in zip(values, targets) if v <= thr]
            right = [t for v, t in zip(values, targets) if v > thr]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = parent - sse(left) - sse(right)
            if gain > 0.0 and (best is None or gain > best[1] + 1e-12):
                best = (thr, gain)
        return best

    def test_random_inputs_match_oracle(self):
        rng = np.random.default_rng(31)
        for trial in range(120):
            k = int(rng.integers(5, 51))
            min_leaf = int(rng.integers(1, 4))
            if trial % 3 == 0:
                values = rng.integers(0, 6, size=k).astype(float)  # heavy ties
            else:
                values = rng.normal(0.0, 1.0, size=k)
            targets = rng.normal(0.0, 1.0, size=k)
            got = split_search(values, targets, min_leaf)
            want = self.oracle(values, targets, min_leaf)
            if want is None:
                assert got is None
                continue
            assert got is not None
            thr, gain = got
            assert gain == pytest.approx(want[1], rel=1e-9, abs=1e-9)
            if thr != want[0]:
                # The kernel may have found an equal-gain split; verify it
                # really is equal-gain at its threshold.
                re_gain = self.oracle_gain_at(values, targets, thr)
                assert re_gain == pytest.approx(want[1], rel=1e-9, abs=1e-9)

    @staticmethod
    def oracle_gain_at(values, targets, thr):
        left = [t for v, t in zip(values, targets) if v <= thr]
        right = [t for v, t in zip(values, targets) if v > thr]

        def sse(ts):
            if not ts:
                return 0.0
            m = sum(ts) / len(ts)
            return sum((t - m) ** 2 for t in ts)

        return sse(targets) - sse(left) - sse(right)


class TestFit:
    def test_depth_zero_is_mean(self):
        X, y = make_regression(0, rows=50)
        cfg = GBMConfig(n_trees=1, max_depth=0, learning_rate=1.0)
        model, curve = fit(X, y, cfg)
        assert predict(model, X[0]) == pytest.approx(y.mean())
        assert curve.shape == (2,)

    def test_constant_target(self):
        X, _ = make_regression(1, rows=40)
        y = np.full(40, 7.0)
        model, _ = fit(X, y, GBMConfig(n_trees=5))
        probe = np.zeros(X.shape[1])
        assert predict(model, probe) == 7.0
        assert model.base_prediction == 7.0

    def test_learnable_target_fits_tightly(self):
        X, y = make_regression(2, rows=500)
        model, curve = fit(X, y, GBMConfig())
        assert curve[-1] < 0.01 * y.var()

    def test_training_row_prediction_close(self):
        X, y = make_regression(2, rows=500)
        model, _ = fit(X, y, GBMConfig())
        for idx in (0, 100, 499):
            assert abs(predict(model, X[idx]) - y[idx]) < 0.5

    def test_curve_non_increasing(self):
        X, y = make_regression(3, rows=300)
        _, curve = fit(X, y, GBMConfig(n_trees=80))
        assert (np.diff(curve) <= 1e-12).all()

    def test_curve_starts_at_base_mse(self):
        X, y = make_regression(4, rows=100)
        _, curve = fit(X, y, GBMConfig(n_trees=3))
        assert curve[0] == pytest.approx(y.var())

    def test_depth_bounded(self):
        X, y = make_regression(5, rows=200)
        model, _ = fit(X, y, GBMConfig(n_trees=20, max_depth=2))
        assert model.arrays.levels <= 2

    def test_min_leaf_large_blocks_splits(self):
        X, y = make_regression(6, rows=20)
        model, _ = fit(X, y, GBMConfig(n_trees=3, min_samples_leaf=10))
        # 20 rows with min_leaf 10: only a perfectly balanced root split is
        # legal, so depth can never exceed 1.
        assert model.arrays.levels <= 1

    def test_deep_max_depth_equals_the_reachable_depth(self):
        # a node at depth d holds at most n - d * min_leaf rows, so no tree
        # grows past n // min_leaf levels; a larger max_depth fits the same
        X, y = make_regression(21, rows=60, features=5)
        y = y + np.random.default_rng(21).normal(size=60)
        cfg = GBMConfig(n_trees=8, max_depth=10**6, min_samples_leaf=2)
        deep, deep_curve = fit(X, y, cfg)
        reach, reach_curve = fit(X, y, replace(cfg, max_depth=60 // 2))
        assert deep.arrays.levels > 3
        assert same_arrays(deep.arrays, reach.arrays)
        np.testing.assert_array_equal(deep_curve, reach_curve)

    def test_too_few_rows(self):
        X, y = make_regression(7, rows=9)
        with pytest.raises(TooFewRowsError):
            fit(X, y, GBMConfig(min_samples_leaf=5))

    def test_non_finite_rejected(self):
        X, y = make_regression(8, rows=30)
        X[3, 2] = np.nan
        with pytest.raises(NonFiniteError):
            fit(X, y, GBMConfig())

    def test_length_mismatch(self):
        X, y = make_regression(9, rows=30)
        with pytest.raises(LengthMismatchError):
            fit(X, y[:-1], GBMConfig())


class TestDeterminism:
    def test_refit_identical(self):
        X, y = make_regression(10, rows=200)
        cfg = GBMConfig(n_trees=30, seed=5)
        a, _ = fit(X, y, cfg)
        b, _ = fit(X, y, cfg)
        assert to_json(a) == to_json(b)

    def test_permutation_invariance(self):
        X, y = make_regression(11, rows=200)
        cfg = GBMConfig(n_trees=30)
        base, _ = fit(X, y, cfg)
        rng = np.random.default_rng(0)
        perm = rng.permutation(len(y))
        shuffled, _ = fit(X[perm], y[perm], cfg)
        assert to_json(base) == to_json(shuffled)
        probes = np.random.default_rng(1).normal(size=(20, X.shape[1]))
        np.testing.assert_array_equal(
            predict_batch(base, probes), predict_batch(shuffled, probes)
        )

    def test_subsample_deterministic(self):
        X, y = make_regression(12, rows=200)
        cfg = GBMConfig(n_trees=20, subsample_fraction=0.7, seed=3)
        a, curve_a = fit(X, y, cfg)
        b, curve_b = fit(X, y, cfg)
        assert to_json(a) == to_json(b)
        np.testing.assert_array_equal(curve_a, curve_b)

    def test_subsample_seed_changes_model(self):
        X, y = make_regression(13, rows=200)
        a, _ = fit(X, y, GBMConfig(n_trees=5, subsample_fraction=0.5, seed=1))
        b, _ = fit(X, y, GBMConfig(n_trees=5, subsample_fraction=0.5, seed=2))
        assert to_json(a) != to_json(b)


def identity_order(V: np.ndarray) -> np.ndarray:
    """The order matrix of a node whose value matrix ``V`` is its own
    ``XT``: row f of ``V`` is already in ascending order."""
    return np.tile(np.arange(V.shape[1]), (V.shape[0], 1))


class TestKernelEquivalence:
    """The split kernel against the plain gain expression in ``helpers``."""

    @staticmethod
    def node(rng, n_features, k):
        # integer columns: many ties, several constant rows at small k
        X = rng.integers(0, 4, size=(n_features, k)).astype(float)
        r = np.round(rng.normal(size=k), 2)  # ties in the residuals too
        order = np.argsort(X, axis=1, kind="stable")
        return np.take_along_axis(X, order, axis=1), r[order], float(r.mean())

    @pytest.mark.parametrize("min_leaf", [1, 2, 5])
    def test_gains_and_choice_match_reference(self, min_leaf):
        rng = np.random.default_rng(min_leaf)
        for k in range(2, 41):  # k < 2 * min_leaf leaves no legal split
            for _ in range(3):
                V, R, mean = self.node(rng, 7, k)
                want = reference_split_gains(V, R, mean, min_leaf)
                got = gbm._split_gains(
                    V, np.cumsum(R - mean, axis=1), min_leaf, gbm._Scratch(V.size)
                )
                lo, hi = min_leaf - 1, k - min_leaf
                # bit patterns, so that -0.0 and 0.0 differ too
                np.testing.assert_array_equal(
                    got.view(np.uint64), want[:, lo:hi].view(np.uint64)
                )
                assert np.all(want[:, :lo] == -np.inf)
                assert np.all(want[:, max(hi, lo):] == -np.inf)
                assert gbm._best_split(
                    V, identity_order(V), R - mean, min_leaf, gbm._Scratch(V.size)
                ) == reference_best_split(V, R, mean, min_leaf)


@st.composite
def split_nodes(draw):
    """(V, R, node_mean, min_leaf) of a node as :func:`reference_split_gains`
    takes it: few value levels (ties, constant rows, all-tie nodes when
    every row is constant), duplicated columns and rows, k down to
    ``2 * min_leaf``, and residuals scaled by 1e-300 to 1e200, where the
    squares underflow or the sums overflow."""
    min_leaf = draw(st.integers(1, 5))
    k = draw(st.sampled_from([2 * min_leaf, 2 * min_leaf + 1])
             | st.integers(2 * min_leaf, 40))
    # more than the 8 probes, mostly, so that the screen cuts features
    n_features = draw(st.sampled_from([1, 8]) | st.integers(9, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.integers(0, draw(st.sampled_from([1, 2, 3, 1000])),
                     size=(n_features, k)).astype(np.float64)
    X[n_features - draw(st.integers(0, n_features - 1)):] = X[0]  # copies
    kind = draw(st.sampled_from(["normal", "integers", "constant", "one_off"]))
    if kind == "normal":
        r = rng.normal(size=k)
    elif kind == "integers":  # duplicate rows where the values tie too
        r = rng.integers(-2, 3, size=k).astype(np.float64)
    else:
        r = np.full(k, 3.0)
        if kind == "one_off":
            r[rng.integers(k)] = 4.0
    scale = 10.0 ** draw(st.sampled_from([-300, -160, 0, 150, 154, 200])
                         | st.integers(-300, 200))
    r *= scale
    # the kernel must match the expression for any mean, and an off-centre
    # one makes the total's terms of the bound count
    shift = draw(st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.5, -2.0])) * scale
    order = np.argsort(X, axis=1, kind="stable")
    return (np.take_along_axis(X, order, axis=1), r[order],
            float(r.mean()) + shift, min_leaf)


def same_split(got: tuple, want: tuple) -> bool:
    """Equal (feature, position, gain), the gain bit for bit."""
    return got[:2] == want[:2] and (
        np.float64(got[2]).tobytes() == np.float64(want[2]).tobytes())


class TestScreenedSplit:
    """The screened search against the full reference search: only the
    features whose bound reaches the best probed gain get exact gains, and
    the choice must not move by a bit."""

    @given(node=split_nodes())
    @settings(max_examples=400, deadline=None)
    def test_equals_reference_search(self, node):
        V, R, mean, min_leaf = node
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            want = reference_best_split(V, R, mean, min_leaf)
            got = gbm._best_split(V, identity_order(V), R - mean, min_leaf,
                                  gbm._Scratch(V.size))
        event(f"split found: {want[0] >= 0}")
        assert same_split(got, want)

    def test_nan_bound_beside_finite_floor(self):
        # ten features, so the eight probes leave two out; feature 9 sums
        # to NaN (+inf and -inf in its last two rows, which no legal left
        # side includes), so its bound is NaN while the probes' floor is
        # finite: it must still be searched, and its NaN gains end the search
        rng = np.random.default_rng(3)
        V = np.sort(rng.normal(size=(10, 12)), axis=1)
        R = np.stack([rng.permutation(np.arange(12.0)) for _ in range(10)])
        mean = float(R[0].mean())
        args = (V, identity_order(V))
        finite = gbm._best_split(*args, R - mean, 2, gbm._Scratch(V.size))
        assert finite[0] >= 0 and np.isfinite(finite[2])
        R[9] = mean
        R[9, -2:] = np.inf, -np.inf
        with np.errstate(invalid="ignore"):
            want = reference_best_split(V, R, mean, 2)
            got = gbm._best_split(*args, R - mean, 2, gbm._Scratch(V.size))
        assert want == (-1, -1, -np.inf)
        assert same_split(got, want)

    def test_bound_covers_the_rounding_of_both_formulas(self):
        # the total is exactly 0, so feature 0's bound without slack would
        # be its qmax, which rounds one unit below its best gain; feature 1
        # splits the same way and is probed, as a tied position gives it a
        # larger qmax
        k, s = 12, 5.0
        q = np.float64(s) ** 2 * (k / (1.0 * (k - 1)))
        assert q < s**2 / 1.0 + s**2 / (k - 1.0)
        V = np.tile(np.arange(float(k)), (9, 1))
        V[1:, 3] = V[1:, 2]
        R = np.zeros((9, k))
        R[0, 0], R[0, -1] = s, -s
        R[1, :4] = s, -s, 1e3, -1e3
        R[2:, 2:4] = 1e3, -1e3
        want = reference_best_split(V, R, 0.0, 1)
        assert want[:2] == (0, 0)
        got = gbm._best_split(V, identity_order(V), R.copy(), 1,
                              gbm._Scratch(V.size))
        assert same_split(got, want)

    def test_bound_reaches_the_largest_left_sum(self):
        # the total is 4 and feature 0's left sum -3: the cross term lifts
        # its best gain, 9.85, far above its qmax, 3.3, and a bound on
        # |s_left| taken at weight 1 instead of the least weight 11/30
        # would miss it; probed feature 1 gains as much at the same position
        V = np.tile(np.arange(11.0), (9, 1))
        V[1, 5:] -= 1.0  # a tie at the first legal position
        V[2:, 5:7] = 4.0  # ties at both legal positions
        R = np.zeros((9, 11))
        R[0, 0], R[0, -1] = -3.0, 7.0
        R[1, [0, 4, 5, 10]] = -3.0, 20.0, -20.0, 7.0
        R[2:, 4], R[2:, -1] = 20.0, -16.0
        want = reference_best_split(V, R, 0.0, 5)
        assert want[:2] == (0, 5)
        got = gbm._best_split(V, identity_order(V), R.copy(), 5,
                              gbm._Scratch(V.size))
        assert same_split(got, want)

    def test_bound_covers_subnormal_rounding(self):
        # in units of 2**-539 the squares are subnormal: feature 0's best
        # gain rounds to 1e-323 while its bound before the 1e-300, relative
        # slack included, rounds to 5e-324; probed feature 1 gains 1e-323
        # too, and seven decoys get large qmax at tied positions
        V = np.tile([0.0, 1.0, 2.0, 2.0, 3.0, 4.0], (9, 1))
        V[0] = np.arange(6.0)
        R = np.zeros((9, 6))
        R[0] = -1.5, -3.0, -1.0, 1.0, 3.0, 2.0
        R[1] = -3.0, -1.5, 0.0, 0.0, -2.5, 3.0
        R[2:, 2:4] = 20.0, -20.0
        R *= 2.0**-539
        want = reference_best_split(V, R, 0.0, 1)
        assert want[0] == 0 and want[2] == 1e-323
        got = gbm._best_split(V, identity_order(V), R.copy(), 1,
                              gbm._Scratch(V.size))
        assert same_split(got, want)

    def test_overflowing_gain_outside_the_probes(self):
        # feature 9's running sum dips to -1.3e154 at its middle, where
        # (total - s_left)**2 overflows; but for the overflow guard its
        # bound stays below the probes' finite gains, yet its inf gain must
        # end the search
        k, t, big = 100, 0.05e154, 1.3e154
        V = np.tile(np.arange(float(k)), (10, 1))
        R = np.zeros((10, k))
        R[:9, 0], R[:9, 10] = big, t - big
        R[9, :50] = -big / 50
        R[9, 50:] = (t + big) / 50
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference_best_split(V, R, 0.0, 10)
            assert reference_best_split(V[:9], R[:9], 0.0, 10)[0] == 0
            got = gbm._best_split(V, identity_order(V), R.copy(), 10,
                                  gbm._Scratch(V.size))
        assert want == (-1, -1, -np.inf)
        assert same_split(got, want)


class TestCanonicalOrder:
    """The order from the leading columns equals one sort by every column,
    then y."""

    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 60),
           cols=st.sampled_from([1, 15, 16, 17, 40, 70]),
           tied=st.integers(0, 70), levels=st.sampled_from([1, 2, 5]),
           copies=st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_equals_full_lexsort(self, seed, rows, cols, tied, levels, copies):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(rows, cols))
        # the first columns tie on many rows; whole rows repeat with their y
        # or with another y
        X[:, : min(tied, cols)] = rng.integers(0, levels, size=(rows, min(tied, cols)))
        y = rng.integers(0, 3, size=rows).astype(np.float64)
        src = rng.integers(0, rows, size=copies)
        dst = rng.integers(0, rows, size=copies)
        X[dst] = X[src]
        perm = rng.permutation(rows)
        X, y = X[perm], y[perm]
        keys = tuple(X[:, j] for j in range(cols - 1, -1, -1))
        np.testing.assert_array_equal(gbm._canonical_order(X, y),
                                      np.lexsort((y,) + keys))


def pinned_data():
    rng = np.random.default_rng(2005)
    X = rng.normal(size=(240, 24))
    X[:, :8] = rng.integers(0, 6, size=(240, 8))
    X[:, 8:12] = np.round(X[:, 8:12], 1)
    y = 3.0 * X[:, 2] + X[:, 9] - 2.0 * (X[:, 14] > 0) + rng.normal(size=240)
    return X, y


class TestPinnedFits:
    """sha256 of the model JSON plus the training-curve bytes.

    The digests were taken with the original split kernel and retaken for
    the ``gbm-json-v2`` node lists, whose arrays equal those of the nested
    ``gbm-json-v1`` trees bit for bit, and for the packed ``gbm-json-v3``
    arrays, which decode to the ``gbm-json-v2`` arrays bit for bit; any
    change to the fitted trees, thresholds, leaf values or curve shows here.
    """

    CASES = {
        "default": (
            GBMConfig(),
            "19811f5e5cda136069842fc6aff1c6e1a70150ef52c3d2a8f053d8e2daa38e6c",
        ),
        "depth0": (
            GBMConfig(n_trees=40, max_depth=0),
            "2adc118459707b3742147e4db04d96f04003383ea1f72c885422077e369f576e",
        ),
        "depth1": (
            GBMConfig(n_trees=60, max_depth=1),
            "a02a9d6cad39d4e10dd21cb810a2f16c9dc28b424a5792f3a3e78c52fec38f5e",
        ),
        "depth2": (
            GBMConfig(n_trees=60, max_depth=2),
            "c8b84bef49d616a1df3bb47cf9752c8cfa60c7df40a5aadafae7862a3556b462",
        ),
        "min_leaf1": (
            GBMConfig(n_trees=60, min_samples_leaf=1),
            "a5a847d884d327f54a0df43f2ebb99beec0d26bee0977d1ced58aa930f01e023",
        ),
        "subsample": (
            GBMConfig(n_trees=60, subsample_fraction=0.5, seed=7),
            "5aa7e2cc3e7cd3511dff3e1390b2c652374033376395e62677beb04caef7788d",
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_digest(self, case):
        cfg, want = self.CASES[case]
        X, y = pinned_data()
        model, curve = fit(X, y, cfg)
        h = hashlib.sha256(to_json(model).encode())
        h.update(np.ascontiguousarray(curve, dtype="<f8").tobytes())
        assert h.hexdigest() == want


class TestTieBreaking:
    def test_lowest_feature_index_wins(self):
        # Identical columns: every split gain ties across them, so the
        # fitted trees must always split on column 0.
        rng = np.random.default_rng(14)
        col = rng.normal(size=120)
        X = np.stack([col, col.copy(), col.copy()], axis=1)
        y = (col > 0).astype(float) * 10.0 + rng.normal(0, 0.01, size=120)
        model, _ = fit(X, y, GBMConfig(n_trees=10, max_depth=2))

        used = set()

        def visit(node):
            if not node.is_leaf:
                used.add(node.feature)
                visit(node.left)
                visit(node.right)

        for tree in model.trees:
            visit(tree)
        assert used == {0}


class TestPredict:
    def test_zero_tree_model(self):
        model = model_from_trees((), feature_count=4, base_prediction=3.5,
                                 learning_rate=0.1)
        assert predict(model, np.zeros(4)) == 3.5

    def test_wrong_feature_count(self):
        X, y = make_regression(15, rows=30)
        model, _ = fit(X, y, GBMConfig(n_trees=2))
        with pytest.raises(WrongFeatureCountError):
            predict(model, np.zeros(X.shape[1] + 1))
        with pytest.raises(WrongFeatureCountError):
            predict_batch(model, np.zeros((3, X.shape[1] + 1)))

    def test_non_finite_probe(self):
        X, y = make_regression(16, rows=30)
        model, _ = fit(X, y, GBMConfig(n_trees=2))
        bad = np.zeros(X.shape[1])
        bad[0] = np.inf
        with pytest.raises(NonFiniteError):
            predict(model, bad)

    def test_batch_matches_scalar(self):
        X, y = make_regression(17, rows=150)
        model, _ = fit(X, y, GBMConfig(n_trees=25))
        probes = np.random.default_rng(2).normal(size=(40, X.shape[1]))
        batch = predict_batch(model, probes)
        for i in range(len(probes)):
            assert batch[i] == predict(model, probes[i])
            assert batch[i] == reference_predict(model, probes[i])

    def test_handcrafted_tree(self):
        tree = {"feature": 1, "threshold": 0.0,
                "left": {"value": -1.0}, "right": {"value": 1.0}}
        model = model_from_trees(
            (tree,), feature_count=3, base_prediction=10.0,
            config=GBMConfig(n_trees=1, learning_rate=1.0),
        )
        assert predict(model, np.array([5.0, -0.5, 0.0])) == 9.0
        assert predict(model, np.array([5.0, 0.0, 0.0])) == 9.0  # <= goes left
        assert predict(model, np.array([5.0, 0.5, 0.0])) == 11.0


    def test_tree_deeper_than_config_depth(self):
        # a 40-level chain under the default config's max_depth of 3: the
        # traversal takes as many steps as the deepest tree has levels
        node = {"value": 40.0}
        for d in range(39, -1, -1):
            node = {"feature": d % 3, "threshold": d / 40.0 - 0.5,
                    "left": {"value": float(d)}, "right": node}
        model = model_from_trees((node, {"value": 0.5}), feature_count=3,
                                 base_prediction=1.0, learning_rate=0.5)
        assert model.config.max_depth == 3 and model.arrays.levels == 40
        probes = np.random.default_rng(5).uniform(-1.0, 1.0, size=(200, 3))
        got = predict_batch(model, probes)
        want = [reference_predict(model, x) for x in probes]
        np.testing.assert_array_equal(got, want)
        assert len(set(got.tolist())) > 20  # rows end in many leaves


@st.composite
def random_fits(draw):
    """A small fitted model and probe rows, or a zero-tree model."""
    seed = draw(st.integers(0, 2**32 - 1))
    features = draw(st.integers(1, 5))
    rng = np.random.default_rng(seed)
    probes = np.round(rng.normal(size=(30, features)), 1)  # ties with X
    if draw(st.integers(0, 3)) == 0:
        return model_from_trees((), features, base_prediction=rng.normal()), probes
    rows = draw(st.integers(12, 60))
    X = np.round(rng.normal(size=(rows, features)), 1)
    y = X[:, 0] * 3.0 + rng.normal(size=rows)
    cfg = GBMConfig(
        n_trees=draw(st.integers(1, 30)),
        max_depth=draw(st.integers(0, 4)),
        learning_rate=draw(st.sampled_from([0.1, 0.5, 1.0])),
        min_samples_leaf=draw(st.integers(1, 5)),
        subsample_fraction=draw(st.sampled_from([0.5, 0.8, 1.0])),
        seed=draw(st.integers(0, 9)),
    )
    return fit(X, y, cfg).model, np.concatenate([X, probes])


class TestTraversalProperty:
    @given(case=random_fits())
    @example(case=(model_from_trees((), 2, base_prediction=-0.0), np.zeros((3, 2))))
    @settings(max_examples=60, deadline=None)
    def test_predict_batch_equals_scalar_walk(self, case):
        model, X = case
        got = predict_batch(model, X)
        want = np.array([reference_predict(model, x) for x in X])
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        # one row at a time too: numpy may sum a lone row in another order
        alone = np.array([predict(model, x) for x in X[:5]])
        np.testing.assert_array_equal(alone.view(np.uint64), want[:5].view(np.uint64))


class TestPermutationProperty:
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(6, 40),
           features=st.integers(1, 4), levels=st.integers(1, 4),
           subsample=st.sampled_from([0.6, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_fit_ignores_row_order(self, seed, rows, features, levels,
                                   subsample):
        # few distinct values: tied values in every column, tied targets
        # and whole duplicated rows
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(rows, features)).astype(np.float64)
        y = X[:, 0] + rng.integers(0, 3, size=rows) * 0.5
        cfg = GBMConfig(n_trees=6, max_depth=3, learning_rate=0.3,
                        min_samples_leaf=2, subsample_fraction=subsample,
                        seed=seed % 7)
        perm = rng.permutation(rows)
        assert to_json(fit(X, y, cfg).model) == to_json(fit(X[perm], y[perm], cfg).model)


def same_arrays(a: gbm.TreeArrays, b: gbm.TreeArrays) -> bool:
    """Equal node arrays, bit for bit and in dtype, and equal levels."""
    return a.levels == b.levels and all(
        x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in zip(a[:6], b[:6]))


def decode_outcome(decode, doc: dict):
    """The arrays ``decode(doc)`` returns, or None if it raises
    :class:`InvalidRecordError`."""
    try:
        return decode(doc)
    except InvalidRecordError:
        return None


_DROP, _NODES, _SELF = object(), object(), object()
#: Items that may break an index array: _DROP removes the item, _NODES
#: stands for the node count and _SELF for the item's own index; small
#: integers are drawn besides these.
_BAD_INDEXES = [_DROP, _NODES, _SELF, -1, 2**31 - 1, -(2**31)]
#: Items that may break a number array.
_BAD_NUMBERS = [_DROP, math.nan, math.inf, -math.inf, -0.0, 1.5, 5e-324]
#: JSON values that may stand in place of a packed array.
_BAD_FIELDS = [None, True, 0, 1.5, [], [0], {}, "", "=", "AAAA", "AAAAAA=="]


@st.composite
def broken_tree_docs(draw):
    """The ``gbm-json-v3`` object of a random fit with one to three of its
    node arrays damaged: items dropped, appended or replaced by an
    out-of-range, non-finite or other node's value and packed again, an
    index array packed as float64, the packed text damaged
    (``helpers.damaged_text``) or replaced by another JSON value."""
    model, _ = draw(random_fits())
    doc = gbm.to_obj(model)
    arrays = {key: unpack(doc, key) for key, _ in PACKED_FIELDS}
    damage = {}
    for _ in range(draw(st.integers(1, 3))):
        key, item = draw(st.sampled_from(PACKED_FIELDS))
        kind = draw(st.sampled_from(["item", "item", "item", "field", "text", "float64"]))
        if kind != "item":
            damage[key] = kind
            continue
        items, n = arrays[key], len(arrays["value"])
        bad = _BAD_INDEXES if item == "<i" else _BAD_NUMBERS
        new = draw(st.sampled_from(bad) | st.integers(-1, n + 1))
        at = draw(st.integers(0, len(items))) if items else 0
        if new is _DROP:
            if items:
                items.pop(min(at, len(items) - 1))
            continue
        new = n if new is _NODES else at if new is _SELF else new
        if at == len(items):
            items.append(new)
        else:
            items[at] = new
    for key, item in PACKED_FIELDS:
        kind = damage.get(key)
        if kind == "float64" and item == "<i":
            doc[key] = pack(map(float, arrays[key]), "<d")
            continue
        text = pack(arrays[key], item)
        if kind == "field":
            doc[key] = draw(st.sampled_from(_BAD_FIELDS))
            continue
        if kind == "text":
            text = damaged_text(draw, text)
        doc[key] = text
    return doc


def packed_doc(left: list, right: list, roots: list) -> dict:
    """A ``gbm-json-v3`` object over one feature with these child pointers
    and roots; every node has feature 0, threshold 0.0 and value 0.0."""
    n = len(left)
    doc = gbm.to_obj(model_from_trees((), 1))
    doc.update(feature=pack([0] * n, "<i"), threshold=pack([0.0] * n, "<d"),
               left=pack(left, "<i"), right=pack(right, "<i"),
               value=pack([0.0] * n, "<d"), roots=pack(roots, "<i"))
    return doc


@st.composite
def hand_made_models(draw):
    """A model of up to four random nested trees of up to 40 leaves each."""
    features = draw(st.integers(1, 5))
    leaf = st.builds(lambda v: {"value": v},
                     st.floats(-1e3, 1e3) | st.integers(-5, 5))
    tree = st.recursive(leaf, lambda kids: st.builds(
        lambda f, t, left, right: {"feature": f, "threshold": t,
                                   "left": left, "right": right},
        st.integers(0, features - 1), st.floats(-10.0, 10.0), kids, kids),
        max_leaves=40)
    return model_from_trees(draw(st.lists(tree, max_size=4)), features,
                            base_prediction=draw(st.floats(-1e3, 1e3)))


class TestDecoderProperty:
    """The packed node arrays load into the arrays they were saved from,
    bit for bit, and the checks over whole arrays reject exactly what the
    item-by-item, node-by-node oracle rejects."""

    @given(case=random_fits())
    @settings(max_examples=40, deadline=None)
    def test_arrays_equal_reference(self, case):
        model = case[0]
        back = from_json(to_json(model))
        assert same_arrays(back.arrays, model.arrays)
        assert back.base_prediction == model.base_prediction
        doc = gbm.to_obj(model)
        assert same_arrays(reference_check_trees(doc, doc["feature_count"]), model.arrays)
        nested = reference_decode_trees(nested_trees(model.arrays), model.feature_count)
        assert same_arrays(nested, model.arrays)

    @given(model=hand_made_models())
    @example(model=model_from_trees((), 1))
    @settings(max_examples=60, deadline=None)
    def test_hand_made_trees_round_trip(self, model):
        back = gbm.from_obj(json.loads(to_json(model)))
        assert same_arrays(back.arrays, model.arrays)
        assert to_json(back) == to_json(model)

    @given(doc=broken_tree_docs())
    # node 1's right child is a leaf of the next tree, and every node but
    # the roots still has one parent
    @example(doc=packed_doc(left=[1, 2, 2, 3, 5, 5, 6, 7],
                        right=[3, 6, 2, 3, 7, 5, 6, 7], roots=[0, 4]))
    @settings(max_examples=200, deadline=None)
    def test_broken_trees_fail_like_reference(self, doc):
        got = decode_outcome(lambda d: gbm.from_obj(d).arrays, doc)
        want = decode_outcome(
            lambda d: reference_check_trees(d, d["feature_count"]), doc)
        event("refused" if want is None else "loaded")
        if want is None:
            assert got is None
        else:
            assert got is not None and same_arrays(got, want)


class TestSerialization:
    def test_round_trip_lossless(self):
        X, y = make_regression(18, rows=200)
        model, _ = fit(X, y, GBMConfig(n_trees=15))
        text = to_json(model)
        back = from_json(text)
        assert to_json(back) == text
        probes = np.random.default_rng(3).normal(size=(25, X.shape[1]))
        np.testing.assert_array_equal(
            predict_batch(model, probes), predict_batch(back, probes)
        )

    def test_emission_stable(self):
        X, y = make_regression(19, rows=100)
        model, _ = fit(X, y, GBMConfig(n_trees=5))
        assert to_json(model) == to_json(model)

    def test_format_guard(self):
        with pytest.raises(InvalidRecordError):
            from_json('{"format": "something-else"}')

    def test_catalog_version_preserved(self):
        X, y = make_regression(20, rows=60)
        model, _ = fit(X, y, GBMConfig(n_trees=2))
        tagged = replace(model, catalog_version="w14s30-v1")
        assert from_json(to_json(tagged)).catalog_version == "w14s30-v1"
