"""Average slices, correlation matrix, deviation scores, histogram."""

import math

import numpy as np
import pytest

from tsal import analysis
from tsal.errors import ConfigError, DegenerateMapError, PreconditionError
from tsal.gaze import FixationTable, Normalization, make_map, normalize_map
from tsal.metrics import cc

import oracles


def fixes(*rows):
    """Fixations from (image_id, x, y, t_ms) rows, one observer."""
    image_ids, x, y, t = zip(*rows)
    n = len(rows)
    return FixationTable(image_ids, ("obs",) * n, range(n), x, y, t)


def random_dataset(rng, n_images=3, n_slices=3, w=6, h=5):
    return {f"img{i}": [make_map(rng.uniform(0.01, 1.0, size=(h, w)))
                        for _ in range(n_slices)]
            for i in range(n_images)}


def blob(w, h, cx, cy, sigma=1.5):
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))
    return make_map(g / g.sum(), Normalization.SUM_TO_ONE)


class TestAverageSlices:
    def test_mean_of_normalized_maps(self):
        a = make_map(np.array([[1.0, 0.0], [0.0, 0.0]]))
        b = make_map(np.array([[0.0, 2.0], [0.0, 0.0]]))  # normalizes to delta
        avg = analysis.average_slices({"a": [a], "b": [b]})
        assert np.allclose(avg.maps[0].values, [[0.5, 0.5], [0.0, 0.0]])
        assert avg.image_count == 2
        assert avg.skipped == (0,)

    def test_insertion_order_is_irrelevant_bitwise(self):
        rng = np.random.default_rng(100)
        base = random_dataset(rng, n_images=4, n_slices=2)
        forward = {k: base[k] for k in sorted(base)}
        backward = {k: base[k] for k in sorted(base, reverse=True)}
        a = analysis.average_slices(forward)
        b = analysis.average_slices(backward)
        for ma, mb in zip(a.maps, b.maps):
            assert ma.values.tobytes() == mb.values.tobytes()

    def test_empty_slice_skipped_and_counted(self):
        rng = np.random.default_rng(101)
        ds = random_dataset(rng, n_images=2, n_slices=2)
        ds["img0"][1] = make_map(np.zeros((5, 6)))
        avg = analysis.average_slices(ds)
        assert avg.skipped == (0, 1)
        v = ds["img1"][1].values
        assert np.allclose(avg.maps[1].values, v / v.sum())

    def test_all_images_unusable_for_a_slice(self):
        zero = make_map(np.zeros((3, 3)))
        with pytest.raises(DegenerateMapError):
            analysis.average_slices({"a": [zero], "b": [zero]})

    def test_inconsistent_shapes_rejected(self):
        ds = {"a": [make_map(np.ones((2, 2)) + np.eye(2))],
              "b": [make_map(np.ones((3, 3)) + np.eye(3))]}
        with pytest.raises(PreconditionError):
            analysis.average_slices(ds)

    def test_inconsistent_slice_counts_rejected(self):
        m = make_map(np.eye(3))
        with pytest.raises(PreconditionError):
            analysis.average_slices({"a": [m], "b": [m, m]})


class TestInterSliceCC:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(102)
        out = analysis.inter_slice_cc(random_dataset(rng))
        assert np.allclose(np.diag(out.values), 1.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(103)
        out = analysis.inter_slice_cc(random_dataset(rng, n_images=4))
        assert np.array_equal(out.values, out.values.T)

    def test_matches_direct_averaging_oracle(self):
        rng = np.random.default_rng(104)
        ds = random_dataset(rng, n_images=2, n_slices=3)
        out = analysis.inter_slice_cc(ds)
        for j in range(3):
            for k in range(3):
                want = np.mean([1.0 if j == k else
                                cc(ds[i][j], ds[i][k]) for i in sorted(ds)])
                assert out.values[j, k] == pytest.approx(want)

    def test_per_pair_exclusion(self):
        rng = np.random.default_rng(105)
        ds = random_dataset(rng, n_images=2, n_slices=3)
        ds["img1"][2] = make_map(np.zeros((5, 6)))  # img1's last slice empty
        out = analysis.inter_slice_cc(ds)
        # pair (0,1) uses both images
        both = np.mean([cc(ds[i][0], ds[i][1]) for i in ("img0", "img1")])
        assert out.values[0, 1] == pytest.approx(both)
        assert out.skipped[0, 1] == 0
        # pairs touching slice 2 use img0 only
        assert out.values[0, 2] == pytest.approx(cc(ds["img0"][0], ds["img0"][2]))
        assert out.skipped[0, 2] == 1
        assert out.skipped[2, 2] == 1

    def test_pair_with_no_usable_images(self):
        rng = np.random.default_rng(106)
        ds = random_dataset(rng, n_images=1, n_slices=2)
        ds["img0"][1] = make_map(np.zeros((5, 6)))
        with pytest.raises(DegenerateMapError):
            analysis.inter_slice_cc(ds)


class TestIntraSliceDeviation:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(107)
        maps = [make_map(rng.uniform(0.01, 1.0, size=(4, 4)))
                for _ in range(2)]
        ds = {"a": list(maps), "b": list(maps)}
        avg = analysis.average_slices(ds)
        out = analysis.intra_slice_deviation(ds, avg)
        assert out.scores == pytest.approx((1.0, 1.0))

    def test_single_image_scores_one(self):
        rng = np.random.default_rng(108)
        ds = random_dataset(rng, n_images=1, n_slices=3)
        avg = analysis.average_slices(ds)
        out = analysis.intra_slice_deviation(ds, avg)
        assert out.scores == pytest.approx((1.0, 1.0, 1.0))

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(109)
        ds = random_dataset(rng, n_images=3, n_slices=2)
        avg = analysis.average_slices(ds)
        out = analysis.intra_slice_deviation(ds, avg)
        for j in range(2):
            want = np.mean([cc(ds[i][j], avg.maps[j]) for i in sorted(ds)])
            assert out.scores[j] == pytest.approx(want)

    def test_slice_count_mismatch_rejected(self):
        rng = np.random.default_rng(110)
        ds = random_dataset(rng, n_slices=2)
        avg = analysis.average_slices(random_dataset(rng, n_slices=3))
        with pytest.raises(PreconditionError):
            analysis.intra_slice_deviation(ds, avg)


class TestConsecutiveDifferences:
    def test_identical_averages_give_zero(self):
        m = blob(8, 8, 4, 4)
        avg = analysis.AverageSliceSet(maps=(m, m), image_count=1,
                                       skipped=(0, 0))
        (d,) = analysis.consecutive_differences(avg)
        assert np.allclose(d, 0.0)

    def test_differences_sum_to_zero(self):
        avg = analysis.AverageSliceSet(
            maps=(blob(10, 8, 2, 4), blob(10, 8, 5, 4), blob(10, 8, 8, 4)),
            image_count=1, skipped=(0, 0, 0))
        for d in analysis.consecutive_differences(avg):
            assert abs(d.sum()) < 1e-9

    def test_drift_moves_positive_mass_right(self):
        avg = analysis.AverageSliceSet(
            maps=(blob(16, 8, 3, 4), blob(16, 8, 12, 4)),
            image_count=1, skipped=(0, 0))
        (d,) = analysis.consecutive_differences(avg)
        xs = np.arange(16)[None, :]
        pos = np.where(d > 0, d, 0.0)
        neg = np.where(d < 0, -d, 0.0)
        pos_centroid = (pos * xs).sum() / pos.sum()
        neg_centroid = (neg * xs).sum() / neg.sum()
        assert pos_centroid > neg_centroid

    def test_single_slice_rejected(self):
        avg = analysis.AverageSliceSet(maps=(blob(4, 4, 2, 2),),
                                       image_count=1, skipped=(0,))
        with pytest.raises(PreconditionError):
            analysis.consecutive_differences(avg)


class TestSaliencyTimeHistogram:
    def _gt(self, rng, w=8, h=8):
        return normalize_map(make_map(rng.uniform(0.01, 1.0, size=(h, w))),
                             Normalization.MAX_TO_ONE)

    def test_count_conservation(self):
        rng = np.random.default_rng(111)
        gt = {"img": self._gt(rng)}
        table = fixes(*[("img", rng.integers(0, 8), rng.integers(0, 8),
                         rng.uniform(0, 5000)) for _ in range(37)])
        grid = analysis.saliency_time_histogram(table, gt)
        assert grid.sum() == 37

    def test_peak_fixation_at_time_zero(self):
        rng = np.random.default_rng(112)
        gt = {"img": self._gt(rng)}
        py, px = np.unravel_index(gt["img"].values.argmax(), (8, 8))
        grid = analysis.saliency_time_histogram(
            fixes(("img", px, py, 0.0)), gt, bins_t=50, bins_s=50)
        assert grid[0, 49] == 1
        assert grid.sum() == 1

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(113)
        gt = {"img": self._gt(rng)}
        table = fixes(*[("img", rng.integers(0, 8), rng.integers(0, 8),
                         rng.uniform(0, 5000)) for _ in range(100)])
        grid = analysis.saliency_time_histogram(table, gt, bins_t=10, bins_s=7)
        records = []
        for x, y, t in zip(table.x, table.y, table.t_ms):
            px = int(math.floor(x + 0.5))
            py = int(math.floor(y + 0.5))
            records.append((t, gt["img"].values[py, px]))
        want = oracles.histogram2d_oracle(records, 10, 7, 5000.0)
        assert np.array_equal(grid, want)

    def test_edge_values_clamp_to_last_bins(self):
        rng = np.random.default_rng(114)
        gt = {"img": self._gt(rng)}
        py, px = np.unravel_index(gt["img"].values.argmax(), (8, 8))
        grid = analysis.saliency_time_histogram(
            fixes(("img", px, py, 5000.0)), gt, bins_t=5, bins_s=5)
        assert grid[4, 4] == 1

    def test_wrong_normalization_rejected(self):
        rng = np.random.default_rng(115)
        raw = make_map(rng.uniform(0.01, 1.0, size=(8, 8)))
        with pytest.raises(PreconditionError):
            analysis.saliency_time_histogram(fixes(("img", 1, 1, 0.0)),
                                             {"img": raw})

    def test_missing_map_rejected(self):
        rng = np.random.default_rng(116)
        gt = {"img": self._gt(rng)}
        with pytest.raises(PreconditionError):
            analysis.saliency_time_histogram(fixes(("other", 1, 1, 0.0)), gt)

    @pytest.mark.parametrize("t_total", [0.0, -100.0])
    def test_non_positive_t_total_rejected(self, t_total):
        rng = np.random.default_rng(117)
        gt = {"img": self._gt(rng)}
        with pytest.raises(ConfigError,
                           match=f"^t_total must be positive, got {t_total}$"):
            analysis.saliency_time_histogram(fixes(("img", 1, 1, 0.0)), gt,
                                             t_total=t_total)


class TestCsvRenderers:
    def test_correlation_csv_shape(self):
        rng = np.random.default_rng(119)
        out = analysis.inter_slice_cc(random_dataset(rng, n_slices=3))
        text = analysis.correlation_csv(out)
        lines = text.strip().split("\n")
        assert lines[0] == "slice,t1,t2,t3,skipped_max"
        assert len(lines) == 4

    def test_deviation_csv_shape(self):
        rng = np.random.default_rng(120)
        ds = random_dataset(rng, n_slices=2)
        out = analysis.intra_slice_deviation(ds, analysis.average_slices(ds))
        lines = analysis.deviation_csv(out).strip().split("\n")
        assert lines[0] == "slice,mean_cc_to_average,skipped"
        assert len(lines) == 3

    def test_histogram_csv_shape(self):
        grid = np.zeros((3, 4), dtype=np.int64)
        grid[1, 2] = 5
        lines = analysis.histogram_csv(grid).strip().split("\n")
        assert lines[0] == "time_bin_start_ms,saliency_bin_start,count"
        assert len(lines) == 1 + 12
        assert any(line.endswith(",5") for line in lines)
