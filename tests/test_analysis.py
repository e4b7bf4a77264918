"""Average slices, correlation matrix, deviation scores, histogram."""

import csv
import math

import numpy as np
import pytest

from tsal import analysis
from tsal.cli import main
from tsal.errors import (ConfigError, DegenerateMapError, FormatError,
                         PreconditionError, ShapeMismatchError)
from tsal.gaze import (
    FixationTable,
    Normalization,
    normalize_map,
    write_fixations_csv,
    write_map_tsal,
)
from tsal.metrics import cc, mean_map

import oracles


def fixes(*rows):
    """Fixations from (image_id, x, y, t_ms) rows, one observer."""
    image_ids, x, y, t = zip(*rows)
    n = len(rows)
    return FixationTable(image_ids, ("obs",) * n, range(n), x, y, t)


def random_stack(rng, n_images=3, n_slices=3, w=6, h=5):
    return rng.uniform(0.01, 1.0, size=(n_images, n_slices, h, w))


def mixed_stack(rng, n_images=13, n_slices=4, w=6, h=5):
    """Random maps with all-zero and constant ones mixed in; every slice
    pair keeps at least 9 images with both maps usable, enough for a
    pairwise or compensated sum to round differently from a left-to-right
    one."""
    stack = rng.uniform(0.0, 1.0, size=(n_images, n_slices, h, w))
    stack[1, 0] = 0.0
    stack[4, 2] = 0.0
    stack[6, 1] = 0.25
    stack[9, 3] = 3.0
    stack[12, 2] = 0.0
    return stack


def blob(w, h, cx, cy, sigma=1.5):
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    g = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2 * sigma * sigma))
    return g / g.sum()


class TestAverageSlices:
    def test_mean_of_normalized_maps(self):
        a = [[1.0, 0.0], [0.0, 0.0]]
        b = [[0.0, 2.0], [0.0, 0.0]]  # normalizes to delta
        stack = np.array([[a], [b]])
        maps = analysis.average_slices(stack)
        assert np.allclose(maps[0], [[0.5, 0.5], [0.0, 0.0]])
        _, skipped = analysis.intra_slice_deviation(stack, maps)
        assert skipped.tolist() == [0]

    def test_empty_slice_skipped_and_counted(self):
        rng = np.random.default_rng(101)
        stack = random_stack(rng, n_images=2, n_slices=2)
        stack[0, 1] = 0.0
        maps = analysis.average_slices(stack)
        _, skipped = analysis.intra_slice_deviation(stack, maps)
        assert skipped.tolist() == [0, 1]
        v = stack[1, 1]
        assert np.allclose(maps[1], v / v.sum())

    def test_all_images_unusable_for_a_slice(self):
        with pytest.raises(DegenerateMapError):
            analysis.average_slices(np.zeros((2, 1, 3, 3)))


class TestInterSliceCC:
    def test_diagonal_is_one(self):
        rng = np.random.default_rng(102)
        values, _ = analysis.inter_slice_cc(random_stack(rng))
        assert np.allclose(np.diag(values), 1.0)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(103)
        values, _ = analysis.inter_slice_cc(random_stack(rng, n_images=4))
        assert np.array_equal(values, values.T)

    def test_matches_direct_averaging_oracle(self):
        rng = np.random.default_rng(104)
        stack = random_stack(rng, n_images=2, n_slices=3)
        values, _ = analysis.inter_slice_cc(stack)
        for j in range(3):
            for k in range(3):
                want = np.mean([1.0 if j == k else
                                cc(m[j], m[k]) for m in stack])
                assert values[j, k] == pytest.approx(want)

    def test_per_pair_exclusion(self):
        rng = np.random.default_rng(105)
        stack = random_stack(rng, n_images=2, n_slices=3)
        stack[1, 2] = 0.0  # the second image's last slice is empty
        values, skipped = analysis.inter_slice_cc(stack)
        # pair (0,1) uses both images
        both = np.mean([cc(m[0], m[1]) for m in stack])
        assert values[0, 1] == pytest.approx(both)
        assert skipped[0, 1] == 0
        # pairs touching slice 2 use the first image only
        assert values[0, 2] == pytest.approx(cc(stack[0, 0], stack[0, 2]))
        assert skipped[0, 2] == 1
        assert skipped[2, 2] == 1

    def test_pair_with_no_usable_images(self):
        rng = np.random.default_rng(106)
        stack = random_stack(rng, n_images=1, n_slices=2)
        stack[0, 1] = 0.0
        with pytest.raises(DegenerateMapError):
            analysis.inter_slice_cc(stack)


class TestIntraSliceDeviation:
    def test_identical_images_score_one(self):
        rng = np.random.default_rng(107)
        maps = rng.uniform(0.01, 1.0, size=(2, 4, 4))
        stack = np.array([maps, maps])
        avg = analysis.average_slices(stack)
        scores, _ = analysis.intra_slice_deviation(stack, avg)
        assert scores == pytest.approx((1.0, 1.0))

    def test_single_image_scores_one(self):
        rng = np.random.default_rng(108)
        stack = random_stack(rng, n_images=1, n_slices=3)
        avg = analysis.average_slices(stack)
        scores, _ = analysis.intra_slice_deviation(stack, avg)
        assert scores == pytest.approx((1.0, 1.0, 1.0))

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(109)
        stack = random_stack(rng, n_images=3, n_slices=2)
        avg = analysis.average_slices(stack)
        scores, _ = analysis.intra_slice_deviation(stack, avg)
        for j in range(2):
            want = np.mean([cc(m[j], avg[j]) for m in stack])
            assert scores[j] == pytest.approx(want)

    def test_slice_count_mismatch_rejected(self):
        rng = np.random.default_rng(110)
        stack = random_stack(rng, n_slices=2)
        avg = analysis.average_slices(random_stack(rng, n_slices=3))
        with pytest.raises(PreconditionError):
            analysis.intra_slice_deviation(stack, avg)


class TestAgainstDictOracle:
    """The stack path gives the bytes of the dict-of-maps scalar loops
    it replaced, skip counts included."""

    @pytest.mark.parametrize("seed", [130, 131, 132])
    def test_bitwise_equal_to_the_scalar_loops(self, seed):
        stack = mixed_stack(np.random.default_rng(seed))
        dataset = {f"img{i:02d}": list(maps) for i, maps in enumerate(stack)}

        maps = analysis.average_slices(stack)
        want_maps, want_skipped = oracles.average_slices_oracle(dataset)
        assert [m.tobytes() for m in maps] == \
            [w.tobytes() for w in want_maps]

        values, pair_skipped = analysis.inter_slice_cc(stack)
        want_values, want_pair_skipped = oracles.inter_slice_cc_oracle(dataset)
        assert values.tobytes() == want_values.tobytes()
        assert np.array_equal(pair_skipped, want_pair_skipped)

        scores, dev_skipped = analysis.intra_slice_deviation(stack, maps)
        want_scores, want_dev_skipped = oracles.intra_slice_deviation_oracle(
            dataset, want_maps)
        assert scores == want_scores
        assert dev_skipped.tolist() == want_dev_skipped
        # every image an average skips is skipped by its deviation too
        assert dev_skipped.tolist() == want_skipped == [1, 1, 2, 1]

    @pytest.mark.parametrize("seed", [133, 134])
    def test_one_shot_generators_give_the_scalar_loop_bytes(self, seed):
        """Each statistic consumes its maps once, image by image: a
        generator gives the bytes a stack gives."""
        stack = mixed_stack(np.random.default_rng(seed))
        dataset = {f"img{i:02d}": list(maps) for i, maps in enumerate(stack)}

        def images():
            return (maps.copy() for maps in stack)

        maps = analysis.average_slices(images())
        want_maps, _ = oracles.average_slices_oracle(dataset)
        assert [m.tobytes() for m in maps] == \
            [w.tobytes() for w in want_maps]
        values, pair_skipped = analysis.inter_slice_cc(images())
        want_values, want_pair_skipped = oracles.inter_slice_cc_oracle(dataset)
        assert values.tobytes() == want_values.tobytes()
        assert np.array_equal(pair_skipped, want_pair_skipped)
        scores, skipped = analysis.intra_slice_deviation(images(), maps)
        want_scores, want_skipped = oracles.intra_slice_deviation_oracle(
            dataset, want_maps)
        assert scores == want_scores
        assert skipped.tolist() == want_skipped

    def test_mean_map_of_a_generator_gives_the_scalar_loop_bytes(self):
        maps = np.random.default_rng(135).uniform(0.0, 1.0, size=(11, 5, 6))
        want, _ = oracles.average_slices_oracle(
            {f"img{i:02d}": [m] for i, m in enumerate(maps)})
        assert mean_map(m.copy() for m in maps).tobytes() == \
            want[0].tobytes()


class TestImageStream:
    def test_images_of_another_shape_are_refused(self):
        stack = np.ones((2, 3, 4, 5))
        stack[:, :, 0, 0] = 2.0
        images = [stack[0], stack[1][:2]]
        for statistic in (analysis.average_slices, analysis.inter_slice_cc):
            with pytest.raises(ShapeMismatchError, match=(
                    r"^image maps have shape \(2, 4, 5\), expected "
                    r"\(3, 4, 5\)$")):
                statistic(iter(images))

    def test_no_images_is_degenerate(self):
        for statistic in (analysis.average_slices, analysis.inter_slice_cc):
            with pytest.raises(DegenerateMapError, match="^no images$"):
                statistic(iter([]))
        with pytest.raises(DegenerateMapError, match="^no images$"):
            analysis.intra_slice_deviation(iter([]), [np.ones((2, 2))])

    def test_histogram_reads_each_map_as_it_comes(self):
        """A one-shot stream of (image id, map) pairs gives the
        double-loop counts, and a map that fails is reported once every
        pair is taken."""
        rng = np.random.default_rng(136)
        gt = {"a": rng.uniform(0.01, 1.0, size=(8, 8)), "b": np.zeros((8, 8)),
              "c": rng.uniform(0.01, 1.0, size=(8, 8))}
        table = fixes(("c", 1, 2, 10.0), ("a", 3, 4, 2000.0),
                      ("c", 5, 6, 4000.0))
        records = [(t, gt[i][y, x] / gt[i].max()) for i, x, y, t in zip(
            table.image_id, table.x.astype(int), table.y.astype(int),
            table.t_ms)]
        assert np.array_equal(
            analysis.saliency_time_histogram(table, iter(gt.items())),
            oracles.histogram2d_oracle(records, 50, 50, 5000.0))

        def pairs():
            yield "b", gt["b"]
            raise FormatError("c.tsal: unreadable")
        with pytest.raises(FormatError, match="^c.tsal: unreadable$"):
            analysis.saliency_time_histogram(fixes(("b", 1, 1, 0.0)), pairs())


class TestConsecutiveDifferences:
    def test_identical_averages_give_zero(self):
        m = blob(8, 8, 4, 4)
        (d,) = analysis.consecutive_differences([m, m])
        assert np.allclose(d, 0.0)

    def test_differences_sum_to_zero(self):
        avg = [blob(10, 8, 2, 4), blob(10, 8, 5, 4), blob(10, 8, 8, 4)]
        for d in analysis.consecutive_differences(avg):
            assert abs(d.sum()) < 1e-9

    def test_drift_moves_positive_mass_right(self):
        avg = [blob(16, 8, 3, 4), blob(16, 8, 12, 4)]
        (d,) = analysis.consecutive_differences(avg)
        xs = np.arange(16)[None, :]
        pos = np.where(d > 0, d, 0.0)
        neg = np.where(d < 0, -d, 0.0)
        pos_centroid = (pos * xs).sum() / pos.sum()
        neg_centroid = (neg * xs).sum() / neg.sum()
        assert pos_centroid > neg_centroid

    def test_single_slice_rejected(self):
        with pytest.raises(PreconditionError):
            analysis.consecutive_differences([blob(4, 4, 2, 2)])


class TestSaliencyTimeHistogram:
    def _gt(self, rng, w=8, h=8):
        return normalize_map(rng.uniform(0.01, 1.0, size=(h, w)),
                             Normalization.MAX_TO_ONE)

    def test_count_conservation(self):
        rng = np.random.default_rng(111)
        gt = {"img": self._gt(rng)}
        table = fixes(*[("img", rng.integers(0, 8), rng.integers(0, 8),
                         rng.uniform(0, 5000)) for _ in range(37)])
        grid = analysis.saliency_time_histogram(table, gt.items())
        assert grid.sum() == 37

    def test_peak_fixation_at_time_zero(self):
        rng = np.random.default_rng(112)
        gt = {"img": self._gt(rng)}
        py, px = np.unravel_index(gt["img"].argmax(), (8, 8))
        grid = analysis.saliency_time_histogram(
            fixes(("img", px, py, 0.0)), gt.items(), bins_t=50, bins_s=50)
        assert grid[0, 49] == 1
        assert grid.sum() == 1

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(113)
        gt = {"img": self._gt(rng)}
        table = fixes(*[("img", rng.integers(0, 8), rng.integers(0, 8),
                         rng.uniform(0, 5000)) for _ in range(100)])
        grid = analysis.saliency_time_histogram(table, gt.items(), bins_t=10,
                                                bins_s=7)
        records = []
        for x, y, t in zip(table.x, table.y, table.t_ms):
            px = int(math.floor(x + 0.5))
            py = int(math.floor(y + 0.5))
            records.append((t, gt["img"][py, px]))
        want = oracles.histogram2d_oracle(records, 10, 7, 5000.0)
        assert np.array_equal(grid, want)

    def test_edge_values_clamp_to_last_bins(self):
        rng = np.random.default_rng(114)
        gt = {"img": self._gt(rng)}
        py, px = np.unravel_index(gt["img"].argmax(), (8, 8))
        grid = analysis.saliency_time_histogram(
            fixes(("img", px, py, 5000.0)), gt.items(), bins_t=5, bins_s=5)
        assert grid[4, 4] == 1

    def test_raw_maps_are_scaled_to_peak_one(self):
        rng = np.random.default_rng(115)
        raw = 3.7 * rng.uniform(0.01, 1.0, size=(8, 8))
        kept = raw.copy()
        table = fixes(*[("img", rng.integers(0, 8), rng.integers(0, 8),
                         rng.uniform(0, 5000)) for _ in range(40)])
        grid = analysis.saliency_time_histogram(table, [("img", raw)],
                                                bins_t=6, bins_s=9)
        want = analysis.saliency_time_histogram(
            table, [("img", raw / raw.max())], bins_t=6, bins_s=9)
        assert np.array_equal(grid, want)
        assert np.array_equal(raw, kept)  # the input is left as it was

    def test_all_zero_map_read_only_with_fixations(self):
        rng = np.random.default_rng(118)
        gt = {"img": self._gt(rng), "empty": np.zeros((8, 8))}
        grid = analysis.saliency_time_histogram(fixes(("img", 1, 1, 0.0)),
                                                gt.items())
        assert grid.sum() == 1
        with pytest.raises(DegenerateMapError,
                           match="^cannot max-normalize an all-zero map$"):
            analysis.saliency_time_histogram(fixes(("empty", 1, 1, 0.0)),
                                             gt.items())

    def test_missing_map_rejected(self):
        rng = np.random.default_rng(116)
        gt = {"img": self._gt(rng)}
        with pytest.raises(PreconditionError):
            analysis.saliency_time_histogram(fixes(("other", 1, 1, 0.0)),
                                             gt.items())

    @pytest.mark.parametrize("t_total", [0.0, -100.0])
    def test_non_positive_t_total_rejected(self, t_total):
        rng = np.random.default_rng(117)
        gt = {"img": self._gt(rng)}
        with pytest.raises(ConfigError,
                           match=f"^t_total must be positive, got {t_total}$"):
            analysis.saliency_time_histogram(fixes(("img", 1, 1, 0.0)),
                                             gt.items(), t_total=t_total)


class TestCsvRenderers:
    """The CSVs ``tsal analyze`` writes, read back: every value equals
    what the analysis function returns for the same stack."""

    @staticmethod
    def analyze(root, stack, t_total=5000.0):
        """Write ``stack`` as maps/t<k>/ (and maps/full/, the slice sum)
        with one fixation per image and run analyze. Returns the output
        directory, the fixations, and the slice and full maps as analyze
        reads them (a .tsal payload is float32)."""
        stack = stack.astype(np.float32).astype(np.float64)
        full = stack.sum(axis=1).astype(np.float32).astype(np.float64)
        ids = [f"img{i:02d}" for i in range(len(stack))]  # sorted as listed
        for image_id, maps, m_full in zip(ids, stack, full):
            for k, m in enumerate(maps):
                write_map_tsal(root / "maps" / f"t{k}" / f"{image_id}.tsal", m)
            write_map_tsal(root / "maps" / "full" / f"{image_id}.tsal", m_full)
        fixations = fixes(*((image_id, i % 5 + 0.5, 2.0, 200.0 * i)
                            for i, image_id in enumerate(ids)))
        write_fixations_csv(root / "fix.csv", fixations)
        assert main(["analyze", "--maps", str(root / "maps"),
                     "--fixations", str(root / "fix.csv"),
                     "--out", str(root / "out"),
                     "--t-total", str(t_total)]) == 0
        return root / "out", fixations, stack, full

    @staticmethod
    def read_back(path):
        with open(path, newline="") as fh:
            header, *rows = csv.reader(fh)
        return header, rows

    def test_correlation_csv_shape(self, tmp_path):
        out, _, stack, _ = self.analyze(
            tmp_path, mixed_stack(np.random.default_rng(119)))
        header, rows = self.read_back(out / "correlation.csv")
        assert header == ["slice", "t1", "t2", "t3", "t4", "skipped_max"]
        values, skipped = analysis.inter_slice_cc(stack)
        assert skipped.max() > 0
        assert [[r[0], *map(float, r[1:5]), int(r[5])] for r in rows] == \
            [[f"t{j + 1}", *values[j].tolist(), int(skipped[j].max())]
             for j in range(4)]

    def test_deviation_csv_shape(self, tmp_path):
        out, _, stack, _ = self.analyze(
            tmp_path, mixed_stack(np.random.default_rng(120)))
        header, rows = self.read_back(out / "deviation.csv")
        assert header == ["slice", "mean_cc_to_average", "skipped"]
        scores, skipped = analysis.intra_slice_deviation(
            stack, analysis.average_slices(stack))
        assert [[r[0], float(r[1]), int(r[2])] for r in rows] == \
            [[f"t{j + 1}", scores[j], k]
             for j, k in enumerate([1, 1, 2, 1])]
        assert skipped.tolist() == [1, 1, 2, 1]

    def test_histogram_csv_shape(self, tmp_path):
        out, fixations, _, full = self.analyze(
            tmp_path, random_stack(np.random.default_rng(121), n_images=4),
            t_total=3000.0)
        header, rows = self.read_back(out / "histogram.csv")
        assert header == ["time_bin_start_ms", "saliency_bin_start", "count"]
        grid = analysis.saliency_time_histogram(
            fixations, ((f"img{i:02d}", m) for i, m in enumerate(full)),
            t_total=3000.0)
        assert grid.sum() == 4
        assert [[float(t), float(s), int(n)] for t, s, n in rows] == \
            [[bt * 60.0, bs * 0.02, int(grid[bt, bs])]
             for bt in range(50) for bs in range(50)]
