"""Gaze records, timestamp recovery, slicing, rasterization, file formats."""

import csv
import dataclasses
import json
import math
import pickle
import re
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tsal import fileio, gaze
from tsal.errors import (
    ConfigError,
    DegenerateMapError,
    FormatError,
    NonFiniteError,
    PreconditionError,
    UnrecoverableObserverError,
)

import oracles


def fixes(*rows, t=None, slices=None, image="img0", obs="obs0"):
    """Fixations from (order_index, x, y) rows, all of one image and
    observer; t is the t_ms column or None, slices the slice_index column
    or None."""
    i, x, y = zip(*rows) if rows else ((), (), ())
    n = len(rows)
    return gaze.FixationTable((image,) * n, (obs,) * n, i, x, y, t, slices)


def gz(*rows, image="img0", obs="obs0"):
    """Gaze table of (t_ms, x, y) rows, all of one image and observer."""
    t, x, y = zip(*rows) if rows else ((), (), ())
    return gaze.GazeTable((image,) * len(rows), (obs,) * len(rows), t, x, y)


def one_object_per_id(table) -> bool:
    """Whether a table's id columns hold one str object per distinct id."""
    ids = table.image_id + table.observer_id
    return len({*map(id, ids)}) == len({*ids})


class TestNormalizeMap:
    def test_normalize_map(self):
        m = np.array([[1.0, 3.0]])
        s = gaze.normalize_map(m, gaze.Normalization.SUM_TO_ONE)
        assert np.allclose(s, [[0.25, 0.75]])
        x = gaze.normalize_map(m, gaze.Normalization.MAX_TO_ONE)
        assert np.allclose(x, [[1.0 / 3.0, 1.0]])
        assert gaze.normalize_map(m, gaze.Normalization.RAW) is m
        assert m.tolist() == [[1.0, 3.0]]  # the input is left as it was

    def test_normalize_degenerate(self):
        zero = np.zeros((2, 2))
        with pytest.raises(DegenerateMapError):
            gaze.normalize_map(zero, gaze.Normalization.SUM_TO_ONE)
        with pytest.raises(DegenerateMapError):
            gaze.normalize_map(zero, gaze.Normalization.MAX_TO_ONE)


class TestRecoverTimestamps:
    def test_exact_spatial_match_takes_that_sample(self):
        out = gaze.recover_timestamps(fixes((0, 10.0, 20.0)),
                                      gz((1200.0, 10.0, 20.0)))
        assert out[0] == 1200.0

    def test_tie_broken_by_earliest_gaze_time(self):
        samples = gz((900.0, 0.0, 0.0), (500.0, 10.0, 0.0))
        out = gaze.recover_timestamps(fixes((0, 5.0, 0.0)), samples, w_t=0.0)
        assert out[0] == 500.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(50)
        for _ in range(200):
            m = int(rng.integers(1, 6))
            g = int(rng.integers(1, 12))
            fix_pts = [(float(rng.uniform(0, 64)), float(rng.uniform(0, 64)))
                       for _ in range(m)]
            gaze_pts = [(float(rng.uniform(0, 64)), float(rng.uniform(0, 64)),
                         float(rng.uniform(0, 5000))) for _ in range(g)]
            table = fixes(*[(i, x, y) for i, (x, y) in enumerate(fix_pts)])
            samples = gz(*[(t, x, y) for x, y, t in gaze_pts])
            got = gaze.recover_timestamps(table, samples, w_s=1.0,
                                          w_t=0.01).tolist()
            want = oracles.recover_oracle(fix_pts, gaze_pts, 1.0, 0.01, 5000.0)
            assert got == want

    def test_cost_blocks_match_one_block(self, monkeypatch):
        """Fixations split into blocks of rows give the times of one
        block, ties and the monotone repair across blocks included."""
        rng = np.random.default_rng(52)
        table = fixes(*[(i, float(x), float(y)) for i, (x, y) in
                        enumerate(rng.integers(0, 8, (40, 2)))])
        samples = gz(*[(float(t), float(x), float(y)) for t, x, y in
                       zip(rng.integers(0, 50, 30) * 100.0,
                           *rng.integers(0, 8, (2, 30)))])
        whole = gaze.recover_timestamps(table, samples).tolist()
        monkeypatch.setattr(gaze, "_COST_CELLS", 70)  # blocks of 2 rows
        assert gaze.recover_timestamps(table, samples).tolist() == whole
        fix_pts = list(zip(table.x.tolist(), table.y.tolist()))
        gaze_pts = list(zip(samples.x.tolist(), samples.y.tolist(),
                            samples.t_ms.tolist()))
        assert whole == oracles.recover_oracle(fix_pts, gaze_pts, 1.0, 0.01,
                                               5000.0)

    def test_gaze_at_each_fixation_returns_those_times(self):
        table = fixes((0, 1.0, 1.0), (1, 9.0, 3.0), (2, 4.0, 8.0))
        samples = gz((100.0, 1.0, 1.0), (900.0, 9.0, 3.0),
                     (2400.0, 4.0, 8.0))
        out = gaze.recover_timestamps(table, samples, w_t=0.0)
        assert out.tolist() == [100.0, 900.0, 2400.0]

    def test_output_monotone(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            table = fixes(*[(i, float(rng.uniform(0, 32)),
                             float(rng.uniform(0, 32))) for i in range(4)])
            samples = gz(*[(float(rng.uniform(0, 5000)),
                            float(rng.uniform(0, 32)), float(rng.uniform(0, 32)))
                           for _ in range(8)])
            ts = gaze.recover_timestamps(table, samples).tolist()
            assert ts == sorted(ts)

    def test_empty_gaze_is_unrecoverable(self):
        with pytest.raises(UnrecoverableObserverError):
            gaze.recover_timestamps(fixes((0, 1.0, 1.0)), gz())

    def test_empty_fixations_ok(self):
        assert gaze.recover_timestamps(fixes(), gz()).tolist() == []

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            gaze.recover_timestamps(fixes((0, 1.0, 1.0)), gz((0.0, 1.0, 1.0)),
                                    w_s=-1.0)

    @pytest.mark.parametrize("t_total", [0.0, -100.0])
    def test_non_positive_t_total_rejected(self, t_total):
        with pytest.raises(ConfigError,
                           match=f"^t_total must be positive, got {t_total}$"):
            gaze.recover_timestamps(fixes((0, 1.0, 1.0)), gz((0.0, 1.0, 1.0)),
                                    t_total=t_total)

    def test_unordered_fixations_rejected(self):
        table = fixes((1, 1.0, 1.0), (0, 2.0, 2.0))
        with pytest.raises(PreconditionError):
            gaze.recover_timestamps(table, gz((0.0, 1.0, 1.0)))

    def test_does_not_mutate_input(self):
        table = fixes((0, 1.0, 1.0))
        gaze.recover_timestamps(table, gz((10.0, 1.0, 1.0)))
        assert table.t_ms is None


def members(slice_of, k, values):
    """The values an index column puts in slice k, in input order."""
    return [v for v, s in zip(values, slice_of) if s == k]


class TestEqualDuration:
    def test_boundary_examples(self):
        out = gaze.slice_equal_duration([0.0, 1000.0, 4999.0, 5000.0], n=5,
                                        t_total=5000.0)
        # half-open bins, the last one closed at the end of viewing
        assert out.tolist() == [0, 1, 4, 4]

    def test_counts_match_histogram_oracle(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            t_total = float(rng.uniform(100, 9000))
            ts = [float(rng.uniform(0, t_total)) for _ in range(200)]
            out = gaze.slice_equal_duration(ts, n=n, t_total=t_total)
            # the oracle's one-timestamp histogram names its bin
            want = [oracles.duration_histogram_oracle([t], n, t_total).index(1)
                    for t in ts]
            assert out.tolist() == want

    def test_partition_property(self):
        rng = np.random.default_rng(53)
        ts = [float(rng.uniform(0, 5000)) for _ in range(60)]
        out = gaze.slice_equal_duration(ts, n=5)
        assert len(out) == len(ts)
        merged = [i for k in range(5) for i in members(out, k, range(60))]
        assert sorted(merged) == list(range(60))

    def test_out_of_range_timestamp_rejected(self):
        with pytest.raises(PreconditionError, match="5001.0 outside"):
            gaze.slice_equal_duration([2.0, 5001.0], n=2)
        with pytest.raises(PreconditionError):
            gaze.slice_equal_duration([-1.0], n=2)

    def test_nan_timestamp_or_total_rejected(self):
        with pytest.raises(PreconditionError, match=r"outside \[0, nan\]"):
            gaze.slice_equal_duration([2.0], n=2, t_total=float("nan"))
        with pytest.raises(PreconditionError, match="nan outside"):
            gaze.slice_equal_duration([float("nan")], n=2)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigError):
            gaze.slice_equal_duration([], n=0)
        with pytest.raises(ConfigError):
            gaze.slice_equal_duration([], n=2, t_total=0.0)


class TestEqualDistribution:
    def test_even_split(self):
        out = gaze.slice_equal_distribution(np.arange(10) * 100.0,
                                            np.arange(10), n=5)
        assert out.tolist() == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_remainder_goes_to_early_slices(self):
        out = gaze.slice_equal_distribution(np.arange(7.0), np.arange(7), n=5)
        assert np.bincount(out, minlength=5).tolist() == [2, 2, 1, 1, 1]

    def test_matches_sort_chunk_oracle_with_ties(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            count = int(rng.integers(0, 30))
            n = int(rng.integers(1, 7))
            # coarse timestamps so duplicates are common, rows shuffled
            # so input order differs from the sort order
            order = rng.permutation(count).tolist()
            ts = [float(rng.integers(0, 5)) * 1000.0 for _ in order]
            out = gaze.slice_equal_distribution(ts, order, n=n)
            keyed = [(key, i) for i, key in enumerate(zip(ts, order))]
            want = [None] * count
            for k, rows in enumerate(oracles.sort_chunk_oracle(keyed, n)):
                for i in rows:
                    want[i] = k
            assert out.tolist() == want

    def test_monotone_across_slices(self):
        rng = np.random.default_rng(55)
        ts = [float(rng.uniform(0, 5000)) for _ in range(41)]
        out = gaze.slice_equal_distribution(ts, np.arange(41), n=5)
        for k in range(4):
            a, b = members(out, k, ts), members(out, k + 1, ts)
            if a and b:
                assert max(a) <= min(b)

    def test_partition_property(self):
        rng = np.random.default_rng(56)
        ts = [float(rng.uniform(0, 5000)) for _ in range(23)]
        out = gaze.slice_equal_distribution(ts, np.arange(23), n=4)
        assert len(out) == len(ts)
        merged = [i for k in range(4) for i in members(out, k, range(23))]
        assert sorted(merged) == list(range(23))


def xy(*points):
    """The x and y columns of (x, y) points."""
    x, y = zip(*points) if points else ((), ())
    return np.array(x, dtype=np.float64), np.array(y, dtype=np.float64)


class TestRasterize:
    def test_gaussian_neighbor_ratio(self):
        sigma = 3.0
        m = gaze.rasterize(*xy((16.0, 16.0)), 33, 33, sigma_px=sigma,
                           normalization=gaze.Normalization.SUM_TO_ONE)
        v = m
        assert np.unravel_index(v.argmax(), v.shape) == (16, 16)
        ratio = v[16, 16] / v[16, 17]
        assert abs(ratio - math.exp(1.0 / (2.0 * sigma * sigma))) < 1e-9

    def test_superposition(self):
        a = gaze.rasterize(*xy((5.0, 5.0)), 24, 24, sigma_px=2.0)
        b = gaze.rasterize(*xy((15.0, 12.0)), 24, 24, sigma_px=2.0)
        both = gaze.rasterize(*xy((5.0, 5.0), (15.0, 12.0)), 24, 24,
                              sigma_px=2.0)
        assert np.allclose(both, a + b, atol=1e-12)

    def test_matches_dense_convolution_oracle(self):
        rng = np.random.default_rng(57)
        pts = [(float(rng.uniform(0, 20)), float(rng.uniform(0, 14)))
               for _ in range(5)]
        m = gaze.rasterize(*xy(*pts), 20, 14, sigma_px=1.5)
        want = oracles.rasterize_dense_oracle(pts, 20, 14, 1.5)
        assert np.abs(m - want).max() < 1e-12

    def test_mass_preserved_away_from_borders(self):
        sigma = 2.0
        m = gaze.rasterize(*xy((20.0, 20.0), (25.0, 22.0), (18.0, 24.0)),
                           44, 44, sigma_px=sigma)
        assert abs(m.sum() - 3.0) < 1e-9

    def test_empty_raw_is_zero_map(self):
        m = gaze.rasterize(*xy(), 8, 8, sigma_px=1.0)
        assert m.sum() == 0.0
        assert m.shape == (8, 8) and m.dtype == np.float64

    def test_empty_normalized_is_degenerate(self):
        with pytest.raises(DegenerateMapError):
            gaze.rasterize(*xy(), 8, 8, sigma_px=1.0,
                           normalization=gaze.Normalization.SUM_TO_ONE)

    def test_out_of_bounds_fixation_rejected(self):
        with pytest.raises(PreconditionError):
            gaze.rasterize(*xy((8.0, 4.0)), 8, 8, sigma_px=1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ConfigError):
            gaze.rasterize(*xy((1.0, 1.0)), 8, 8, sigma_px=0.0)

    def test_default_sigma_scales_with_short_side(self):
        assert gaze.default_sigma(640, 480) == 19.0
        assert gaze.default_sigma(480, 640) == 19.0
        assert gaze.default_sigma(64, 64) == pytest.approx(19.0 * 64 / 480)

    def test_kernel_wider_than_the_map(self):
        # radius 9 at sigma 3 is wider than both sides of an 8x6 map
        pts = [(1.0, 2.0), (6.6, 4.4), (3.0, 0.0)]
        m = gaze.rasterize(*xy(*pts), 8, 6, sigma_px=3.0)
        want = oracles.rasterize_dense_oracle(pts, 8, 6, 3.0)
        assert np.abs(m - want).max() < 1e-12

    def test_f32_payload_matches_convolve_loop(self):
        # the TSAL container stores float32: the matrix blur must give the
        # same stored bytes as the per-row/per-column np.convolve loop
        rng = np.random.default_rng(61)
        for width, height in ((128, 96), (64, 64), (33, 33), (200, 150)):
            for sigma in (gaze.default_sigma(width, height), 1.5, 3.7):
                for _ in range(4):
                    pts = [(float(rng.uniform(0, width - 1)),
                            float(rng.uniform(0, height - 1)))
                           for _ in range(int(rng.integers(1, 40)))]
                    m = gaze.rasterize(*xy(*pts), width, height,
                                       sigma_px=sigma)
                    grid = np.zeros((height, width))
                    rows, cols = gaze.nearest_pixels(
                        np.array([p[0] for p in pts]),
                        np.array([p[1] for p in pts]), width, height)
                    np.add.at(grid, (rows, cols), 1.0)
                    want = oracles.blur_convolve_loop(grid, sigma)
                    raw = gaze.Normalization.RAW
                    assert gaze.serialize_map(m, raw) == \
                        gaze.serialize_map(want, raw)

    def test_rounding_to_nearest_pixel(self):
        m = gaze.rasterize(*xy((3.6, 2.4)), 8, 8, sigma_px=0.3)
        assert m.argmax() == np.ravel_multi_index((2, 4), (8, 8))

    def test_nearest_pixels_match_scalar_rounding(self):
        rng = np.random.default_rng(58)
        xs = np.concatenate([rng.uniform(0, 9, 50), [0.0, 0.5, 8.5, 8.999]])
        ys = np.concatenate([rng.uniform(0, 7, 50), [6.5, 0.49, 0.0, 6.9]])
        rows, cols = gaze.nearest_pixels(xs, ys, 9, 7)
        assert rows.tolist() == [min(math.floor(y + 0.5), 6) for y in ys]
        assert cols.tolist() == [min(math.floor(x + 0.5), 8) for x in xs]

    def test_nearest_pixels_name_first_point_outside(self):
        xs = np.array([1.0, 9.0, float("nan")])
        with pytest.raises(PreconditionError,
                           match=r"^fixation at \(9\.0, 1\.0\) outside 9x7 image$"):
            gaze.nearest_pixels(xs, np.ones(3), 9, 7)
        with pytest.raises(PreconditionError, match=r"\(nan, 1\.0\)"):
            gaze.nearest_pixels(xs[::-1], np.ones(3), 9, 7)


GOOD_LINE = ('{"image_id": "a", "observer_id": "o", "t_ms": 1.0, '
             '"x": 1.0, "y": 2.0}')


class TestGazeJsonl:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "gaze.jsonl")
        samples = gaze.GazeTable(("img0", "img0"), ("obs0", "obs1"),
                                 (1.5, 10.0), (2.25, 0.0), (3.125, 0.5))
        gaze.write_gaze_jsonl(path, samples)
        assert gaze.read_gaze_jsonl(path) == samples

    def test_bytes_match_json_dump_per_record(self, tmp_path):
        values = [0.1 + 0.2, 1e-7, 1e16, 5e-324, 3.0, 0.0, -0.0, 1e22,
                  123456789.0, 2.0 ** 53 + 2.0, 1.7976931348623157e308]
        ids = ["img0", "bild\u00e4", "\u89c2\u5bdf\u8005", 'q"uote\\', "tab\t",
               "\U0001f600"]
        rows = [(ids[i % len(ids)], ids[(i + 2) % len(ids)],
                 values[i % len(values)], values[(i + 3) % len(values)],
                 values[(i + 7) % len(values)]) for i in range(40)]
        table = gaze.GazeTable(*zip(*rows))
        path = tmp_path / "gaze.jsonl"
        gaze.write_gaze_jsonl(str(path), table)
        assert path.read_bytes() == oracles.gaze_jsonl_oracle(rows)
        assert gaze.read_gaze_jsonl(str(path)) == table

    def test_empty_table_writes_empty_file(self, tmp_path):
        path = tmp_path / "gaze.jsonl"
        gaze.write_gaze_jsonl(str(path), gz())
        assert path.read_bytes() == b""
        assert len(gaze.read_gaze_jsonl(str(path))) == 0

    @pytest.mark.parametrize("line, message", [
        ('{"image_id": "a", "observer_id": "o", "t_ms": true, "x": 1, "y": 2}',
         "'t_ms' missing or not a number"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": 1, "x": "left", '
         '"y": 2}', "'x' missing or not a number"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": 1, "x": 1}',
         "'y' missing or not a number"),
        ('{"image_id": "a", "t_ms": 1, "x": 1, "y": 2}',
         "'observer_id' missing or not a string"),
        ('{"image_id": 7, "observer_id": "o", "t_ms": 1, "x": 1, "y": 2}',
         "'image_id' missing or not a string"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": NaN, "x": 1, "y": 2}',
         "'t_ms' is not finite"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": 1, "x": 1e999, '
         '"y": 2}', "'x' is not finite"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": 1, "x": 1, '
         '"y": -Infinity}', "'y' is not finite"),
        ('{"image_id": "a", "observer_id": "o", "t_ms": 1' + "0" * 400 +
         ', "x": 1, "y": 2}', "'t_ms' is not finite"),  # beyond float range
        ('[1, 2, 3]', "expected an object"),
        ('{"image_id": "a"', "invalid JSON"),
    ])
    def test_rejections_name_the_line(self, tmp_path, line, message):
        p = tmp_path / "bad.jsonl"
        p.write_text(f"{GOOD_LINE}\n\n{line}\n{GOOD_LINE}\n")
        with pytest.raises(FormatError) as exc:
            gaze.read_gaze_jsonl(str(p))
        assert str(exc.value) == f"{p}: line 3: {message}"

    def test_invalid_json_line(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        path_obj = tmp_path / "bad.jsonl"
        path_obj.write_text('{"image_id": "a"\n')
        with pytest.raises(FormatError):
            gaze.read_gaze_jsonl(path)

    def test_missing_key(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"image_id": "a", "observer_id": "o", "x": 1, "y": 2}\n')
        with pytest.raises(FormatError):
            gaze.read_gaze_jsonl(str(p))

    def test_non_numeric_coordinate(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"image_id": "a", "observer_id": "o", "t_ms": 1, '
                     '"x": "left", "y": 2}\n')
        with pytest.raises(FormatError):
            gaze.read_gaze_jsonl(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaze.jsonl"
        p.write_text(f"\n{GOOD_LINE}\n\n")
        assert gaze.read_gaze_jsonl(str(p)) == gaze.GazeTable(
            ("a",), ("o",), (1.0,), (1.0,), (2.0,))


def outcome(read, path):
    """What a reader makes of a file: its result, or the type and message
    of the exception it raises."""
    try:
        return read(str(path))
    except Exception as exc:
        return type(exc), str(exc)


def gaze_line_by_line(path):
    """A gaze log through the per-line parser only."""
    with fileio.reading(path) as fh:
        return gaze._gaze_lines(list(fh), 1)


def gaze_line(**fields) -> str:
    """A gaze line of raw JSON value texts, keys in the written order."""
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


# Raw JSON values that replace one field of a gaze line: bad or borderline
# numbers and ids, and texts with braces, brackets and quotes that could
# join a line with its neighbours.
NUMBER_VALUES = ["true", "null", '"1.5"', "NaN", "Infinity", "-Infinity",
                 "1e999", "-1e999", str(2 ** 53 + 1), str(2 ** 64),
                 "1" + "0" * 400, "-0", "1E2", "[1]", "{}", '{"a": 1}', "01",
                 ".5", "+1", "1 2", '"}{"', "[", "]", "{", "}"]
ID_VALUES = ["7", "null", '["a"]', '""', '"a,b"', '"}{"', '"["', '"a\\"b"',
             '"\\u00e9"', '"{"', '"}"', "{}", "true", '"a"}, {"b": "c"']


def gaze_log_mutations(seed: int, count: int) -> list[tuple[str, bytes]]:
    """``count`` one-field and ``count`` one-byte mutations of a written
    12-row gaze log, as (description, file bytes)."""
    rng = np.random.default_rng(seed)
    rows = [(f"img{i % 3}", f"o{i % 2}", 100.0 * i + 0.25, 1.5 * i, 2.0)
            for i in range(12)]
    lines = oracles.gaze_jsonl_oracle(rows).decode().splitlines()
    keys = ("image_id", "observer_id", "t_ms", "x", "y")
    cases = []
    for _ in range(count):
        r = int(rng.integers(len(rows)))
        fields = dict(zip(keys, (json.dumps(v) for v in rows[r])))
        key = keys[int(rng.integers(len(keys)))]
        kind = int(rng.integers(4))
        if kind == 0:
            del fields[key]
        elif kind == 1:
            fields[key + "_"] = fields.pop(key)
        else:
            values = ID_VALUES if key in keys[:2] else NUMBER_VALUES
            fields[key] = values[int(rng.integers(len(values)))]
        text = "\n".join(lines[:r] + [gaze_line(**fields)] + lines[r + 1:])
        cases.append((f"row {r} {key} -> {fields.get(key)}",
                      (text + "\n").encode()))
    return cases + byte_mutations(rng, oracles.gaze_jsonl_oracle(rows),
                                  b'{}[],:" \n\t0159.eE-+aNI\\\x00\xff', count)


def byte_mutations(rng, data: bytes, alphabet: bytes, count: int
                   ) -> list[tuple[str, bytes]]:
    """``count`` copies of ``data`` with one byte deleted, or replaced by
    or inserted before a byte of ``alphabet``, as (description, bytes)."""
    cases = []
    for _ in range(count):
        at = int(rng.integers(len(data)))
        byte = alphabet[int(rng.integers(len(alphabet)))]
        kind = int(rng.integers(3))
        new = data[:at] + (b"" if kind == 0 else bytes([byte])) + \
            data[at + (kind != 2):]
        cases.append((f"byte {at} {'del set ins'.split()[kind]} {byte}", new))
    return cases


class TestGazeJsonlChunks:
    """The chunked reader gives what the per-line parser gives, for any
    input: the table, or the same error naming the same line."""

    @pytest.mark.parametrize("chunk", [5, gaze._CHUNK])
    def test_mutations_match_the_line_parser(self, tmp_path, monkeypatch,
                                             chunk):
        monkeypatch.setattr(gaze, "_CHUNK", chunk)
        path = tmp_path / "gaze.jsonl"
        differ, tables = [], 0
        for case, data in gaze_log_mutations(14, 150):
            path.write_bytes(data)
            got = outcome(gaze.read_gaze_jsonl, path)
            want = outcome(gaze_line_by_line, path)
            tables += isinstance(want, gaze.GazeTable)
            if not (got == want) is True:
                differ.append((case, got, want))
        assert differ == []
        assert 20 < tables < 280  # both outcomes are well represented

    @pytest.mark.parametrize("lines", [
        [gaze_line(image_id='"a"', observer_id='"o"', t_ms=1, x=1, y=2,
                   e='["}'), '{"]}'],
        ['{"image_id": "a}',
         '{", "observer_id": "o", "t_ms": 1, "x": 1, "y": 2}'],
        [f"{GOOD_LINE}, {GOOD_LINE}"],
        # two lines that make one record, then one line that makes two:
        # as many records as lines
        ['{"image_id": "a}',
         '{", "observer_id": "o", "t_ms": 1, "x": 1, "y": 2}',
         f"{GOOD_LINE}, {GOOD_LINE}"],
    ], ids=["bracket-nested", "brace-split", "two-records-on-one-line",
            "split-and-doubled"])
    def test_lines_that_join_into_valid_json(self, tmp_path, lines):
        # joined, the lines parse into records, though the first is not JSON
        joined = json.loads("[" + ",".join(lines) + "]")
        assert {type(r) for r in joined} == {dict}
        assert gaze._gaze_lines_bulk(lines) is None
        p = tmp_path / "gaze.jsonl"
        p.write_text("\n".join([GOOD_LINE, *lines, GOOD_LINE]) + "\n")
        with pytest.raises(FormatError) as exc:
            gaze.read_gaze_jsonl(str(p))
        assert str(exc.value) == f"{p}: line 2: invalid JSON"

    @pytest.mark.parametrize("value", [2 ** 53 + 1, 2 ** 64, 10 ** 400],
                             ids=["2**53+1", "2**64", "10**400"])
    def test_large_integers_read_as_require_number(self, tmp_path, value):
        line = gaze_line(image_id='"a"', observer_id='"o"', t_ms=1,
                         x=value, y=2)
        p = tmp_path / "gaze.jsonl"
        p.write_text(f"{line}\n")
        try:
            want = gaze._require_number({"x": value}, "x", 1)
        except FormatError as exc:
            assert gaze._gaze_lines_bulk([line]) is None
            assert outcome(gaze.read_gaze_jsonl, p) == (
                FormatError, f"{p}: {exc}")
        else:
            assert gaze._gaze_lines_bulk([line]).x.tolist() == [want]
            assert gaze.read_gaze_jsonl(str(p)).x.tolist() == [want]

    def test_integer_of_over_4300_digits_is_a_format_error(self, tmp_path):
        p = tmp_path / "gaze.jsonl"
        p.write_text(gaze_line(image_id='"a"', observer_id='"o"',
                               t_ms="1" * 5000, x=1, y=2) + "\n")
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(p))}: line 1: bad value "
                                 r"\(Exceeds the limit \(4300 digits\)"):
            gaze.read_gaze_jsonl(str(p))

    def test_table_read_holds_one_str_per_id(self, tmp_path, monkeypatch):
        """Ids are interned as they are read, on the bulk path and on the
        per-line one, so equal ids of different chunks are one object."""
        monkeypatch.setattr(gaze, "_CHUNK", 5)
        rows = [(f"img{i % 3}", "o[1" if i == 7 else f"o{i % 2}",
                 float(i), 1.0, 2.0) for i in range(12)]
        lines = oracles.gaze_jsonl_oracle(rows).decode().splitlines()
        assert gaze._gaze_lines_bulk(lines[:5]) is not None
        assert gaze._gaze_lines_bulk(lines[5:10]) is None  # "[" in an id
        p = tmp_path / "gaze.jsonl"
        p.write_text("\n".join(lines) + "\n")
        got = gaze.read_gaze_jsonl(str(p))
        assert got == gaze.GazeTable(*zip(*rows))
        assert one_object_per_id(got)

    def test_memory_does_not_grow_with_the_log(self, tmp_path):
        """Writing a 200k-row log peaks within 1 MiB of writing a 50k-row
        one, and reading one needs within 1 MiB as much memory beyond the
        table it returns: neither holds the whole log."""
        rng = np.random.default_rng(14)
        write_peak, read_extra = {}, {}
        for n in (2_000, 50_000, 200_000):  # the first run only warms up
            table = gaze.GazeTable(
                [f"img{i % 100:03d}" for i in range(n)],
                [f"o{i % 4:03d}" for i in range(n)],
                rng.uniform(0, 5000, n), rng.uniform(0, 128, n),
                rng.uniform(0, 96, n))
            path = str(tmp_path / f"gaze{n}.jsonl")
            tracemalloc.start()
            try:
                gaze.write_gaze_jsonl(path, table)
                write_peak[n] = tracemalloc.get_traced_memory()[1]
                tracemalloc.reset_peak()
                got = gaze.read_gaze_jsonl(path)
                held, peak = tracemalloc.get_traced_memory()
                read_extra[n] = peak - held
            finally:
                tracemalloc.stop()
            assert got == table
        assert write_peak[200_000] - write_peak[50_000] < 1 << 20
        assert read_extra[200_000] - read_extra[50_000] < 1 << 20


class TestGazeTable:
    def test_columns_are_read_only_float64(self):
        table = gz((1, 2, 3))
        assert table.t_ms.dtype == np.float64 and table.x.tolist() == [2.0]
        with pytest.raises(ValueError):
            table.x[0] = 5.0

    def test_pickled_copy_stays_read_only(self):
        table = gz((1.0, 2.0, 3.0))
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and not copy.x.flags.writeable

    def test_equality_compares_every_column(self):
        a = gz((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        assert a == gz((1.0, 2.0, 3.0), (4.0, 5.0, 6.0))
        assert a != gz((1.0, 2.0, 3.0), (4.0, 5.0, 6.5))
        assert a != gz((1.0, 2.0, 3.0), (4.0, 5.0, 6.0), obs="obs1")
        assert a != gz((1.0, 2.0, 3.0))

    def test_ragged_or_non_finite_columns_rejected(self):
        with pytest.raises(PreconditionError):
            gaze.GazeTable(("a", "a"), ("o", "o"), (1.0,), (1.0,), (1.0,))
        with pytest.raises(PreconditionError):
            gaze.GazeTable(("a",), (), (1.0,), (1.0,), (1.0,))
        with pytest.raises(NonFiniteError):
            gaze.GazeTable(("a",), ("o",), (1.0,), (np.nan,), (1.0,))

    def test_concat_keeps_row_order(self):
        a, b = gz((1.0, 2.0, 3.0), obs="p"), gz((4.0, 5.0, 6.0), obs="q")
        both = gaze.GazeTable.concat([a, b])
        assert both.observer_id == ("p", "q")
        assert both.t_ms.tolist() == [1.0, 4.0]
        assert len(gaze.GazeTable.concat([])) == 0

    def test_concat_chains_ids_without_interning(self, monkeypatch):
        interned = []
        monkeypatch.setattr(sys, "intern",
                            lambda s: interned.append(s) or s)
        p, q = "".join(["o", "p"]), "".join(["o", "q"])  # not interned
        both = gaze.GazeTable.concat([gz((1.0, 2.0, 3.0), obs=p),
                                      gz((4.0, 5.0, 6.0), obs=q)])
        fixations = gaze.FixationTable.concat(
            [fixes((0, 1.0, 2.0), obs=p), fixes((0, 5.0, 6.0), obs=q)])
        assert interned == []
        assert both.observer_id[0] is p and both.observer_id[1] is q
        assert fixations.observer_id[0] is p and fixations.observer_id[1] is q


class TestFixationTable:
    def test_column_types_and_optional_times(self):
        table = fixes((3, 1, 2), (4, 1, 2))
        assert table.order_index.dtype == np.int64
        assert table.x.dtype == np.float64 and table.t_ms is None
        timed = fixes((3, 1, 2), (4, 1, 2), t=[5, 6])
        assert timed.t_ms.dtype == np.float64
        assert timed != table and table != timed
        with pytest.raises(ValueError):
            timed.t_ms[0] = 6.0

    def test_pickled_copy_stays_read_only(self):
        table = fixes((0, 1.0, 2.0), t=[3.0])
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and not copy.order_index.flags.writeable

    def test_ragged_or_non_finite_columns_rejected(self):
        with pytest.raises(PreconditionError):
            gaze.FixationTable(("a",), ("o",), (0,), (1.0,), (1.0,), (1.0, 2.0))
        with pytest.raises(NonFiniteError):
            gaze.FixationTable(("a",), ("o",), (0,), (1.0,), (1.0,), (np.inf,))

    def test_take_and_concat_keep_row_order(self):
        a = fixes((0, 1.0, 2.0), (1, 3.0, 4.0), obs="p")
        b = fixes((0, 5.0, 6.0), obs="q")
        both = gaze.FixationTable.concat([a, b])
        assert both.observer_id == ("p", "p", "q") and both.t_ms is None
        assert both.take(np.array([2, 0])) == gaze.FixationTable(
            ("img0", "img0"), ("q", "p"), (0, 0), (5.0, 1.0), (6.0, 2.0))
        assert len(both.take([])) == 0
        assert len(gaze.FixationTable.concat([])) == 0

    def test_slice_index_is_an_integer_column(self):
        table = fixes((0, 1.0, 2.0), (1, 3.0, 4.0), t=[5.0, 6.0],
                      slices=[0, 4])
        assert table.slice_index.dtype == np.int64
        with pytest.raises(ValueError):
            table.slice_index[0] = 1
        assert table.take([1, 0]).slice_index.tolist() == [4, 0]
        copy = pickle.loads(pickle.dumps(table))
        assert copy == table and not copy.slice_index.flags.writeable
        assert table != dataclasses.replace(table, slice_index=[0, 3])
        assert table != dataclasses.replace(table, slice_index=None)
        assert gaze.FixationTable.concat(
            [table, table]).slice_index.tolist() == [0, 4, 0, 4]
        assert gaze.FixationTable.concat(
            [table, fixes((2, 5.0, 6.0), t=[7.0])]).slice_index is None


class TestFixationCsv:
    def test_roundtrip_without_timestamps(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        table = fixes((0, 1.5, 2.5), (1, 3.0, 4.0))
        gaze.write_fixations_csv(path, table)
        assert gaze.read_fixation_table(path)[0] == table

    def test_roundtrip_with_timestamps_exact(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        table = fixes((0, 1.0 / 3.0, 2.5), t=[1234.5678901234])
        gaze.write_fixations_csv(path, table)
        got, _ = gaze.read_fixation_table(path)
        assert got.x[0] == table.x[0]  # repr() keeps floats exact
        assert got.t_ms[0] == table.t_ms[0]

    def test_slice_index_column(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        table = fixes((0, 1.0, 2.0), (1, 3.0, 4.0), t=[10.0, 20.0],
                      slices=[0, 3])
        gaze.write_fixations_csv(path, table)
        got, slices = gaze.read_fixation_table(path)
        assert got == table
        assert got.slice_index.tolist() == [0, 3]
        assert slices is got.slice_index  # the pair repeats the column

    @pytest.mark.parametrize("header, slices", [
        ("image_id,observer_id,order_index,x,y", None),
        ("image_id,observer_id,order_index,x,y,t_ms", None),
        ("image_id,observer_id,order_index,x,y,t_ms,slice_index", [])],
        ids=["untimed", "timed", "sliced"])
    def test_header_only_file(self, tmp_path, header, slices):
        """No rows: an empty t_ms column, and a slice_index column
        exactly when the header names one."""
        p = tmp_path / "fix.csv"
        p.write_text(header + "\n")
        table, column = gaze.read_fixation_table(str(p))
        assert len(table) == 0 and table.t_ms.tolist() == []
        assert column is table.slice_index
        assert (column if column is None else column.tolist()) == slices

    def test_no_slice_column_reads_none(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        gaze.write_fixations_csv(path, fixes((0, 1.0, 2.0)))
        _, slices = gaze.read_fixation_table(path)
        assert slices is None

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("image_id,observer_id,x,y\na,o,1,2\n")
        with pytest.raises(FormatError):
            gaze.read_fixation_table(str(p))

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("image_id,observer_id,order_index,x,y\na,o,zero,1,2\n")
        with pytest.raises(FormatError):
            gaze.read_fixation_table(str(p))

    @pytest.mark.parametrize("column", ["order_index", "slice_index"])
    @pytest.mark.parametrize("value", [2 ** 63, -2 ** 63 - 1, 10 ** 400],
                             ids=["2**63", "-2**63-1", "10**400"])
    def test_integer_beyond_64_bits_rejected(self, tmp_path, column, value):
        fields = {"order_index": 0, "slice_index": 1, column: value}
        p = tmp_path / "big.csv"
        p.write_text("image_id,observer_id,order_index,x,y,t_ms,slice_index\n"
                     "a,o,0,1,2,3,0\n"
                     f"a,o,{fields['order_index']},1,2,3,"
                     f"{fields['slice_index']}\n")
        message = f"{p}: line 3: '{column}' does not fit in 64 bits"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            gaze.read_fixation_table(str(p))

    def test_integers_at_the_64_bit_limits_read_back(self, tmp_path):
        path = str(tmp_path / "fix.csv")
        table = fixes((-2 ** 63, 1.0, 2.0), (2 ** 63 - 1, 3.0, 4.0),
                      slices=[2 ** 63 - 1, 0])
        gaze.write_fixations_csv(path, table)
        got, slices = gaze.read_fixation_table(path)
        assert got == table and slices.tolist() == [2 ** 63 - 1, 0]

    def test_quoted_ids_round_trip_byte_for_byte(self, tmp_path):
        # the bytes a per-row csv.writer wrote for these rows
        timed = (b'image_id,observer_id,order_index,x,y,t_ms,slice_index\n'
                 b'"a,b","say ""hi""\nthere",0,1.5,2.0,1250.25,4\n'
                 b'plain,"o\r\n2",7,0.1,3.0,0.0,0\n')
        untimed = (b'image_id,observer_id,order_index,x,y,t_ms\n'
                   b'"a,b","say ""hi""\nthere",0,1.5,2.0,\n'
                   b'plain,"o\r\n2",7,0.1,3.0,\n')
        table = gaze.FixationTable(("a,b", "plain"), ('say "hi"\nthere', "o\r\n2"),
                                   (0, 7), (1.5, 0.1), (2.0, 3.0))
        path = tmp_path / "quoted.csv"
        gaze.write_fixations_csv(str(path), table)
        assert path.read_bytes() == untimed
        assert gaze.read_fixation_table(str(path)) == (table, None)
        timed_table = dataclasses.replace(table, t_ms=(1250.25, 0.0),
                                          slice_index=(4, 0))
        gaze.write_fixations_csv(str(path), timed_table)
        assert path.read_bytes() == timed
        got, slices = gaze.read_fixation_table(str(path))
        assert got == timed_table and slices.tolist() == [4, 0]

    def test_mismatched_slice_list_rejected(self, tmp_path):
        # the table cannot hold one, so no writer can write one
        with pytest.raises(PreconditionError):
            fixes((0, 1.0, 2.0), slices=[1, 2])


# Raw CSV fields that replace one field of a fixation CSV row.
CSV_VALUES = ["", " ", "x", "1.5", "nan", "inf", "-inf", "1e999", "1e3",
              str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 63 - 1), "9" * 5000,
              "1_000", "+3", " 7 ", "\u0663", "0x10", '"a,b"', "a,b", '"',
              "t_ms", "slice_index"]


def fixation_csv_mutations(path, seed: int, count: int
                           ) -> list[tuple[str, bytes]]:
    """``count`` one-field and ``count`` one-byte mutations of a 12-row
    fixation CSV with t_ms and slice_index columns, written to ``path``,
    as (description, file bytes). A field may be replaced, dropped or
    doubled, in the header too."""
    rng = np.random.default_rng(seed)
    table = gaze.FixationTable(
        [f"img{i % 3}" for i in range(12)], [f"o{i % 2}" for i in range(12)],
        range(12), [1.5 * i for i in range(12)], [2.0] * 12,
        [100.0 * i + 0.25 for i in range(12)], [i % 5 for i in range(12)])
    gaze.write_fixations_csv(str(path), table)
    data = path.read_bytes()
    lines = data.decode().splitlines()
    cases = []
    for _ in range(count):
        r = int(rng.integers(len(lines)))
        fields = lines[r].split(",")
        f = int(rng.integers(len(fields)))
        kind = int(rng.integers(5))
        if kind == 0:
            del fields[f]
        elif kind == 1:
            fields.insert(f, fields[f])
        elif kind == 2:
            fields[f] = ""
        else:
            fields[f] = CSV_VALUES[int(rng.integers(len(CSV_VALUES)))]
        text = "\n".join(lines[:r] + [",".join(fields)] + lines[r + 1:])
        cases.append((f"line {r + 1} field {f} kind {kind}: {fields}",
                      (text + "\n").encode()))
    return cases + byte_mutations(rng, data, b',"\n\r 0159.eE-+a\x00\xff',
                                  count)


def fixations_row_by_row(path):
    """A fixation CSV through the per-row checker only, in one chunk."""
    with fileio.reading(path) as fh:
        header, *rows = [*csv.reader(fh)] or [None]
        if header is None:
            raise FormatError("empty fixation file")
        missing = [c for c in gaze._FIXATION_COLUMNS if c not in header]
        if missing:
            raise FormatError(f"missing columns {missing}")
        return gaze._fixation_rows(rows, 2, header)


def same_fixations(a, b) -> bool:
    """Equal outcomes of the reader and the row checker: the reader's
    (table, table.slice_index) pair and an equal table, or the same
    (exception type, message)."""
    if isinstance(a[0], type) or isinstance(b, tuple):
        return a == b
    return a[0] == b and a[1] is a[0].slice_index


class TestFixationCsvColumns:
    """The chunked reader gives what the per-row checker gives over the
    whole file, for any input: the table with its slice column, or the
    same error naming the same line."""

    @pytest.mark.parametrize("chunk", [5, gaze._CHUNK])
    def test_mutations_match_the_row_loop(self, tmp_path, monkeypatch,
                                          chunk):
        monkeypatch.setattr(gaze, "_CHUNK", chunk)
        path = tmp_path / "fix.csv"
        differ, tables = [], 0
        for case, data in fixation_csv_mutations(path, 14, 150):
            path.write_bytes(data)
            got = outcome(gaze.read_fixation_table, path)
            want = outcome(fixations_row_by_row, path)
            tables += isinstance(want, gaze.FixationTable)
            if not same_fixations(got, want):
                differ.append((case, got, want))
        assert differ == []
        assert 20 < tables < 280  # both outcomes are well represented

    @pytest.mark.parametrize("times", [("5", "", "6"), ("5", "6", "")])
    def test_one_row_without_a_time(self, tmp_path, monkeypatch, times):
        """One row without t_ms makes the whole column None, in its own
        chunk or in another; the other times must still be numbers."""
        monkeypatch.setattr(gaze, "_CHUNK", 2)
        p = tmp_path / "fix.csv"
        header = "image_id,observer_id,order_index,x,y,t_ms\n"
        p.write_text(header + "".join(f"a,o,{i},1,2,{t}\n"
                                      for i, t in enumerate(times)))
        table, slices = gaze.read_fixation_table(str(p))
        assert table.t_ms is None and slices is None
        assert table.order_index.tolist() == [0, 1, 2]
        p.write_text(header + "a,o,0,1,2,5\na,o,1,1,2,nan\na,o,2,1,2,\n")
        with pytest.raises(FormatError,
                           match=f"^{re.escape(str(p))}: line 3: 't_ms' "
                                 "is not finite$"):
            gaze.read_fixation_table(str(p))

    @pytest.mark.parametrize("row, got", [("a,o,0,1,2,3,0,9", 8),
                                          ("a,o,0,1,2", 5), ("a", 1)],
                             ids=["extra-field", "short-row", "one-field"])
    def test_field_count_must_match_the_header(self, tmp_path, row, got):
        p = tmp_path / "fix.csv"
        p.write_text("image_id,observer_id,order_index,x,y,t_ms,slice_index\n"
                     f"a,o,0,1,2,3,0\n\n{row}\n")
        message = f"{p}: line 4: expected 7 fields, got {got}"
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            gaze.read_fixation_table(str(p))

    @pytest.mark.parametrize("line", [1, 2, 3])
    def test_field_over_the_csv_limit_names_its_line(self, tmp_path, line):
        lines = ["image_id,observer_id,order_index,x,y", "a,o,0,1,2",
                 "a,o,1,1,2"]
        lines[line - 1] = "a" * 200_000 + lines[line - 1]
        p = tmp_path / "fix.csv"
        p.write_text("\n".join(lines) + "\n")
        message = (f"{p}: line {line}: field larger than field limit "
                   f"({csv.field_size_limit()})")
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            gaze.read_fixation_table(str(p))

    def test_table_read_holds_one_str_per_id(self, tmp_path, monkeypatch):
        """Ids are interned as they are read, on the bulk path and on the
        per-row one (a blank row sends its chunk there)."""
        monkeypatch.setattr(gaze, "_CHUNK", 5)
        table = gaze.FixationTable(
            [f"img{i % 3}" for i in range(12)],
            [f"o{i % 2}" for i in range(12)], range(12),
            [1.5 * i for i in range(12)], [2.0] * 12)
        p = tmp_path / "fix.csv"
        gaze.write_fixations_csv(str(p), table)
        lines = p.read_text().splitlines()
        p.write_text("\n".join(lines[:8] + [""] + lines[8:]) + "\n")
        got, _ = gaze.read_fixation_table(str(p))
        assert got == table and one_object_per_id(got)

    def test_malformed_file_is_opened_once(self, tmp_path, monkeypatch):
        opened = []
        monkeypatch.setattr(fileio, "open", lambda *a, **k: opened.append(
            a[0]) or open(*a, **k), raising=False)
        p = tmp_path / "fix.csv"
        p.write_text("image_id,observer_id,order_index,x,y\na,o,0,1,2\n"
                     "a,o,zero,1,2\n")
        with pytest.raises(FormatError, match="line 3: bad value"):
            gaze.read_fixation_table(str(p))
        assert opened == [str(p)]

    def test_memory_does_not_grow_with_the_file(self, tmp_path):
        """Reading a 200k-row fixation CSV needs within 1 MiB as much
        memory beyond the table and slice column it returns as reading a
        50k-row one: the reader never holds the whole file."""
        rng = np.random.default_rng(16)
        read_extra = {}
        for n in (2_000, 50_000, 200_000):  # the first run only warms up
            slices = np.arange(n) % 5
            table = gaze.FixationTable(
                [f"img{i % 100:03d}" for i in range(n)],
                [f"o{i % 4:03d}" for i in range(n)], np.arange(n),
                rng.uniform(0, 128, n), rng.uniform(0, 96, n),
                rng.uniform(0, 5000, n), slices)
            path = str(tmp_path / f"fix{n}.csv")
            gaze.write_fixations_csv(path, table)
            tracemalloc.start()
            try:
                got = gaze.read_fixation_table(path)
                held, peak = tracemalloc.get_traced_memory()
                read_extra[n] = peak - held
            finally:
                tracemalloc.stop()
            assert got[0] == table and np.array_equal(got[1], slices)
        assert read_extra[200_000] - read_extra[50_000] < 1 << 20


def stored_normalization(path) -> gaze.Normalization:
    """The normalization tag in a ``.tsal`` file's header."""
    return gaze.deserialize_map(Path(path).read_bytes())[1]


class TestMapContainer:
    def test_raw_roundtrip_is_f32_exact(self, tmp_path):
        rng = np.random.default_rng(58)
        values = rng.uniform(0, 3, size=(5, 7)).astype(np.float32)
        path = str(tmp_path / "m.tsal")
        gaze.write_map_tsal(path, values.astype(np.float64))
        got = gaze.read_map_tsal(path)
        assert stored_normalization(path) is gaze.Normalization.RAW
        assert np.array_equal(got, values.astype(np.float64))

    def test_sum_map_renormalized_after_quantization(self, tmp_path):
        rng = np.random.default_rng(59)
        v = rng.uniform(0.1, 1.0, size=(31, 37))
        path = str(tmp_path / "m.tsal")
        gaze.write_map_tsal(path, v / v.sum(), gaze.Normalization.SUM_TO_ONE)
        got = gaze.read_map_tsal(path)
        assert stored_normalization(path) is gaze.Normalization.SUM_TO_ONE
        assert abs(got.sum() - 1.0) <= 1e-9

    def test_max_map_renormalized_after_quantization(self, tmp_path):
        rng = np.random.default_rng(60)
        v = rng.uniform(0.1, 1.0, size=(9, 9))
        path = str(tmp_path / "m.tsal")
        gaze.write_map_tsal(path, v / v.max(), gaze.Normalization.MAX_TO_ONE)
        got = gaze.read_map_tsal(path)
        assert abs(got.max() - 1.0) <= 1e-9

    def test_writer_rejects_non_2d(self, tmp_path):
        path = tmp_path / "m.tsal"
        with pytest.raises(PreconditionError,
                           match=r"^map values must be 2-D, got shape \(3,\)$"):
            gaze.write_map_tsal(path, np.ones(3))
        assert not path.exists()

    def test_writer_rejects_negative(self, tmp_path):
        path = tmp_path / "m.tsal"
        with pytest.raises(PreconditionError,
                           match="^map values must be nonnegative$"):
            gaze.write_map_tsal(path, np.array([[1.0, -0.1]]))
        assert not path.exists()

    def test_writer_rejects_non_finite(self, tmp_path):
        path = tmp_path / "m.tsal"
        with pytest.raises(NonFiniteError, match="^map contains NaN or Inf$"):
            gaze.write_map_tsal(path, np.array([[np.nan, 1.0]]))
        assert not path.exists()

    def test_writer_checks_the_sum_tag(self, tmp_path):
        good = np.full((2, 2), 0.25)
        gaze.write_map_tsal(tmp_path / "good.tsal", good,
                            gaze.Normalization.SUM_TO_ONE)
        with pytest.raises(PreconditionError,
                           match=r"^sum-normalized map sums to 1\.01, not 1$"):
            gaze.write_map_tsal(tmp_path / "bad.tsal", good * 1.01,
                                gaze.Normalization.SUM_TO_ONE)
        assert not (tmp_path / "bad.tsal").exists()
        assert good.tolist() == [[0.25, 0.25], [0.25, 0.25]]

    def test_writer_checks_the_max_tag(self, tmp_path):
        good = np.array([[1.0, 0.5]])
        gaze.write_map_tsal(tmp_path / "good.tsal", good,
                            gaze.Normalization.MAX_TO_ONE)
        with pytest.raises(PreconditionError,
                           match=r"^max-normalized map has max 0\.9, not 1$"):
            gaze.write_map_tsal(tmp_path / "bad.tsal", good * 0.9,
                                gaze.Normalization.MAX_TO_ONE)
        assert not (tmp_path / "bad.tsal").exists()

    @pytest.mark.parametrize("width,height", [(0, 0), (0, 5), (5, 0)])
    def test_zero_size_rejected(self, width, height):
        blob = b"TSAL" + struct.pack("<IIB", width, height, 0)
        with pytest.raises(FormatError,
                           match=f"^TSAL map has zero size {width}x{height}$"):
            gaze.deserialize_map(blob)

    def test_header_layout(self):
        blob = gaze.serialize_map(np.zeros((2, 3)), gaze.Normalization.RAW)
        assert blob[:4] == b"TSAL"
        assert int.from_bytes(blob[4:8], "little") == 3   # width
        assert int.from_bytes(blob[8:12], "little") == 2  # height
        assert blob[12] == 0
        assert len(blob) == 13 + 4 * 6

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            gaze.deserialize_map(b"XXXX" + b"\x00" * 20)

    def test_bad_normalization_code(self):
        blob = bytearray(gaze.serialize_map(np.zeros((1, 1)),
                                            gaze.Normalization.RAW))
        blob[12] = 7
        with pytest.raises(FormatError):
            gaze.deserialize_map(bytes(blob))

    def test_truncated_payload(self):
        blob = gaze.serialize_map(np.zeros((2, 2)), gaze.Normalization.RAW)
        with pytest.raises(FormatError):
            gaze.deserialize_map(blob[:-3])

    def test_signed_container_roundtrip(self, tmp_path):
        d = np.array([[-1.5, 0.0], [2.5, -0.25]])
        path = str(tmp_path / "d.tsal")
        gaze.write_signed_tsal(path, d)
        values, norm = gaze.deserialize_map(Path(path).read_bytes())
        assert norm is gaze.Normalization.RAW
        assert np.array_equal(values, d)

    def test_negative_values_rejected_for_saliency_read(self, tmp_path):
        path = str(tmp_path / "d.tsal")
        gaze.write_signed_tsal(path, np.array([[-1.0, 1.0]]))
        with pytest.raises(PreconditionError, match=(
                f"^{re.escape(path)}: saliency map has negative values$")):
            gaze.read_map_tsal(path)


class TestViewingExports:
    def test_pgm_header_and_scaling(self, tmp_path):
        m = np.array([[0.0, 0.5], [1.0, 0.25]])
        path = str(tmp_path / "m.pgm")
        gaze.write_map_pgm(path, m)
        blob = open(path, "rb").read()
        header = b"P5\n2 2\n65535\n"
        assert blob.startswith(header)
        pixels = np.frombuffer(blob[len(header):], dtype=">u2").reshape(2, 2)
        assert pixels[1, 0] == 65535
        assert pixels[0, 1] == round(0.5 * 65535)

    def test_pgm_all_zero(self, tmp_path):
        m = np.zeros((2, 2))
        path = str(tmp_path / "z.pgm")
        gaze.write_map_pgm(path, m)
        blob = open(path, "rb").read()
        pixels = np.frombuffer(blob[len(b"P5\n2 2\n65535\n"):], dtype=">u2")
        assert np.all(pixels == 0)

    def test_ppm_diverging_colors(self, tmp_path):
        diff = np.array([[1.0, -1.0, 0.0]])
        path = str(tmp_path / "d.ppm")
        gaze.write_diff_ppm(path, diff)
        blob = open(path, "rb").read()
        header = b"P6\n3 1\n255\n"
        assert blob.startswith(header)
        rgb = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(1, 3, 3)
        assert tuple(rgb[0, 0]) == (255, 0, 0)    # strongest positive: red
        assert tuple(rgb[0, 1]) == (0, 0, 255)    # strongest negative: blue
        assert tuple(rgb[0, 2]) == (255, 255, 255)  # zero: white

    def test_ppm_all_zero_is_white(self, tmp_path):
        path = str(tmp_path / "z.ppm")
        gaze.write_diff_ppm(path, np.zeros((2, 2)))
        blob = open(path, "rb").read()
        rgb = np.frombuffer(blob[len(b"P6\n2 2\n255\n"):], dtype=np.uint8)
        assert np.all(rgb == 255)


class TestGrouping:
    def test_group_gaze_and_fixations(self):
        samples = gaze.GazeTable(("a", "a", "a"), ("x", "y", "x"),
                                 (1.0, 2.0, 3.0), (0.0, 0.0, 0.0),
                                 (0.0, 1.0, 2.0))
        groups = gaze.group_gaze(samples)
        assert list(groups) == [("a", "x"), ("a", "y")]
        assert groups[("a", "x")] == gz((1.0, 0.0, 0.0), (3.0, 0.0, 2.0),
                                        image="a", obs="x")
        assert groups[("a", "y")] == gz((2.0, 0.0, 1.0), image="a", obs="y")

        table = gaze.FixationTable(("b", "a", "b"), ("x", "x", "x"),
                                   (0, 0, 1), (1, 1, 1), (1, 1, 1))
        fgroups = gaze.group_rows(zip(table.image_id, table.observer_id))
        assert list(fgroups) == [("b", "x"), ("a", "x")]
        assert [g.tolist() for g in fgroups.values()] == [[0, 2], [1]]
        assert all(g.dtype == np.intp for g in fgroups.values())
        assert gaze.group_rows([]) == {}
