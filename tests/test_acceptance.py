"""End-to-end acceptance checks: one test and one verdict line per
shipped guarantee. Each test prints `acceptance N: PASS/FAIL - detail`
and then asserts, so a bare `pytest -v` run shows one line per
criterion and `-s` adds the measured numbers."""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from tsal import analysis, metrics, model, synth
from tsal.cli import main
from tsal.gaze import (
    FixationTable,
    group_gaze,
    group_rows,
    recover_timestamps,
    slice_equal_distribution,
    slice_equal_duration,
)

import oracles
from test_model import (
    TINY,
    analytic_param_grads,
    kink_margins,
    total_loss_value,
    toy_data,
)


def verdict(n, ok, detail):
    line = f"acceptance {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def fixes(points):
    """Fixations at (x, y) points, all of one image and observer."""
    x, y = zip(*points)
    n = len(points)
    return FixationTable(("img",) * n, ("obs",) * n, range(n), x, y)


def pearson(a, b):
    a = a.ravel() - a.mean()
    b = b.ravel() - b.mean()
    return float((a * b).sum() / np.sqrt((a * a).sum() * (b * b).sum()))


class TestCriterion1:
    def test_metrics_match_oracles_on_random_cases(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(1000):
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            p = rng.uniform(0.01, 1.0, size=(h, w))
            g = rng.uniform(0.01, 1.0, size=(h, w))

            cells = h * w
            npos = int(rng.integers(1, min(4, cells - 1) + 1))
            nneg = int(rng.integers(1, min(5, cells - npos) + 1))
            flat = rng.choice(cells, size=npos + nneg, replace=False)
            pos = fixes([(int(c % w), int(c // w)) for c in flat[:npos]])
            neg = fixes([(int(c % w), int(c // w)) for c in flat[npos:]])
            mask = np.zeros((h, w), dtype=bool)
            mask[pos.y.astype(int), pos.x.astype(int)] = True
            prow, pcol = metrics.fixation_pixels(pos, w, h)
            nrow, ncol = metrics.fixation_pixels(neg, w, h)

            diffs = [
                abs(metrics.cc(p, g) - oracles.cc_oracle(p, g)),
                abs(metrics.kl(p, g) - oracles.kl_oracle(p, g)),
                abs(metrics.nss(p, (prow, pcol))
                    - oracles.nss_oracle(p, mask)),
                abs(metrics.auc_judd(p, (prow, pcol))
                    - oracles.auc_judd_oracle(p, mask)),
                abs(metrics.sim(p, g)
                    - oracles.sim_oracle(p, g)),
            ]
            diffs.append(abs(metrics.sauc(p, (prow, pcol), (nrow, ncol))
                             - oracles.mann_whitney_auc(
                                 p[prow, pcol],
                                 p[nrow, ncol])))
            pn = p / p.sum()
            gn = g / g.sum()
            want_ig = float(np.mean(
                [math.log2(pn[r, c] + 1e-7) - math.log2(gn[r, c] + 1e-7)
                 for r, c in zip(prow, pcol)]))
            diffs.append(abs(metrics.ig(p, g, (prow, pcol)) - want_ig))
            worst = max(worst, *diffs)

        ident = 0.0
        ident_ok = True
        for _ in range(20):
            h = int(rng.integers(2, 9))
            w = int(rng.integers(2, 9))
            m = rng.uniform(0.01, 1.0, size=(h, w))
            point = metrics.fixation_pixels(
                fixes([(int(rng.integers(0, w)), int(rng.integers(0, h)))]),
                w, h)
            ident = max(ident,
                        abs(metrics.cc(m, m) - 1.0),
                        abs(metrics.sim(m, m) - 1.0),
                        abs(metrics.ig(m, m, point)))
            flat = np.full((h, w), 0.25)
            ident_ok = (ident_ok and metrics.kl(m, m) < 1e-6
                        and abs(metrics.auc_judd(flat, point) - 0.5) <= 1e-9)

        elapsed = time.monotonic() - t0
        ok = worst < 1e-9 and ident < 1e-9 and ident_ok and elapsed < 10.0
        verdict(1, ok, f"1000 cases, max oracle diff {worst:.2e}, "
                f"max identity diff {ident:.2e}, {elapsed:.1f}s")


class TestCriterion2:
    def test_every_parameter_matches_finite_differences(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(57)
        params = model.init_params(TINY, seed=57)
        data = toy_data(rng, 1, TINY, 16, 16)
        cfg = model.LossConfig()
        relu_margin, mm_gap = kink_margins(params, data)
        assert relu_margin > 2e-4 and mm_gap > 2e-4, \
            "seed lands on a derivative kink, pick another"

        worst = 0.0
        for stage in ("temporal", "mixing"):
            got = analytic_param_grads(params, data, cfg, stage,
                                       list(params))
            fd = oracles.central_diff_grads(
                lambda sub: total_loss_value({**params, **sub},
                                             data, cfg, stage),
                params)
            for name in params:
                worst = max(worst, oracles.rel_err(
                    got[name], fd[name], floor=1e-4).max())

        elapsed = time.monotonic() - t0
        n = sum(v.size for v in params.values())
        ok = worst < 1e-4 and elapsed < 120.0
        verdict(2, ok, f"{n} parameters x 2 stages, max rel err "
                f"{worst:.2e}, {elapsed:.0f}s")


class TestCriterion3:
    def test_slicing_invariants_hold_on_random_sets(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(3003)
        t_total = 5000.0
        for _ in range(10_000):
            n = int(rng.integers(1, 9))
            count = int(rng.integers(0, 13))
            t_ms = [float(rng.uniform(0, t_total)) for _ in range(count)]

            # every fixation gets exactly one slice in [0, n), and its
            # timestamp lies in that slice's interval
            dur = slice_equal_duration(t_ms, n, t_total).tolist()
            assert len(dur) == count
            for t, k in zip(t_ms, dur):
                assert 0 <= k < n
                lo, hi = k * t_total / n, (k + 1) * t_total / n
                assert lo <= t
                assert t < hi or (k == n - 1 and t <= t_total)

            # quota sizes, and slice order follows (t_ms, order_index)
            dist = slice_equal_distribution(t_ms, np.arange(count), n).tolist()
            assert len(dist) == count and all(0 <= k < n for k in dist)
            sizes = [dist.count(k) for k in range(n)]
            q, r = divmod(count, n)
            assert sizes == [q + 1] * r + [q] * (n - r)
            chain = sorted(zip(dist, zip(t_ms, range(count))))
            keys = [key for _, key in chain]
            assert keys == sorted(keys)

        elapsed = time.monotonic() - t0
        ok = elapsed < 5.0
        verdict(3, ok, f"10000 sets x 2 schemes, {elapsed:.1f}s")


class TestCriterion4:
    def test_recovery_lands_in_the_true_slice(self):
        rng = np.random.default_rng(21)
        total = correct = 0
        for i in range(6):
            spec = synth.drift_spec(rng, 64, 64)
            scene = synth.generate_scene(spec, seed=500 + i)
            sampled = synth.sample_observers(
                scene.mixture, observers=4, samples_per_sec=30,
                fixation_rate=3.0, seed=700 + i, image_id=f"img{i}")
            gaze_groups = group_gaze(sampled.gaze)
            fixations = sampled.fixations
            for key, rows in group_rows(zip(fixations.image_id,
                                            fixations.observer_id)).items():
                recovered = recover_timestamps(fixations.take(rows),
                                               gaze_groups[key])
                slice_of = slice_equal_duration(recovered, n=5)
                for i, k in zip(rows, slice_of):
                    total += 1
                    correct += k == fixations.slice_index[i]
        rate = correct / total
        verdict(4, rate >= 0.95,
                f"{correct}/{total} fixations in the correct 1 s slice "
                f"({100 * rate:.1f}%)")


class TestCriterion5:
    def test_drift_dataset_shows_banded_correlations(self):
        rng = np.random.default_rng(11)
        stack = []
        for i in range(50):
            spec = synth.drift_spec(rng, 64, 64, anchor=(22.0, 30.0))
            scene = synth.generate_scene(spec, seed=1000 + i)
            stack.append(scene.slice_maps)
        stack = np.array(stack)

        values, _ = analysis.inter_slice_cc(stack)
        n = len(values)
        banded = True
        margin = np.inf
        for j in range(n):
            neigh = min(values[j, k]
                        for k in (j - 1, j + 1) if 0 <= k < n)
            far = max(values[j, k]
                      for k in range(n) if abs(j - k) >= 2)
            banded = banded and neigh > far
            margin = min(margin, neigh - far)

        averages = analysis.average_slices(stack)
        scores, _ = analysis.intra_slice_deviation(stack, averages)
        s1, rest = scores[0], float(np.mean(scores[1:]))
        ok = banded and s1 > rest
        verdict(5, ok, f"50 images, min neighbor-vs-far gap {margin:.2f}, "
                f"slice-1 agreement {s1:.2f} vs mean {rest:.2f}")


@pytest.fixture(scope="module")
def overfit():
    """8 images, 300 optimizer steps per stage; shared by criteria 6/7."""
    t0 = time.monotonic()
    rng = np.random.default_rng(31)
    images, gt_slices = [], []
    for i in range(8):
        spec = synth.drift_spec(rng, 32, 32)
        scene = synth.generate_scene(spec, seed=300 + i)
        images.append(scene.image)
        gt_slices.append(scene.slice_maps)
    images = np.array(images)
    gt_slices = np.array(gt_slices)
    gt_full = gt_slices.mean(axis=1, keepdims=True)
    gt_full = gt_full / gt_full.sum(axis=(2, 3), keepdims=True)
    data = model.TrainData(images, gt_slices, gt_full)

    # constant lr: the decaying default is tuned for long runs, not
    # a 300-step overfit
    sched1 = model.TrainSchedule(stage="temporal", batch_size=4, lr0=2e-3,
                                 decay_factor=1.0, epochs=150,
                                 max_steps=300)
    params1, _ = model.train(data, sched1, seed=41)
    sched2 = model.TrainSchedule(stage="mixing", batch_size=4, lr0=2e-3,
                                 decay_factor=1.0, epochs=150,
                                 max_steps=300)
    params2, _ = model.train(data, sched2, seed=42, base_params=params1)
    elapsed = time.monotonic() - t0
    pred = model.predict(images, params2)
    return {"data": data, "params1": params1, "params2": params2,
            "pred": pred, "elapsed": elapsed}


class TestCriterion6:
    def test_overfit_harness_reaches_training_targets(self, overfit):
        data, pred = overfit["data"], overfit["pred"]
        cc_sr = [pearson(pred["S_R"][i, 0], data.gt_full[i, 0])
                 for i in range(8)]
        cc_t = [[pearson(pred["T"][i, k], data.gt_slices[i, k])
                 for i in range(8)] for k in range(5)]
        frozen = all(overfit["params1"][k].tobytes()
                     == overfit["params2"][k].tobytes()
                     for k in overfit["params1"]
                     if not k.startswith("smm."))
        elapsed = overfit["elapsed"]
        ok = (min(cc_sr) > 0.95
              and all(min(row) > 0.9 for row in cc_t)
              and frozen and elapsed < 600.0)
        verdict(6, ok, f"CC(S_R,GT) min {min(cc_sr):.3f}, per-slice CC min "
                f"{min(min(r) for r in cc_t):.3f}, frozen intact: {frozen}, "
                f"{elapsed:.0f}s")


class TestCriterion7:
    def test_mixing_beats_the_unmixed_average(self, overfit):
        data, pred = overfit["data"], overfit["pred"]
        cc_sr = np.mean([pearson(pred["S_R"][i, 0], data.gt_full[i, 0])
                         for i in range(8)])
        unmixed = (pred["T"].sum(axis=1) + pred["S_I"][:, 0]) / 6.0
        cc_avg = np.mean([pearson(unmixed[i], data.gt_full[i, 0])
                          for i in range(8)])
        verdict(7, cc_sr >= cc_avg,
                f"CC(S_R) {cc_sr:.4f} vs unmixed average {cc_avg:.4f}")


class TestCriterion8:
    @staticmethod
    def pipeline(root: Path, scene: Path) -> None:
        def run(*argv):
            code = main([str(a) for a in argv])
            assert code == 0, f"pipeline step failed: {argv}"

        run("synth", "--scene", scene, "--out", root / "data",
            "--seed", 9, "--observers", 3, "--samples-per-sec", 20,
            "--fixation-rate", 3)
        run("timestamps", "--gaze", root / "data" / "gaze.jsonl",
            "--fixations", root / "data" / "fixations.csv",
            "--out", root / "recovered.csv")
        run("slice", "--fixations", root / "recovered.csv",
            "--out", root / "sliced.csv")
        run("rasterize", "--fixations", root / "sliced.csv",
            "--images", root / "data" / "images", "--out", root / "maps")
        run("analyze", "--maps", root / "maps",
            "--fixations", root / "sliced.csv", "--out", root / "analysis")
        run("train", "--images", root / "data" / "images",
            "--maps", root / "maps", "--out", root / "stage1.tspw",
            "--stage", "temporal", "--epochs", 2, "--lr", "1e-3",
            "--seed", 7, "--loss-csv", root / "loss.csv")
        run("train", "--images", root / "data" / "images",
            "--maps", root / "maps", "--out", root / "model.tspw",
            "--stage", "mixing", "--base", root / "stage1.tspw",
            "--epochs", 2, "--lr", "1e-3", "--seed", 8)
        run("predict", "--checkpoint", root / "model.tspw",
            "--images", root / "data" / "images", "--out", root / "pred")
        run("eval", "--pred", root / "pred" / "s_r",
            "--gt", root / "maps" / "full",
            "--fixations", root / "sliced.csv",
            "--out", root / "metrics.csv")

    def test_pipeline_is_byte_deterministic(self, tmp_path):
        """Two runs of every stage write identical bytes. The promise
        holds on one host with one BLAS thread configuration: the
        thread count changes summation order, so checkpoint bytes can
        differ between OPENBLAS_NUM_THREADS=1 and 2."""
        os.environ["TSAL_CACHE_DIR"] = str(tmp_path / "cache")
        try:
            scene = tmp_path / "scene.json"
            scene.write_text(
                '{"preset": "drift", "images": 3, "width": 48,'
                ' "height": 48, "objects": 4, "slices": 5,'
                ' "center_bias_strength": 0.05, "scene_seed": 12}')
            runs = []
            for name in ("one", "two"):
                root = tmp_path / name
                root.mkdir()
                self.pipeline(root, scene)
                runs.append({p.relative_to(root).as_posix(): p.read_bytes()
                             for p in sorted(root.rglob("*"))
                             if p.is_file()})
        finally:
            os.environ.pop("TSAL_CACHE_DIR", None)
        same_names = set(runs[0]) == set(runs[1])
        diffs = [k for k in runs[0] if runs[0][k] != runs[1].get(k)]
        ok = same_names and not diffs
        verdict(8, ok, f"{len(runs[0])} artifacts byte-identical across "
                f"two runs" if ok else f"differs: {sorted(diffs)[:5]}")
