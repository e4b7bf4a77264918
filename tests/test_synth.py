"""Synthetic scenes, observer simulation, and the timing oracle loop."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from tsal import synth
from tsal.errors import ConfigError, FormatError
from tsal.gaze import (
    group_gaze,
    group_rows,
    recover_timestamps,
    slice_equal_duration,
)

from oracles import (
    centroid_oracle,
    generate_scene_loop,
    sample_observers_loop,
)


def one_blob(cx=16.0, cy=16.0, sigma=3.0, weight=1.0):
    return synth.Blob(cx, cy, sigma, weight)


class TestSceneSpecValidation:
    def test_needs_an_object(self):
        with pytest.raises(ConfigError):
            synth.SceneSpec(32, 32, ())

    def test_rejects_negative_weight(self):
        for weight in (-1.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                synth.SceneSpec(32, 32, (one_blob(weight=weight),))

    def test_rejects_nonpositive_sigma(self):
        for sigma in (0.0, np.nan, np.inf):
            with pytest.raises(ConfigError):
                synth.SceneSpec(32, 32, (one_blob(sigma=sigma),))

    def test_rejects_bad_drift_row(self):
        with pytest.raises(ConfigError):
            synth.SceneSpec(32, 32, (one_blob(),), drift=((1.0, 0.5),))
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ConfigError):
                synth.SceneSpec(32, 32, (one_blob(),), drift=((bad,),))

    def test_rejects_negative_center_bias(self):
        for bias in (-0.2, np.nan, np.inf):
            with pytest.raises(ConfigError):
                synth.SceneSpec(32, 32, (one_blob(),),
                                center_bias_strength=bias)

    def test_rejects_empty_drift(self):
        with pytest.raises(ConfigError):
            synth.SceneSpec(32, 32, (one_blob(),), drift=())

    def test_rejects_zero_attention_slice(self):
        with pytest.raises(ConfigError, match=(
                "^slice 0 has zero total attention weight$")):
            synth.SceneSpec(32, 32, (one_blob(),), drift=((0.0,), (1.0,)))
        with pytest.raises(ConfigError, match="^slice 0 "):
            synth.SceneSpec(32, 32, (one_blob(weight=0.0),))
        # the central attractor alone is attention enough
        synth.SceneSpec(32, 32, (one_blob(weight=0.0),),
                        center_bias_strength=0.05)


class TestGenerateScene:
    def test_single_static_object_gives_identical_slices(self):
        spec = synth.SceneSpec(32, 32, (one_blob(),),
                               drift=((1.0,),) * 4)
        scene = synth.generate_scene(spec, seed=1)
        first = scene.slice_maps[0]
        assert all(np.array_equal(m, first)
                   for m in scene.slice_maps[1:])

    def test_slice_maps_sum_to_one(self):
        rng = np.random.default_rng(5)
        for trial in range(10):
            spec = synth.drift_spec(rng, 48, 32, n_objects=4, n_slices=5)
            scene = synth.generate_scene(spec, seed=trial)
            assert scene.slice_maps.shape == (5, 32, 48)
            assert scene.slice_maps.dtype == np.float64
            for m in scene.slice_maps:
                assert abs(m.sum() - 1.0) <= 1e-9

    def test_left_right_drift_moves_centroid_right(self):
        objects = (synth.Blob(6.0, 16.0, 2.5, 1.0),
                   synth.Blob(26.0, 16.0, 2.5, 1.0))
        # weight shifts from the left blob to the right blob over time
        drift = tuple((1.0 - k / 4.0, k / 4.0) for k in range(5))
        spec = synth.SceneSpec(32, 32, objects, drift=drift)
        scene = synth.generate_scene(spec, seed=2)
        xs = [centroid_oracle(m)[0] for m in scene.slice_maps]
        assert all(b > a for a, b in zip(xs, xs[1:]))

    def test_center_bias_share_grows_with_slice(self):
        spec = synth.SceneSpec(
            32, 32, (one_blob(8.0, 8.0),), center_bias_strength=0.5,
            drift=((1.0,),) * 5)
        scene = synth.generate_scene(spec, seed=3)
        share = scene.mixture.weights[:, -1]
        assert scene.mixture.center_index == 1
        assert all(b > a for a, b in zip(share, share[1:]))

    def test_image_shape_range_and_blob_visibility(self):
        spec = synth.SceneSpec(40, 24, (one_blob(30.0, 12.0, 3.0),))
        scene = synth.generate_scene(spec, seed=4)
        assert scene.image.shape == (3, 24, 40)
        assert scene.image.min() >= 0.0 and scene.image.max() <= 1.0
        assert scene.image[:, 12, 30].mean() > scene.image.mean()

    def test_matches_render_per_use_loop(self):
        rng = np.random.default_rng(4)
        specs = [synth.drift_spec(rng, 128, 96) for _ in range(3)]
        specs.append(synth.drift_spec(rng, 40, 30, center_bias_strength=0.0))
        # a zero-weight object: in the image, skipped in the slice maps
        specs.append(synth.SceneSpec(
            32, 24, (one_blob(8.0, 8.0), one_blob(20.0, 12.0, weight=0.0)),
            center_bias_strength=0.3, drift=((1.0, 1.0), (0.0, 1.0))))
        for seed, spec in enumerate(specs):
            scene = synth.generate_scene(spec, seed)
            image, maps = generate_scene_loop(spec, seed)
            assert (scene.image == image).all()
            assert len(scene.slice_maps) == len(maps)
            for m, want in zip(scene.slice_maps, maps):
                assert (m == want).all()

    def test_seed_determinism(self):
        spec = synth.SceneSpec(32, 32, (one_blob(),),
                               center_bias_strength=0.1, drift=((1.0,),) * 3)
        a = synth.generate_scene(spec, seed=9)
        b = synth.generate_scene(spec, seed=9)
        c = synth.generate_scene(spec, seed=10)
        assert a.image.tobytes() == b.image.tobytes()
        assert all(np.array_equal(x, y)
                   for x, y in zip(a.slice_maps, b.slice_maps))
        assert a.image.tobytes() != c.image.tobytes()


def sample_default(scene, observers=4, sps=20, rate=3.0, seed=7, **kw):
    return synth.sample_observers(scene.mixture, observers, sps, rate,
                                  seed=seed, **kw)


class TestSampleObservers:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.spec = synth.drift_spec(rng, 32, 32, n_objects=3, n_slices=5,
                                     center_bias_strength=0.0)
        self.scene = synth.generate_scene(self.spec, seed=11)

    def test_gaze_count_contract(self):
        for observers, sps in ((1, 10), (3, 25), (5, 7)):
            out = sample_default(self.scene, observers=observers, sps=sps)
            assert len(out.gaze) == observers * 5 * sps  # 5 s viewing

    def test_fixations_ship_untimestamped_in_order(self):
        # the table holds the truth; the pipeline input (cli synth's
        # fixations.csv) is the same table without t_ms and slice_index
        out = sample_default(self.scene)
        table = out.fixations
        assert table.t_ms is not None and table.slice_index is not None
        for rows in group_rows(table.observer_id).values():
            seq = table.order_index[rows].tolist()
            assert seq == list(range(len(seq)))
            assert (np.diff(table.t_ms[rows]) > 0).all()

    def test_true_slices_follow_interval_structure(self):
        out = sample_default(self.scene, rate=2.0)
        per_slice = 2  # 2 fixations/s, 1 s slices
        table = out.fixations
        for order, k, t in zip(table.order_index, table.slice_index,
                               table.t_ms):
            assert k == (order // per_slice) % 5
            assert k * 1000.0 <= t < (k + 1) * 1000.0

    def test_no_inhibition_single_object_clusters(self):
        spec = synth.SceneSpec(64, 64, (synth.Blob(32.0, 40.0, 2.0, 1.0),))
        scene = synth.generate_scene(spec, seed=0)
        out = synth.sample_observers(scene.mixture, 8, 10, 5.0, seed=1,
                                     rho=1.0)
        xs, ys = out.fixations.x, out.fixations.y
        assert abs(xs.mean() - 32.0) < 1.0 and abs(ys.mean() - 40.0) < 1.0
        inside = (np.hypot(xs - 32.0, ys - 40.0) < 8.0).mean()
        assert inside > 0.99

    def test_strong_inhibition_forces_object_switch(self):
        # two far-apart equal blobs; with rho ~ 0 the second fixation of
        # each observer must land on the other object
        objects = (synth.Blob(8.0, 16.0, 1.0, 1.0),
                   synth.Blob(56.0, 16.0, 1.0, 1.0))
        spec = synth.SceneSpec(64, 32, objects, drift=((1.0, 1.0),))
        scene = synth.generate_scene(spec, seed=0)
        out = synth.sample_observers(scene.mixture, 20, 10, 2.0, seed=3,
                                     rho=1e-9, t_total_ms=1000.0)
        rows_of = group_rows(out.fixations.observer_id)
        for obs in range(20):
            pair = out.fixations.x[rows_of[f"o{obs:03d}"]]
            sides = [0 if x < 32.0 else 1 for x in pair]
            assert sides[0] != sides[1]

    def test_seed_determinism_byte_for_byte(self):
        a = sample_default(self.scene, seed=21)
        b = sample_default(self.scene, seed=21)
        c = sample_default(self.scene, seed=22)
        assert a.gaze == b.gaze and a.fixations == b.fixations
        assert all(getattr(a.gaze, k).tobytes() == getattr(b.gaze, k).tobytes()
                   for k in ("t_ms", "x", "y"))
        assert a.fixations.t_ms.tobytes() == b.fixations.t_ms.tobytes()
        assert a.fixations.slice_index.tolist() == \
            b.fixations.slice_index.tolist()
        assert all(x.tobytes() == y.tobytes()
                   for x, y in zip(a.slice_maps, b.slice_maps))
        assert a.gaze != c.gaze

    @pytest.mark.parametrize("observers, sps, rho, jitter", [
        (1, 10, 0.5, 1.5), (3, 30, 1.0, 0.7), (4, 60, 1e-3, 2.5),
        (2, 7, 0.9, 1.5)])
    def test_matches_scalar_draw_loop(self, observers, sps, rho, jitter):
        # whole-array jitter draws consume the generator exactly like one
        # scalar draw per sample and axis
        kw = dict(observers=observers, samples_per_sec=sps,
                  fixation_rate=3.0, seed=observers * 100 + sps,
                  image_id="img7", rho=rho, t_total_ms=5000.0,
                  jitter_px=jitter)
        mixture = synth.generate_scene(
            synth.drift_spec(np.random.default_rng(sps), 40, 30,
                             center_bias_strength=0.1), seed=3).mixture
        out = synth.sample_observers(mixture, **kw)
        gaze, fixations, true_t, true_slice = sample_observers_loop(
            mixture, **kw)
        image_id, observer_id, t, x, y = zip(*gaze)
        assert out.gaze.image_id == image_id
        assert out.gaze.observer_id == observer_id
        for column, want in ((out.gaze.t_ms, t), (out.gaze.x, x),
                             (out.gaze.y, y)):
            assert column.tobytes() == np.array(want).tobytes()
        table = out.fixations
        assert list(zip(table.image_id, table.observer_id,
                        table.order_index.tolist(), table.x.tolist(),
                        table.y.tolist())) == fixations
        assert table.t_ms.tolist() == true_t
        assert table.slice_index.tolist() == true_slice

    def test_recovery_restores_true_slices(self):
        # the held-back timestamps are the oracle for the whole
        # recover-then-slice path
        out = sample_default(self.scene, observers=6, sps=30, rate=3.0,
                             seed=13)
        by_obs_gaze = group_gaze(out.gaze)
        table = replace(out.fixations, t_ms=None, slice_index=None)
        recovered = np.empty(len(table))
        for key, rows in group_rows(zip(table.image_id,
                                        table.observer_id)).items():
            recovered[rows] = recover_timestamps(table.take(rows),
                                                 by_obs_gaze[key])
        slice_of = slice_equal_duration(recovered, n=5)
        hit = sum(slice_of == out.fixations.slice_index)
        assert hit / len(recovered) >= 0.95

    def test_slice_maps_cover_every_slice(self):
        out = sample_default(self.scene)
        assert out.slice_maps.shape == (5,) + out.full_map.shape
        for m in out.slice_maps:
            assert m.sum() > 0.0
        assert out.full_map.sum() >= max(
            m.sum() for m in out.slice_maps)

    def test_count_preconditions(self):
        with pytest.raises(ConfigError):
            synth.sample_observers(self.scene.mixture, 0, 10, 3.0, seed=0)
        with pytest.raises(ConfigError):
            synth.sample_observers(self.scene.mixture, 2, 10, 0.0, seed=0)
        with pytest.raises(ConfigError):
            sample_default(self.scene, rho=0.0)
        with pytest.raises(ConfigError):
            synth.sample_observers(self.scene.mixture, 2, 10, 3.0, seed=0,
                                   jitter_px=-1.0)


class TestDriftSpec:
    def test_anchor_pins_first_object(self):
        rng = np.random.default_rng(31)
        a = synth.drift_spec(rng, 64, 64, anchor=(20.0, 24.0))
        b = synth.drift_spec(rng, 64, 64, anchor=(20.0, 24.0))
        assert (a.objects[0].cx, a.objects[0].cy) == (20.0, 24.0)
        assert (b.objects[0].cx, b.objects[0].cy) == (20.0, 24.0)
        assert (a.objects[1].cx, a.objects[1].cy) != \
               (b.objects[1].cx, b.objects[1].cy)

    def test_attention_bump_sweeps_forward(self):
        rng = np.random.default_rng(32)
        spec = synth.drift_spec(rng, 64, 64, n_objects=5, n_slices=5)
        due = [int(np.argmax(row)) for row in spec.drift]
        assert due == [0, 1, 2, 3, 4]

    def test_neighbor_slices_share_attention(self):
        rng = np.random.default_rng(33)
        spec = synth.drift_spec(rng, 64, 64, n_objects=5, n_slices=5)
        w = np.array(spec.drift)
        w = w / w.sum(axis=1, keepdims=True)
        overlap = [(w[k] * w[k + 1]).sum() for k in range(4)]
        far = [(w[k] * w[k + 3]).sum() for k in range(2)]
        assert min(overlap) > max(far)


class TestSceneJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(41)
        spec = synth.drift_spec(rng, 48, 32, n_objects=3, n_slices=4)
        again = synth.scene_from_dict(synth.scene_to_dict(spec))
        assert again == spec

    def test_bad_dict_is_a_format_error(self):
        with pytest.raises(FormatError):
            synth.scene_from_dict({"width": 32})
        with pytest.raises(FormatError):
            synth.scene_from_dict({"width": 32, "height": 32,
                                   "objects": [{"cx": 1.0}], "drift": [[1.0]]})

    def test_invalid_values_stay_config_errors(self):
        d = synth.scene_to_dict(synth.SceneSpec(32, 32, (one_blob(),)))
        d["objects"][0]["weight"] = -3.0
        with pytest.raises(ConfigError):
            synth.scene_from_dict(d)

    def test_read_scene_file(self, tmp_path):
        path = tmp_path / "scene.json"
        spec = synth.drift_spec(np.random.default_rng(3), 48, 32)
        path.write_text(json.dumps({"scenes": [synth.scene_to_dict(spec)]}))
        assert synth.read_scenes(path) == [spec]
        path.write_text('{"preset": "drift", "images": 2, "scene_seed": 4}')
        rng = np.random.default_rng(4)
        assert synth.read_scenes(path) == [synth.drift_spec(rng, 64, 64)
                                           for _ in range(2)]
        for text in ("[1, 2]", "{broken"):
            path.write_text(text)
            with pytest.raises(FormatError,
                               match=f"^{re.escape(str(path))}: "):
                synth.read_scenes(path)
        with pytest.raises(FormatError):
            synth.read_scenes(tmp_path / "missing.json")
