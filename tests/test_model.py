"""Network architecture, losses, gradients, and the two-stage trainer."""

import csv
import tracemalloc
import weakref

import numpy as np
import pytest

from tsal import autodiff as ad
from tsal import cli, metrics, model
from tsal.cli import main
from tsal.errors import (
    CheckpointError,
    ConfigError,
    DegenerateMapError,
    NonFiniteError,
    PreconditionError,
    ShapeMismatchError,
)
from tsal.gaze import write_map_tsal

from oracles import (
    adam_step_functional,
    central_diff_grads,
    div,
    minmax01_composite,
    rel_err,
    temporal_step_one_tape,
)

# small enough for finite differences, still exercises every wire
TINY = model.ModelConfig(
    in_channels=2, enc_channels=(2, 3, 3, 4, 4), dec_channels=(3, 3, 3, 3),
    head_hidden=3, smm_channels=(3, 3, 3, 3), n_slices=2)


def gaussian_maps(rng, count, h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    maps = []
    for _ in range(count):
        cy, cx = rng.uniform(2, h - 2), rng.uniform(2, w - 2)
        m = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * 9.0))
        maps.append(m / m.sum())
    return np.array(maps)


def toy_data(rng, n, cfg, h, w):
    images = rng.uniform(0.0, 1.0, size=(n, cfg.in_channels, h, w))
    gt_slices = np.stack([gaussian_maps(rng, cfg.n_slices, h, w)
                          for _ in range(n)])
    gt_full = gt_slices.mean(axis=1, keepdims=True)
    gt_full = gt_full / gt_full.sum(axis=(2, 3), keepdims=True)
    return model.TrainData(images, gt_slices, gt_full)


def lift_all(tape, params):
    return {k: tape.constant(v) for k, v in params.items()}


class TestConfigValidation:
    def test_encoder_needs_five_blocks(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(enc_channels=(8, 16, 24))

    def test_trunks_need_four_convs(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(dec_channels=(32, 24, 16))
        with pytest.raises(ConfigError):
            model.ModelConfig(smm_channels=(32, 24, 16, 16, 8))

    def test_positive_counts(self):
        with pytest.raises(ConfigError):
            model.ModelConfig(n_slices=0)

    def test_loss_weights_nonnegative(self):
        with pytest.raises(ConfigError):
            model.LossConfig(lambda1=-0.1)

    def test_each_stage_needs_a_live_term(self):
        with pytest.raises(ConfigError):
            model.LossConfig(lambda1=0.0, beta1=0.0)
        with pytest.raises(ConfigError):
            model.LossConfig(lambda2=0.0, beta2=0.0)

    def test_schedule_stage_name(self):
        with pytest.raises(ConfigError):
            model.TrainSchedule(stage="finetune")

    @pytest.mark.parametrize("max_steps", [0, -3])
    def test_schedule_needs_at_least_one_step(self, max_steps):
        with pytest.raises(ConfigError, match="max steps must be >= 1"):
            model.TrainSchedule(stage="temporal", max_steps=max_steps)
        assert model.TrainSchedule(stage="temporal", max_steps=1).max_steps == 1

    def test_lr_decays_every_two_epochs(self):
        sched = model.TrainSchedule(stage="temporal")
        assert sched.lr_at(0) == pytest.approx(1e-4)
        assert sched.lr_at(1) == pytest.approx(1e-4)
        assert sched.lr_at(2) == pytest.approx(1e-5)
        assert sched.lr_at(4) == pytest.approx(1e-6)


class TestInitParams:
    def test_biases_zero_and_weights_bounded(self):
        params = model.init_params(model.ModelConfig(), seed=5)
        for name, out_ch, in_ch in model._conv_shapes(model.ModelConfig()):
            w, b = params[name + ".w"], params[name + ".b"]
            assert w.shape == (out_ch, in_ch, 3, 3)
            assert np.all(b == 0.0)
            bound = np.sqrt(6.0 / (in_ch * 9))
            assert np.abs(w).max() <= bound
            assert np.abs(w).max() > 0.5 * bound  # actually fills the range

    def test_seed_determinism(self):
        a = model.init_params(TINY, seed=9)
        b = model.init_params(TINY, seed=9)
        c = model.init_params(TINY, seed=10)
        assert all(np.array_equal(a[k], b[k]) for k in a)
        assert any(not np.array_equal(a[k], c[k]) for k in a)

    def test_infer_config_roundtrip(self):
        for cfg in (model.ModelConfig(), TINY):
            params = model.init_params(cfg, seed=1)
            assert model.infer_config(params) == cfg

    def test_check_params_catches_missing_and_misshapen(self):
        params = model.init_params(TINY, seed=2)
        broken = dict(params)
        del broken["smm.head.w"]
        with pytest.raises(CheckpointError):
            model.check_params(broken, TINY)
        broken = dict(params)
        broken["enc.c1.w"] = np.zeros((7, 7, 3, 3))
        with pytest.raises(CheckpointError):
            model.check_params(broken, TINY)


class TestEncoder:
    def test_block_shape_ladder(self):
        params = model.init_params(model.ModelConfig(), seed=0)
        tape = ad.Tape()
        x = tape.constant(np.zeros((2, 3, 64, 64)))
        blocks = model.encode(x, lift_all(tape, params))
        got = [b.shape[1:] for b in blocks]
        assert got == [(8, 64, 64), (16, 32, 32), (24, 16, 16),
                       (32, 8, 8), (40, 4, 4)]

    def test_non_square_input(self):
        params = model.init_params(model.ModelConfig(), seed=0)
        tape = ad.Tape()
        x = tape.constant(np.zeros((1, 3, 48, 32)))
        blocks = model.encode(x, lift_all(tape, params))
        assert blocks[-1].shape == (1, 40, 3, 2)

    def test_rejects_indivisible_dims(self):
        params = model.init_params(model.ModelConfig(), seed=0)
        for h, w in ((60, 64), (64, 60), (8, 8)):
            tape = ad.Tape()
            x = tape.constant(np.zeros((1, 3, h, w)))
            with pytest.raises(ShapeMismatchError):
                model.encode(x, lift_all(tape, params))

    def test_zero_weights_give_zero_blocks(self):
        params = {k: np.zeros_like(v)
                  for k, v in model.init_params(TINY, seed=0).items()}
        tape = ad.Tape()
        x = tape.constant(np.ones((1, 2, 16, 16)))
        blocks = model.encode(x, lift_all(tape, params))
        assert all(np.all(b.data == 0.0) for b in blocks)


class TestDecoders:
    def setup_method(self):
        self.rng = np.random.default_rng(21)
        self.params = model.init_params(model.ModelConfig(), seed=21)
        self.x = self.rng.uniform(0, 1, size=(2, 3, 64, 64))

    def run_forward(self, params):
        tape = ad.Tape()
        lifted = lift_all(tape, params)
        blocks = model.encode(tape.constant(self.x), lifted)
        return blocks, lifted

    def test_output_shapes_and_range(self):
        blocks, lifted = self.run_forward(self.params)
        t = model.decode_temporal(blocks, lifted)
        s = model.decode_image(blocks, lifted)
        assert t.shape == (2, 5, 64, 64)
        assert s.shape == (2, 1, 64, 64)
        for arr in (t.data, s.data):
            assert np.all((arr > 0.0) & (arr < 1.0))  # sigmoid is open

    def test_zero_head_means_half_everywhere(self):
        params = dict(self.params)
        params["tdec.h2.w"] = np.zeros_like(params["tdec.h2.w"])
        params["tdec.h2.b"] = np.zeros_like(params["tdec.h2.b"])
        blocks, lifted = self.run_forward(params)
        t = model.decode_temporal(blocks, lifted)
        assert np.all(t.data == 0.5)

    def test_trunks_share_structure(self):
        # copying temporal trunk weights into the image decoder must
        # reproduce the temporal trunk's activations exactly
        params = dict(self.params)
        for k in (4, 3, 2, 1):
            params[f"idec.d{k}.w"] = params[f"tdec.d{k}.w"]
            params[f"idec.d{k}.b"] = params[f"tdec.d{k}.b"]
        blocks, lifted = self.run_forward(params)
        a = model.decode_trunk(blocks, lifted, "tdec")
        b = model.decode_trunk(blocks, lifted, "idec")
        assert a.shape == b.shape == (2, 20, 64, 64)
        for p, q in zip(a.parts, b.parts, strict=True):
            assert np.array_equal(p.data, q.data)


class TestMixing:
    def setup_method(self):
        self.rng = np.random.default_rng(33)
        self.params = model.init_params(model.ModelConfig(), seed=33)
        self.x = self.rng.uniform(0, 1, size=(2, 3, 64, 64))

    def test_refined_shape_and_range(self):
        pred = model.predict(self.x, self.params)
        assert pred["S_R"].shape == (2, 1, 64, 64)
        for i in range(2):
            assert pred["S_R"][i].min() == 0.0
            assert pred["S_R"][i].max() == 1.0

    def test_zero_mixing_weights_reduce_to_simple_average(self):
        params = {k: (np.zeros_like(v) if k.startswith("smm.") else v)
                  for k, v in self.params.items()}
        pred = model.predict(self.x, params)
        base = pred["S_I"] + pred["T"].mean(axis=1, keepdims=True)
        lo = base.min(axis=(1, 2, 3), keepdims=True)
        hi = base.max(axis=(1, 2, 3), keepdims=True)
        expect = np.clip((base - lo) / (hi - lo), 0.0, 1.0)
        assert np.array_equal(pred["S_R"], expect)

    def test_minmax_rejects_constant(self):
        tape = ad.Tape()
        with pytest.raises(DegenerateMapError):
            model.minmax01(tape.constant(np.full((1, 1, 4, 4), 0.3)))

    def test_minmax_hits_both_ends_per_sample(self):
        # extreme ranges too: huge, subnormal, and narrow far from zero;
        # the rescale needs no clamp to stay in [0, 1]
        scale = np.array([1.0, 1e300, 1e-310, 1e-3])[:, None, None, None]
        shift = np.array([0.0, -1e300, 0.0, 1e12])[:, None, None, None]
        tape = ad.Tape()
        x = tape.constant(self.rng.normal(size=(4, 1, 8, 8)) * scale + shift)
        out = model.minmax01(x).data
        for i in range(4):
            assert out[i].min() == 0.0 and out[i].max() == 1.0

    @pytest.mark.parametrize("case", ["random", "tied", "extreme"])
    @pytest.mark.parametrize("reused", [False, True],
                             ids=["once", "read_again"])
    def test_minmax_single_node_matches_composite_oracle(self, case, reused):
        # value and gradient bit for bit: tied minima and maxima send
        # the gradient to the first of each, the extreme ranges are those
        # of test_minmax_hits_both_ends_per_sample, some weights are -0.0,
        # and with read_again x also feeds the loss directly
        if case == "random":
            x0 = self.rng.normal(size=(2, 3, 4, 5))
        elif case == "tied":
            x0 = self.rng.integers(0, 3, size=(3, 2, 5, 6)).astype(float)
        else:
            scale = np.array([1.0, 1e300, 1e-310, 1e-3])[:, None, None, None]
            shift = np.array([0.0, -1e300, 0.0, 1e12])[:, None, None, None]
            x0 = self.rng.normal(size=(4, 1, 8, 8)) * scale + shift
        w = self.rng.normal(size=x0.shape)
        w.flat[::7] = -0.0
        results = []
        for rescale in (model.minmax01, minmax01_composite):
            tape = ad.Tape()
            x = tape.param(x0, "x")
            before = len(tape.nodes)
            out = rescale(x)
            nodes = len(tape.nodes) - before
            loss = ad.reduce_sum(ad.mul(out, tape.constant(w)))
            if reused:
                loss = ad.add(loss, ad.reduce_sum(ad.mul(x, tape.constant(w))))
            # the 1e300 sample's span squares to inf and the 1e-310
            # one's to 0, so both gradients hold inf and NaN
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                grad = ad.backward(tape, loss)[x.node_id]
            results.append((nodes, out.data.tobytes(), grad.tobytes()))
        (nodes, *got), (_, *want) = results
        assert nodes == 1
        assert got == want

    def test_minmax_gradient_matches_finite_differences(self):
        x0 = self.rng.normal(size=(2, 2, 3, 4))
        w = self.rng.normal(size=x0.shape)

        def loss(tape, x):
            return ad.reduce_sum(ad.mul(model.minmax01(x), tape.constant(w)))

        def f(params):
            tape = ad.Tape()
            return float(loss(tape, tape.constant(params["x"])).data)

        tape = ad.Tape()
        x = tape.param(x0, "x")
        analytic = ad.backward(tape, loss(tape, x))[x.node_id]
        numeric = central_diff_grads(f, {"x": x0})["x"]
        assert rel_err(analytic, numeric).max() < 1e-6


class TestLosses:
    def setup_method(self):
        self.rng = np.random.default_rng(44)
        self.gt = np.stack([gaussian_maps(self.rng, 3, 12, 12)
                            for _ in range(2)])

    def test_perfect_prediction_scores_minus_lambda(self):
        tape = ad.Tape()
        pred = tape.constant(self.gt)
        loss = model.stage1_loss(pred, tape.constant(self.gt),
                                 model.LossConfig(lambda1=2.0, beta1=1.0))
        # KL of a map against itself is ~0, CC is exactly 1
        assert loss.data == pytest.approx(-2.0, abs=1e-4)

    def test_stage2_matches_single_channel_stage1(self):
        tape = ad.Tape()
        pred = tape.constant(self.rng.uniform(0.1, 1.0, size=(2, 1, 12, 12)))
        gt = tape.constant(self.gt[:, :1])
        cfg = model.LossConfig()
        a = model.stage1_loss(pred, gt, cfg)
        b = model.stage2_loss(pred, gt, cfg)
        assert a.data == pytest.approx(b.data, rel=1e-12)

    def test_constant_gt_channel_skipped_with_warning(self):
        gt = self.gt.copy()
        gt[0, 1] = 1.0 / gt[0, 1].size  # flat slice carries no signal
        tape = ad.Tape()
        pred = tape.constant(self.rng.uniform(0.1, 1.0, size=gt.shape))
        with pytest.warns(UserWarning, match="constant ground truth"):
            loss = model.stage1_loss(pred, tape.constant(gt),
                                     model.LossConfig())
        assert np.isfinite(loss.data)

    def test_all_constant_gt_raises(self):
        gt = np.full((1, 2, 8, 8), 1.0 / 64)
        tape = ad.Tape()
        pred = tape.constant(self.rng.uniform(0.1, 1.0, size=gt.shape))
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateMapError):
                model.stage1_loss(pred, tape.constant(gt), model.LossConfig())
        with pytest.warns(UserWarning):
            with pytest.raises(DegenerateMapError):
                model.stage2_loss(pred, tape.constant(gt), model.LossConfig())

    @pytest.mark.parametrize("stage", [1, 2])
    def test_matches_per_map_loop_reference(self, stage):
        # reference: one 2-D KL and CC node per usable map, averaged over
        # each image's usable maps, then over the images that have one;
        # stage 1 has a constant slice, stage 2 a constant image
        cfg = model.LossConfig(lambda1=0.7, beta1=1.3, lambda2=0.4, beta2=2.0)
        if stage == 1:
            gt = self.gt.copy()
            gt[1, 2] = 1.0 / gt[1, 2].size
            loss_fn, lam, beta = model.stage1_loss, cfg.lambda1, cfg.beta1
        else:
            gt = gaussian_maps(self.rng, 4, 12, 12)[:, None]
            gt[2, 0] = 0.0
            loss_fn, lam, beta = model.stage2_loss, cfg.lambda2, cfg.beta2
        pred = self.rng.uniform(0.1, 1.0, size=gt.shape)

        tape = ad.Tape()
        p = tape.param(pred, "p")
        with pytest.warns(UserWarning, match="constant ground truth"):
            loss = loss_fn(p, tape.constant(gt), cfg)
        grad = ad.backward(tape, loss)[p.node_id]

        ref = ad.Tape()

        def mean(nodes):  # left-to-right sum, then one division
            total = nodes[0]
            for node in nodes[1:]:
                total = ad.add(total, node)
            return div(total, ref.constant(len(nodes)))

        maps = {ic: ref.param(pred[ic], f"m{ic}")
                for ic in np.ndindex(gt.shape[:2])}
        per_image = []
        for i in range(gt.shape[0]):
            terms = []
            for c in range(gt.shape[1]):
                if gt[i, c].max() == gt[i, c].min():
                    continue
                g = ref.constant(gt[i, c])
                terms.append(ad.sub(
                    ad.mul(ref.constant(beta),
                           metrics.kl_loss_node(maps[i, c], g)),
                    ad.mul(ref.constant(lam),
                           metrics.cc_loss_node(maps[i, c], g))))
            if terms:
                per_image.append(mean(terms))
        ref_loss = mean(per_image)
        ref_grads = ad.backward(ref, ref_loss)

        assert float(loss.data) == pytest.approx(float(ref_loss.data),
                                                 rel=1e-12)
        scale = np.abs(grad).max()
        for ic, m in maps.items():
            want = ref_grads.get(m.node_id, np.zeros_like(pred[ic]))
            assert np.abs(grad[ic] - want).max() <= 1e-12 * scale, ic

    def test_shape_mismatch_rejected(self):
        tape = ad.Tape()
        pred = tape.constant(np.ones((1, 2, 8, 8)))
        gt = tape.constant(self.gt)
        with pytest.raises(ShapeMismatchError):
            model.stage1_loss(pred, gt, model.LossConfig())


def kink_margins(params, data):
    """Smallest |ReLU preactivation| and smallest top-2 spacing of the
    rescale inputs over a full forward pass. Central differences are
    only a trustworthy oracle when both clear the bump radius, so the
    gradient checks assert these before comparing anything."""
    relu_margin = [np.inf]
    orig_conv = ad.conv2d

    def conv_spy(x, kernel, bias, stride=1, relu=False):
        if relu:
            pre = orig_conv(x, kernel, bias, stride=stride)
            relu_margin[0] = min(relu_margin[0], np.abs(pre.data).min())
        return orig_conv(x, kernel, bias, stride=stride, relu=relu)

    gap = [np.inf]
    orig_mm = model.minmax01

    def mm_spy(t):
        for i in range(t.shape[0]):
            v = np.sort(t.data[i].ravel())
            gap[0] = min(gap[0], v[1] - v[0], v[-1] - v[-2])
        return orig_mm(t)

    ad.conv2d, model.minmax01 = conv_spy, mm_spy
    try:
        tape = ad.Tape()
        lifted = {k: tape.constant(v) for k, v in params.items()}
        blocks, t, s_i = model.forward(tape, data.images, lifted)
        model.smm(blocks, t, s_i, lifted)
    finally:
        ad.conv2d, model.minmax01 = orig_conv, orig_mm
    return relu_margin[0], gap[0]


def total_loss_value(params, data, loss_cfg, stage):
    """Rebuild the graph from plain arrays; used as the FD target."""
    tape = ad.Tape()
    lifted = {k: tape.constant(v) for k, v in params.items()}
    blocks, t, s_i = model.forward(tape, data.images, lifted)
    if stage == "temporal":
        loss = ad.add(
            model.stage1_loss(t, tape.constant(data.gt_slices), loss_cfg),
            model.stage2_loss(s_i, tape.constant(data.gt_full), loss_cfg))
    else:
        s_r = model.smm(blocks, t, s_i, lifted)
        loss = model.stage2_loss(s_r, tape.constant(data.gt_full), loss_cfg)
    return float(loss.data)


def analytic_param_grads(params, data, loss_cfg, stage, wanted):
    tape = ad.Tape()
    lifted = {k: (tape.param(v, k) if k in wanted else tape.constant(v))
              for k, v in params.items()}
    blocks, t, s_i = model.forward(tape, data.images, lifted)
    if stage == "temporal":
        loss = ad.add(
            model.stage1_loss(t, tape.constant(data.gt_slices), loss_cfg),
            model.stage2_loss(s_i, tape.constant(data.gt_full), loss_cfg))
    else:
        s_r = model.smm(blocks, t, s_i, lifted)
        loss = model.stage2_loss(s_r, tape.constant(data.gt_full), loss_cfg)
    grads = ad.backward(tape, loss)
    return {name: grads.get(lifted[name].node_id, np.zeros_like(params[name]))
            for name in wanted}


class TestGradients:
    """Spot-check one tensor per region against central differences; the
    acceptance suite sweeps every parameter."""

    def setup_method(self):
        # seed chosen so no preactivation sits inside the h=1e-5 bump
        # zone; the margin assert below keeps that choice honest
        rng = np.random.default_rng(57)
        self.params = model.init_params(TINY, seed=57)
        self.data = toy_data(rng, 2, TINY, 16, 16)
        self.cfg = model.LossConfig(lambda1=0.7, beta1=1.3,
                                    lambda2=1.1, beta2=0.9)
        relu_margin, mm_gap = kink_margins(self.params, self.data)
        assert relu_margin > 2e-4 and mm_gap > 2e-4, \
            "seed lands on a derivative kink, pick another"

    def check(self, stage, names):
        got = analytic_param_grads(self.params, self.data, self.cfg,
                                   stage, names)
        for name in names:
            fd = central_diff_grads(
                lambda sub: total_loss_value({**self.params, **sub},
                                             self.data, self.cfg, stage),
                {name: self.params[name]})[name]
            worst = rel_err(got[name], fd, floor=1e-4).max()
            assert worst < 1e-4, f"{stage}/{name}: rel err {worst}"

    def test_stage1_reaches_encoder_and_both_heads(self):
        self.check("temporal", ["enc.c1.w", "tdec.h2.w", "idec.h1.b"])

    def test_stage2_reaches_mixing_parameters(self):
        self.check("mixing", ["smm.head.w", "smm.s1.b"])


class TestTemporalStep:
    """The temporal step holds one decoder tape at a time; the one-tape
    step of ``oracles`` is its reference, bit for bit."""

    @pytest.mark.parametrize("config, n, size", [
        (TINY, 2, 16), (model.ModelConfig(), 4, 64)], ids=["tiny", "readme"])
    def test_matches_one_tape_oracle(self, config, n, size):
        rng = np.random.default_rng(70)
        data = toy_data(rng, n + 1, config, size, size)
        trainable, _ = model._split_params(model.init_params(config, 71))
        cfg = model.LossConfig(lambda1=0.7, beta1=1.3, lambda2=1.1,
                               beta2=0.9)
        idx = rng.permutation(n + 1)[:n]
        want_loss, want = temporal_step_one_tape(data, idx, trainable, cfg)
        loss, got = model._train_step(data, idx, trainable, None,
                                      "temporal", cfg)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert list(got) == list(want) == list(trainable)
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    def test_image_decoder_built_after_temporal_backward(self, monkeypatch):
        events = []
        real_backward = ad.backward
        real_decoders = model.decode_temporal, model.decode_image

        def spy(name, fn):
            def wrapped(*args):
                tape = args[0] if name == "backward" else args[0][0].tape
                events.append((name, tape))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(ad, "backward", spy("backward", real_backward))
        for name, fn in zip(("decode_temporal", "decode_image"),
                            real_decoders):
            monkeypatch.setattr(model, name, spy(name, fn))
        rng = np.random.default_rng(72)
        data = toy_data(rng, 2, TINY, 16, 16)
        trainable, _ = model._split_params(model.init_params(TINY, 73))
        model._train_step(data, np.arange(2), trainable, None, "temporal",
                          model.LossConfig())
        names = [e[0] for e in events]
        assert names == ["decode_temporal", "backward", "decode_image",
                         "backward", "backward"]
        temporal, image, encoder = events[0][1], events[2][1], events[4][1]
        assert events[1][1] is temporal and events[3][1] is image
        assert len({id(temporal), id(image), id(encoder)}) == 3


class TestStepMemory:
    """The traced peak of one training step at the readme shapes: 6
    images of 64x64, batch 4, the default model. The third step is
    measured, a full batch once every cache is warm."""

    @staticmethod
    def step_peak(monkeypatch, stage):
        """(memory live before the step, the step's peak, and per conv of
        the step in recording order: its name, the bytes of the input
        arrays it reads that the step made and no earlier conv read, the
        bytes of its live input, and its output bytes). A conv reads the
        parts of a ``concat_channels`` stack, or its input alone; an
        array counts as made by the step if it owns its memory (the rows
        of the training arrays are views)."""
        rng = np.random.default_rng(85)
        config = model.ModelConfig()
        data = toy_data(rng, 6, config, 64, 64)
        base = model.init_params(config, seed=86)
        real_step, real_conv = model._train_step, model._conv
        real_concat = ad.concat_channels
        convs, steps, stacks, seen = [], [], {}, []

        def reads(tensors):  # no reference kept: weak ones only
            sizes = []
            for t in tensors:
                a = t.data
                new = a.base is None and not any(r() is a for r in seen)
                seen.append(weakref.ref(a))
                sizes.append((a.nbytes if new else 0,
                              a.nbytes if t.live else 0))
            return sizes

        def concat(tensors):
            out = real_concat(tensors)
            stacks[id(out)] = reads(tensors)
            return out

        def conv(x, pt, name, stride=1, **kwargs):
            sizes = stacks.pop(id(x), None) or reads([x])
            out = real_conv(x, pt, name, stride, **kwargs)
            convs.append((name, sum(n for n, _ in sizes),
                          sum(n for _, n in sizes), out.data.nbytes))
            return out

        def step(*args):
            convs.clear()
            seen.clear()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = real_step(*args)
            steps.append((before, tracemalloc.get_traced_memory()[1],
                          list(convs)))
            return result

        monkeypatch.setattr(ad, "concat_channels", concat)
        monkeypatch.setattr(model, "_conv", conv)
        monkeypatch.setattr(model, "_train_step", step)
        sched = model.TrainSchedule(stage=stage, batch_size=4, max_steps=3)
        tracemalloc.start()
        try:
            model.train(data, sched, seed=87,
                        **({"base_params": base} if stage == "mixing"
                           else {"config": config}))
        finally:
            tracemalloc.stop()
        return steps[2]

    @staticmethod
    def pullback_bound(convs):
        """The most one tape's memory can reach while a conv's pullback
        runs. ``backward`` runs the last conv's first, so when conv c's
        runs, c and every conv recorded before it still hold the arrays
        they read and their bool ReLU masks; beside those, c's output
        gradient and a second array as large as the larger of it (the
        masked gradient) and c's live input gradient."""
        held = masks = bound = 0
        for _, made, live, out in convs:
            held += made
            masks += out / 8
            bound = max(bound, held + masks + out + max(out, live))
        return bound

    @pytest.mark.parametrize("stage", ["temporal", "mixing"])
    def test_step_peak_stays_within_its_budget(self, monkeypatch, stage):
        # What a step may hold at once, beside what was live before it:
        # the widest moment of a pullback_bound (the encoder's tape with
        # one decoder's at a time; in the image decoder's, also the
        # temporal decoder's gradients of the five blocks; or the mixing
        # module's), the loss's prediction maps and one band of row taps
        # (1 MiB). A stack's parts count, each array once, as the convs
        # read them in place. A copying concat node per stack (as
        # tests/oracles.py has it) exceeds this by 0.34 MiB in a temporal
        # step and 0.56 MiB in a mixing one.
        before, peak, convs = self.step_peak(monkeypatch, stage)
        if stage == "temporal":
            enc = [c for c in convs if c[0].startswith("enc.")]
            blocks = sum(out for *_, out in enc)
            widest = max(
                self.pullback_bound(enc + [c for c in convs
                                           if c[0].startswith("tdec.")]),
                self.pullback_bound(enc + [c for c in convs
                                           if c[0].startswith("idec.")])
                + blocks)
        else:  # the frozen forward, before the steps, ran the other layers
            assert {c[0].split(".")[0] for c in convs} == {"smm"}
            widest = self.pullback_bound(convs)
        maps = 4 * (5 if stage == "temporal" else 1) * 64 * 64 * 8
        budget = widest + maps + 2 ** 20
        assert peak - before < budget, (peak - before, budget)

    @pytest.mark.parametrize("stage, nodes", [("temporal", 121),
                                              ("mixing", 51)])
    def test_a_step_records_no_concat_node(self, monkeypatch, stage, nodes):
        # the nodes of every tape one step differentiates: the stacks
        # record none, so a temporal step has 8 fewer than with a
        # copying concat node per stack, and a mixing step 4 fewer
        tapes = []
        real_backward = ad.backward

        def backward(tape, loss):
            tapes.append([node.op for node in tape.nodes])
            return real_backward(tape, loss)
        monkeypatch.setattr(ad, "backward", backward)
        rng = np.random.default_rng(88)
        data = toy_data(rng, 4, model.ModelConfig(), 64, 64)
        sched = model.TrainSchedule(stage=stage, batch_size=4, max_steps=1)
        base = model.init_params(model.ModelConfig(), seed=89)
        model.train(data, sched, seed=90,
                    **({"base_params": base} if stage == "mixing" else {}))
        ops = [op for tape in tapes for op in tape]
        assert len(ops) == nodes
        assert "concat" not in ops and ops.count("conv2d") == (
            17 if stage == "temporal" else 5)


class TestTraining:
    def setup_method(self):
        self.rng = np.random.default_rng(66)
        self.cfg = model.ModelConfig(
            enc_channels=(4, 6, 8, 10, 12), dec_channels=(8, 8, 6, 6),
            head_hidden=6, smm_channels=(8, 6, 6, 6), n_slices=3)
        self.data = toy_data(self.rng, 4, self.cfg, 32, 32)

    def test_temporal_stage_loss_decreases(self):
        sched = model.TrainSchedule(stage="temporal", batch_size=2,
                                    lr0=1e-3, epochs=4)
        _, trace = model.train(self.data, sched, seed=1, config=self.cfg)
        assert len(trace) == 4
        assert trace[-1][2] < trace[0][2]

    def test_mixing_requires_base_checkpoint(self):
        sched = model.TrainSchedule(stage="mixing", batch_size=2, epochs=1)
        with pytest.raises(PreconditionError):
            model.train(self.data, sched, seed=1, config=self.cfg)

    def test_mixing_freezes_backbone_exactly(self):
        s1 = model.TrainSchedule(stage="temporal", batch_size=2,
                                 lr0=1e-3, epochs=1)
        p1, _ = model.train(self.data, s1, seed=2, config=self.cfg)
        s2 = model.TrainSchedule(stage="mixing", batch_size=2,
                                 lr0=1e-3, epochs=2)
        p2, trace = model.train(self.data, s2, seed=3, base_params=p1)
        for k in p1:
            if k.startswith("smm."):
                continue
            assert p1[k].tobytes() == p2[k].tobytes()
        assert any(not np.array_equal(p1[k], p2[k])
                   for k in p1 if k.startswith("smm."))
        assert all(row[1] == "mixing" for row in trace)

    def test_frozen_gradients_never_computed(self):
        # the frozen forward pass records a forward-only tape: no node
        # keeps a pullback; any that did must not run during the
        # mixing-stage backward
        p1 = model.init_params(self.cfg, seed=4)
        touched = []
        kept = []
        orig_forward = model.forward

        def spying_forward(tape, images, pt):
            out = orig_forward(tape, images, pt)
            kept.extend(node.op for node in tape.nodes
                        if node.pullback is not None)
            for nid, node in enumerate(tape.nodes):
                if node.pullback is not None:
                    node.pullback = self._flag(node.pullback, nid, touched)
            return out

        model.forward = spying_forward
        try:
            sched = model.TrainSchedule(stage="mixing", batch_size=4,
                                        epochs=1, max_steps=1)
            model.train(self.data, sched, seed=5, base_params=p1)
        finally:
            model.forward = orig_forward
        assert kept == []
        assert touched == []

    def test_image_input_gradient_never_built(self, monkeypatch):
        # the image enters enc.c1 as a constant, so that conv's pullback
        # builds the kernel gradient (one set of row taps per image) and
        # no input gradient (which would be a second set per image)
        pullback_taps, returned = [], []
        real_row_taps, real_conv = ad._row_taps, model._conv

        def counting_row_taps(*args):
            if pullback_taps:
                pullback_taps[-1] += 1
            return real_row_taps(*args)

        def spying_conv(x, pt, name, stride=1, **kwargs):
            out = real_conv(x, pt, name, stride, **kwargs)
            if name == "enc.c1":
                node = out.tape.nodes[out.node_id]
                inner = node.pullback

                def pullback(g):
                    pullback_taps.append(0)
                    grads = inner(g)
                    returned.append(grads)
                    return grads
                node.pullback = pullback
            return out

        monkeypatch.setattr(ad, "_row_taps", counting_row_taps)
        monkeypatch.setattr(model, "_conv", spying_conv)
        sched = model.TrainSchedule(stage="temporal", batch_size=2,
                                    epochs=1, max_steps=1)
        model.train(self.data, sched, seed=6, config=self.cfg)
        assert pullback_taps == [2]
        (gx, gk, gb), = returned
        assert gx is None
        assert gk.shape == (4, 3, 3, 3) and gb.shape == (4,)

    def test_mixing_cache_matches_per_step_recompute(self):
        # reference loop from the public pieces, re-running the frozen
        # backbone on every batch; batch 3 of 4 images leaves a short
        # last batch and a short last cache chunk
        base = model.init_params(self.cfg, seed=10)
        sched = model.TrainSchedule(stage="mixing", batch_size=3, lr0=1e-3,
                                    epochs=3, decay_every=1, max_steps=5)
        cfg = model.LossConfig(lambda1=0.5, beta1=1.0, lambda2=0.8, beta2=1.2)
        got, _ = model.train(self.data, sched, seed=11, loss_cfg=cfg,
                             base_params=base)

        mixing = {k: v for k, v in base.items() if k.startswith("smm.")}
        state = ad.adam_init(mixing)
        rng = np.random.default_rng(11)
        steps = 0
        for epoch in range(sched.epochs):
            order = rng.permutation(4)
            for start in range(0, 4, sched.batch_size):
                if steps == sched.max_steps:
                    break
                idx = order[start:start + sched.batch_size]
                tape = ad.Tape()
                lifted = {k: tape.param(v, k) for k, v in mixing.items()}
                blocks, t, s_i = model.forward(tape, self.data.images[idx],
                                               lift_all(tape, base))
                refined = model.smm([tape.constant(b.data) for b in blocks],
                                    tape.constant(t.data),
                                    tape.constant(s_i.data), lifted)
                loss = model.stage2_loss(
                    refined, tape.constant(self.data.gt_full[idx]), cfg)
                grads = ad.backward(tape, loss)
                mixing, state = ad.adam_step(
                    mixing, {k: grads[p.node_id] for k, p in lifted.items()},
                    state, lr=sched.lr_at(epoch))
                steps += 1
        assert steps == 5
        assert set(got) == set(base)
        for k in base:
            want = mixing.get(k, base[k])
            assert got[k].tobytes() == want.tobytes(), k

    @staticmethod
    def _flag(fn, nid, sink):
        def wrapped(g):
            sink.append(nid)
            return fn(g)
        return wrapped

    def test_training_is_seed_deterministic(self):
        sched = model.TrainSchedule(stage="temporal", batch_size=2,
                                    lr0=1e-3, epochs=2)
        a, ta = model.train(self.data, sched, seed=7, config=self.cfg)
        b, tb = model.train(self.data, sched, seed=7, config=self.cfg)
        assert ta == tb
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)

    def test_checkpoint_roundtrip_preserves_predictions(self, tmp_path):
        sched = model.TrainSchedule(stage="temporal", batch_size=2,
                                    lr0=1e-3, epochs=1)
        params, _ = model.train(self.data, sched, seed=8, config=self.cfg)
        path = tmp_path / "model.tspw"
        ad.save_params(path, params)
        loaded = ad.load_params(path)
        a = model.predict(self.data.images, params)
        b = model.predict(self.data.images, loaded)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_data_validation(self):
        bad = model.TrainData(self.data.images,
                              self.data.gt_slices[:, :2],
                              self.data.gt_full)
        sched = model.TrainSchedule(stage="temporal", epochs=1)
        with pytest.raises(PreconditionError):
            model.train(bad, sched, seed=0, config=self.cfg)

    def test_max_steps_caps_work(self):
        sched = model.TrainSchedule(stage="temporal", batch_size=1,
                                    epochs=5, max_steps=3)
        _, trace = model.train(self.data, sched, seed=9, config=self.cfg)
        # 3 steps at batch 1 is less than one full epoch of 4 images
        assert len(trace) == 1

    @staticmethod
    def poison_step(monkeypatch, step_no, name):
        """Make training step ``step_no`` return an inf gradient for
        ``name``, which Adam turns into NaN; returns the list of steps
        run."""
        real, steps = model._train_step, []

        def step(*args):
            loss, grads = real(*args)
            steps.append(loss)
            if len(steps) == step_no:
                grads[name] = np.full_like(grads[name], np.inf)
            return loss, grads
        monkeypatch.setattr(model, "_train_step", step)
        return steps

    @pytest.mark.parametrize("stage, name", [("temporal", "tdec.h2.b"),
                                             ("mixing", "smm.s1.w")])
    def test_non_finite_update_stops_at_its_step(self, monkeypatch, stage,
                                                 name):
        steps = self.poison_step(monkeypatch, 2, name)
        sched = model.TrainSchedule(stage=stage, batch_size=1, epochs=2)
        start = ({"base_params": model.init_params(self.cfg, 4)}
                 if stage == "mixing" else {"config": self.cfg})
        with pytest.raises(NonFiniteError) as caught, \
                np.errstate(invalid="ignore"):
            model.train(self.data, sched, seed=11, **start)
        assert str(caught.value) == (
            f"training step 2: {name}: holds NaN or Inf values after the "
            f"update")
        assert len(steps) == 2  # no step after it ran

    def test_non_finite_update_exits_three_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        self.write_tree(tmp_path)
        self.poison_step(monkeypatch, 1, "enc.c1.w")
        out = tmp_path / "out"
        assert main(["train", "--images", str(tmp_path / "images"),
                     "--maps", str(tmp_path / "maps"), "--max-steps", "2",
                     "--out", str(out / "ck.tspw"),
                     "--loss-csv", str(out / "loss.csv")]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "tsal: NonFiniteError: training step 1: enc.c1.w: holds NaN or "
            "Inf values after the update"]
        assert not out.exists()

    def write_tree(self, root):
        """``self.data`` as ``train``'s inputs under ``root``: images/,
        maps/ and a base checkpoint, base.tspw."""
        (root / "images").mkdir()
        data = self.data
        for i, (image, slices, full) in enumerate(
                zip(data.images, data.gt_slices, data.gt_full)):
            np.save(root / "images" / f"img{i}.npy", image)
            for k, m in enumerate([*slices, full[0]]):
                kind = f"t{k}" if k < len(slices) else "full"
                write_map_tsal(root / "maps" / kind / f"img{i}.tsal", m)
        ad.save_params(root / "base.tspw", model.init_params(self.cfg, 4))

    def test_mixing_lets_go_of_images_and_slice_maps(self, tmp_path,
                                                     monkeypatch):
        # once the frozen outputs are built, neither tsal train nor
        # model.train keeps the images or the slice maps
        self.write_tree(tmp_path)
        refs, freed = [], []
        load, step = cli._load_train_data, model._train_step

        def loading(*args):
            ids, data = load(*args)
            refs.extend(weakref.ref(a) for a in (data.images, data.gt_slices))
            return ids, data

        def checking_step(*args):
            freed.append([ref() is None for ref in refs])
            return step(*args)

        monkeypatch.setattr(cli, "_load_train_data", loading)
        monkeypatch.setattr(model, "_train_step", checking_step)
        assert main(["train", "--stage", "mixing",
                     "--images", str(tmp_path / "images"),
                     "--maps", str(tmp_path / "maps"),
                     "--base", str(tmp_path / "base.tspw"),
                     "--out", str(tmp_path / "out.tspw"),
                     "--epochs", "1", "--batch-size", "2"]) == 0
        assert freed == [[True, True]] * 2

    def test_trace_csv_layout(self, tmp_path, monkeypatch):
        """``tsal train --loss-csv`` writes the trace that ``model.train``
        returns, a row per epoch; read back, every value is equal."""
        self.write_tree(tmp_path)
        traces = []
        train = model.train

        def recorded(*args, **kwargs):
            params, trace = train(*args, **kwargs)
            traces.append(trace)
            return params, trace

        monkeypatch.setattr(model, "train", recorded)
        assert main(["train", "--images", str(tmp_path / "images"),
                     "--maps", str(tmp_path / "maps"),
                     "--base", str(tmp_path / "base.tspw"),
                     "--out", str(tmp_path / "out.tspw"),
                     "--loss-csv", str(tmp_path / "loss.csv"),
                     "--epochs", "2", "--batch-size", "2",
                     "--decay-every", "1"]) == 0
        with open(tmp_path / "loss.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["epoch", "stage", "loss", "lr"]
        assert [row[:2] for row in rows] == [["0", "temporal"],
                                             ["1", "temporal"]]
        assert [(int(e), s, float(loss), float(lr))
                for e, s, loss, lr in rows] == traces[0]


class TestTrainingOwnership:
    """``train`` works on read-only copies of its inputs, rearranged in
    place each epoch, and updates its parameters in place: every step
    reads the same arrays, and the caller's are never written."""

    cfg = model.ModelConfig(
        enc_channels=(4, 6, 8, 10, 12), dec_channels=(8, 8, 6, 6),
        head_hidden=6, smm_channels=(8, 6, 6, 6), n_slices=3)

    def run(self, monkeypatch, stage, data, base):
        """``train`` over 5 images at batch 2 for 3 epochs (a short last
        batch each epoch); returns (params, trace, each step's
        arguments)."""
        steps = []
        real_step = model._train_step

        def spying_step(*args):
            steps.append(args)
            return real_step(*args)

        sched = model.TrainSchedule(stage=stage, batch_size=2, lr0=1e-3,
                                    epochs=3)
        with monkeypatch.context() as patch:
            patch.setattr(model, "_train_step", spying_step)
            params, trace = model.train(data, sched, seed=90,
                                        base_params=base)
        return params, trace, steps

    @pytest.mark.parametrize("stage", ["temporal", "mixing"])
    def test_caller_arrays_never_written_and_runs_repeat(self, monkeypatch,
                                                         stage):
        data = toy_data(np.random.default_rng(91), 5, self.cfg, 16, 16)
        base = model.init_params(self.cfg, seed=92)
        inputs = [data.images, data.gt_slices, data.gt_full, *base.values()]
        before = [a.tobytes() for a in inputs]
        runs = [self.run(monkeypatch, stage, data, base) for _ in range(2)]
        assert [a.tobytes() for a in inputs] == before
        assert all(a.flags.writeable for a in inputs)
        (p1, t1, steps), (p2, t2, _) = runs
        assert t1 == t2 and len(steps) == 9
        assert ad.serialize_params(p1) == ad.serialize_params(p2)
        # what the steps read and train are train's own arrays
        for data_seen, _, trainable, frozen, *_ in steps:
            read = [a for a in (*vars(data_seen).values(), *(frozen or ()))
                    if a is not None]
            for a in [*read, *trainable.values()]:
                assert not any(np.shares_memory(a, b) for b in inputs)

    def test_temporal_stage_matches_the_reference_loop(self):
        # each epoch's batches as fancy-indexed copies of its permutation,
        # the one-tape step and the functional Adam update: bit for bit
        data = toy_data(np.random.default_rng(96), 5, self.cfg, 16, 16)
        base = model.init_params(self.cfg, seed=97)
        sched = model.TrainSchedule(stage="temporal", batch_size=2,
                                    lr0=1e-3, epochs=3, decay_every=1)
        got, _ = model.train(data, sched, seed=98, base_params=base)
        want, _ = model._split_params(base)
        state = (0, {k: np.zeros_like(v) for k, v in want.items()},
                 {k: np.zeros_like(v) for k, v in want.items()})
        rng = np.random.default_rng(98)
        for epoch in range(sched.epochs):
            order = rng.permutation(5)
            for start in range(0, 5, sched.batch_size):
                _, grads = temporal_step_one_tape(
                    data, order[start:start + sched.batch_size], want,
                    model.LossConfig())
                want, state = adam_step_functional(want, grads, state,
                                                   lr=sched.lr_at(epoch))
        assert state[0] == 9
        for k in base:
            assert got[k].tobytes() == want.get(k, base[k]).tobytes(), k

    @pytest.mark.parametrize("take", [
        np.arange(7), np.roll(np.arange(7), 1), np.array([0]),
        *(np.random.default_rng(s).permutation(9) for s in range(4))],
        ids=["identity", "one-cycle", "one-row", *map(str, range(4))])
    def test_permute_rows_equals_fancy_index(self, take):
        rng = np.random.default_rng(93)
        arrays = [rng.normal(size=(take.size, 2, 3)),
                  rng.normal(size=(take.size, 4))]
        want = [a[take] for a in arrays]
        buffers = [a.__array_interface__["data"][0] for a in arrays]
        for a in arrays:
            a.flags.writeable = False
        model._permute_rows(arrays, take)
        for a, w, buffer in zip(arrays, want, buffers):
            assert a.tobytes() == w.tobytes()
            assert a.__array_interface__["data"][0] == buffer
            assert not a.flags.writeable

    @pytest.mark.parametrize("stage", ["temporal", "mixing"])
    def test_every_step_reads_the_same_arrays(self, monkeypatch, stage):
        data = toy_data(np.random.default_rng(94), 5, self.cfg, 16, 16)
        base = model.init_params(self.cfg, seed=95)
        entered = []
        spied = "encode" if stage == "temporal" else "smm"
        real = getattr(model, spied)

        def spying(*args):
            x = args[0] if stage == "temporal" else args[0][0]
            entered.append(x.data)
            return real(*args)

        monkeypatch.setattr(model, spied, spying)
        _, _, steps = self.run(monkeypatch, stage, data, base)
        first_data, _, first_trainable, first_frozen, *_ = steps[0]
        source = first_data.images if stage == "temporal" else first_frozen[0]
        for (data_seen, idx, trainable, frozen, *_), x in zip(steps, entered):
            assert isinstance(idx, slice)
            if stage == "temporal":
                assert data_seen.images is source
            else:
                assert frozen[0] is source
            assert trainable.keys() == first_trainable.keys()
            assert all(trainable[k] is first_trainable[k] for k in trainable)
            assert np.shares_memory(x, source)
        assert len(entered) == len(steps) == 9
