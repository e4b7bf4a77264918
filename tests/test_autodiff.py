"""Tape, ops, gradients, Adam, and checkpoint round-trips."""

import ast
import gc
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from tsal import autodiff as ad
from tsal import metrics, model
from tsal.errors import (
    CheckpointError,
    ConfigError,
    GraphError,
    NonFiniteError,
    ShapeMismatchError,
)

import oracles


def analytic_grads(build, params, seed=0):
    """Run build(tape, tensors) -> scalar Tensor, return grads by name."""
    tape = ad.Tape()
    tensors = {k: tape.param(v, k) for k, v in params.items()}
    loss = build(tape, tensors)
    grads = ad.backward(tape, loss)
    return {k: grads.get(t.node_id, np.zeros_like(t.data))
            for k, t in tensors.items()}


def numeric_grads(build, params, h=1e-5):
    def f(ps):
        tape = ad.Tape()
        tensors = {k: tape.param(v, k) for k, v in ps.items()}
        return float(build(tape, tensors).data)
    return oracles.central_diff_grads(f, params, h=h)


def check_grads(build, params, tol=1e-6):
    a = analytic_grads(build, params)
    n = numeric_grads(build, params)
    for name in params:
        err = oracles.rel_err(a[name], n[name]).max()
        assert err < tol, f"{name}: max rel err {err}"


def default_model_calls(monkeypatch, op, n_images):
    """The arguments of every ``ad.<op>`` call in one pass of the
    default model (encoder, both decoders, mixing) over ``n_images``
    random 64x64 images, as (args, kwargs) pairs."""
    calls = []
    real = getattr(ad, op)

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(ad, op, spy)
    params = model.init_params(model.ModelConfig(), seed=3)
    images = np.random.default_rng(34).uniform(size=(n_images, 3, 64, 64))
    tape = ad.Tape()
    pt = {k: tape.constant(v) for k, v in params.items()}
    model.smm(*model.forward(tape, images, pt), pt)
    monkeypatch.undo()
    return calls


def distinct_convs(calls):
    """(x, kernel, bias, stride) of the conv calls with distinct shapes;
    the image decoder repeats the temporal trunk, the mixing head
    repeats the image head."""
    seen = {}
    for (x, k, b), kw in calls:
        stride = kw.get("stride", 1)
        seen.setdefault((x.shape[1:], k.shape, stride), (x, k, b, stride))
    return list(seen.values())


def conv_and_grads(x, k, b, stride, g, relu):
    """conv2d's output and its (x, kernel, bias) gradients for the output
    gradient g."""
    tape = ad.Tape()
    ts = [tape.param(a, name) for a, name in ((x, "x"), (k, "k"), (b, "b"))]
    y = ad.conv2d(*ts, stride=stride, relu=relu)
    grads = ad.backward(tape, ad.reduce_sum(ad.mul(y, tape.constant(g))))
    return y.data, [grads[t.node_id] for t in ts]


class TestTensorBasics:
    def test_data_is_read_only(self):
        tape = ad.Tape()
        t = tape.constant([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_non_finite_rejected(self):
        tape = ad.Tape()
        with pytest.raises(NonFiniteError):
            tape.constant([1.0, np.nan])
        with pytest.raises(NonFiniteError):
            tape.constant([np.inf])

    def test_non_finite_op_result_rejected(self):
        tape = ad.Tape()
        a = tape.constant([1e200])
        with pytest.raises(NonFiniteError), np.errstate(over="ignore"):
            ad.mul(a, a)

    def test_read_only_float64_is_adopted(self):
        # a Tensor's own data entering another tape is not copied
        tape = ad.Tape()
        a = np.arange(4.0)
        a.flags.writeable = False
        assert tape.constant(a).data is a
        assert tape.param(a, "a").data is a

    def test_writable_array_is_copied(self):
        # a read-only view of a writable array counts as writable
        tape = ad.Tape()
        a = np.arange(4.0)
        view = a[:]
        view.flags.writeable = False
        leaves = [tape.constant(a), tape.param(a, "a"),
                  tape.constant(view), tape.param(view, "view")]
        assert all(t.data is not a and t.data is not view for t in leaves)
        a[:] = -1.0
        for t in leaves:
            assert np.array_equal(t.data, np.arange(4.0))

    def test_float64_everywhere(self):
        tape = ad.Tape()
        t = tape.constant(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_cross_tape_mixing_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        a = t1.constant([1.0])
        b = t2.constant([2.0])
        with pytest.raises(GraphError):
            ad.add(a, b)


class TestElementwiseGrads:
    def test_add_mul_sub_div_chain(self):
        rng = np.random.default_rng(11)
        params = {"x": rng.normal(size=(3, 4)), "y": rng.normal(size=(3, 4)) + 3.0}

        def build(tape, ts):
            z = oracles.div(
                ad.mul(ad.add(ts["x"], ts["y"]), ad.sub(ts["x"], ts["y"])),
                ts["y"])
            return ad.reduce_mean(z)
        check_grads(build, params)

    def test_broadcast_grads_sum_correctly(self):
        rng = np.random.default_rng(12)
        params = {"x": rng.normal(size=(2, 3, 4)), "b": rng.normal(size=(4,))}

        def build(tape, ts):
            return ad.reduce_mean(ad.mul(ad.add(ts["x"], ts["b"]), ts["x"]))
        check_grads(build, params)

    def test_keepdim_style_broadcast(self):
        rng = np.random.default_rng(13)
        params = {"x": rng.normal(size=(3, 4)), "s": rng.normal(size=(3, 1))}

        def build(tape, ts):
            return ad.reduce_mean(ad.mul(ts["x"], ts["s"]))
        check_grads(build, params)

    def test_log_sqrt(self):
        rng = np.random.default_rng(14)
        params = {"x": rng.uniform(0.5, 2.0, size=(5,))}

        def build(tape, ts):
            return ad.reduce_mean(ad.add(oracles.log(ts["x"]),
                                         oracles.sqrt(ts["x"])))
        check_grads(build, params)

    def test_relu_grad_and_zero_point(self):
        # conv2d's ReLU, through a kernel that passes each pixel on as it is
        tape = ad.Tape()
        x = tape.param(np.array([-1.0, 0.0, 2.0]).reshape(1, 1, 1, 3), "x")
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 1] = 1.0
        y = ad.conv2d(x, tape.constant(k), tape.constant(np.zeros(1)),
                      relu=True)
        assert np.array_equal(y.data.ravel(), [0.0, 0.0, 2.0])
        g = ad.backward(tape, ad.reduce_sum(y))[x.node_id]
        assert np.array_equal(g.ravel(), [0.0, 0.0, 1.0])

    def test_sigmoid_stable_at_extremes(self):
        tape = ad.Tape()
        x = tape.constant([-800.0, 0.0, 800.0])
        y = ad.sigmoid(x)
        assert np.allclose(y.data, [0.0, 0.5, 1.0])

    def test_sigmoid_grads(self):
        rng = np.random.default_rng(15)
        params = {"x": rng.normal(size=(6,)) * 2.0}

        def build(tape, ts):
            return ad.reduce_mean(ad.sigmoid(ts["x"]))
        check_grads(build, params)


class TestReductions:
    def test_sum_mean_axis_combos(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 3, 4))
        for axis in (None, 0, 1, 2, (0, 2), (1, 2)):
            for keepdims in (False, True):
                tape = ad.Tape()
                t = tape.constant(x)
                s = ad.reduce_sum(t, axis=axis, keepdims=keepdims)
                m = ad.reduce_mean(t, axis=axis, keepdims=keepdims)
                assert np.allclose(s.data, x.sum(axis=axis, keepdims=keepdims))
                assert np.allclose(m.data, x.mean(axis=axis, keepdims=keepdims))

    def test_sum_mean_grads(self):
        rng = np.random.default_rng(17)
        params = {"x": rng.normal(size=(2, 3, 4))}
        w = rng.normal(size=(3,))

        def build(tape, ts):
            per = ad.reduce_mean(ts["x"], axis=(0, 2))
            return ad.reduce_sum(ad.mul(per, tape.constant(w)))
        check_grads(build, params)

    def test_min_max_forward(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=(3, 5))
        tape = ad.Tape()
        t = tape.constant(x)
        assert np.allclose(oracles.reduce_max(t, axis=1).data, x.max(axis=1))
        assert np.allclose(oracles.reduce_min(t, axis=0).data, x.min(axis=0))
        assert np.allclose(oracles.reduce_max(t).data, x.max())

    def test_min_max_grads(self):
        rng = np.random.default_rng(19)
        params = {"x": rng.normal(size=(3, 4))}

        def build(tape, ts):
            hi = oracles.reduce_max(ts["x"], axis=1)
            lo = oracles.reduce_min(ts["x"], axis=1)
            return ad.reduce_mean(ad.sub(hi, lo))
        check_grads(build, params)

    def test_tie_gradient_goes_to_first_occurrence(self):
        tape = ad.Tape()
        x = tape.param(np.array([[2.0, 5.0, 5.0, 1.0]]), "x")
        y = ad.reduce_sum(oracles.reduce_max(x, axis=1))
        g = ad.backward(tape, y)[x.node_id]
        assert np.array_equal(g, [[0.0, 1.0, 0.0, 0.0]])


class TestShapeOps:
    def test_concat_slice_roundtrip(self):
        rng = np.random.default_rng(22)
        a = rng.normal(size=(2, 3, 4, 4))
        b = rng.normal(size=(2, 2, 4, 4))
        tape = ad.Tape()
        cat = ad.concat_channels([tape.constant(a), tape.constant(b)])
        assert cat.shape == (2, 5, 4, 4)
        back = ad.take_maps(cat, np.array([0, 1, 1]), np.array([3, 4, 0]))
        assert np.array_equal(back.data, [b[0, 0], b[1, 1], a[1, 0]])

    def test_concat_slice_grads(self):
        rng = np.random.default_rng(23)
        params = {"a": rng.normal(size=(2, 2, 3, 3)),
                  "b": rng.normal(size=(2, 1, 3, 3))}
        w = rng.normal(size=(4, 3, 3))

        def build(tape, ts):
            cat = ad.concat_channels([ts["a"], ts["b"]])
            # (1, 2) twice: the pullback must accumulate a repeated map
            mid = ad.take_maps(cat, np.array([0, 1, 1, 1]),
                               np.array([1, 2, 0, 2]))
            return ad.reduce_sum(ad.mul(ad.mul(mid, mid), tape.constant(w)))
        check_grads(build, params)

    def test_concat_shape_mismatch(self):
        tape = ad.Tape()
        a = tape.constant(np.zeros((1, 2, 4, 4)))
        b = tape.constant(np.zeros((1, 2, 5, 4)))
        with pytest.raises(ShapeMismatchError):
            ad.concat_channels([a, b])

    def test_take_maps_rejects_non_nchw(self):
        tape = ad.Tape()
        a = tape.constant(np.zeros((2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            ad.take_maps(a, np.array([0]), np.array([1]))


class TestConv2d:
    def test_matches_loop_oracle_stride1(self):
        rng = np.random.default_rng(24)
        x = rng.normal(size=(2, 3, 5, 6))
        k = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=(4,))
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k), tape.constant(b))
        assert out.shape == (2, 4, 5, 6)
        assert np.allclose(out.data, oracles.conv2d_loops(x, k, b, stride=1))

    def test_matches_loop_oracle_stride2(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=(1, 2, 6, 4))
        k = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=(3,))
        tape = ad.Tape()
        out = ad.conv2d(tape.constant(x), tape.constant(k), tape.constant(b),
                        stride=2)
        assert out.shape == (1, 3, 3, 2)
        assert np.allclose(out.data, oracles.conv2d_loops(x, k, b, stride=2))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grads(self, stride):
        rng = np.random.default_rng(26 + stride)
        params = {"x": rng.normal(size=(1, 2, 4, 4)),
                  "k": rng.normal(size=(3, 2, 3, 3)),
                  "b": rng.normal(size=(3,))}
        w = rng.normal(size=(1, 3, 4 // stride, 4 // stride))

        def build(tape, ts):
            y = ad.conv2d(ts["x"], ts["k"], ts["b"], stride=stride)
            return ad.reduce_sum(ad.mul(y, tape.constant(w)))
        check_grads(build, params, tol=1e-5)

    @pytest.mark.parametrize("stride", [1, 2])
    def test_grads_batch_of_two(self, stride):
        # two images: the kernel gradient sums one product per image
        rng = np.random.default_rng(32 + stride)
        params = {"x": rng.normal(size=(2, 3, 4, 6)),
                  "k": rng.normal(size=(2, 3, 3, 3)),
                  "b": rng.normal(size=(2,))}
        w = rng.normal(size=(2, 2, 4 // stride, 6 // stride))

        def build(tape, ts):
            y = ad.conv2d(ts["x"], ts["k"], ts["b"], stride=stride)
            return ad.reduce_sum(ad.mul(y, tape.constant(w)))
        check_grads(build, params, tol=1e-5)

    def test_matches_loop_oracle_at_every_model_layer(self, monkeypatch):
        # the loop oracle computes the last output channel (the whole
        # output where O is 1) to keep its cost down
        calls = default_model_calls(monkeypatch, "conv2d", 1)
        assert len(calls) == 22 and len(distinct_convs(calls)) == 16
        for x, k, b, stride in distinct_convs(calls):
            out = ad.conv2d(x, k, b, stride=stride).data
            want = oracles.conv2d_loops(x.data, k.data[-1:], b.data[-1:],
                                        stride=stride)
            np.testing.assert_allclose(out[:, -1:], want, rtol=1e-12,
                                       atol=1e-12)

    def test_image_output_independent_of_batch(self, monkeypatch):
        calls = default_model_calls(monkeypatch, "conv2d", 3)
        for x, k, b, stride in distinct_convs(calls):
            tape = x.tape
            full = ad.conv2d(x, k, b, stride=stride).data
            for i in range(3):
                alone = ad.conv2d(tape.constant(x.data[i:i + 1]), k, b,
                                  stride=stride).data
                assert full[i].tobytes() == alone[0].tobytes(), k.shape

    # With a 4 KiB band limit every path splits these shapes into several
    # bands, the last one short. Stride 1, (2, 3, 13, 10) to 4 channels:
    # forward and kernel gradient 3+3+3+3+1 rows, input gradient
    # 2+2+2+2+2+2+1. Stride 2, (2, 8, 16, 10) to 3: forward and kernel
    # gradient 3+3+2 output rows, input gradient 3+3+3+3+3+1.
    @pytest.mark.parametrize("relu", [False, True])
    @pytest.mark.parametrize("stride, shape, out_ch", [
        (1, (2, 3, 13, 10), 4), (2, (2, 8, 16, 10), 3)])
    def test_bands_match_im2col_oracle(self, monkeypatch, relu, stride,
                                       shape, out_ch):
        rng = np.random.default_rng(40 + stride)
        x = rng.normal(size=shape)
        k = rng.normal(size=(out_ch, shape[1], 3, 3))
        b = rng.normal(size=(out_ch,))
        want, pullback = oracles.conv2d_im2col(x, k, b, stride)
        g = rng.normal(size=want.shape)
        if relu:
            kept = want > 0.0
            want = np.where(kept, want, 0.0)
            want_grads = pullback(g * kept)
        else:
            want_grads = pullback(g)
        monkeypatch.setattr(ad, "_TAP_BYTES", 4096)
        y, grads = conv_and_grads(x, k, b, stride, g, relu)
        # row taps sum three products where im2col sums one, so the two
        # agree to rounding; the absolute floor, for entries near zero,
        # scales with the largest entry
        for got, ref in zip([y, *grads], [want, *want_grads]):
            np.testing.assert_allclose(got, ref, rtol=1e-12,
                                       atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("stride, shape, out_ch, limit", [
        (1, (4, 30, 64, 64), 16, None), (2, (4, 8, 64, 64), 16, 24576)],
        ids=["smm.s1", "enc.c2"])
    def test_bands_keep_the_bytes_at_model_layers(self, monkeypatch, stride,
                                                  shape, out_ch, limit):
        # smm.s1 at the default limit: forward and kernel gradient in
        # bands of 20+20+20+4 rows, input gradient 40+24. enc.c2 at a
        # 24 KiB limit: forward and kernel gradient in 3-row bands, the
        # last of 2 rows, input gradient in 1-row bands. A band spans
        # whole 64- or 32-pixel rows, and the products are split along
        # output columns only, so the forward and the input gradient are
        # the one-band bytes; the kernel gradient sums band by band
        rng = np.random.default_rng(44 + stride)
        x = np.maximum(rng.normal(size=shape), 0.0)
        k = rng.normal(size=(out_ch, shape[1], 3, 3))
        b = rng.normal(size=(out_ch,))
        g = rng.normal(size=(shape[0], out_ch, shape[2] // stride,
                             shape[3] // stride))
        if limit is not None:
            monkeypatch.setattr(ad, "_TAP_BYTES", limit)
        y, (gx, gk, gb) = conv_and_grads(x, k, b, stride, g, True)
        monkeypatch.setattr(ad, "_TAP_BYTES", 1 << 30)
        y1, (gx1, gk1, gb1) = conv_and_grads(x, k, b, stride, g, True)
        assert y.tobytes() == y1.tobytes()
        assert gx.tobytes() == gx1.tobytes()
        assert gb.tobytes() == gb1.tobytes()
        np.testing.assert_allclose(gk, gk1, rtol=1e-12,
                                   atol=1e-12 * np.abs(gk1).max())

    def test_matches_im2col_oracle_at_every_model_layer(self, monkeypatch):
        # output and all three gradients against the 9-tap im2col path,
        # with a batch of two so the kernel gradient sums over images
        calls = default_model_calls(monkeypatch, "conv2d", 2)
        rng = np.random.default_rng(36)
        for x, k, b, stride in distinct_convs(calls):
            out, pullback = oracles.conv2d_im2col(x.data, k.data, b.data,
                                                  stride)
            g = rng.normal(size=out.shape)
            tape = ad.Tape()
            ts = [tape.param(t.data, name) for t, name in
                  ((x, "x"), (k, "k"), (b, "b"))]
            y = ad.conv2d(*ts, stride=stride)
            grads = ad.backward(tape, ad.reduce_sum(
                ad.mul(y, tape.constant(g))))
            np.testing.assert_allclose(y.data, out, rtol=1e-10, atol=1e-12)
            for t, want in zip(ts, pullback(g)):
                np.testing.assert_allclose(grads[t.node_id], want,
                                           rtol=1e-10, atol=1e-12,
                                           err_msg=k.shape)

    def test_memory_at_the_temporal_head(self):
        # tdec.h1: (4, 20, 64, 64) in, 16 out. The pullback keeps the
        # input array itself, not a padded copy, and the forward stays
        # below one image's 9-tap column matrix (C*9 x H*W floats)
        rng = np.random.default_rng(37)
        tape = ad.Tape()
        x = tape.param(np.maximum(rng.normal(size=(4, 20, 64, 64)), 0.0), "x")
        k = tape.param(rng.normal(size=(16, 20, 3, 3)), "k")
        b = tape.param(rng.normal(size=(16,)), "b")
        tracemalloc.start()
        try:
            y = ad.conv2d(x, k, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = [cell.cell_contents for cell in
                tape.nodes[y.node_id].pullback.__closure__]
        assert any(v is x.data for v in held)
        assert not any(isinstance(v, np.ndarray) and v.shape[-2:] == (66, 66)
                       for v in held)
        assert peak < 20 * 9 * 64 * 64 * 8, peak

    def test_backward_memory_at_the_mixing_head(self):
        # smm.s1: (4, 30, 64, 64) in, 16 out, every operand live. Beside
        # the input gradient it returns, the pullback's scratch stays
        # under two images' row taps: one set of tap matrices per path,
        # no padded copy, and the kernel gradient's buffers freed before
        # the input gradient is built
        rng = np.random.default_rng(39)
        tape = ad.Tape()
        x = tape.param(np.maximum(rng.normal(size=(4, 30, 64, 64)), 0.0), "x")
        k = tape.param(rng.normal(size=(16, 30, 3, 3)), "k")
        b = tape.param(rng.normal(size=(16,)), "b")
        y = ad.conv2d(x, k, b)
        g = rng.normal(size=y.shape)
        pullback = tape.nodes[y.node_id].pullback
        tracemalloc.start()
        try:
            gx, gk, gb = pullback(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        taps = 30 * 3 * 66 * 64 * 8  # one image's row taps, (C*3, (H+2)*W)
        assert gx.shape == x.shape
        assert peak < gx.nbytes + 2 * taps, peak

    def test_shape_errors(self):
        tape = ad.Tape()
        x = tape.constant(np.zeros((1, 2, 4, 4)))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, tape.constant(np.zeros((3, 2, 5, 5))),
                      tape.constant(np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, tape.constant(np.zeros((3, 4, 3, 3))),
                      tape.constant(np.zeros(3)))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(x, tape.constant(np.zeros((3, 2, 3, 3))),
                      tape.constant(np.zeros(4)))
        with pytest.raises(ConfigError):
            ad.conv2d(x, tape.constant(np.zeros((3, 2, 3, 3))),
                      tape.constant(np.zeros(3)), stride=3)
        odd = tape.constant(np.zeros((1, 2, 5, 4)))
        with pytest.raises(ShapeMismatchError):
            ad.conv2d(odd, tape.constant(np.zeros((3, 2, 3, 3))),
                      tape.constant(np.zeros(3)), stride=2)


class TestBilinear:
    def test_matches_per_pixel_formula(self):
        rng = np.random.default_rng(28)
        img = rng.normal(size=(5, 7))
        for oh, ow in [(10, 14), (3, 4), (5, 7), (9, 2)]:
            tape = ad.Tape()
            t = tape.constant(img[None, None])
            out = ad.resize_bilinear(t, oh, ow)
            assert np.allclose(out.data[0, 0], oracles.bilinear_loops(img, oh, ow))

    def test_upsample_factor(self):
        # twice the size, as the decoders upsample
        rng = np.random.default_rng(29)
        img = rng.normal(size=(3, 3))
        tape = ad.Tape()
        out = ad.resize_bilinear(tape.constant(img[None, None]), 6, 6)
        assert out.shape == (1, 1, 6, 6)
        assert np.allclose(out.data[0, 0], oracles.bilinear_loops(img, 6, 6))

    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(30)
        img = rng.normal(size=(1, 2, 4, 4))
        tape = ad.Tape()
        out = ad.resize_bilinear(tape.constant(img), 4, 4)
        assert np.allclose(out.data, img)

    def test_bad_factor(self):
        tape = ad.Tape()
        t = tape.constant(np.zeros((1, 1, 2, 2)))
        with pytest.raises(ConfigError):
            ad.resize_bilinear(t, 0, 4)

    def test_grads(self):
        rng = np.random.default_rng(31)
        params = {"x": rng.normal(size=(1, 2, 3, 3))}
        w = rng.normal(size=(1, 2, 5, 4))

        def build(tape, ts):
            y = ad.resize_bilinear(ts["x"], 5, 4)
            return ad.reduce_sum(ad.mul(y, tape.constant(w)))
        check_grads(build, params)

    def test_image_output_independent_of_batch(self, monkeypatch):
        # every resize of the default model, plus non-integer ratios
        tape = ad.Tape()
        rng = np.random.default_rng(36)
        cases = [(tape.constant(rng.normal(size=(3, 5) + size)), *out)
                 for size, out in [((7, 5), (12, 9)), ((9, 7), (4, 5))]]
        cases += [args for args, _ in
                  default_model_calls(monkeypatch, "resize_bilinear", 3)]
        assert len(cases) == 2 + 18
        for x, out_h, out_w in cases:
            full = ad.resize_bilinear(x, out_h, out_w).data
            for i in range(3):
                alone = ad.resize_bilinear(x.tape.constant(x.data[i:i + 1]),
                                           out_h, out_w).data
                assert full[i].tobytes() == alone[0].tobytes()

    @pytest.mark.parametrize("size, out", [((9, 7), (4, 5)),
                                           ((5, 4), (11, 13))])
    def test_pullback_is_the_adjoint(self, size, out):
        # <resize(x), g> == <x, pullback(g)>, down- and upsampling at
        # non-integer ratios
        rng = np.random.default_rng(37)
        x = rng.normal(size=(2, 3) + size)
        g = rng.normal(size=(2, 3) + out)
        tape = ad.Tape()
        xt = tape.param(x, "x")
        y = ad.resize_bilinear(xt, *out)
        loss = ad.reduce_sum(ad.mul(y, tape.constant(g)))
        back = ad.backward(tape, loss)[xt.node_id]
        assert np.isclose(np.sum(y.data * g), np.sum(x * back),
                          rtol=1e-12, atol=0.0)


class TestBackward:
    def test_scalar_loss_required(self):
        tape = ad.Tape()
        x = tape.param(np.zeros((2,)), "x")
        with pytest.raises(GraphError):
            ad.backward(tape, x)

    def test_foreign_loss_rejected(self):
        t1, t2 = ad.Tape(), ad.Tape()
        x = t1.param(np.zeros(()), "x")
        with pytest.raises(GraphError):
            ad.backward(t2, x)

    def test_only_leaf_grads_returned(self):
        tape = ad.Tape()
        x = tape.param(np.array(2.0), "x")
        c = tape.constant(np.array(3.0))
        y = ad.mul(x, c)
        grads = ad.backward(tape, y)
        assert set(grads) == {x.node_id}
        assert np.isclose(grads[x.node_id], 3.0)

    def test_each_pullback_called_at_most_once(self):
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 2.0]), "x")
        # diamond: x feeds two branches that rejoin
        a = ad.mul(x, x)
        b = ad.add(x, x)
        loss = ad.reduce_sum(ad.add(a, b))
        calls = {}
        for nid, node in enumerate(tape.nodes):
            if node.pullback is None:
                continue
            original = node.pullback
            def wrapped(g, nid=nid, original=original):
                calls[nid] = calls.get(nid, 0) + 1
                return original(g)
            node.pullback = wrapped
        grads = ad.backward(tape, loss)
        assert all(v == 1 for v in calls.values())
        # d/dx (x^2 + 2x) = 2x + 2
        assert np.allclose(grads[x.node_id], [4.0, 6.0])

    def test_nodes_off_the_loss_path_not_visited(self):
        tape = ad.Tape()
        x = tape.param(np.array(1.0), "x")
        z = tape.param(np.array(5.0), "z")
        dead = ad.mul(z, z)  # never feeds the loss
        loss = ad.mul(x, x)
        touched = []
        node = tape.nodes[dead.node_id]
        original = node.pullback
        node.pullback = lambda g: touched.append(1) or original(g)
        grads = ad.backward(tape, loss)
        assert touched == []
        assert z.node_id not in grads

    def test_second_backward_on_a_consumed_tape_raises(self):
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 2.0]), "x")
        loss = ad.reduce_sum(ad.mul(x, x))
        ad.backward(tape, loss)
        assert all(node.pullback is None for node in tape.nodes)
        with pytest.raises(GraphError, match="already differentiated"):
            ad.backward(tape, loss)

    def test_binary_pullback_builds_only_the_live_side(self):
        tape = ad.Tape()
        x = tape.param(np.array([1.0, 2.0]), "x")
        c = tape.constant(np.array([3.0, 4.0]))
        gx, gc = tape.nodes[ad.mul(x, c).node_id].pullback(np.ones(2))
        assert np.array_equal(gx, [3.0, 4.0]) and gc is None
        gc, gx = tape.nodes[ad.mul(c, x).node_id].pullback(np.ones(2))
        assert gc is None and np.array_equal(gx, [3.0, 4.0])

    def test_constant_blocks_gradient(self):
        tape = ad.Tape()
        x = tape.param(np.array(3.0), "x")
        y = tape.constant(ad.mul(x, x).data)
        loss = ad.mul(y, x)
        grads = ad.backward(tape, loss)
        # only the direct factor contributes: d/dx (const * x) = const = 9
        assert np.isclose(grads[x.node_id], 9.0)


def _nchw(tape):
    return tape.param(np.linspace(0.1, 1.0, 16).reshape(1, 1, 4, 4), "x")


def _map(tape):  # a ground-truth map: neither constant nor all-zero
    return tape.constant(np.eye(4)[None, None] + 0.1)


# One recording of each public function of the package that records a
# node: autodiff's ops by name, the others as module.function.
RECORD_ONE_OP = {
    "add": lambda t: ad.add(_nchw(t), t.constant(1.0)),
    "sub": lambda t: ad.sub(_nchw(t), t.constant(1.0)),
    "mul": lambda t: ad.mul(_nchw(t), t.constant(2.0)),
    "sigmoid": lambda t: ad.sigmoid(_nchw(t)),
    "reduce_sum": lambda t: ad.reduce_sum(_nchw(t)),
    "reduce_mean": lambda t: ad.reduce_mean(_nchw(t), axis=(2, 3)),
    "concat_channels": lambda t: ad.concat_channels([_nchw(t), _nchw(t)]),
    "take_maps": lambda t: ad.take_maps(_nchw(t), np.array([0]),
                                        np.array([0])),
    "conv2d": lambda t: ad.conv2d(_nchw(t), t.param(np.ones((2, 1, 3, 3)),
                                                    "k"),
                                  t.param(np.zeros(2), "b"), relu=True),
    "resize_bilinear": lambda t: ad.resize_bilinear(_nchw(t), 3, 5),
    "metrics.cc_loss_node": lambda t: metrics.cc_loss_node(_nchw(t),
                                                           _map(t)),
    "metrics.kl_loss_node": lambda t: metrics.kl_loss_node(_nchw(t),
                                                           _map(t)),
    "model.minmax01": lambda t: model.minmax01(_nchw(t)),
}

# The primitives that only the composite oracles use, held to the same
# rule.
ORACLE_OPS = {
    "div": lambda t: oracles.div(_nchw(t), t.constant(2.0)),
    "log": lambda t: oracles.log(_nchw(t)),
    "sqrt": lambda t: oracles.sqrt(_nchw(t)),
    "reduce_max": lambda t: oracles.reduce_max(_nchw(t)),
    "reduce_min": lambda t: oracles.reduce_min(_nchw(t)),
}


def recording_functions() -> set[str]:
    """The public functions of the package whose body calls
    ``._record(``, itself or through a private function of its module,
    named as ``RECORD_ONE_OP`` names them."""
    found = set()
    for path in Path(ad.__file__).parent.glob("*.py"):
        defs = {node.name: node for node in ast.parse(path.read_text()).body
                if isinstance(node, ast.FunctionDef)}

        def records(fn, seen):
            for call in ast.walk(fn):
                f = getattr(call, "func", None)
                if isinstance(f, ast.Attribute) and f.attr == "_record":
                    return True
                if isinstance(f, ast.Name) and f.id.startswith("_") \
                        and f.id in defs and f.id not in seen \
                        and records(defs[f.id], seen | {f.id}):
                    return True
            return False

        prefix = "" if path.stem == "autodiff" else path.stem + "."
        found |= {prefix + name for name, fn in defs.items()
                  if not name.startswith("_") and records(fn, {name})}
    return found


class TestTapeLifetime:
    def test_every_public_op_is_covered(self):
        assert recording_functions() == set(RECORD_ONE_OP)

    @pytest.mark.parametrize("op", sorted(RECORD_ONE_OP | ORACLE_OPS))
    def test_tape_is_freed_without_the_cycle_collector(self, op):
        # reference counting alone must free a finished tape: a cycle
        # through the tape would keep every activation alive until the
        # cyclic collector happens to run
        gc.disable()
        try:
            tape = ad.Tape()
            out = (RECORD_ONE_OP | ORACLE_OPS)[op](tape)
            ref = weakref.ref(tape)
            del tape, out
            assert ref() is None
        finally:
            gc.enable()


class TestTapeMemory:
    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_add_sub_keep_no_operand_array(self, op):
        # their pullbacks read only the operand shapes
        tape = ad.Tape()
        x = tape.param(np.ones((3, 4)), "x")
        y = getattr(ad, op)(x, tape.param(np.ones(4), "y"))
        ref = weakref.ref(x.data)
        del x
        assert ref() is None
        assert y.live

    def test_constant_only_tape_holds_no_pullback(self):
        # model.predict's tape: every parameter enters as a constant
        params = model.init_params(model.ModelConfig(), seed=3)
        images = np.random.default_rng(38).uniform(size=(1, 3, 16, 16))
        tape = ad.Tape()
        pt = {k: tape.constant(v) for k, v in params.items()}
        refined = model.smm(*model.forward(tape, images, pt), pt)
        assert len(tape.nodes) > 100
        assert [n.op for n in tape.nodes if n.pullback is not None] == []
        assert not refined.live

    @staticmethod
    def _backward_peak(n_ops):
        # n_ops elementwise ops on a 1 MB array, then backward alone
        # under tracemalloc
        tape = ad.Tape()
        x = tape.param(np.linspace(0.5, 1.5, 1 << 17), "x")
        y = x
        for _ in range(n_ops):
            y = ad.sigmoid(ad.mul(y, tape.constant(1.5)))
        loss = ad.reduce_sum(y)
        tracemalloc.start()
        try:
            grads = ad.backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grads[x.node_id].shape == x.shape
        return peak

    def test_backward_peak_is_flat_in_chain_length(self):
        # each intermediate gradient is freed once its pullback has used
        # it: keeping them all would add 1 MB per op
        short, long = self._backward_peak(20), self._backward_peak(80)
        assert long < short + (1 << 20), (short, long)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # with bias correction the first update is lr * sign(g)
        params = {"w": np.array([1.0, -2.0])}
        grads = {"w": np.array([0.3, -0.7])}
        state = ad.adam_init(params)
        new, state = ad.adam_step(params, grads, state, lr=0.01)
        assert np.allclose(new["w"], [1.0 - 0.01, -2.0 + 0.01], atol=1e-6)
        assert state.step == 1

    def test_updates_in_place_and_returns_same_objects(self):
        params = {"w": np.array([1.0, -2.0]), "b": np.array([0.5])}
        state = ad.adam_init(params)
        arrays = {k: (params[k], state.m[k], state.v[k]) for k in params}
        grads = {"w": np.array([0.3, -0.7]), "b": np.array([1.0])}
        got_params, got_state = ad.adam_step(params, grads, state, lr=0.1)
        assert got_params is params and got_state is state
        assert state.step == 1
        for k, (p, m, v) in arrays.items():
            assert params[k] is p and state.m[k] is m and state.v[k] is v
        assert not np.array_equal(params["w"], [1.0, -2.0])

    def test_matches_functional_oracle_bit_for_bit(self):
        # 25 steps with a different gradient each step; "frozen" never
        # gets a gradient and "still" always gets a zero one
        rng = np.random.default_rng(44)
        params = {"w": rng.normal(size=(3, 2, 3, 3)),
                  "b": rng.normal(size=(3,)),
                  "frozen": rng.normal(size=(4,)),
                  "still": rng.normal(size=(2, 2))}
        want = {k: v.copy() for k, v in params.items()}
        state = ad.adam_init(params)
        want_state = (0, {k: np.zeros_like(v) for k, v in want.items()},
                      {k: np.zeros_like(v) for k, v in want.items()})
        for step in range(25):
            grads = {"w": rng.normal(size=(3, 2, 3, 3)),
                     "b": rng.normal(size=(3,)),
                     "still": np.zeros((2, 2))}
            lr = 0.05 * 0.5 ** (step // 10)
            ad.adam_step(params, grads, state, lr=lr)
            want, want_state = oracles.adam_step_functional(
                want, grads, want_state, lr=lr)
        assert state.step == want_state[0] == 25
        for k in want:
            assert params[k].tobytes() == want[k].tobytes(), k
            assert state.m[k].tobytes() == want_state[1][k].tobytes(), k
            assert state.v[k].tobytes() == want_state[2][k].tobytes(), k

    def test_read_only_parameter_keeps_its_flag(self):
        w = np.array([1.0, 2.0])
        w.flags.writeable = False
        params = {"w": w}
        state = ad.adam_init(params)
        ad.adam_step(params, {"w": np.array([1.0, 1.0])}, state, lr=0.1)
        assert params["w"] is w and not w.flags.writeable
        assert np.allclose(w, [0.9, 1.9])

    def test_shape_mismatch_leaves_every_array_untouched(self):
        # the bad gradient is the last one: nothing before it is updated
        params = {"a": np.array([1.0, 2.0]), "b": np.array([3.0]),
                  "c": np.array([4.0, 5.0])}
        state = ad.adam_init(params)
        ad.adam_step(params, {k: np.ones_like(v) for k, v in params.items()},
                     state, lr=0.1)
        before = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy())
                  for k in params}
        grads = {"a": np.ones(2), "b": np.ones(1), "c": np.ones(3)}
        with pytest.raises(ShapeMismatchError):
            ad.adam_step(params, grads, state, lr=0.1)
        assert state.step == 1
        for k, (p, m, v) in before.items():
            assert params[k].tobytes() == p.tobytes(), k
            assert state.m[k].tobytes() == m.tobytes(), k
            assert state.v[k].tobytes() == v.tobytes(), k

    def test_missing_grad_means_zero(self):
        params = {"w": np.array([1.0]), "frozen": np.array([2.0])}
        grads = {"w": np.array([1.0])}
        state = ad.adam_init(params)
        new, _ = ad.adam_step(params, grads, state, lr=0.1)
        assert np.array_equal(new["frozen"], [2.0])

    def test_shape_mismatch_rejected(self):
        params = {"w": np.array([1.0, 2.0])}
        grads = {"w": np.array([1.0])}
        state = ad.adam_init(params)
        with pytest.raises(ShapeMismatchError):
            ad.adam_step(params, grads, state, lr=0.1)

    def test_converges_on_quadratic(self):
        params = {"w": np.array([5.0, -3.0])}
        state = ad.adam_init(params)
        target = np.array([1.0, 2.0])
        for _ in range(2000):
            g = {"w": 2.0 * (params["w"] - target)}
            params, state = ad.adam_step(params, g, state, lr=0.01)
        assert np.allclose(params["w"], target, atol=1e-3)


class TestCheckpoints:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(40)
        params = {"conv.w": rng.normal(size=(3, 2, 3, 3)),
                  "conv.b": rng.normal(size=(3,)),
                  "scalarish": rng.normal(size=())}
        path = str(tmp_path / "model.tspw")
        ad.save_params(path, params)
        loaded = ad.load_params(path)
        assert set(loaded) == set(params)
        for k in params:
            assert np.array_equal(loaded[k], params[k])

    def test_bytes_deterministic_regardless_of_insertion_order(self):
        a = {"x": np.ones(2), "y": np.zeros(3)}
        b = {"y": np.zeros(3), "x": np.ones(2)}
        assert ad.serialize_params(a) == ad.serialize_params(b)

    def test_header_layout(self):
        blob = ad.serialize_params({"w": np.array([1.5])})
        assert blob[:4] == b"TSPW"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 1

    def test_bad_magic(self):
        with pytest.raises(CheckpointError):
            ad.deserialize_params(b"NOPE" + b"\x00" * 20)

    def test_bad_version(self):
        blob = bytearray(ad.serialize_params({"w": np.ones(1)}))
        blob[4] = 9
        with pytest.raises(CheckpointError):
            ad.deserialize_params(bytes(blob))

    def test_trailing_garbage(self):
        blob = ad.serialize_params({"w": np.ones(1)}) + b"xx"
        with pytest.raises(CheckpointError):
            ad.deserialize_params(blob)

    def test_every_truncation_is_a_checkpoint_error(self):
        blob = ad.serialize_params({"a.w": np.ones((2, 1, 3, 3)),
                                    "a.b": np.zeros(2), "s": np.ones(())})
        for size in range(len(blob)):
            with pytest.raises(CheckpointError):
                ad.deserialize_params(blob[:size])

    @pytest.mark.parametrize("tail", [
        struct.pack("<I", 2 ** 32 - 1),
        struct.pack("<I", 2) + struct.pack("<2Q", 2 ** 40, 2 ** 40),
        struct.pack("<I", 2) + struct.pack("<2Q", 0, 2 ** 64 - 1),
    ], ids=["huge-rank", "huge-extents", "empty-but-unshapeable"])
    def test_corrupt_extents(self, tail):
        head = b"TSPW" + struct.pack("<III", 1, 1, 1) + b"w"
        with pytest.raises(CheckpointError):
            ad.deserialize_params(head + tail)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_tensor_is_named(self, value):
        blob = ad.serialize_params({"a.w": np.ones(3),
                                    "b.w": np.array([0.0, value])})
        with pytest.raises(CheckpointError,
                           match=r"^b\.w: holds NaN or Inf values$"):
            ad.deserialize_params(blob)

    def test_name_not_utf8(self):
        blob = (b"TSPW" + struct.pack("<III", 1, 1, 1) + b"\xff"
                + struct.pack("<I", 0) + bytes(8))
        with pytest.raises(CheckpointError):
            ad.deserialize_params(blob)
