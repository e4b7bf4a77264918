"""Temporal saliency network: shared encoder, a temporal decoder that
predicts one map per time slice, an image decoder for the whole-viewing
map, and a mixing module that fuses everything into one refined map.

Desk-scale by default (64x64 inputs, tiny channel counts); every width
is configurable so gradient checks can run on much smaller instances.
Training is a plain two-stage loop: stage one fits encoder + decoders,
stage two freezes those and fits only the mixing module.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import (
    CheckpointError,
    ConfigError,
    DegenerateMapError,
    PreconditionError,
    ShapeMismatchError,
)
from .metrics import cc_loss_node, kl_loss_node, usable_maps


@dataclass(frozen=True)
class ModelConfig:
    in_channels: int = 3
    enc_channels: tuple[int, ...] = (8, 16, 24, 32, 40)
    dec_channels: tuple[int, ...] = (32, 24, 16, 12)   # trunk convs, deep to shallow
    head_hidden: int = 16
    smm_channels: tuple[int, ...] = (32, 24, 16, 16)   # mixing convs, deep to shallow
    n_slices: int = 5

    def __post_init__(self):
        if len(self.enc_channels) != 5:
            raise ConfigError("encoder needs exactly 5 blocks")
        if len(self.dec_channels) != 4 or len(self.smm_channels) != 4:
            raise ConfigError("decoder and mixing trunks need exactly 4 convs")
        if self.n_slices < 1 or self.in_channels < 1 or self.head_hidden < 1:
            raise ConfigError("channel and slice counts must be positive")


@dataclass(frozen=True)
class LossConfig:
    lambda1: float = 1.0
    beta1: float = 1.0
    lambda2: float = 1.0
    beta2: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "beta1", "lambda2", "beta2"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.lambda1 == 0.0 and self.beta1 == 0.0:
            raise ConfigError("stage 1 needs lambda1 or beta1 positive")
        if self.lambda2 == 0.0 and self.beta2 == 0.0:
            raise ConfigError("stage 2 needs lambda2 or beta2 positive")


@dataclass(frozen=True)
class TrainSchedule:
    stage: str                      # "temporal" or "mixing"
    batch_size: int = 4             # paper-scale value is 32
    lr0: float = 1e-4
    decay_factor: float = 0.1
    decay_every: int = 2            # epochs between decays
    epochs: int = 10
    max_steps: int | None = None    # optional hard cap for harnesses

    def __post_init__(self):
        if self.stage not in ("temporal", "mixing"):
            raise ConfigError(f"unknown stage {self.stage!r}")
        if self.batch_size < 1 or self.epochs < 1 or self.decay_every < 1:
            raise ConfigError("batch size, epochs, decay interval must be >= 1")
        if self.lr0 <= 0.0 or not 0.0 < self.decay_factor <= 1.0:
            raise ConfigError("need lr0 > 0 and decay factor in (0, 1]")
        if self.max_steps is not None and self.max_steps < 1:
            raise ConfigError(f"max steps must be >= 1, got {self.max_steps}")

    def lr_at(self, epoch: int) -> float:
        return self.lr0 * self.decay_factor ** (epoch // self.decay_every)


@dataclass(frozen=True)
class TrainData:
    images: np.ndarray       # (N, C, H, W)
    gt_slices: np.ndarray    # (N, n, H, W), each channel sums to 1
    gt_full: np.ndarray      # (N, 1, H, W), sums to 1


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

def _conv_shapes(config: ModelConfig) -> list[tuple[str, int, int]]:
    """(name, out_channels, in_channels) for every conv, in init order."""
    c = config
    e1, e2, e3, e4, e5 = c.enc_channels
    d4, d3, d2, d1 = c.dec_channels
    s4, s3, s2, s1 = c.smm_channels
    n = c.n_slices
    shapes = [
        ("enc.c1", e1, c.in_channels), ("enc.c2", e2, e1),
        ("enc.c3", e3, e2), ("enc.c4", e4, e3), ("enc.c5", e5, e4),
    ]
    for prefix, out_last in (("tdec", n), ("idec", 1)):
        shapes += [
            (f"{prefix}.d4", d4, e5),
            (f"{prefix}.d3", d3, d4 + e4),
            (f"{prefix}.d2", d2, d3 + e3),
            (f"{prefix}.d1", d1, d2 + e2),
            (f"{prefix}.h1", c.head_hidden, d1 + e1),
            (f"{prefix}.h2", out_last, c.head_hidden),
        ]
    aux = 1 + n  # resampled S_I and T maps joining each mixing stage
    shapes += [
        ("smm.s4", s4, e5 + e4),
        ("smm.s3", s3, s4 + e3 + aux),
        ("smm.s2", s2, s3 + e2 + aux),
        ("smm.s1", s1, s2 + e1 + aux),
        ("smm.head", 1, s1),
    ]
    return shapes


def init_params(config: ModelConfig, seed: int) -> dict[str, np.ndarray]:
    """Kaiming-uniform conv weights (bound sqrt(6/fan_in)), zero biases."""
    rng = np.random.default_rng(seed)
    params: dict[str, np.ndarray] = {}
    for name, out_ch, in_ch in _conv_shapes(config):
        bound = np.sqrt(6.0 / (in_ch * 9))
        params[name + ".w"] = rng.uniform(-bound, bound, size=(out_ch, in_ch, 3, 3))
        params[name + ".b"] = np.zeros(out_ch)
    return params


def infer_config(params: dict[str, np.ndarray]) -> ModelConfig:
    """Recover the architecture from checkpoint tensor shapes."""
    try:
        return ModelConfig(
            in_channels=params["enc.c1.w"].shape[1],
            enc_channels=tuple(params[f"enc.c{i}.w"].shape[0]
                               for i in range(1, 6)),
            dec_channels=tuple(params[f"tdec.d{k}.w"].shape[0]
                               for k in (4, 3, 2, 1)),
            head_hidden=params["tdec.h1.w"].shape[0],
            smm_channels=tuple(params[f"smm.s{k}.w"].shape[0]
                               for k in (4, 3, 2, 1)),
            n_slices=params["tdec.h2.w"].shape[0])
    except KeyError as exc:
        raise CheckpointError(f"checkpoint missing tensor {exc}") from exc


def check_params(params: dict[str, np.ndarray], config: ModelConfig) -> None:
    for name, out_ch, in_ch in _conv_shapes(config):
        w = params.get(name + ".w")
        b = params.get(name + ".b")
        if w is None or b is None:
            raise CheckpointError(f"checkpoint missing {name}")
        if w.shape != (out_ch, in_ch, 3, 3) or b.shape != (out_ch,):
            raise CheckpointError(
                f"{name}: got {w.shape}/{b.shape}, "
                f"expected {(out_ch, in_ch, 3, 3)}/{(out_ch,)}")


# ---------------------------------------------------------------------------
# Forward pieces (all take already-lifted Tensor parameters)
# ---------------------------------------------------------------------------

def _conv(x: ad.Tensor, pt: dict[str, ad.Tensor], name: str,
          stride: int = 1, relu: bool = False) -> ad.Tensor:
    return ad.conv2d(x, pt[name + ".w"], pt[name + ".b"], stride=stride,
                     relu=relu)


def encode(x: ad.Tensor, pt: dict[str, ad.Tensor]) -> list[ad.Tensor]:
    """Five feature blocks; the first keeps input resolution, each later
    block halves it."""
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"encoder input must be NCHW, got {x.shape}")
    h, w = x.shape[2], x.shape[3]
    if h % 16 or w % 16:
        raise ShapeMismatchError(
            f"input spatial dims must be divisible by 16, got {h}x{w}")
    blocks = [_conv(x, pt, "enc.c1", stride=1, relu=True)]
    for i in range(2, 6):
        blocks.append(_conv(blocks[-1], pt, f"enc.c{i}", stride=2, relu=True))
    return blocks


def decode_trunk(blocks: list[ad.Tensor], pt: dict[str, ad.Tensor],
                 prefix: str) -> ad.Tensor:
    """Conv-up-concat ladder from the deepest block to input resolution."""
    x = blocks[4]
    for k in (4, 3, 2, 1):
        x = _conv(x, pt, f"{prefix}.d{k}", relu=True)
        skip = blocks[k - 1]  # twice x's height and width
        x = ad.concat_channels([ad.resize_bilinear(x, *skip.shape[2:]), skip])
    return x


def _decode_head(x: ad.Tensor, pt: dict[str, ad.Tensor],
                 prefix: str) -> ad.Tensor:
    h = _conv(x, pt, f"{prefix}.h1", relu=True)
    return ad.sigmoid(_conv(h, pt, f"{prefix}.h2"))


def decode_temporal(blocks: list[ad.Tensor],
                    pt: dict[str, ad.Tensor]) -> ad.Tensor:
    """Per-slice saliency maps, (N, n, H, W) in (0,1)."""
    return _decode_head(decode_trunk(blocks, pt, "tdec"), pt, "tdec")


def decode_image(blocks: list[ad.Tensor],
                 pt: dict[str, ad.Tensor]) -> ad.Tensor:
    """Whole-viewing saliency map, (N, 1, H, W) in (0,1)."""
    return _decode_head(decode_trunk(blocks, pt, "idec"), pt, "idec")


def minmax01(x: ad.Tensor) -> ad.Tensor:
    """Per-sample min-max rescale to [0,1], ``(x - lo) / (hi - lo)``, as
    one tape node. No clamp is needed: for lo <= x <= hi, rounding is
    monotone, so the rounded x - lo is at most the rounded hi - lo and
    their quotient rounds into [0, 1]. On a tie, the gradients of lo and
    hi go to the sample's first minimum and maximum in row-major order.
    ``x`` is listed twice, for the quotient's term and for lo and hi's,
    so ``backward`` adds the terms as the five nodes of
    ``tests/oracles.py::minmax01_composite`` do, bit for bit."""
    n = x.shape[0]
    flat = x.data.reshape(n, -1)
    rows = np.arange(n)
    first_min, first_max = flat.argmin(axis=1), flat.argmax(axis=1)
    lo = flat[rows, first_min].reshape(n, 1, 1, 1)
    span = flat[rows, first_max].reshape(n, 1, 1, 1) - lo
    if np.any(span <= 0.0):
        raise DegenerateMapError("cannot min-max normalize a constant map")
    shifted = x.data - lo
    flat_shape, shape = flat.shape, x.shape  # not x: a cycle via its tape

    def pullback(g):
        g_shifted = g / span
        g_span = ad._unbroadcast(-g * shifted / (span * span), span.shape)
        g_lo = -g_span + ad._unbroadcast(-g_shifted, span.shape)
        g_ends = np.zeros(flat_shape)
        g_ends[rows, first_max] = g_span.reshape(n)
        g_ends[rows, first_min] = g_lo.reshape(n)
        return g_shifted, g_ends.reshape(shape)

    return x.tape._record("minmax01", (x.node_id, x.node_id), pullback,
                          shifted / span)


def smm(blocks: list[ad.Tensor], temporal: ad.Tensor, image_map: ad.Tensor,
        pt: dict[str, ad.Tensor]) -> ad.Tensor:
    """Mixing module: fuse the two deepest blocks, then walk back up
    re-injecting each shallower block alongside the predicted maps
    (resampled to each stage's resolution); finally add the predicted
    maps themselves onto the fused logit and rescale."""
    if temporal.shape[0] != blocks[0].shape[0] or \
            image_map.shape[0] != blocks[0].shape[0]:
        raise ShapeMismatchError("batch sizes disagree across mixing inputs")
    x = _conv(ad.concat_channels(
        [ad.resize_bilinear(blocks[4], *blocks[3].shape[2:]), blocks[3]]),
        pt, "smm.s4", relu=True)
    for k in (3, 2, 1):
        stage = blocks[k - 1]  # twice x's height and width
        sh, sw = stage.shape[2], stage.shape[3]
        x = _conv(ad.concat_channels([
            ad.resize_bilinear(x, sh, sw),
            stage,
            ad.resize_bilinear(image_map, sh, sw),
            ad.resize_bilinear(temporal, sh, sw),
        ]), pt, f"smm.s{k}", relu=True)
    logit = _conv(x, pt, "smm.head")
    mean_t = ad.reduce_mean(temporal, axis=1, keepdims=True)
    return minmax01(ad.add(ad.add(logit, image_map), mean_t))


def forward(tape: ad.Tape, images: np.ndarray, pt: dict[str, ad.Tensor]
            ) -> tuple[list[ad.Tensor], ad.Tensor, ad.Tensor]:
    """Encoder + both decoders. Returns (blocks, T, S_I)."""
    x = tape.constant(images)
    blocks = encode(x, pt)
    return blocks, decode_temporal(blocks, pt), decode_image(blocks, pt)


# ---------------------------------------------------------------------------
# Losses
# ---------------------------------------------------------------------------

def _weighted_map_loss(pred: ad.Tensor, gt: ad.Tensor, usable: np.ndarray,
                       weights: np.ndarray, lam: float,
                       beta: float) -> ad.Tensor:
    """Sum over the usable (image, channel) maps of
    weights[i, c] * (beta*KL - lam*CC), every map in one KL and one CC
    node."""
    tape = pred.tape
    rows, chans = np.nonzero(usable)
    p = ad.take_maps(pred, rows, chans)
    g = tape.constant(gt.data[rows, chans])
    term = tape.constant(np.zeros(rows.size))
    if beta > 0.0:
        term = ad.add(term, ad.mul(tape.constant(beta), kl_loss_node(p, g)))
    if lam > 0.0:
        term = ad.sub(term, ad.mul(tape.constant(lam), cc_loss_node(p, g)))
    return ad.reduce_sum(ad.mul(term, tape.constant(weights[rows, chans])))


def stage1_loss(temporal: ad.Tensor, gt_slices: ad.Tensor,
                cfg: LossConfig) -> ad.Tensor:
    """Per-slice beta1*KL - lambda1*CC, averaged over each image's
    usable slices, then over the batch. Constant ground-truth slices
    carry no signal and are skipped with a warning; an image with no
    usable slice raises."""
    if temporal.shape != gt_slices.shape:
        raise ShapeMismatchError(
            f"prediction {temporal.shape} vs ground truth {gt_slices.shape}")
    usable = usable_maps(gt_slices.data)
    for i, ch in np.argwhere(~usable):
        warnings.warn(f"image {i} slice {ch}: constant ground truth, skipped")
    per_image = usable.sum(axis=1)
    if not per_image.all():
        raise DegenerateMapError(
            f"image {np.argmin(per_image)}: every ground-truth slice is constant")
    weights = usable / per_image[:, None] / usable.shape[0]
    return _weighted_map_loss(temporal, gt_slices, usable, weights,
                              cfg.lambda1, cfg.beta1)


def stage2_loss(refined: ad.Tensor, gt: ad.Tensor,
                cfg: LossConfig) -> ad.Tensor:
    """beta2*KL - lambda2*CC on the single refined map, averaged over the
    images whose ground truth is not constant (the others are skipped
    with a warning)."""
    if refined.shape != gt.shape:
        raise ShapeMismatchError(
            f"prediction {refined.shape} vs ground truth {gt.shape}")
    usable = usable_maps(gt.data)
    for i in np.nonzero(~usable)[0]:
        warnings.warn(f"image {i}: constant ground truth, skipped")
    if not usable.any():
        raise DegenerateMapError("every ground-truth map is constant")
    weights = np.full(usable.shape, 1.0 / usable.sum())
    return _weighted_map_loss(refined, gt, usable, weights,
                              cfg.lambda2, cfg.beta2)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

SMM_PREFIX = "smm."


def _split_params(params: dict[str, np.ndarray]
                  ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    backbone = {k: v for k, v in params.items()
                if not k.startswith(SMM_PREFIX)}
    mixing = {k: v for k, v in params.items() if k.startswith(SMM_PREFIX)}
    return backbone, mixing


def _check_data(data: TrainData, config: ModelConfig) -> None:
    n = data.images.shape[0]
    if data.images.ndim != 4 or data.images.shape[1] != config.in_channels:
        raise PreconditionError(
            f"images must be (N,{config.in_channels},H,W), "
            f"got {data.images.shape}")
    if data.gt_slices.shape != (n, config.n_slices) + data.images.shape[2:]:
        raise PreconditionError(
            f"gt_slices shape {data.gt_slices.shape} does not match images")
    if data.gt_full.shape != (n, 1) + data.images.shape[2:]:
        raise PreconditionError(
            f"gt_full shape {data.gt_full.shape} does not match images")


def train(data: TrainData, schedule: TrainSchedule, seed: int,
          loss_cfg: LossConfig | None = None,
          config: ModelConfig | None = None,
          base_params: dict[str, np.ndarray] | None = None
          ) -> tuple[dict[str, np.ndarray], list[tuple[int, str, float, float]]]:
    """Run one training stage. Returns (params, loss trace rows).

    Temporal stage: fits encoder and both decoders; the whole-image
    decoder trains jointly on the stage-2 objective applied to its map.
    Mixing stage: requires ``base_params`` (the stage-1 result). The
    frozen encoder and both decoders run once over all training images,
    in chunks of ``batch_size``, and only their output arrays are kept
    (``_frozen_outputs``); each step enters its batch's rows of those
    arrays as tape constants and fits only mixing parameters, so frozen
    gradients are never computed. Every op works on each image alone,
    so the cached rows are bit-identical to a per-step recompute. Once
    the outputs are built the stage lets go of ``data``'s images and
    slice maps, which frees them when the caller holds no other
    reference (``tsal train`` holds none).

    Each step's tapes hold pullbacks only for the ops that depend on a
    trainable parameter, and each backward frees them, and the
    intermediate gradients, as it goes (see ``tsal.autodiff``): the
    constant branches (the image at ``enc.c1``, the cached mixing
    inputs) keep nothing and get no gradient. A conv that a ReLU follows
    runs it fused and keeps only its bool mask, and each KL and CC loss
    is one node that keeps only its prediction and ground truth. A
    temporal step holds one decoder's tape at a time (``_train_step``),
    and a mixing step drops its input constants before its backward.

    Nothing that outlives a step is allocated inside the loop. Training
    works on read-only copies of what its steps read (the images, slice
    and full maps in the temporal stage; the frozen outputs and full
    maps in the mixing stage) and of the trainable parameters, so the
    caller's ``data`` and ``base_params`` are never written. At each
    epoch's start the rows of those copies move in place into that
    epoch's ``rng.permutation`` order (``_permute_rows``), so a batch is
    a slice, which each tape adopts as a view, and ``ad.adam_step``
    updates the parameters and moments in place. Only the parameters
    that stay untrained are kept beside them.

    Trace rows are (epoch, stage, mean epoch loss, lr).
    """
    loss_cfg = loss_cfg or LossConfig()
    if base_params is not None:
        config = config or infer_config(base_params)
        params = dict(base_params)
    elif schedule.stage == "mixing":
        raise PreconditionError(
            "mixing stage requires the temporal-stage checkpoint")
    else:
        config = config or ModelConfig()
        params = init_params(config, seed)
    check_params(params, config)
    _check_data(data, config)

    names = list(params)
    if schedule.stage == "temporal":
        trainable, kept = _split_params(params)  # mixing params wait
        rows = [_owned(a) for a in (data.images, data.gt_slices,
                                    data.gt_full)]
        data, frozen = TrainData(*rows), None
    else:
        kept, trainable = _split_params(params)
        frozen = _frozen_outputs(data.images, kept, schedule.batch_size)
        # a mixing step reads only gt_full: let go of the rest
        data = TrainData(None, None, _owned(data.gt_full))
        rows = [*frozen, data.gt_full]
    del params
    trainable = {k: _owned(v) for k, v in trainable.items()}

    rng = np.random.default_rng(seed)
    state = ad.adam_init(trainable)
    trace: list[tuple[int, str, float, float]] = []
    steps_done = 0
    arranged = np.arange(rows[0].shape[0])  # row i holds image arranged[i]

    for epoch in range(schedule.epochs):
        lr = schedule.lr_at(epoch)
        order = rng.permutation(arranged.size)
        _permute_rows(rows, np.argsort(arranged)[order])
        arranged = order
        epoch_losses: list[float] = []
        for start in range(0, arranged.size, schedule.batch_size):
            if schedule.max_steps is not None and \
                    steps_done >= schedule.max_steps:
                break
            loss_value, grads = _train_step(
                data, slice(start, start + schedule.batch_size), trainable,
                frozen, schedule.stage, loss_cfg)
            ad.adam_step(trainable, grads, state, lr=lr)
            epoch_losses.append(loss_value)
            steps_done += 1
        if epoch_losses:
            trace.append((epoch, schedule.stage,
                          float(np.mean(epoch_losses)), lr))
        if schedule.max_steps is not None and steps_done >= schedule.max_steps:
            break

    for a in trainable.values():
        a.flags.writeable = True  # the caller's now
    return {k: trainable[k] if k in trainable else kept[k]
            for k in names}, trace


def _owned(a: np.ndarray) -> np.ndarray:
    """A read-only float64 copy of ``a``: ``Tape.constant`` and
    ``Tape.param`` adopt it, and views of it, without a copy."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


def _permute_rows(arrays: list[np.ndarray], take: np.ndarray) -> None:
    """Rearrange the rows of each array in place, so that row i holds
    what row ``take[i]`` held: ``a[:] = a[take]`` with one row of scratch
    per cycle of ``take`` instead of a whole new array. The arrays are
    writable only while their rows move, and read-only after."""
    for a in arrays:
        a.flags.writeable = True
    done = np.zeros(take.size, dtype=bool)
    for first in range(take.size):
        if done[first] or take[first] == first:
            continue
        scratch = [a[first].copy() for a in arrays]
        i = first
        while take[i] != first:
            for a in arrays:
                a[i] = a[take[i]]
            done[i] = True
            i = take[i]
        for a, row in zip(arrays, scratch):
            a[i] = row
        done[i] = True
    for a in arrays:
        a.flags.writeable = False


def _frozen_outputs(images: np.ndarray, backbone: dict[str, np.ndarray],
                    chunk: int) -> list[np.ndarray]:
    """The frozen encoder and decoders over every image, ``chunk`` images
    per tape: the five blocks, T and S_I, each indexed like ``images``.
    Every parameter enters as a constant, so the tapes are forward-only:
    no op keeps a pullback or the forward values it would read."""
    parts = []
    for start in range(0, images.shape[0], chunk):
        tape = ad.Tape()
        consts = {k: tape.constant(v) for k, v in backbone.items()}
        blocks, temporal, image_map = forward(
            tape, images[start:start + chunk], consts)
        parts.append([t.data for t in (*blocks, temporal, image_map)])
    return [np.concatenate(column) for column in zip(*parts)]


def _lift(tape: ad.Tape, params: dict[str, np.ndarray],
          prefix: str = "") -> dict[str, ad.Tensor]:
    """The parameters named ``prefix...`` as leaves of ``tape``."""
    return {k: tape.param(v, k) for k, v in params.items()
            if k.startswith(prefix)}


def _named_grads(grads: dict[int, np.ndarray],
                 lifted: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    return {name: grads[t.node_id] for name, t in lifted.items()
            if t.node_id in grads}


def _decoder_grads(blocks: list[ad.Tensor], trainable: dict[str, np.ndarray],
                   prefix: str, decode, loss_fn, gt: np.ndarray,
                   loss_cfg: LossConfig
                   ) -> tuple[np.ndarray, dict[str, np.ndarray],
                              list[np.ndarray]]:
    """One decoder and its loss on a tape of their own, the blocks
    entering as leaves, differentiated at once. Returns the loss value,
    the ``prefix`` parameters' gradients and the blocks' gradients."""
    tape = ad.Tape()
    leaves = [tape.param(b.data, f"block{k}") for k, b in enumerate(blocks)]
    lifted = _lift(tape, trainable, prefix)
    loss = loss_fn(decode(leaves, lifted), tape.constant(gt), loss_cfg)
    grads = ad.backward(tape, loss)
    return (loss.data, _named_grads(grads, lifted),
            [grads[t.node_id] for t in leaves])


def _train_step(data: TrainData, idx: slice | np.ndarray,
                trainable: dict[str, np.ndarray],
                frozen: list[np.ndarray] | None, stage: str,
                loss_cfg: LossConfig) -> tuple[float, dict[str, np.ndarray]]:
    """One forward and backward over the rows ``idx`` of ``data``, or of
    ``frozen``, the ``_frozen_outputs`` cache, in the mixing stage (else
    None). ``train`` passes a slice of its own read-only arrays, which
    every tape adopts as a view.

    The temporal stage holds one decoder's tape at a time, with no
    recomputation (the branch schedule of Chen et al., arXiv:1604.06174).
    The encoder is recorded on its own tape; each decoder and its loss
    on another (``_decoder_grads``), differentiated before the next
    decoder is built. The encoder tape is then differentiated from
    sum_k sum(block_k * G_k), G_k the sum of the two decoders' gradients
    of block k. The ``reduce_sum`` and constant ``mul`` pullbacks pass
    G_k on as 1.0 * G_k, and a sum of two terms is the same in either
    order, so every gradient is bit for bit that of one tape over the
    whole graph."""
    if stage == "mixing":
        tape = ad.Tape()
        lifted = _lift(tape, trainable)
        *blocks, temporal, image_map = [tape.constant(a[idx]) for a in frozen]
        refined = smm(blocks, temporal, image_map, lifted)
        loss = stage2_loss(refined, tape.constant(data.gt_full[idx]),
                           loss_cfg)
        # the step's inputs: no pullback reads them, so they go now
        del blocks, temporal, image_map, refined
        return float(loss.data), _named_grads(ad.backward(tape, loss), lifted)

    tape = ad.Tape()
    enc = _lift(tape, trainable, "enc.")
    blocks = encode(tape.constant(data.images[idx]), enc)
    loss_t, named, grads_t = _decoder_grads(
        blocks, trainable, "tdec.", decode_temporal, stage1_loss,
        data.gt_slices[idx], loss_cfg)
    # copies: a view would hold its concat node's whole gradient
    grads_t = [g.copy() for g in grads_t]
    loss_i, named_i, grads_i = _decoder_grads(
        blocks, trainable, "idec.", decode_image, stage2_loss,
        data.gt_full[idx], loss_cfg)
    named.update(named_i)
    terms = [ad.reduce_sum(ad.mul(b, tape.constant(g_t + g_i)))
             for b, g_t, g_i in zip(blocks, grads_t, grads_i)]
    # from here the tape alone holds each block, until its consumer's
    # pullback has run
    del blocks, grads_t, grads_i
    seed = functools.reduce(ad.add, terms)
    named.update(_named_grads(ad.backward(tape, seed), enc))
    return float(loss_t + loss_i), {k: named[k] for k in trainable
                                    if k in named}


def predict(images: np.ndarray, params: dict[str, np.ndarray]
            ) -> dict[str, np.ndarray]:
    """Full forward pass without gradients: every parameter enters as a
    constant, so the tape keeps no pullback and each intermediate value
    is freed once no later op reads it. Returns arrays
    {"T": (N,n,H,W), "S_I": (N,1,H,W), "S_R": (N,1,H,W)}."""
    check_params(params, infer_config(params))
    tape = ad.Tape()
    consts = {k: tape.constant(v) for k, v in params.items()}
    blocks, temporal, image_map = forward(tape, images, consts)
    refined = smm(blocks, temporal, image_map, consts)
    return {"T": temporal.data.copy(), "S_I": image_map.data.copy(),
            "S_R": refined.data.copy()}
