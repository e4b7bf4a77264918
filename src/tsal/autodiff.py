"""Dense float64 tensors with taped reverse-mode differentiation.

Deliberately small: exactly the operations the saliency network records
(``add``, ``sub``, ``mul``, ``sigmoid``, ``reduce_sum``, ``reduce_mean``,
``concat_channels``, ``take_maps``, ``conv2d``, ``resize_bilinear``). Its
CC and KL losses and ``model.minmax01`` are one node each; the primitives
that only their composite oracles use (``div``, ``log``, ``sqrt``,
``reduce_min``, ``reduce_max``) live in ``tests/oracles.py``. Everything
is float64 so that analytic gradients can be checked against central
finite differences to tight tolerances.

A ``Tape`` records one forward computation as an append-only list of
nodes; inputs of a node always have smaller node ids, so ``backward``
is a single reverse sweep that visits each node at most once. Tensors
are immutable values (their buffers are marked read-only) and may be
shared freely; a tape itself is single-threaded.

The tape keeps only what ``backward`` will read. A node is *live* if
it is a parameter or if any of its inputs is live, as in PyTorch's
``requires_grad`` (Paszke et al. 2019, arXiv:1912.01703). A node that
is not live keeps no pullback, so a tape built only from constants
(prediction, a frozen backbone) holds no forward values beyond its
outputs, and a pullback builds the gradients of its live inputs only.
``backward`` consumes the tape: it drops each pullback once it has run
and each intermediate gradient once its pullback has used it, and a
second ``backward`` on the same tape raises ``GraphError``.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    GraphError,
    NonFiniteError,
    ShapeMismatchError,
)
from .fileio import atomic_write_bytes, reading


class Tensor:
    """Handle to one value recorded on a tape.

    ``data`` is a read-only float64 ndarray; shape ``()`` is a scalar.
    ``live`` says whether the value depends on a parameter, that is,
    whether ``backward`` can reach it; ``backward`` reports gradients
    for exactly the parameters (``Tape.param``).
    """

    __slots__ = ("data", "tape", "node_id", "name")

    def __init__(self, data: np.ndarray, tape: "Tape", node_id: int,
                 name: str | None = None):
        self.data = data
        self.tape = tape
        self.node_id = node_id
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def live(self) -> bool:
        return self.tape.nodes[self.node_id].live

    def __repr__(self) -> str:
        tag = self.name or f"node{self.node_id}"
        return f"Tensor({tag}, shape={self.data.shape})"


class _Node:
    """One recorded operation: kind, input node ids, whether it is live,
    and, while it is live and not yet differentiated, a pullback closure
    holding whatever forward values backward needs."""

    __slots__ = ("op", "inputs", "pullback", "live")

    def __init__(self, op: str, inputs: tuple[int, ...],
                 pullback: Callable[[np.ndarray], Sequence[np.ndarray | None]] | None,
                 live: bool):
        self.op = op
        self.inputs = inputs
        self.pullback = pullback
        self.live = live


class Tape:
    """Append-only record of one forward computation."""

    def __init__(self):
        self.nodes: list[_Node] = []
        self.differentiated = False

    def _record(self, op: str, inputs: tuple[int, ...],
                pullback, data: np.ndarray,
                name: str | None = None, leaf: bool = False) -> Tensor:
        data = _validated(data, op)
        node_id = len(self.nodes)
        live = leaf or any(self.nodes[i].live for i in inputs)
        self.nodes.append(_Node(op, inputs, pullback if live else None, live))
        return Tensor(data, self, node_id, name=name)

    def constant(self, data) -> Tensor:
        return self._record("const", (), None, _adopted(data))

    def param(self, data, name: str) -> Tensor:
        return self._record("param", (), None, _adopted(data),
                            name=name, leaf=True)


def _adopted(data) -> np.ndarray:
    """A leaf's value: a read-only float64 array that owns its memory, or
    views only read-only arrays that do, as it is (a ``Tensor``'s own
    data, entering another tape); anything else as a fresh float64 copy,
    so that no later write to the caller's array can reach the tape."""
    if isinstance(data, np.ndarray) and data.dtype == np.float64:
        base = data
        while isinstance(base, np.ndarray) and not base.flags.writeable:
            base = base.base
        if base is None:
            return data
    return np.array(data, dtype=np.float64)


def _validated(data: np.ndarray, op: str) -> np.ndarray:
    data = np.asarray(data)
    if data.dtype != np.float64:
        data = data.astype(np.float64)
    if not np.isfinite(data).all():
        raise NonFiniteError(f"{op} produced NaN or Inf values")
    if data.ndim > 0:  # ascontiguousarray would promote 0-d to (1,)
        data = np.ascontiguousarray(data)
    elif not data.flags.owndata and data.base is not None:
        data = data.copy()
    data.flags.writeable = False
    return data


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise GraphError("operands were recorded on different tapes")
    return tape


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _binary(op: str, a: Tensor, b: Tensor, fwd, da, db) -> Tensor:
    """``da(x, y)`` and ``db(x, y)`` return the gradient of one operand
    as a function of the output gradient. Only a live operand's is
    built, and each closes over just the operand arrays its formula
    reads, so the tape keeps no other forward value."""
    tape = _same_tape(a, b)
    try:
        out = fwd(a.data, b.data)
    except ValueError as exc:
        raise ShapeMismatchError(f"{op}: shapes {a.shape} and {b.shape} "
                                 f"do not broadcast") from exc

    # not a, b: a Tensor in its tape is a cycle
    sides = [(grad(a.data, b.data), t.shape) if t.live else None
             for grad, t in ((da, a), (db, b))]

    def pullback(g):
        return tuple(None if side is None else
                     _unbroadcast(side[0](g), side[1]) for side in sides)

    return tape._record(op, (a.node_id, b.node_id), pullback, out)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary("add", a, b, np.add,
                   lambda x, y: lambda g: g, lambda x, y: lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary("sub", a, b, np.subtract,
                   lambda x, y: lambda g: g, lambda x, y: np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary("mul", a, b, np.multiply,
                   lambda x, y: lambda g: g * y, lambda x, y: lambda g: g * x)


def sigmoid(a: Tensor) -> Tensor:
    x = a.data
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)

    def pullback(g):
        return (g * y * (1.0 - y),)
    return a.tape._record("sigmoid", (a.node_id,), pullback, y)


def _norm_axes(axis, ndim: int) -> tuple[int, ...]:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    return tuple(sorted(a % ndim for a in axis))


def reduce_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    shape = a.shape

    def pullback(g):
        gk = g if keepdims or not shape else np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(gk, shape).copy(),)

    out = a.data.sum(axis=axes if axes else None, keepdims=keepdims)
    return a.tape._record("sum", (a.node_id,), pullback, np.asarray(out))


def reduce_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    count = int(np.prod([a.shape[i] for i in axes])) if a.shape else 1
    shape = a.shape

    def pullback(g):
        gk = g if keepdims or not shape else np.expand_dims(g, axes) if axes else g
        return (np.broadcast_to(gk, shape).copy() / count,)

    out = a.data.mean(axis=axes if axes else None, keepdims=keepdims)
    return a.tape._record("mean", (a.node_id,), pullback, np.asarray(out))


def concat_channels(tensors: Sequence[Tensor]) -> Tensor:
    if not tensors:
        raise ShapeMismatchError("concat_channels needs at least one input")
    tape = _same_tape(*tensors)
    first = tensors[0].shape
    for t in tensors:
        if t.data.ndim != 4:
            raise ShapeMismatchError(f"concat_channels expects NCHW, got {t.shape}")
        if t.shape[0] != first[0] or t.shape[2:] != first[2:]:
            raise ShapeMismatchError(
                f"concat_channels: {t.shape} does not agree with {first} on N,H,W")
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def pullback(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]] for i in range(len(widths)))

    out = np.concatenate([t.data for t in tensors], axis=1)
    return tape._record("concat", tuple(t.node_id for t in tensors), pullback, out)


def take_maps(a: Tensor, rows: np.ndarray, chans: np.ndarray) -> Tensor:
    """The (K, H, W) stack of maps ``a[rows[k], chans[k]]`` of an NCHW
    tensor. The pullback scatters each map's gradient back into zeros,
    accumulating where an (image, channel) pair repeats."""
    if a.data.ndim != 4:
        raise ShapeMismatchError(f"take_maps expects NCHW, got {a.shape}")
    shape = a.shape

    def pullback(g):
        buf = np.zeros(shape)
        np.add.at(buf, (rows, chans), g)
        return (buf,)

    return a.tape._record("take", (a.node_id,), pullback, a.data[rows, chans])


# A band holds as many output rows as keep one tap matrix within this
# many bytes, which bounds the lowering's workspace whatever the image size
_TAP_BYTES = 1 << 20


def _tap_buffers(c: int, oh: int, ow: int, stride: int) -> list[np.ndarray]:
    """Zeroed row-tap buffers for one band of output rows of (C, H, W)
    images, one (C, 3, band + (2 - p) // stride, OW) array per row phase
    p (``dy % stride``). The band is the most output rows, at least one
    and at most OH, that keep phase 0's tap matrix within
    ``_TAP_BYTES``."""
    band = min(oh, max(1, _TAP_BYTES // (24 * c * ow) - 2 // stride))
    return [np.zeros((c, 3, band + (2 - p) // stride, ow))
            for p in range(stride)]


def _row_taps(xi: np.ndarray, bufs: list[np.ndarray], stride: int,
              r0: int, m: int) -> list[np.ndarray]:
    """Row-tap matrices of the output rows r0 .. r0 + m - 1 (m at most the
    band of ``bufs``, see ``_tap_buffers``) of one unpadded image xi
    (C, H, W), written into ``bufs`` and returned as (C*3, rows*OW)
    views. With xp the image zero-padded by 1, row ``c*3 + dx``, column
    ``j*ow + x`` of phase p's matrix holds
    ``xp[c, p + stride*(r0 + j), stride*x + dx]``, so kernel row dy reads
    the ``m*ow`` columns that start at ``(dy // stride) * ow``. Only the
    tap rows on the top or bottom padding are zeroed here: the entries on
    the left and right padding are never written, so they stay zero from
    band to band and image to image."""
    h, w = xi.shape[1:]
    taps = []
    for p, buf in enumerate(bufs):
        band = buf[:, :, :m + (2 - p) // stride]
        rows, ow = band.shape[2:]
        top = p + stride * r0 - 1  # image row of the band's first tap row
        j0 = 1 if top < 0 else 0
        j1 = min(rows, (h - 1 - top) // stride + 1)
        band[:, :, :j0] = 0.0
        band[:, :, j1:] = 0.0
        src = xi[:, top + stride * j0::stride][:, :j1 - j0]
        for dx in range(3):
            x0 = 1 if dx == 0 else 0  # dx 0 reads the left padding first
            x1 = min(ow, (w - dx) // stride + 1)
            band[:, dx, j0:j1, x0:x1] = \
                src[:, :, stride * x0 + dx - 1::stride][:, :, :x1 - x0]
        taps.append(band.reshape(band.shape[0] * 3, -1))
    return taps


def _bands(xi: np.ndarray, bufs: list[np.ndarray], stride: int):
    """For each band of one image's output rows: the band's first output
    column and column count in the flattened (OH*OW) output, and its row
    taps."""
    band, ow = bufs[0].shape[2] - 2 // stride, bufs[0].shape[3]
    oh = xi.shape[1] // stride
    for r0 in range(0, oh, band):
        m = min(band, oh - r0)
        yield r0 * ow, m * ow, _row_taps(xi, bufs, stride, r0, m)


def _conv_image(krows: np.ndarray, xi: np.ndarray, bufs: list[np.ndarray],
                stride: int, out: np.ndarray) -> None:
    """``out`` (O, OH*OW) = the convolution of one image xi: per band, the
    sum over kernel rows dy of ``krows[dy]`` (O, C*3) times the column
    block of the band's row taps that dy reads."""
    ow = bufs[0].shape[3]
    for c0, cols, taps in _bands(xi, bufs, stride):
        band_out = out[:, c0:c0 + cols]
        for dy in range(3):
            start = (dy // stride) * ow
            block = taps[dy % stride][:, start:start + cols]
            if dy == 0:
                np.matmul(krows[dy], block, out=band_out)
            else:
                band_out += krows[dy] @ block


def _kernel_rows(k: np.ndarray) -> np.ndarray:
    """(O, C, 3, 3) kernel as its three rows, (3, O, C*3)."""
    o, c = k.shape[:2]
    return np.ascontiguousarray(k.transpose(2, 0, 1, 3)).reshape(3, o, c * 3)


def _conv_kernel_grad(xd: np.ndarray, g: np.ndarray,
                      stride: int) -> np.ndarray:
    """(O, C, 3, 3) kernel gradient: per image, band and kernel row dy,
    the band's output gradient times the transpose of the column block
    of the band's row taps that dy reads."""
    n, c, h, w = xd.shape
    o, oh, ow = g.shape[1:]
    bufs = _tap_buffers(c, oh, ow, stride)
    gk = np.zeros((3, o, c * 3))
    for i in range(n):
        gi = g[i].reshape(o, oh * ow)
        for c0, cols, taps in _bands(xd[i], bufs, stride):
            for dy in range(3):
                start = (dy // stride) * ow
                gk[dy] += gi[:, c0:c0 + cols] @ \
                    taps[dy % stride][:, start:start + cols].T
    return np.ascontiguousarray(gk.reshape(3, o, c, 3).transpose(1, 2, 0, 3))


def _conv_input_grad(kd: np.ndarray, g: np.ndarray, stride: int,
                     h: int, w: int) -> np.ndarray:
    """(N, C, H, W) input gradient: the stride-1 convolution of the
    flipped kernel over each image's output gradient, read as it is at
    stride 1 and zero-stuffed to (O, H, W) at stride 2."""
    n, o = g.shape[:2]
    c = kd.shape[1]
    kflip = _kernel_rows(kd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    bufs = _tap_buffers(o, h, w, 1)
    stuffed = np.zeros((o, h, w)) if stride == 2 else None
    gx = np.empty((n, c, h, w))
    for i in range(n):
        gi = g[i]
        if stuffed is not None:
            stuffed[:, ::2, ::2] = gi
            gi = stuffed
        _conv_image(kflip, gi, bufs, 1, gx[i].reshape(c, h * w))
    return gx


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor, stride: int = 1,
           relu: bool = False) -> Tensor:
    """3x3 cross-correlation with zero padding 1 and stride 1 or 2,
    followed by a ReLU when ``relu`` is set.

    Input (N,C,H,W), kernel (O,C,3,3), bias (O,). Stride 2 halves the
    spatial extent (H and W must be even in that case).

    Row taps, one image and one band of output rows at a time: the
    im2col lowering of Chellapilla et al. (2006) along the columns only,
    as in MEC (Cho & Brand 2017, arXiv:1706.06873). A band's input rows
    are widened by their three column taps into one (C*3, rows*OW)
    matrix per row phase ``dy % stride``, and the band's output is three
    products, one per kernel row dy, each over the contiguous column
    block that row reads. A band holds as many output rows as keep one
    tap matrix within ``_TAP_BYTES`` (1 MiB), so the workspace is bounded
    whatever the image size. The taps are written straight from the
    unpadded image into matrices that each path (forward, kernel
    gradient, input gradient) allocates once per call; only the tap rows
    that fall on the padding are zeroed band by band. The forward and
    input-gradient products are split along output columns only, so
    each output is the dot product it is in one product over the image
    (the same bytes at the model's layers, whose bands are whole 64- or
    32-pixel rows; BLAS may round the odd last columns of a narrower
    band differently); the kernel gradient sums band by band. Each
    image is its own products, so an image's output does not depend on
    the rest of the batch.

    With ``relu`` the output is clamped in place: zero where it is at
    most 0, -inf included, as ``np.where(out > 0, out, 0.0)`` gives; a
    NaN or +inf is kept and refused like any non-finite output. Only the
    bool mask of the kept entries is held, and the pullback masks the
    output gradient before anything else, so the unmasked one is freed
    at once.

    The pullback keeps the unpadded input (the producer's own value)
    until the kernel gradient is built: per band and kernel row, the
    output gradient times the transposed row taps. It then lets go of
    the input (``backward`` runs a pullback once) before the input
    gradient, the same banded products with the flipped kernel over the
    output gradient (zero-stuffed at stride 2). It builds only the live
    operands' gradients, so a constant input (the image at the first
    layer) costs no input gradient.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"conv2d input must be NCHW, got {x.shape}")
    if kernel.data.ndim != 4 or kernel.shape[2:] != (3, 3):
        raise ShapeMismatchError(f"conv2d kernel must be (O,C,3,3), got {kernel.shape}")
    if kernel.shape[1] != x.shape[1]:
        raise ShapeMismatchError(
            f"conv2d: kernel expects {kernel.shape[1]} input channels, "
            f"input has {x.shape[1]}")
    if bias.data.ndim != 1 or bias.shape[0] != kernel.shape[0]:
        raise ShapeMismatchError(
            f"conv2d: bias shape {bias.shape} does not match {kernel.shape[0]} "
            f"output channels")
    if stride not in (1, 2):
        raise ConfigError(f"conv2d stride must be 1 or 2, got {stride}")

    tape = _same_tape(x, kernel, bias)
    n, c, h, w = x.shape
    if stride == 2 and (h % 2 or w % 2):
        raise ShapeMismatchError(
            f"conv2d stride 2 needs even spatial dims, got {h}x{w}")
    oh, ow = (h, w) if stride == 1 else (h // 2, w // 2)
    o = kernel.shape[0]
    xd, kd = x.data, kernel.data
    krows = _kernel_rows(kd)
    bufs = _tap_buffers(c, oh, ow, stride)
    out = np.empty((n, o, oh, ow))
    for i in range(n):
        _conv_image(krows, xd[i], bufs, stride, out[i].reshape(o, oh * ow))
    del bufs  # before the mask: the taps are not read again
    out += bias.data[None, :, None, None]
    kept = None
    if relu:
        clamped = out <= 0.0  # the derivative at exactly 0 is 0
        np.copyto(out, 0.0, where=clamped)
        kept = np.logical_not(clamped, out=clamped)

    x_live, kernel_live, bias_live = x.live, kernel.live, bias.live

    def pullback(g):
        nonlocal xd, kept
        if kept is not None:
            g, kept = g * kept, None
        gx = gk = gb = None
        if kernel_live:
            gk = _conv_kernel_grad(xd, g, stride)
        xd = None  # not read again: the input's last use on this tape
        if x_live:
            gx = _conv_input_grad(kd, g, stride, h, w)
        if bias_live:
            gb = g.sum(axis=(0, 2, 3))
        return (gx, gk, gb)

    return tape._record("conv2d", (x.node_id, kernel.node_id, bias.node_id),
                        pullback, out)


def _bilinear_plan(in_size: int, out_size: int):
    """Half-pixel-center sampling plan for one axis.

    Source coordinate of output index ``i`` is
    ``(i + 0.5) * in_size / out_size - 0.5``, clamped into [0, in_size-1];
    the value is the linear interpolation of the two bracketing samples.
    """
    coords = (np.arange(out_size) + 0.5) * (in_size / out_size) - 0.5
    coords = np.clip(coords, 0.0, in_size - 1.0)
    lo = np.floor(coords).astype(np.intp)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = coords - lo
    return lo, hi, frac


@functools.lru_cache(maxsize=64)
def _bilinear_matrix(in_size: int, out_size: int) -> np.ndarray:
    """(out_size, in_size) matrix applying ``_bilinear_plan`` to a vector.
    Cached per size pair, so it is returned read-only."""
    lo, hi, frac = _bilinear_plan(in_size, out_size)
    rows = np.arange(out_size)
    mat = np.zeros((out_size, in_size))
    mat[rows, lo] = 1.0 - frac
    mat[rows, hi] += frac
    mat.flags.writeable = False
    return mat


def resize_bilinear(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Bilinear resampling to an arbitrary size (half-pixel centers).

    Separable: with per-axis interpolation matrices Ry (out_h, H) and
    Rx (out_w, W), each (H, W) plane maps to ``Ry @ x @ Rx.T`` and the
    pullback is the transpose, ``Ry.T @ g @ Rx``. Every plane is its own
    product, so an image's output does not depend on the rest of the
    batch.
    """
    if x.data.ndim != 4:
        raise ShapeMismatchError(f"resize_bilinear expects NCHW, got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ConfigError(f"resize_bilinear: invalid target {out_h}x{out_w}")
    ry = _bilinear_matrix(x.shape[2], out_h)
    rx = _bilinear_matrix(x.shape[3], out_w)

    def pullback(g):
        return (ry.T @ g @ rx,)

    return x.tape._record("resize", (x.node_id,), pullback, ry @ x.data @ rx.T)


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse sweep from ``loss``; returns gradients keyed by node id
    for every leaf parameter the loss actually depends on.

    Only live nodes are visited and only live inputs receive a
    gradient, so a frozen subgraph whose values re-enter the graph as
    a ``tape.constant`` never has gradients computed at all. The sweep
    consumes the tape: each pullback is dropped once it has run, and
    each intermediate gradient once its node's pullback has used it,
    so memory falls as the sweep goes. A second call on the same tape
    raises ``GraphError``.
    """
    if loss.tape is not tape:
        raise GraphError("loss was not recorded on this tape")
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.shape}")
    if tape.differentiated:
        raise GraphError("tape was already differentiated")
    tape.differentiated = True

    # every live non-leaf node has a pullback and is popped when the
    # sweep reaches it, so what is left at the end is the leaf gradients
    grads: dict[int, np.ndarray] = \
        {loss.node_id: np.ones(())} if loss.live else {}
    for nid in range(loss.node_id, -1, -1):
        node = tape.nodes[nid]
        if node.pullback is None or nid not in grads:
            continue
        for input_id, input_grad in zip(node.inputs,
                                        node.pullback(grads.pop(nid))):
            if input_grad is None or not tape.nodes[input_id].live:
                continue
            if input_id in grads:
                grads[input_id] = grads[input_id] + input_grad
            else:
                grads[input_id] = input_grad
        node.pullback = None
    return grads


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    step: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def adam_init(params: dict[str, np.ndarray]) -> AdamState:
    return AdamState(step=0,
                     m={k: np.zeros_like(v) for k, v in params.items()},
                     v={k: np.zeros_like(v) for k, v in params.items()})


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8
              ) -> tuple[dict[str, np.ndarray], AdamState]:
    """One Adam update with bias correction (Kingma & Ba,
    arXiv:1412.6980), written in place: each parameter array and its
    ``state.m`` and ``state.v`` arrays take their new values, and the
    same ``params`` and ``state`` objects are returned, so a training
    loop allocates nothing that outlives the step. The values are bit for
    bit those of the functional update (``tests/oracles.py``).

    Every gradient's shape is checked before anything is written, so a
    mismatch leaves every array as it was. A parameter without a gradient
    is updated with a zero gradient. A read-only parameter is made
    writable for its own update only, and read-only again after it."""
    for name, p in params.items():
        g = grads.get(name)
        if g is not None and g.shape != p.shape:
            raise ShapeMismatchError(
                f"adam_step: gradient shape {g.shape} != param shape {p.shape} "
                f"for {name}")
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        writeable = p.flags.writeable
        p.flags.writeable = True
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.flags.writeable = writeable
    return params, state


# ---------------------------------------------------------------------------
# Parameter checkpoints ("TSPW")
# ---------------------------------------------------------------------------

_CHECKPOINT_MAGIC = b"TSPW"
_CHECKPOINT_VERSION = 1


def serialize_params(params: dict[str, np.ndarray]) -> bytes:
    """TSPW layout: magic, u32 version, u32 tensor count, then per tensor
    u32 name length + UTF-8 name, u32 rank, u64 extents, little-endian
    float64 payload. Tensors are written in sorted name order."""
    chunks = [_CHECKPOINT_MAGIC,
              struct.pack("<II", _CHECKPOINT_VERSION, len(params))]
    for name in sorted(params):
        arr = np.asarray(params[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
    return b"".join(chunks)


def deserialize_params(blob: bytes) -> dict[str, np.ndarray]:
    """Inverse of ``serialize_params``. Every read is bounds-checked: a
    truncated or corrupt blob, or a tensor holding NaN or Inf, raises
    ``CheckpointError``."""
    offset = 0

    def take(size: int, what: str) -> bytes:
        nonlocal offset
        if offset + size > len(blob):
            raise CheckpointError(
                f"truncated checkpoint: {what} needs {size} bytes at offset "
                f"{offset}, {len(blob) - offset} left")
        offset += size
        return blob[offset - size:offset]

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, take(struct.calcsize(fmt), what))

    if take(4, "magic") != _CHECKPOINT_MAGIC:
        raise CheckpointError("not a TSPW checkpoint (bad magic)")
    version, count = unpack("<II", "header")
    if version != _CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = unpack("<I", "name length")
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name is not UTF-8: {exc}") from exc
        (rank,) = unpack("<I", f"{name}: rank")
        extents = unpack(f"<{rank}Q", f"{name}: extents")
        payload = take(8 * math.prod(extents), f"{name}: payload")
        try:
            arr = np.frombuffer(payload, dtype="<f8").reshape(extents)
        except ValueError as exc:
            raise CheckpointError(f"{name}: bad extents {extents}") from exc
        if not np.isfinite(arr).all():
            raise CheckpointError(f"{name}: holds NaN or Inf values")
        params[name] = arr.astype(np.float64)
    if offset != len(blob):
        raise CheckpointError("trailing bytes after last tensor")
    return params


def save_params(path: str, params: dict[str, np.ndarray]) -> None:
    atomic_write_bytes(path, serialize_params(params))


def load_params(path: str) -> dict[str, np.ndarray]:
    with reading(path, binary=True) as fh:
        return deserialize_params(fh.read())
