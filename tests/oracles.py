"""Independent reference implementations used only by the test suite.

Everything here is written the dumbest way that could possibly be
correct: scalar Python loops, exhaustive enumeration, or a high-level
formula evaluated directly. None of it shares code with the package
under test, so agreement between the two is meaningful; the two
exceptions are ``evaluate_directories_oracle``, a slower loop over the
package's own per-image scores, ``temporal_step_one_tape``, the
temporal training step over the package's own network pieces,
``concat_channels``, the copying tape node that ``conv2d``'s channel
stacks replaced, and the composites ``cc_loss_composite``, ``kl_loss_composite`` and
``minmax01_composite``, built from primitive tape nodes: the package's
own and the ones only they use (``div``, ``log``, ``sqrt``,
``reduce_min`` and ``reduce_max``), which live here.
"""

import io
import json
import math
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from tsal import autodiff as ad
from tsal.errors import DegenerateMapError


# ---------------------------------------------------------------------------
# Gradient checking
# ---------------------------------------------------------------------------

def central_diff_grads(f, params, h=1e-5):
    """Central finite differences of a scalar function of a dict of arrays.

    f(params) -> float. Returns {name: array of same shape}.
    """
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value, dtype=np.float64)
        flat = g.reshape(-1)
        base = value.astype(np.float64).copy()
        for i in range(base.size):
            bumped = dict(params)
            plus = base.copy().reshape(-1)
            plus[i] += h
            bumped[name] = plus.reshape(base.shape)
            up = f(bumped)
            minus = base.copy().reshape(-1)
            minus[i] -= h
            bumped[name] = minus.reshape(base.shape)
            down = f(bumped)
            flat[i] = (up - down) / (2.0 * h)
        grads[name] = g
    return grads


def rel_err(a, b, floor=1e-6):
    """Elementwise relative error with a floor so 0 vs 0 compares equal."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return np.abs(a - b) / denom


# ---------------------------------------------------------------------------
# Dense ops, naive versions
# ---------------------------------------------------------------------------

def conv2d_loops(x, k, b, stride=1):
    """3x3 cross-correlation, zero pad 1, as quadruple loops."""
    n, c, h, w = x.shape
    o = k.shape[0]
    oh, ow = h // stride, w // stride
    out = np.zeros((n, o, oh, ow))
    for ni in range(n):
        for oi in range(o):
            for yi in range(oh):
                for xi in range(ow):
                    acc = b[oi]
                    for ci in range(c):
                        for dy in range(3):
                            for dx in range(3):
                                sy = yi * stride + dy - 1
                                sx = xi * stride + dx - 1
                                if 0 <= sy < h and 0 <= sx < w:
                                    acc += x[ni, ci, sy, sx] * k[oi, ci, dy, dx]
                    out[ni, oi, yi, xi] = acc
    return out


def _im2col(xp, stride, oh, ow):
    """Columns of one padded image (C, H+2, W+2): row ``c*9 + dy*3 + dx``
    holds tap (dy, dx) of channel c at every output pixel."""
    win = sliding_window_view(xp, (3, 3), axis=(1, 2))
    win = win[:, :stride * oh:stride, :stride * ow:stride]
    return win.transpose(0, 3, 4, 1, 2).reshape(xp.shape[0] * 9, oh * ow)


def conv2d_im2col(x, k, b, stride=1):
    """The 9-tap im2col convolution (Chellapilla et al. 2006) the package
    used before its row taps: one (O, C*9) by (C*9, OH*OW) product per
    image. Returns the output and its pullback, ``g -> (gx, gk, gb)``:
    the kernel gradient is the output gradient times the columns
    transposed, the input gradient the flipped kernel's stride-1 im2col
    product over the padded (at stride 2, zero-stuffed) output gradient."""
    n, c, h, w = x.shape
    o = k.shape[0]
    oh, ow = h // stride, w // stride
    xp = np.zeros((n, c, h + 2, w + 2))
    xp[:, :, 1:h + 1, 1:w + 1] = x
    kmat = k.reshape(o, c * 9)
    out = np.empty((n, o, oh, ow))
    for i in range(n):
        out[i] = (kmat @ _im2col(xp[i], stride, oh, ow)).reshape(o, oh, ow)
    out += b[None, :, None, None]

    def pullback(g):
        gk = np.zeros_like(kmat)
        for i in range(n):
            gk += g[i].reshape(o, oh * ow) @ _im2col(xp[i], stride, oh, ow).T
        gp = np.zeros((n, o, h + 2, w + 2))
        gp[:, :, 1:h + 1:stride, 1:w + 1:stride] = g
        kflip = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c, o * 9)
        gx = np.empty((n, c, h, w))
        for i in range(n):
            gx[i] = (kflip @ _im2col(gp[i], 1, h, w)).reshape(c, h, w)
        return gx, gk.reshape(o, c, 3, 3), g.sum(axis=(0, 2, 3))

    return out, pullback


def concat_channels(tensors):
    """The NCHW tensors concatenated along the channels as one tape node
    that copies them, with a pullback that slices the gradient back into
    the parts: the reference for ``conv2d`` reading an
    ``ad.concat_channels`` stack in place."""
    widths = [t.shape[1] for t in tensors]
    offsets = np.cumsum([0] + widths)

    def pullback(g):
        return tuple(g[:, offsets[i]:offsets[i + 1]]
                     for i in range(len(widths)))

    out = np.concatenate([t.data for t in tensors], axis=1)
    return tensors[0].tape._record("concat", tuple(t.node_id for t in tensors),
                                   pullback, out)


def temporal_step_one_tape(data, idx, trainable, loss_cfg):
    """The temporal-stage training step on one tape: the encoder, both
    decoders and both losses recorded together, one ``backward`` from
    their sum. Returns (loss value, gradients by parameter name), the
    reference for ``model._train_step``'s one-decoder-tape-at-a-time
    schedule."""
    from tsal import model

    tape = ad.Tape()
    lifted = {k: tape.param(v, k) for k, v in trainable.items()}
    gt_full = tape.constant(data.gt_full[idx])
    gt_slices = tape.constant(data.gt_slices[idx])
    blocks, temporal, image_map = model.forward(tape, data.images[idx],
                                                lifted)
    loss = ad.add(model.stage1_loss(temporal, gt_slices, loss_cfg),
                  model.stage2_loss(image_map, gt_full, loss_cfg))
    grads = ad.backward(tape, loss)
    named = {name: grads[t.node_id] for name, t in lifted.items()
             if t.node_id in grads}
    return float(loss.data), named


def adam_step_functional(params, grads, state, lr, beta1=0.9, beta2=0.999,
                         eps=1e-8):
    """One Adam update written functionally: fresh parameter, ``m`` and
    ``v`` arrays, nothing of the inputs written. The reference for the
    in-place ``autodiff.adam_step``. Returns (params, (step, m, v))."""
    step, m_in, v_in = state
    t = step + 1
    new_params, new_m, new_v = {}, {}, {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        m = beta1 * m_in[name] + (1.0 - beta1) * g
        v = beta2 * v_in[name] + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        new_params[name] = p - lr * m_hat / (np.sqrt(v_hat) + eps)
        new_m[name] = m
        new_v[name] = v
    return new_params, (t, new_m, new_v)


# ---------------------------------------------------------------------------
# Composite tape nodes: the primitives that only the composites use,
# and the composites that the package's single loss and rescale nodes
# must match bit for bit
# ---------------------------------------------------------------------------

def div(a, b):
    return ad._binary("div", a, b, np.divide,
                      lambda x, y: lambda g: g / y,
                      lambda x, y: lambda g: -g * x / (y * y))


def log(a):
    x = a.data

    def pullback(g):
        return (g / x,)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(x)
    return a.tape._record("log", (a.node_id,), pullback, out)


def sqrt(a):
    with np.errstate(invalid="ignore"):
        y = np.sqrt(a.data)

    def pullback(g):
        return (g * 0.5 / y,)
    return a.tape._record("sqrt", (a.node_id,), pullback, y)


def _extreme(a, axis, keepdims, take_max):
    """Shared min/max reduction. Ties send the gradient to the first
    extremal element (row-major order), which keeps backward deterministic."""
    axes = ad._norm_axes(axis, a.data.ndim)
    kept = tuple(i for i in range(a.data.ndim) if i not in axes)
    perm = kept + axes
    moved = np.transpose(a.data, perm)
    lead = moved.shape[:len(kept)]
    flat = moved.reshape(int(np.prod(lead)) if lead else 1, -1)
    idx = flat.argmax(axis=1) if take_max else flat.argmin(axis=1)
    vals = flat[np.arange(flat.shape[0]), idx]
    out = vals.reshape(lead)
    if keepdims:
        out = np.expand_dims(out, axes) if axes else out
    flat_shape, moved_shape = flat.shape, moved.shape  # not the views of x

    def pullback(g):
        rows = flat_shape[0]
        buf = np.zeros(flat_shape)
        buf[np.arange(rows), idx] = np.asarray(g).reshape(rows)
        return (np.transpose(buf.reshape(moved_shape), np.argsort(perm)),)

    name = "max" if take_max else "min"
    return a.tape._record(name, (a.node_id,), pullback, np.asarray(out))


def reduce_max(a, axis=None, keepdims=False):
    return _extreme(a, axis, keepdims, take_max=True)


def reduce_min(a, axis=None, keepdims=False):
    return _extreme(a, axis, keepdims, take_max=False)


def minmax01_composite(x):
    """Per-sample min-max rescale to [0, 1] of an NCHW tensor, built from
    five primitive tape nodes: the reference for ``model.minmax01``'s
    single node, value and gradient."""
    lo = reduce_min(x, axis=(1, 2, 3), keepdims=True)
    hi = reduce_max(x, axis=(1, 2, 3), keepdims=True)
    if np.any(hi.data - lo.data <= 0.0):
        raise DegenerateMapError("cannot min-max normalize a constant map")
    return div(ad.sub(x, lo), ad.sub(hi, lo))


def cc_loss_composite(pred, gt):
    """Pearson correlation of each map over the last two axes, built
    from primitive tape nodes (about 20): the reference for
    ``metrics.cc_loss_node``'s single node, value and gradient."""
    axes = (-2, -1)
    pc = ad.sub(pred, ad.reduce_mean(pred, axis=axes, keepdims=True))
    gc = ad.sub(gt, ad.reduce_mean(gt, axis=axes, keepdims=True))
    cov = ad.reduce_mean(ad.mul(pc, gc), axis=axes)
    sd_p = sqrt(ad.reduce_mean(ad.mul(pc, pc), axis=axes))
    sd_g = sqrt(ad.reduce_mean(ad.mul(gc, gc), axis=axes))
    return div(cov, ad.mul(sd_p, sd_g))


def kl_loss_composite(pred, gt, eps=1e-7):
    """Regularized divergence of each sum-normalized pred map from its
    gt map over the last two axes, built from primitive tape nodes: the
    reference for ``metrics.kl_loss_node``'s single node."""
    axes = (-2, -1)
    p = div(pred, ad.reduce_sum(pred, axis=axes, keepdims=True))
    g = div(gt, ad.reduce_sum(gt, axis=axes, keepdims=True))
    ratio = ad.add(div(g, ad.add(p, p.tape.constant(eps))),
                   p.tape.constant(eps))
    return ad.reduce_sum(ad.mul(g, log(ratio)), axis=axes)


def bilinear_loops(img, out_h, out_w):
    """Per-pixel bilinear resize of one 2-D array, half-pixel centers."""
    in_h, in_w = img.shape
    out = np.zeros((out_h, out_w))
    for yi in range(out_h):
        for xi in range(out_w):
            sy = min(max((yi + 0.5) * in_h / out_h - 0.5, 0.0), in_h - 1.0)
            sx = min(max((xi + 0.5) * in_w / out_w - 0.5, 0.0), in_w - 1.0)
            y0 = int(math.floor(sy))
            x0 = int(math.floor(sx))
            y1 = min(y0 + 1, in_h - 1)
            x1 = min(x0 + 1, in_w - 1)
            fy = sy - y0
            fx = sx - x0
            out[yi, xi] = ((1 - fy) * (1 - fx) * img[y0, x0]
                           + (1 - fy) * fx * img[y0, x1]
                           + fy * (1 - fx) * img[y1, x0]
                           + fy * fx * img[y1, x1])
    return out


# ---------------------------------------------------------------------------
# Metric oracles (scalar loops over flattened maps)
# ---------------------------------------------------------------------------

def cc_oracle(a, b):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    am, bm = a.mean(), b.mean()
    num = ((a - am) * (b - bm)).sum()
    den = math.sqrt(((a - am) ** 2).sum() * ((b - bm) ** 2).sum())
    return num / den


def kl_oracle(pred, gt, eps=1e-7):
    p = np.asarray(pred, dtype=np.float64).reshape(-1)
    g = np.asarray(gt, dtype=np.float64).reshape(-1)
    p = p / p.sum()
    g = g / g.sum()
    total = 0.0
    for pi, gi in zip(p, g):
        total += gi * math.log(gi / (pi + eps) + eps)
    return total


def nss_oracle(pred, fix_mask):
    p = np.asarray(pred, dtype=np.float64)
    z = (p - p.mean()) / p.std()
    vals = [z[y, x] for y in range(p.shape[0]) for x in range(p.shape[1])
            if fix_mask[y, x]]
    return sum(vals) / len(vals)


def auc_judd_oracle(pred, fix_mask):
    """Explicit threshold sweep + trapezoid, matching the usual
    definition: thresholds at each distinct fixated value."""
    p = np.asarray(pred, dtype=np.float64)
    fix = np.asarray(fix_mask, dtype=bool)
    pos = p[fix]
    neg = p[~fix]
    thresholds = sorted(set(pos.tolist()), reverse=True)
    points = [(0.0, 0.0)]
    for th in thresholds:
        tp = float((pos >= th).sum()) / pos.size
        fp = float((neg >= th).sum()) / neg.size
        points.append((fp, tp))
    points.append((1.0, 1.0))
    area = 0.0
    for (fx0, ty0), (fx1, ty1) in zip(points, points[1:]):
        area += (fx1 - fx0) * (ty0 + ty1) / 2.0
    return area


def roc_sweep_oracle(pos, neg, thresholds):
    """The scalar threshold sweep: one ROC point per threshold, highest
    first, between (0, 0) and (1, 1); trapezoids added left to right."""
    points = [(0.0, 0.0)]
    for th in sorted(set(thresholds), reverse=True):
        tp = float(sum(1 for v in pos if v >= th)) / len(pos)
        fp = float(sum(1 for v in neg if v >= th)) / len(neg)
        points.append((fp, tp))
    points.append((1.0, 1.0))
    area = 0.0
    for (fp0, tp0), (fp1, tp1) in zip(points, points[1:]):
        area += (fp1 - fp0) * (tp0 + tp1) / 2.0
    return area


def mann_whitney_auc(pos, neg):
    """Rank-statistic AUC: P(pos > neg) + 0.5 P(pos == neg), by
    exhaustive pairing."""
    wins = 0.0
    for pv in pos:
        for nv in neg:
            if pv > nv:
                wins += 1.0
            elif pv == nv:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def sim_oracle(a, b):
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    a = a / a.sum()
    b = b / b.sum()
    return sum(min(x, y) for x, y in zip(a, b))


def ig_oracle(pred, baseline, fix_mask, eps=1e-7):
    p = np.asarray(pred, dtype=np.float64)
    b = np.asarray(baseline, dtype=np.float64)
    p = p / p.sum()
    b = b / b.sum()
    terms = [math.log2(p[y, x] + eps) - math.log2(b[y, x] + eps)
             for y in range(p.shape[0]) for x in range(p.shape[1])
             if fix_mask[y, x]]
    return sum(terms) / len(terms)


def evaluate_directories_oracle(pred_dir, gt_dir, fixations, seed=0):
    """The per-image eval loop over two map directories, scored with the
    package's own metrics: for each image it rebuilds the negative set
    as every other image's fixation rows and looks their pixels up
    again. It is the reference for the pooled negatives of
    ``metrics.fixation_sets``. Returns (image ids, per-image metric
    dicts)."""
    from tsal import metrics
    from tsal.gaze import group_rows, read_map_tsal

    pred_files = {f for f in os.listdir(pred_dir) if f.endswith(".tsal")}
    gt_files = {f for f in os.listdir(gt_dir) if f.endswith(".tsal")}
    assert pred_files == gt_files and pred_files
    image_ids = sorted(f[:-5] for f in pred_files)
    by_image = {}
    for (image_id, _), rows in group_rows(
            zip(fixations.image_id, fixations.observer_id)).items():
        by_image.setdefault(image_id, []).extend(rows.tolist())

    gt_maps = {i: read_map_tsal(os.path.join(gt_dir, i + ".tsal"))
               for i in image_ids}
    baseline = metrics.mean_map([gt_maps[i] for i in image_ids])

    rows = []
    for image_id in image_ids:
        pred = read_map_tsal(os.path.join(pred_dir, image_id + ".tsal"))
        negatives = [i for other, fl in by_image.items() if other != image_id
                     for i in fl]
        w, h = pred.shape[1], pred.shape[0]
        rows.append(metrics.evaluate_pair(
            pred, gt_maps[image_id],
            metrics.fixation_pixels(fixations.take(by_image[image_id]), w, h),
            metrics.fixation_pixels(fixations.take(negatives), w, h),
            baseline, seed=seed))
    return image_ids, rows


# ---------------------------------------------------------------------------
# Gaze-pipeline oracles
# ---------------------------------------------------------------------------

def recover_oracle(fix_pts, gaze_pts, w_s, w_t, t_total):
    """Exhaustive per-fixation search + monotone repair.

    fix_pts: [(x, y)] in order; gaze_pts: [(x, y, t_ms)].
    """
    m = len(fix_pts)
    raw = []
    for i, (fx, fy) in enumerate(fix_pts):
        prior = (i + 0.5) * t_total / m
        best_cost = None
        best_t = None
        for gx, gy, gt in gaze_pts:
            c = w_s * math.hypot(gx - fx, gy - fy) + w_t * abs(gt - prior)
            if best_cost is None or c < best_cost or (c == best_cost
                                                      and gt < best_t):
                best_cost, best_t = c, gt
        raw.append(best_t)
    out = []
    prev = -math.inf
    for t in raw:
        t = max(t, prev)
        prev = t
        out.append(t)
    return out


def duration_histogram_oracle(timestamps, n, t_total):
    """Per-slice counts by direct interval comparison."""
    bounds = [k * t_total / n for k in range(n + 1)]
    counts = [0] * n
    for t in timestamps:
        for k in range(n):
            hi_ok = t <= bounds[k + 1] if k == n - 1 else t < bounds[k + 1]
            if bounds[k] <= t and hi_ok:
                counts[k] += 1
                break
    return counts


def sort_chunk_oracle(keyed_items, n):
    """Stable sort by key then chunk with the first-r-get-one-extra rule.

    keyed_items: [(key_tuple, item)]. Returns list of item lists.
    """
    ordered = [item for _, item in sorted(keyed_items, key=lambda p: p[0])]
    q, r = divmod(len(ordered), n)
    out = []
    start = 0
    for k in range(n):
        size = q + 1 if k < r else q
        out.append(ordered[start:start + size])
        start += size
    return out


def rasterize_dense_oracle(points, width, height, sigma):
    """Impulse grid + direct dense 2-D convolution with the truncated
    separable Gaussian (outer product kernel), zero padding."""
    radius = math.ceil(3.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(offs ** 2) / (2.0 * sigma * sigma))
    k1 = k1 / k1.sum()
    k2 = np.outer(k1, k1)
    grid = np.zeros((height, width))
    for x, y in points:
        px = min(int(math.floor(x + 0.5)), width - 1)
        py = min(int(math.floor(y + 0.5)), height - 1)
        grid[py, px] += 1.0
    out = np.zeros_like(grid)
    for yy in range(height):
        for xx in range(width):
            acc = 0.0
            for dy in range(-radius, radius + 1):
                for dx in range(-radius, radius + 1):
                    sy, sx = yy + dy, xx + dx
                    if 0 <= sy < height and 0 <= sx < width:
                        acc += grid[sy, sx] * k2[dy + radius, dx + radius]
            out[yy, xx] = acc
    return out


def blur_convolve_loop(grid, sigma):
    """Separable truncated-Gaussian blur as one np.convolve per row,
    then one per column (mode "same": zero padding). Only valid while
    the kernel is no wider than the grid."""
    radius = math.ceil(3.0 * sigma)
    offs = np.arange(-radius, radius + 1, dtype=np.float64)
    k1 = np.exp(-(offs ** 2) / (2.0 * sigma * sigma))
    k1 = k1 / k1.sum()
    out = np.empty_like(grid)
    for row in range(grid.shape[0]):
        out[row] = np.convolve(grid[row], k1, mode="same")
    for col in range(grid.shape[1]):
        out[:, col] = np.convolve(out[:, col], k1, mode="same")
    return out


def generate_scene_loop(spec, seed):
    """Scene rendering with one Gaussian render per use: each object
    once for the image, then every weighted component again for every
    slice map. Returns the image and the slice map arrays."""
    def dense_gaussian(cx, cy, sigma):
        yy, xx = np.mgrid[0:h, 0:w]
        g = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma * sigma))
        return g / g.sum()

    rng = np.random.default_rng(seed)
    w, h, n = spec.width, spec.height, len(spec.drift)
    image = rng.uniform(0.0, 0.3, size=(3, h, w))
    for o in spec.objects:
        bump = dense_gaussian(o.cx, o.cy, o.sigma)
        bump = bump / bump.max()
        color = rng.uniform(0.4, 1.0, size=3)
        image = image + color[:, None, None] * bump
    image = np.clip(image, 0.0, 1.0)

    components = [(o.cx, o.cy, o.sigma) for o in spec.objects]
    if spec.center_bias_strength > 0.0:
        components.append(((w - 1) / 2.0, (h - 1) / 2.0, 0.25 * min(w, h)))
    maps = []
    for k in range(n):
        weights = np.zeros(len(components))
        for i, o in enumerate(spec.objects):
            weights[i] = spec.drift[k][i] * o.weight
        if spec.center_bias_strength > 0.0:
            weights[-1] = spec.center_bias_strength * (k + 1) / n
        weights /= weights.sum()
        dist = np.zeros((h, w))
        for i, (cx, cy, sigma) in enumerate(components):
            if weights[i] > 0.0:
                dist += weights[i] * dense_gaussian(cx, cy, sigma)
        maps.append(dist / dist.sum())
    return image, maps


def sample_observers_loop(mixture, observers, samples_per_sec,
                          fixation_rate, seed, image_id, rho, t_total_ms,
                          jitter_px):
    """The viewing simulation one draw at a time: scalar normal draws
    and scalar clips per gaze sample. Returns gaze rows (image_id,
    observer_id, t_ms, x, y), fixation rows (image_id, observer_id,
    order_index, x, y), true timestamps and true slices."""
    rng = np.random.default_rng(seed)
    n = mixture.weights.shape[0]
    n_comp = mixture.centers.shape[0]
    slice_ms = t_total_ms / n
    per_slice = max(1, round(fixation_rate * slice_ms / 1000.0))
    samples_per_obs = round(samples_per_sec * t_total_ms / 1000.0)
    w, h = mixture.width, mixture.height

    def clip_xy(x, y):
        return (float(np.clip(x, 0.0, w - 1)), float(np.clip(y, 0.0, h - 1)))

    gaze, fixations, true_t, true_slice = [], [], [], []
    for obs in range(observers):
        observer_id = f"o{obs:03d}"
        visits = np.zeros(n_comp)
        points = []
        for k in range(n):
            for i in range(per_slice):
                probs = mixture.weights[k] * rho ** visits
                if mixture.center_index is not None:
                    probs[mixture.center_index] = \
                        mixture.weights[k, mixture.center_index]
                total = probs.sum()
                if total <= 0.0:
                    probs = mixture.weights[k].copy()
                    total = probs.sum()
                comp = rng.choice(n_comp, p=probs / total)
                if comp != mixture.center_index:
                    visits[comp] += 1.0
                x, y = clip_xy(*rng.normal(mixture.centers[comp],
                                           mixture.sigmas[comp]))
                order = k * per_slice + i
                fixations.append((image_id, observer_id, order, x, y))
                true_t.append((order + 0.5) * t_total_ms / (n * per_slice))
                true_slice.append(k)
                points.append((x, y))
        fix_dur = t_total_ms / (n * per_slice)
        for j in range(samples_per_obs):
            t = (j + 0.5) * t_total_ms / samples_per_obs
            fx, fy = points[min(int(t / fix_dur), len(points) - 1)]
            gx, gy = clip_xy(fx + rng.normal(0.0, jitter_px),
                             fy + rng.normal(0.0, jitter_px))
            gaze.append((image_id, observer_id, t, gx, gy))
    return gaze, fixations, true_t, true_slice


def gaze_jsonl_oracle(rows):
    """Gaze log bytes from one json.dump per (image_id, observer_id,
    t_ms, x, y) row."""
    buf = io.StringIO()
    for image_id, observer_id, t, x, y in rows:
        json.dump({"image_id": image_id, "observer_id": observer_id,
                   "t_ms": t, "x": x, "y": y}, buf)
        buf.write("\n")
    return buf.getvalue().encode("utf-8")


def histogram2d_oracle(records, bins_t, bins_s, t_total):
    """Double-loop saliency-time binning. records: [(t_ms, s_value)]."""
    grid = np.zeros((bins_t, bins_s), dtype=np.int64)
    for t, s in records:
        bt = min(int(t / (t_total / bins_t)), bins_t - 1)
        bs = min(int(s / (1.0 / bins_s)), bins_s - 1)
        grid[bt, bs] += 1
    return grid


def centroid_oracle(map2d):
    """Mass centroid of a 2-D map by explicit accumulation; (x, y)."""
    h, w = map2d.shape
    total = sx = sy = 0.0
    for y in range(h):
        for x in range(w):
            v = float(map2d[y][x])
            total += v
            sx += v * x
            sy += v * y
    return sx / total, sy / total


# ---------------------------------------------------------------------------
# Temporal analysis: the dict-of-maps scalar loops the stack path
# replaced. A dataset maps image id -> list of 2-D slice value arrays;
# images are visited in sorted id order and each mean adds one image at
# a time, left to right.
# ---------------------------------------------------------------------------

def _usable_oracle(m):
    return m.max() > m.min()


def average_slices_oracle(dataset):
    """(per-slice average value arrays, per-slice skip counts)."""
    ids = sorted(dataset)
    maps, skipped = [], []
    for j in range(len(dataset[ids[0]])):
        usable = [dataset[i][j] for i in ids if _usable_oracle(dataset[i][j])]
        acc = np.zeros(usable[0].shape)
        for m in usable:
            v = m.reshape(-1)
            acc += (v / v.sum()).reshape(acc.shape)
        acc /= len(usable)
        maps.append(acc / acc.sum())
        skipped.append(len(ids) - len(usable))
    return maps, skipped


def inter_slice_cc_oracle(dataset):
    """(n x n mean CC over the images with both maps usable, n x n skip
    counts)."""
    ids = sorted(dataset)
    n = len(dataset[ids[0]])
    values = np.zeros((n, n))
    skipped = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for k in range(j, n):
            total = 0.0
            used = 0
            for i in ids:
                mj, mk = dataset[i][j], dataset[i][k]
                if not (_usable_oracle(mj) and _usable_oracle(mk)):
                    continue
                total += 1.0 if j == k else cc_oracle(mj, mk)
                used += 1
            values[j, k] = values[k, j] = total / used
            skipped[j, k] = skipped[k, j] = len(ids) - used
    return values, skipped


def intra_slice_deviation_oracle(dataset, averages):
    """(per-slice mean CC of the usable maps to the average, per-slice
    skip counts)."""
    ids = sorted(dataset)
    scores, skipped = [], []
    for j in range(len(averages)):
        total = 0.0
        used = 0
        for i in ids:
            m = dataset[i][j]
            if not _usable_oracle(m):
                continue
            total += cc_oracle(m, averages[j])
            used += 1
        scores.append(total / used)
        skipped.append(len(ids) - used)
    return scores, skipped
