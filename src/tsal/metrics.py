"""Saliency agreement metrics over maps and fixation sets.

Seven evaluation scores (cc, kl, nss, auc_judd, sauc, sim, ig) plus
tape-node versions of cc and kl for use as training losses. A map is a
2-D float64 array; map-vs-map metrics normalize internally where the
definition requires it, so callers may pass maps at any scale.
"""

from __future__ import annotations

import math

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateMapError,
    GraphError,
    PreconditionError,
    ShapeMismatchError,
)
from .gaze import FixationTable, group_rows, nearest_pixels

EPS = 1e-7

Pixels = tuple[np.ndarray, np.ndarray]  # fixations as (rows, cols) indices


def _paired(p: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two 2-D maps of one size, flattened."""
    if p.shape != g.shape:
        raise ShapeMismatchError(
            f"maps disagree in size: {p.shape[1]}x{p.shape[0]} vs "
            f"{g.shape[1]}x{g.shape[0]}")
    return p.reshape(-1), g.reshape(-1)


def _sum_normalized(v: np.ndarray, what: str) -> np.ndarray:
    total = v.sum()
    if total <= 0.0:
        raise DegenerateMapError(f"{what} is all-zero")
    return v / total


def usable_maps(maps: np.ndarray) -> np.ndarray:
    """Mask of the non-constant maps of a stack, over its last two axes.
    A constant map (an all-zero slice included) carries no signal and
    has no CC."""
    return maps.max(axis=(-2, -1)) > maps.min(axis=(-2, -1))


def fixation_pixels(fixations: FixationTable, width: int, height: int
                    ) -> Pixels:
    """Nearest-pixel indices (rows, cols) for each fixation, in order."""
    return nearest_pixels(fixations.x, fixations.y, width, height)


def _fixated(p: np.ndarray, fixated: Pixels) -> np.ndarray:
    """The values of p at the fixated pixels, in order."""
    if not fixated[0].size:
        raise PreconditionError("at least one fixation required")
    return p[fixated]


def cc(p: np.ndarray, g: np.ndarray) -> float:
    """Pearson correlation of the flattened maps."""
    pv, gv = _paired(p, g)
    pc = pv - pv.mean()
    gc = gv - gv.mean()
    denom = math.sqrt((pc * pc).sum() * (gc * gc).sum())
    if denom == 0.0:
        raise DegenerateMapError("cc is undefined for a constant map")
    return float((pc * gc).sum() / denom)


def kl(p: np.ndarray, g: np.ndarray, eps: float = EPS) -> float:
    """Divergence of the prediction p from the ground truth g, with the
    usual benchmark regularization inside and outside the log."""
    pv, gv = _paired(p, g)
    pn = _sum_normalized(pv, "prediction map")
    gn = _sum_normalized(gv, "ground-truth map")
    return float((gn * np.log(gn / (pn + eps) + eps)).sum())


def nss(p: np.ndarray, fixated: Pixels) -> float:
    """Mean standardized saliency at the fixated pixels."""
    values = _fixated(p, fixated)
    sigma = p.std()
    if sigma == 0.0:
        raise DegenerateMapError("nss is undefined for a constant map")
    return float(((values - p.mean()) / sigma).mean())


def _roc_auc(pos: np.ndarray, neg: np.ndarray,
             thresholds: np.ndarray) -> float:
    """Trapezoid area under the ROC curve from (0, 0) through one point
    per threshold, highest first, to (1, 1). ``thresholds`` are sorted
    ascending; a point's rates are the shares of ``pos`` and ``neg`` at
    or above its threshold. The terms are summed strictly left to right,
    as a scalar sweep would add them."""
    def rate(values):
        above = values.size - np.searchsorted(np.sort(values),
                                              thresholds[::-1], side="left")
        return np.concatenate(([0.0], above / values.size, [1.0]))

    fp, tp = rate(neg), rate(pos)
    terms = (fp[1:] - fp[:-1]) * (tp[:-1] + tp[1:]) / 2.0
    return float(np.cumsum(terms)[-1])


def auc_judd(p: np.ndarray, fixated: Pixels) -> float:
    """ROC area with thresholds at the distinct fixated saliency values;
    false positives counted over non-fixated pixels."""
    pos = _fixated(p, fixated)
    mask = np.zeros(p.shape, dtype=bool)
    mask[fixated] = True
    neg = p[~mask]
    if neg.size == 0:
        raise PreconditionError("every pixel is fixated; no negatives left")
    return _roc_auc(pos, neg, np.unique(pos))


def sauc(p: np.ndarray, fixated: Pixels, negatives: Pixels,
         seed: int = 0) -> float:
    """Shuffled ROC area: false positives over the negative pixels,
    those of other images' fixations, capped at 10x the
    positives by seeded subsampling. Thresholds sweep every distinct
    value on either side, which makes the trapezoid area equal the rank
    statistic P(pos > neg) + 0.5 P(pos == neg) exactly."""
    if not negatives[0].size:
        raise PreconditionError("sauc requires a non-empty negative set")
    pos = _fixated(p, fixated)
    cap = 10 * pos.size
    if negatives[0].size > cap:
        rng = np.random.default_rng(seed)
        pick = rng.choice(negatives[0].size, size=cap, replace=False)
        negatives = tuple(a[pick] for a in negatives)
    neg = p[negatives]
    return _roc_auc(pos, neg, np.unique(np.concatenate((pos, neg))))


def sim(p: np.ndarray, g: np.ndarray) -> float:
    """Histogram intersection of the sum-normalized maps."""
    pv, gv = _paired(p, g)
    pn = _sum_normalized(pv, "prediction map")
    gn = _sum_normalized(gv, "ground-truth map")
    return float(np.minimum(pn, gn).sum())


def ig(p: np.ndarray, baseline: np.ndarray, fixated: Pixels,
       eps: float = EPS) -> float:
    """Information gain in bits over a baseline at the fixated pixels."""
    pv, bv = _paired(p, baseline)
    pn = _sum_normalized(pv, "prediction map").reshape(p.shape)
    bn = _sum_normalized(bv, "baseline map").reshape(p.shape)
    gain = np.log2(_fixated(pn, fixated) + eps) - np.log2(bn[fixated] + eps)
    return float(gain.mean())


def mean_map(maps) -> np.ndarray:
    """Pixel-wise mean of sum-normalized 2-D maps, added in the order the
    iterable ``maps`` gives them (it is consumed once), renormalized to
    sum 1. An all-zero map is refused once the rest are taken, as from a
    list. Used as the dataset-level information-gain baseline."""
    maps = iter(maps)
    acc = None
    for i, m in enumerate(maps):
        if acc is None:
            acc = np.zeros(m.shape)
        mv, _ = _paired(m, acc)
        total = mv.sum()
        if total <= 0.0:
            n = i + 1 + sum(1 for _ in maps)
            raise DegenerateMapError(
                f"map at index {i} of {n} averaged maps is all-zero")
        acc += (mv / total).reshape(acc.shape)
    if acc is None:
        raise PreconditionError("mean_map of no maps")
    acc /= i + 1
    return acc / acc.sum()


# ---------------------------------------------------------------------------
# Differentiable loss nodes
# ---------------------------------------------------------------------------

def _map_axes(pred: ad.Tensor, gt: ad.Tensor, name: str) -> tuple[int, int]:
    if gt.live:  # the node would give it no gradient
        raise GraphError(f"{name}: gt must not depend on a parameter")
    if pred.shape != gt.shape:
        raise ShapeMismatchError(
            f"{name}: shapes {pred.shape} and {gt.shape} differ")
    return pred.data.ndim - 2, pred.data.ndim - 1


def cc_loss_node(pred: ad.Tensor, gt: ad.Tensor) -> ad.Tensor:
    """Pearson correlation of each map as one tape node (same value as
    cc()). Reduces the last two axes: a 2-D map gives a scalar, a
    (K, H, W) stack gives (K,). ``gt`` is read as a value and gets no
    gradient, so a live ``gt`` raises ``GraphError``.

    The forward is the numpy expression sequence cov / (sd_p * sd_g) of
    the centred maps. The pullback keeps only ``pred`` and ``gt`` and
    recomputes the centred maps from them, in place where it can. The
    node lists ``pred`` twice and returns its two gradient terms apart,
    the centred map's and the mean's, so ``backward`` adds them in the
    order the same formula built from primitive nodes would, bit for
    bit."""
    axes = _map_axes(pred, gt, "cc_loss_node")
    pd, gd = pred.data, gt.data
    if (pd.std(axis=axes) == 0.0).any() or (gd.std(axis=axes) == 0.0).any():
        raise DegenerateMapError("cc is undefined for a constant map")
    count = pd.shape[-2] * pd.shape[-1]

    def centred():
        pc = pd - pd.mean(axis=axes, keepdims=True)
        gc = gd - gd.mean(axis=axes, keepdims=True)
        cov = (pc * gc).mean(axis=axes)
        sd_p = np.sqrt((pc * pc).mean(axis=axes))
        sd_g = np.sqrt((gc * gc).mean(axis=axes))
        return pc, gc, cov, sd_p, sd_g

    def pullback(g):
        pc, gc, cov, sd_p, sd_g = centred()
        den = sd_p * sd_g
        g_cov = g / den
        g_var = -g * cov / (den * den) * sd_g * 0.5 / sd_p
        pc *= np.expand_dims(g_var / count, axes)
        pc += pc  # pc * pc has pc as both factors
        gc *= np.expand_dims(g_cov / count, axes)
        pc += gc
        g_mean = -pc.sum(axis=axes[0], keepdims=True).sum(axis=axes[1],
                                                          keepdims=True)
        return pc, np.broadcast_to(g_mean / count, pd.shape)

    _, _, cov, sd_p, sd_g = centred()
    return pred.tape._record("cc", (pred.node_id, pred.node_id), pullback,
                             np.asarray(cov / (sd_p * sd_g)))


def kl_loss_node(pred: ad.Tensor, gt: ad.Tensor, eps: float = EPS) -> ad.Tensor:
    """Regularized divergence of each pred map from its gt map as one
    tape node, both sum-normalized (same value as kl()). Reduces the
    last two axes: a 2-D map gives a scalar, a (K, H, W) stack gives
    (K,). ``gt`` is read as a value and gets no gradient, so a live
    ``gt`` raises ``GraphError``.

    The forward is the numpy expression sequence of
    sum(g * log(g / (p + eps) + eps)) over the normalized maps. The
    pullback keeps only ``pred`` and ``gt``, recomputes the normalized
    maps and the ratio from them, and works in place. The node lists
    ``pred`` twice and returns its two gradient terms apart, through the
    division and through the sum it divides by, so ``backward`` adds
    them in the order the same formula built from primitive nodes
    would, bit for bit."""
    axes = _map_axes(pred, gt, "kl_loss_node")
    pd, gd = pred.data, gt.data
    if (pd.sum(axis=axes) <= 0.0).any() or (gd.sum(axis=axes) <= 0.0).any():
        raise DegenerateMapError("kl is undefined for an all-zero map")

    sp = pd.sum(axis=axes, keepdims=True)

    def shifted():  # p + eps
        pe = pd / sp
        pe += eps
        return pe

    def pullback(g):
        # three maps at a time: p + eps is computed again rather than
        # kept beside the normalized gt, the ratio and the gradient
        gn = gd / gd.sum(axis=axes, keepdims=True)
        t = np.expand_dims(g, axes) * gn
        ratio = shifted()
        np.divide(gn, ratio, out=ratio)
        ratio += eps
        t /= ratio
        del ratio
        np.negative(t, out=t)
        t *= gn
        del gn
        pe = shifted()
        pe *= pe
        t /= pe  # the gradient of p
        u = np.negative(t, out=pe)
        u *= pd
        u /= sp * sp
        g_sum = u.sum(axis=axes[0], keepdims=True).sum(axis=axes[1],
                                                        keepdims=True)
        del pe, u
        t /= sp
        return t, np.broadcast_to(g_sum, pd.shape)

    gn = gd / gd.sum(axis=axes, keepdims=True)
    out = (gn * np.log(gn / shifted() + eps)).sum(axis=axes)
    return pred.tape._record("kl", (pred.node_id, pred.node_id), pullback,
                             np.asarray(out))


# ---------------------------------------------------------------------------
# Batch evaluation
# ---------------------------------------------------------------------------

METRIC_COLUMNS = ("cc", "kl", "nss", "auc_judd", "sauc", "sim", "ig")


def evaluate_pair(pred: np.ndarray, gt: np.ndarray, fixated: Pixels,
                  negatives: Pixels, baseline: np.ndarray,
                  seed: int = 0) -> dict[str, float]:
    return {
        "cc": cc(pred, gt),
        "kl": kl(pred, gt),
        "nss": nss(pred, fixated),
        "auc_judd": auc_judd(pred, fixated),
        "sauc": sauc(pred, fixated, negatives, seed=seed),
        "sim": sim(pred, gt),
        "ig": ig(pred, baseline, fixated),
    }


def fixation_sets(image_ids: list[str], fixations: FixationTable,
                  width: int, height: int):
    """Each image's fixated pixels and sAUC negatives on a ``width`` x
    ``height`` map, as ``(fixated, negatives)`` pairs in ``image_ids``
    order. An image's negatives are the fixations of every other image
    in the table, with a map or not. An image without fixations, or a
    fixation off the map, is refused before the first pair is made."""
    # images in order of first appearance; within one image the
    # fixations run observer by observer, in order of first appearance
    # (the nss and ig means and the seeded sauc subsample depend on it)
    blocks: dict[str, list[int]] = {}
    for (image_id, _), rows in group_rows(
            zip(fixations.image_id, fixations.observer_id)).items():
        blocks.setdefault(image_id, []).extend(rows.tolist())
    for image_id in image_ids:
        if image_id not in blocks:
            raise PreconditionError(f"no fixations for image {image_id!r}")
    order: list[int] = []
    own: dict[str, slice] = {}
    for image_id, rows in blocks.items():
        own[image_id] = slice(len(order), len(order) + len(rows))
        order.extend(rows)
    # every fixation's pixel is looked up once; an image's positives are
    # its own block of the order and its negatives the rest, in order
    pool = tuple(a[order] for a in fixation_pixels(fixations, width, height))
    return ((tuple(a[own[i]] for a in pool),
             tuple(np.delete(a, own[i]) for a in pool)) for i in image_ids)
