"""Saliency agreement metrics over maps and fixation sets.

Seven evaluation scores (cc, kl, nss, auc_judd, sauc, sim, ig) plus
tape-node versions of cc and kl for use as training losses. A map is a
2-D float64 array; map-vs-map metrics normalize internally where the
definition requires it, so callers may pass maps at any scale.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import autodiff as ad
from .errors import (
    DegenerateMapError,
    PreconditionError,
    ShapeMismatchError,
)
from .gaze import FixationTable, group_rows, nearest_pixels, read_map_tsal

EPS = 1e-7


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
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-pixel indices (rows, cols) for each fixation, in order."""
    if not len(fixations):
        raise PreconditionError("at least one fixation required")
    return nearest_pixels(fixations.x, fixations.y, width, height)


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


def nss(p: np.ndarray, fixations: FixationTable) -> float:
    """Mean standardized saliency at the fixated pixels."""
    rows, cols = fixation_pixels(fixations, p.shape[1], p.shape[0])
    sigma = p.std()
    if sigma == 0.0:
        raise DegenerateMapError("nss is undefined for a constant map")
    z = (p - p.mean()) / sigma
    return float(z[rows, cols].mean())


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


def auc_judd(p: np.ndarray, fixations: FixationTable) -> float:
    """ROC area with thresholds at the distinct fixated saliency values;
    false positives counted over non-fixated pixels."""
    rows, cols = fixation_pixels(fixations, p.shape[1], p.shape[0])
    pos = p[rows, cols]
    mask = np.zeros(p.shape, dtype=bool)
    mask[rows, cols] = True
    neg = p[~mask]
    if neg.size == 0:
        raise PreconditionError("every pixel is fixated; no negatives left")
    return _roc_auc(pos, neg, np.unique(pos))


def sauc(p: np.ndarray, fixations: FixationTable,
         negatives: FixationTable, seed: int = 0) -> float:
    """Shuffled ROC area: false positives over negative fixation pixels
    (fixations of other images), capped at 10x the positives by seeded
    subsampling. Thresholds sweep every distinct value on either side,
    which makes the trapezoid area equal the rank statistic
    P(pos > neg) + 0.5 P(pos == neg) exactly."""
    if not len(negatives):
        raise PreconditionError("sauc requires a non-empty negative set")
    prows, pcols = fixation_pixels(fixations, p.shape[1], p.shape[0])
    nrows, ncols = fixation_pixels(negatives, p.shape[1], p.shape[0])
    pos = p[prows, pcols]
    neg = p[nrows, ncols]
    cap = 10 * pos.size
    if neg.size > cap:
        rng = np.random.default_rng(seed)
        neg = neg[rng.choice(neg.size, size=cap, replace=False)]
    return _roc_auc(pos, neg, np.unique(np.concatenate((pos, neg))))


def sim(p: np.ndarray, g: np.ndarray) -> float:
    """Histogram intersection of the sum-normalized maps."""
    pv, gv = _paired(p, g)
    pn = _sum_normalized(pv, "prediction map")
    gn = _sum_normalized(gv, "ground-truth map")
    return float(np.minimum(pn, gn).sum())


def ig(p: np.ndarray, baseline: np.ndarray, fixations: FixationTable,
       eps: float = EPS) -> float:
    """Information gain in bits over a baseline at the fixated pixels."""
    pv, bv = _paired(p, baseline)
    pn = _sum_normalized(pv, "prediction map").reshape(p.shape)
    bn = _sum_normalized(bv, "baseline map").reshape(p.shape)
    rows, cols = fixation_pixels(fixations, p.shape[1], p.shape[0])
    gain = np.log2(pn[rows, cols] + eps) - np.log2(bn[rows, cols] + eps)
    return float(gain.mean())


def mean_map(maps: list[np.ndarray]) -> np.ndarray:
    """Pixel-wise mean of sum-normalized 2-D maps, added in list order,
    renormalized to sum 1. Used as the dataset-level information-gain
    baseline and for each average slice map."""
    if not maps:
        raise PreconditionError("mean_map of an empty list")
    acc = np.zeros(maps[0].shape)
    for i, m in enumerate(maps):
        mv, _ = _paired(m, maps[0])
        acc += _sum_normalized(
            mv, f"map at index {i} of {len(maps)} averaged maps"
        ).reshape(acc.shape)
    acc /= len(maps)
    return acc / acc.sum()


# ---------------------------------------------------------------------------
# Differentiable loss nodes
# ---------------------------------------------------------------------------

def cc_loss_node(pred: ad.Tensor, gt: ad.Tensor) -> ad.Tensor:
    """Pearson correlation of each map as a tape node (same value as
    cc()). Reduces the last two axes: a 2-D map gives a scalar, a
    (K, H, W) stack gives (K,)."""
    if pred.shape != gt.shape:
        raise ShapeMismatchError(
            f"cc_loss_node: shapes {pred.shape} and {gt.shape} differ")
    axes = (-2, -1)
    if (pred.data.std(axis=axes) == 0.0).any() or \
            (gt.data.std(axis=axes) == 0.0).any():
        raise DegenerateMapError("cc is undefined for a constant map")
    pc = ad.sub(pred, ad.reduce_mean(pred, axis=axes, keepdims=True))
    gc = ad.sub(gt, ad.reduce_mean(gt, axis=axes, keepdims=True))
    cov = ad.reduce_mean(ad.mul(pc, gc), axis=axes)
    sd_p = ad.sqrt(ad.reduce_mean(ad.mul(pc, pc), axis=axes))
    sd_g = ad.sqrt(ad.reduce_mean(ad.mul(gc, gc), axis=axes))
    return ad.div(cov, ad.mul(sd_p, sd_g))


def kl_loss_node(pred: ad.Tensor, gt: ad.Tensor, eps: float = EPS) -> ad.Tensor:
    """Regularized divergence of each pred map from its gt map as a tape
    node, with both inputs sum-normalized on the tape (same value as
    kl()). Reduces the last two axes: a 2-D map gives a scalar, a
    (K, H, W) stack gives (K,)."""
    if pred.shape != gt.shape:
        raise ShapeMismatchError(
            f"kl_loss_node: shapes {pred.shape} and {gt.shape} differ")
    axes = (-2, -1)
    if (pred.data.sum(axis=axes) <= 0.0).any() or \
            (gt.data.sum(axis=axes) <= 0.0).any():
        raise DegenerateMapError("kl is undefined for an all-zero map")
    p = ad.div(pred, ad.reduce_sum(pred, axis=axes, keepdims=True))
    g = ad.div(gt, ad.reduce_sum(gt, axis=axes, keepdims=True))
    ratio = ad.add(ad.div(g, ad.add(p, p.tape.constant(eps))),
                   p.tape.constant(eps))
    return ad.reduce_sum(ad.mul(g, ad.log(ratio)), axis=axes)


# ---------------------------------------------------------------------------
# Batch evaluation over map directories
# ---------------------------------------------------------------------------

METRIC_COLUMNS = ("cc", "kl", "nss", "auc_judd", "sauc", "sim", "ig")


def evaluate_pair(pred: np.ndarray, gt: np.ndarray,
                  fixations: FixationTable, negatives: FixationTable,
                  baseline: np.ndarray, seed: int = 0) -> dict[str, float]:
    return {
        "cc": cc(pred, gt),
        "kl": kl(pred, gt),
        "nss": nss(pred, fixations),
        "auc_judd": auc_judd(pred, fixations),
        "sauc": sauc(pred, fixations, negatives, seed=seed),
        "sim": sim(pred, gt),
        "ig": ig(pred, baseline, fixations),
    }


def evaluate_directories(pred_dir: str, gt_dir: str,
                         fixations: FixationTable, seed: int = 0
                         ) -> tuple[list[str], list[dict[str, float]]]:
    """Score every map pair. Maps pair by file name (<image_id>.tsal);
    negatives for one image are all other images' fixations; the
    information-gain baseline is the mean ground-truth map.

    Returns (image ids, per-image metric dicts) in sorted id order.
    """
    pred_files = {f for f in os.listdir(pred_dir) if f.endswith(".tsal")}
    gt_files = {f for f in os.listdir(gt_dir) if f.endswith(".tsal")}
    if pred_files != gt_files:
        only_p = sorted(pred_files - gt_files)
        only_g = sorted(gt_files - pred_files)
        raise PreconditionError(
            f"prediction/ground-truth directories disagree "
            f"(only in pred: {only_p}, only in gt: {only_g})")
    if not pred_files:
        raise PreconditionError("no .tsal maps to evaluate")

    image_ids = sorted(f[:-5] for f in pred_files)
    # images in order of first appearance; within one image the
    # fixations run observer by observer, in order of first appearance
    # (the nss and ig means and the seeded sauc subsample depend on it)
    by_image: dict[str, list[int]] = {}
    for (image_id, _), rows in group_rows(
            zip(fixations.image_id, fixations.observer_id)).items():
        by_image.setdefault(image_id, []).extend(rows.tolist())

    gt_maps = {i: read_map_tsal(os.path.join(gt_dir, i + ".tsal"))
               for i in image_ids}
    baseline = mean_map([gt_maps[i] for i in image_ids])

    rows = []
    for image_id in image_ids:
        pred = read_map_tsal(os.path.join(pred_dir, image_id + ".tsal"))
        if image_id not in by_image:
            raise PreconditionError(f"no fixations for image {image_id!r}")
        negatives = [i for other, fl in by_image.items() if other != image_id
                     for i in fl]
        rows.append(evaluate_pair(pred, gt_maps[image_id],
                                  fixations.take(by_image[image_id]),
                                  fixations.take(negatives), baseline,
                                  seed=seed))
    return image_ids, rows


def metrics_csv(image_ids: list[str], rows: list[dict[str, float]]) -> str:
    """Render per-image scores plus a final mean row."""
    lines = ["image_id," + ",".join(METRIC_COLUMNS)]
    for image_id, row in zip(image_ids, rows):
        lines.append(image_id + "," +
                     ",".join(repr(row[c]) for c in METRIC_COLUMNS))
    means = [sum(r[c] for r in rows) / len(rows) for c in METRIC_COLUMNS]
    lines.append("mean," + ",".join(repr(v) for v in means))
    return "\n".join(lines) + "\n"
