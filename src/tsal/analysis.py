"""Dataset-level temporal structure statistics.

Works on one ``(images, slices, H, W)`` float64 stack of temporal slice
maps: average slice maps, consecutive attention-shift differences, the
inter-slice correlation matrix and intra-slice deviation scores; and on
the whole-image maps for a saliency-over-time histogram. Every map is a
2-D float64 array.

A slice map is "usable" when it is non-constant (``metrics.usable_maps``);
all-zero maps (a slice interval with no fixations) and otherwise
constant maps are excluded per affected average, and every exclusion is
counted so callers can see how much data supported each entry. Means
over images add in image order, strictly left to right.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateMapError, PreconditionError
from .gaze import (DEFAULT_T_TOTAL_MS, FixationTable, Normalization,
                   check_time_range, group_rows, normalize_map)
from .metrics import cc, fixation_pixels, mean_map, usable_maps


def average_slices(stack: np.ndarray) -> list[np.ndarray]:
    """A_j = pixel mean of every usable image's sum-normalized slice-j
    map; ``intra_slice_deviation`` counts the images skipped."""
    usable = usable_maps(stack)
    maps = []
    for j in range(stack.shape[1]):
        rows = np.flatnonzero(usable[:, j])
        if not rows.size:
            raise DegenerateMapError(
                f"slice {j}: no usable map in any image")
        maps.append(mean_map([stack[i, j] for i in rows]))
    return maps


def inter_slice_cc(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over images of CC between each pair of slice maps (n x n),
    and per pair the count of images excluded from it because the map of
    either slice is unusable."""
    usable = usable_maps(stack)
    n = stack.shape[1]
    values = np.zeros((n, n))
    skipped = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for k in range(j, n):
            rows = np.flatnonzero(usable[:, j] & usable[:, k])
            if not rows.size:
                raise DegenerateMapError(
                    f"slice pair ({j},{k}): no image has both maps usable")
            total = 0.0
            for i in rows:
                total += 1.0 if j == k else cc(stack[i, j], stack[i, k])
            values[j, k] = values[k, j] = total / rows.size
            skipped[j, k] = skipped[k, j] = len(stack) - rows.size
    return values, skipped


def intra_slice_deviation(stack: np.ndarray, averages: list[np.ndarray]
                          ) -> tuple[list[float], np.ndarray]:
    """Mean over images of CC between the image's slice-j map and the
    dataset average A_j, and per slice the count of skipped images."""
    usable = usable_maps(stack)
    n = stack.shape[1]
    if len(averages) != n:
        raise PreconditionError(
            f"average set has {len(averages)} slices, stack has {n}")
    scores = []
    for j in range(n):
        rows = np.flatnonzero(usable[:, j])
        if not rows.size:
            raise DegenerateMapError(f"slice {j}: no usable map")
        total = 0.0
        for i in rows:
            total += cc(stack[i, j], averages[j])
        scores.append(total / rows.size)
    return scores, len(stack) - usable.sum(axis=0)


def consecutive_differences(averages: list[np.ndarray]) -> list[np.ndarray]:
    """Signed attention-shift maps D_k = A_{k+1} - A_k."""
    if len(averages) < 2:
        raise PreconditionError("need at least two average slices to diff")
    return [b - a for a, b in zip(averages, averages[1:])]


def saliency_time_histogram(fixations: FixationTable,
                            gt_maps: dict[str, np.ndarray],
                            bins_t: int = 50, bins_s: int = 50,
                            t_total: float = DEFAULT_T_TOTAL_MS) -> np.ndarray:
    """Counts of fixations by (time bin, saliency-at-fixation bin).

    Saliency is read at the fixation's pixel from the image's
    ground-truth map scaled to peak 1; only the maps of images with
    fixations are read. Values at the very edge (t = T, s = 1) clamp
    into the last bin.
    """
    if bins_t < 1 or bins_s < 1:
        raise PreconditionError(f"invalid bin counts {bins_t}x{bins_s}")
    t = fixations.t_ms
    check_time_range(t, t_total)
    s = np.empty_like(t)
    for image_id, rows in group_rows(fixations.image_id).items():
        if image_id not in gt_maps:
            raise PreconditionError(f"no ground-truth map for {image_id!r}")
        m = gt_maps[image_id]
        height, width = m.shape
        s[rows] = normalize_map(m, Normalization.MAX_TO_ONE)[
            fixation_pixels(fixations.take(rows), width, height)]
    # truncation is floor here: t and s are nonnegative
    bt = np.minimum((t / (t_total / bins_t)).astype(np.intp), bins_t - 1)
    bs = np.minimum((s / (1.0 / bins_s)).astype(np.intp), bins_s - 1)
    grid = np.zeros((bins_t, bins_s), dtype=np.int64)
    np.add.at(grid, (bt, bs), 1)
    return grid
