"""Dataset-level temporal structure statistics.

The statistics over the temporal slice maps (average slice maps, the
inter-slice correlation matrix and intra-slice deviation scores) take
any iterable of per-image ``(slices, H, W)`` float64 arrays, which an
``(images, slices, H, W)`` stack is too. Each consumes it once and adds
image by image, so one image's maps are all it holds. Consecutive
attention-shift differences come from the averages, and a
saliency-over-time histogram from the whole-image maps, also taken one
at a time. Every map is a 2-D float64 array.

A slice map is "usable" when it is non-constant (``metrics.usable_maps``);
all-zero maps (a slice interval with no fixations) and otherwise
constant maps are excluded per affected average, and every exclusion is
counted so callers can see how much data supported each entry. Means
over images add in image order, strictly left to right.
"""

from __future__ import annotations

import numpy as np

from .defaults import DEFAULT_T_TOTAL_MS
from .errors import (DegenerateMapError, PreconditionError,
                     ShapeMismatchError, TsalError)
from .fileio import naming
from .gaze import (FixationTable, Normalization, check_time_range,
                   group_rows, normalize_map)
from .metrics import cc, fixation_pixels, usable_maps


def _usable_images(maps):
    """Each image's ``(slices, H, W)`` maps with their usable mask, in
    order. Every image must have the shape of the first, and there must
    be one."""
    shape = None
    for m in maps:
        if shape is None:
            shape = m.shape
        elif m.shape != shape:
            raise ShapeMismatchError(
                f"image maps have shape {m.shape}, expected {shape}")
        yield m, usable_maps(m)
    if shape is None:
        raise DegenerateMapError("no images")


def average_slices(maps) -> list[np.ndarray]:
    """A_j = pixel mean of every usable image's sum-normalized slice-j
    map; ``intra_slice_deviation`` counts the images skipped."""
    sums = used = None
    for m, usable in _usable_images(maps):
        if sums is None:
            sums, used = np.zeros(m.shape), [0] * len(m)
        for j in np.flatnonzero(usable):
            sums[j] += normalize_map(m[j], Normalization.SUM_TO_ONE)
            used[j] += 1
    averages = []
    for j, (total, count) in enumerate(zip(sums, used)):
        if not count:
            raise DegenerateMapError(
                f"slice {j}: no usable map in any image")
        mean = total / count
        averages.append(mean / mean.sum())
    return averages


def inter_slice_cc(maps) -> tuple[np.ndarray, np.ndarray]:
    """Mean over images of CC between each pair of slice maps (n x n),
    and per pair the count of images excluded from it because the map of
    either slice is unusable."""
    images = 0
    for m, usable in _usable_images(maps):
        if not images:
            n = len(m)
            totals = [[0.0] * n for _ in range(n)]
            used = [[0] * n for _ in range(n)]
        images += 1
        for j in range(n):
            for k in range(j, n):
                if usable[j] and usable[k]:
                    totals[j][k] += 1.0 if j == k else cc(m[j], m[k])
                    used[j][k] += 1
    values = np.zeros((n, n))
    skipped = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for k in range(j, n):
            if not used[j][k]:
                raise DegenerateMapError(
                    f"slice pair ({j},{k}): no image has both maps usable")
            values[j, k] = values[k, j] = totals[j][k] / used[j][k]
            skipped[j, k] = skipped[k, j] = images - used[j][k]
    return values, skipped


def intra_slice_deviation(maps, averages: list[np.ndarray]
                          ) -> tuple[list[float], np.ndarray]:
    """Mean over images of CC between the image's slice-j map and the
    dataset average A_j, and per slice the count of skipped images."""
    n = len(averages)
    totals, used = [0.0] * n, [0] * n
    images = 0
    for m, usable in _usable_images(maps):
        if len(m) != n:
            raise PreconditionError(
                f"average set has {n} slices, stack has {len(m)}")
        images += 1
        for j in np.flatnonzero(usable):
            totals[j] += cc(m[j], averages[j])
            used[j] += 1
    scores = []
    for j in range(n):
        if not used[j]:
            raise DegenerateMapError(f"slice {j}: no usable map")
        scores.append(totals[j] / used[j])
    return scores, images - np.array(used)


def consecutive_differences(averages: list[np.ndarray]) -> list[np.ndarray]:
    """Signed attention-shift maps D_k = A_{k+1} - A_k."""
    if len(averages) < 2:
        raise PreconditionError("need at least two average slices to diff")
    return [b - a for a, b in zip(averages, averages[1:])]


def saliency_time_histogram(fixations: FixationTable, gt_maps,
                            bins_t: int = 50, bins_s: int = 50,
                            t_total: float = DEFAULT_T_TOTAL_MS, *,
                            fixations_path=None, map_path=None) -> np.ndarray:
    """Counts of fixations by (time bin, saliency-at-fixation bin).

    ``gt_maps`` gives each image's ground-truth map as ``(image_id,
    map)`` pairs, which are consumed once. Saliency is
    read at the fixation's pixel from the image's map scaled to peak 1;
    only the maps of images with fixations are scaled. A map that fails
    is reported once every pair is taken, so an error in making a later
    pair comes first; failures come in order of the images' first
    fixation. An all-zero map's error names ``map_path(image_id)`` and a
    fixation outside its map names ``fixations_path``, when given.
    Values at the very edge (t = T, s = 1) clamp into the last bin.
    """
    if bins_t < 1 or bins_s < 1:
        raise PreconditionError(f"invalid bin counts {bins_t}x{bins_s}")
    t = fixations.t_ms
    check_time_range(t, t_total)
    groups = group_rows(fixations.image_id)
    s = np.empty_like(t)
    failed = {}  # image id -> None, or the error its map gave
    for image_id, m in gt_maps:
        rows = groups.get(image_id)
        if rows is None:
            continue
        height, width = m.shape
        try:
            with naming(None if map_path is None else map_path(image_id),
                        DegenerateMapError):
                peak = normalize_map(m, Normalization.MAX_TO_ONE)
            with naming(fixations_path, PreconditionError):
                s[rows] = peak[fixation_pixels(fixations.take(rows),
                                               width, height)]
            failed[image_id] = None
        except TsalError as exc:
            failed[image_id] = exc.with_traceback(None)
    for image_id in groups:
        if image_id not in failed:
            raise PreconditionError(f"no ground-truth map for {image_id!r}")
        if failed[image_id] is not None:
            raise failed[image_id]
    # truncation is floor here: t and s are nonnegative
    bt = np.minimum((t / (t_total / bins_t)).astype(np.intp), bins_t - 1)
    bs = np.minimum((s / (1.0 / bins_s)).astype(np.intp), bins_s - 1)
    grid = np.zeros((bins_t, bins_s), dtype=np.int64)
    np.add.at(grid, (bt, bs), 1)
    return grid
