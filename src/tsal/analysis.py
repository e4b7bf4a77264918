"""Dataset-level temporal structure statistics.

Works over per-image stacks of temporal slice maps: average slice maps,
consecutive attention-shift differences, the inter-slice correlation
matrix, intra-slice deviation scores and a saliency-over-time histogram.

A slice map is "usable" when it is non-constant; all-zero maps (a slice
interval with no fixations) and otherwise constant maps are excluded
per affected average, and every exclusion is counted so callers can see
how much data supported each entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateMapError, PreconditionError
from .gaze import FixationTable, Normalization, SaliencyMap, group_rows
from .metrics import cc, fixation_pixels, mean_map


@dataclass(frozen=True)
class AverageSliceSet:
    maps: tuple[SaliencyMap, ...]          # A_1..A_n, SumToOne
    image_count: int
    skipped: tuple[int, ...]               # per-slice unusable-map count


@dataclass(frozen=True)
class SliceCorrelationMatrix:
    values: np.ndarray                     # n x n mean CC
    n: int
    image_count: int
    skipped: np.ndarray                    # n x n excluded-image counts


@dataclass(frozen=True)
class DeviationScores:
    scores: tuple[float, ...]              # per-slice mean CC to the average
    image_count: int
    skipped: tuple[int, ...]


def _usable(m: SaliencyMap) -> bool:
    return m.values.max() > m.values.min()


def _check_dataset(dataset: dict[str, list[SaliencyMap]]) -> int:
    if not dataset:
        raise PreconditionError("empty dataset")
    lengths = {len(maps) for maps in dataset.values()}
    if len(lengths) != 1:
        raise PreconditionError(f"inconsistent slice counts: {sorted(lengths)}")
    n = lengths.pop()
    if n < 1:
        raise PreconditionError("dataset has zero slices per image")
    sizes = {(m.height, m.width) for maps in dataset.values() for m in maps}
    if len(sizes) != 1:
        raise PreconditionError(f"inconsistent map sizes: {sorted(sizes)}")
    return n


def average_slices(dataset: dict[str, list[SaliencyMap]]) -> AverageSliceSet:
    """A_j = pixel mean of every usable image's sum-normalized slice-j
    map. Images are accumulated in sorted id order, so the result is
    bit-identical no matter how the dataset dict was built."""
    n = _check_dataset(dataset)
    ids = sorted(dataset)
    maps: list[SaliencyMap] = []
    skipped: list[int] = []
    for j in range(n):
        usable = [dataset[image_id][j] for image_id in ids
                  if _usable(dataset[image_id][j])]
        if not usable:
            raise DegenerateMapError(
                f"slice {j}: no usable map in any image")
        maps.append(mean_map(usable))
        skipped.append(len(ids) - len(usable))
    return AverageSliceSet(maps=tuple(maps), image_count=len(ids),
                           skipped=tuple(skipped))


def inter_slice_cc(dataset: dict[str, list[SaliencyMap]]
                   ) -> SliceCorrelationMatrix:
    """Mean over images of CC between each pair of slice maps. An image
    missing a usable map for either slice of a pair is excluded from
    that pair's average and counted in ``skipped``."""
    n = _check_dataset(dataset)
    ids = sorted(dataset)
    values = np.zeros((n, n))
    skipped = np.zeros((n, n), dtype=np.int64)
    for j in range(n):
        for k in range(j, n):
            total = 0.0
            used = 0
            for image_id in ids:
                mj, mk = dataset[image_id][j], dataset[image_id][k]
                if not (_usable(mj) and _usable(mk)):
                    continue
                total += 1.0 if j == k else cc(mj, mk)
                used += 1
            if used == 0:
                raise DegenerateMapError(
                    f"slice pair ({j},{k}): no image has both maps usable")
            values[j, k] = values[k, j] = total / used
            skipped[j, k] = skipped[k, j] = len(ids) - used
    return SliceCorrelationMatrix(values=values, n=n, image_count=len(ids),
                                  skipped=skipped)


def intra_slice_deviation(dataset: dict[str, list[SaliencyMap]],
                          averages: AverageSliceSet) -> DeviationScores:
    """Mean over images of CC between the image's slice-j map and the
    dataset average A_j."""
    n = _check_dataset(dataset)
    if len(averages.maps) != n:
        raise PreconditionError(
            f"average set has {len(averages.maps)} slices, dataset has {n}")
    ids = sorted(dataset)
    scores: list[float] = []
    skipped: list[int] = []
    for j in range(n):
        total = 0.0
        used = 0
        for image_id in ids:
            m = dataset[image_id][j]
            if not _usable(m):
                continue
            total += cc(m, averages.maps[j])
            used += 1
        if used == 0:
            raise DegenerateMapError(f"slice {j}: no usable map")
        scores.append(total / used)
        skipped.append(len(ids) - used)
    return DeviationScores(scores=tuple(scores), image_count=len(ids),
                           skipped=tuple(skipped))


def consecutive_differences(averages: AverageSliceSet) -> list[np.ndarray]:
    """Signed attention-shift maps D_k = A_{k+1} - A_k."""
    if len(averages.maps) < 2:
        raise PreconditionError("need at least two average slices to diff")
    return [b.values - a.values
            for a, b in zip(averages.maps, averages.maps[1:])]


def saliency_time_histogram(fixations: FixationTable,
                            gt_maps: dict[str, SaliencyMap],
                            bins_t: int = 50, bins_s: int = 50,
                            t_total: float = 5000.0) -> np.ndarray:
    """Counts of fixations by (time bin, saliency-at-fixation bin).

    Saliency is read from the image's max-normalized ground-truth map at
    the fixation's pixel; values at the very edge (t = T, s = 1) clamp
    into the last bin.
    """
    if bins_t < 1 or bins_s < 1:
        raise PreconditionError(f"invalid bin counts {bins_t}x{bins_s}")
    for image_id, m in gt_maps.items():
        if m.normalization is not Normalization.MAX_TO_ONE:
            raise PreconditionError(
                f"map {image_id!r} is {m.normalization.name}, need MAX_TO_ONE")
    if not t_total > 0.0:
        raise ConfigError(f"t_total must be positive, got {t_total}")
    t = fixations.t_ms
    outside = ~((t >= 0.0) & (t <= t_total))
    if outside.any():
        raise PreconditionError(
            f"timestamp {float(t[outside][0])} outside [0, {t_total}]")
    s = np.empty_like(t)
    for image_id, rows in group_rows(fixations.image_id).items():
        if image_id not in gt_maps:
            raise PreconditionError(f"no ground-truth map for {image_id!r}")
        m = gt_maps[image_id]
        s[rows] = m.values[fixation_pixels(fixations.take(rows),
                                           m.width, m.height)]
    # truncation is floor here: t and s are nonnegative
    bt = np.minimum((t / (t_total / bins_t)).astype(np.intp), bins_t - 1)
    bs = np.minimum((s / (1.0 / bins_s)).astype(np.intp), bins_s - 1)
    grid = np.zeros((bins_t, bins_s), dtype=np.int64)
    np.add.at(grid, (bt, bs), 1)
    return grid


# ---------------------------------------------------------------------------
# CSV renderers for the analysis artifacts
# ---------------------------------------------------------------------------

def correlation_csv(matrix: SliceCorrelationMatrix) -> str:
    n = matrix.n
    lines = ["slice," + ",".join(f"t{k + 1}" for k in range(n)) + ",skipped_max"]
    for j in range(n):
        row = ",".join(repr(float(v)) for v in matrix.values[j])
        lines.append(f"t{j + 1},{row},{int(matrix.skipped[j].max())}")
    return "\n".join(lines) + "\n"


def deviation_csv(scores: DeviationScores) -> str:
    lines = ["slice,mean_cc_to_average,skipped"]
    for j, (s, k) in enumerate(zip(scores.scores, scores.skipped)):
        lines.append(f"t{j + 1},{s!r},{k}")
    return "\n".join(lines) + "\n"


def histogram_csv(grid: np.ndarray, t_total: float = 5000.0) -> str:
    bins_t, bins_s = grid.shape
    lines = ["time_bin_start_ms,saliency_bin_start," + "count"]
    dt = t_total / bins_t
    ds = 1.0 / bins_s
    for bt in range(bins_t):
        for bs in range(bins_s):
            lines.append(f"{bt * dt!r},{bs * ds!r},{int(grid[bt, bs])}")
    return "\n".join(lines) + "\n"
