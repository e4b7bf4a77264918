"""Gaze records, fixation timestamp recovery, temporal slicing, and
rasterization of fixations into saliency maps.

Gaze samples and fixations are the columnar tables of ``tables`` (a
row per tracker sample or per fixation, numpy columns, a fixation's
t_ms and slice_index among them); slicing and rasterization take the
columns they need. A saliency map is a 2-D float64 array; its
normalization is a tag only in the TSAL file header, which the writer
checks the map against. No function changes an array it was given.
File formats: gaze logs are JSON lines, fixations are CSV, maps are a
small binary container ("TSAL") plus PGM/PPM exports for viewing.
"""

from __future__ import annotations

import csv
import enum
import functools
import itertools
import json
import math
import operator
import struct
import sys
from dataclasses import replace

import numpy as np

from .errors import (
    ConfigError,
    DegenerateMapError,
    FormatError,
    NonFiniteError,
    PreconditionError,
    UnrecoverableObserverError,
)
from .fileio import atomic_write_bytes, atomic_writer, reading, write_csv
from .tables import FixationTable, GazeTable

DEFAULT_T_TOTAL_MS = 5000.0
DEFAULT_SLICES = 5
DEFAULT_SPATIAL_WEIGHT = 1.0     # per pixel
DEFAULT_TEMPORAL_WEIGHT = 0.01   # per millisecond
NORM_TOLERANCE = 1e-9
_COST_CELLS = 1 << 20   # largest (fixations, gaze samples) cost block
_CHUNK = 1024           # rows per chunk of a gaze log or fixation CSV


class Normalization(enum.Enum):
    """A map's normalization, as tagged in the TSAL file header."""
    RAW = 0
    SUM_TO_ONE = 1
    MAX_TO_ONE = 2


def normalize_map(values: np.ndarray, mode: Normalization) -> np.ndarray:
    """A map scaled to sum or peak 1 (a new array), or the map itself for
    RAW; an all-zero map cannot be normalized and raises."""
    if mode is Normalization.RAW:
        return values
    if mode is Normalization.SUM_TO_ONE:
        total = values.sum()
        if total <= 0.0:
            raise DegenerateMapError("cannot sum-normalize an all-zero map")
        return values / total
    peak = values.max()
    if peak <= 0.0:
        raise DegenerateMapError("cannot max-normalize an all-zero map")
    return values / peak


# ---------------------------------------------------------------------------
# Timestamp recovery
# ---------------------------------------------------------------------------

def recover_timestamps(fixations: FixationTable, gaze: GazeTable,
                       w_s: float = DEFAULT_SPATIAL_WEIGHT,
                       w_t: float = DEFAULT_TEMPORAL_WEIGHT,
                       t_total: float = DEFAULT_T_TOTAL_MS) -> np.ndarray:
    """Timestamp of each fixation of one observer, in row order, from
    that observer's gaze table.

    Each fixation starts from the uniform prior t_hat = (i + 0.5) * T / M
    and takes the timestamp of the gaze sample minimizing
    w_s * spatial_distance + w_t * |gaze.t - t_hat|, earliest sample on
    ties. The result is then repaired to be non-decreasing by clamping
    each timestamp to its predecessor's.
    """
    if w_s < 0.0 or w_t < 0.0:
        raise ConfigError(f"weights must be nonnegative, got w_s={w_s} w_t={w_t}")
    if not t_total > 0.0:
        raise ConfigError(f"t_total must be positive, got {t_total}")
    m = len(fixations)
    if not m:
        return np.empty(0)
    if not len(gaze):
        raise UnrecoverableObserverError(
            f"observer {fixations.observer_id[0]!r} has {m} "
            f"fixations but no gaze samples")
    order = fixations.order_index
    if (order[1:] <= order[:-1]).any():
        i = int(np.argmax(order[1:] <= order[:-1]))
        raise PreconditionError(
            f"fixations not ordered by order_index "
            f"({order[i]} then {order[i + 1]})")

    gx, gy, gt = gaze.x, gaze.y, gaze.t_ms
    prior = (np.arange(m) + 0.5) * t_total / m
    t = np.empty(m)
    step = max(1, _COST_CELLS // len(gt))  # one block in practice
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        cost = (w_s * np.hypot(gx - fixations.x[rows, None],
                               gy - fixations.y[rows, None])
                + w_t * np.abs(gt - prior[rows, None]))
        # earliest gaze time among exact ties
        t[rows] = np.where(cost == cost.min(axis=1, keepdims=True),
                           gt, np.inf).min(axis=1)
    return np.maximum.accumulate(t)


# ---------------------------------------------------------------------------
# Temporal slicing
# ---------------------------------------------------------------------------

def check_time_range(t_ms: np.ndarray, t_total: float) -> None:
    """Raise ``ConfigError`` for a t_total that is not positive and
    ``PreconditionError`` for the first timestamp outside [0, t_total];
    with a NaN timestamp or t_total, a timestamp is outside."""
    if t_total <= 0.0:
        raise ConfigError(f"t_total must be positive, got {t_total}")
    outside = ~((t_ms >= 0.0) & (t_ms <= t_total))
    if outside.any():
        raise PreconditionError(
            f"timestamp {float(t_ms[outside][0])} outside [0, {t_total}]")


def slice_equal_duration(t_ms: np.ndarray, n: int = DEFAULT_SLICES,
                         t_total: float = DEFAULT_T_TOTAL_MS) -> np.ndarray:
    """Slice index of each timestamp, in input order, for n equal-length
    intervals of the viewing time.

    Bins are half-open [k*T/n, (k+1)*T/n) except the last, which is
    closed at T so a fixation exactly at the end of viewing is kept.
    """
    if n < 1:
        raise ConfigError(f"slice count must be >= 1, got {n}")
    t = np.asarray(t_ms, dtype=np.float64)
    check_time_range(t, t_total)
    boundaries = np.array([k * t_total / n for k in range(n + 1)])
    return np.minimum(np.searchsorted(boundaries, t, side="right") - 1, n - 1)


def slice_equal_distribution(t_ms: np.ndarray, order_index: np.ndarray,
                             n: int = DEFAULT_SLICES) -> np.ndarray:
    """Slice index of each fixation, in input order, for n groups of
    near-equal size, earliest first.

    Sort key is (t_ms, order_index), stable, so duplicate timestamps
    split deterministically. With count = q*n + r the first r slices
    get q + 1 fixations.
    """
    if n < 1:
        raise ConfigError(f"slice count must be >= 1, got {n}")
    order = np.lexsort((order_index, t_ms))
    q, r = divmod(len(order), n)
    slice_of = np.empty(len(order), dtype=np.intp)
    slice_of[order] = np.repeat(np.arange(n), [q + 1] * r + [q] * (n - r))
    return slice_of


# ---------------------------------------------------------------------------
# Rasterization
# ---------------------------------------------------------------------------

def default_sigma(width: int, height: int) -> float:
    # 19 px at 480-px frames, scaled with the short side
    return 19.0 * min(width, height) / 480.0

def gaussian_kernel_1d(sigma: float) -> np.ndarray:
    """Truncated normalized Gaussian, radius ceil(3*sigma)."""
    radius = math.ceil(3.0 * sigma)
    offsets = np.arange(-radius, radius + 1, dtype=np.float64)
    k = np.exp(-(offsets ** 2) / (2.0 * sigma * sigma))
    return k / k.sum()


def nearest_pixels(xs: np.ndarray, ys: np.ndarray, width: int, height: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Nearest-pixel indices (rows, cols) of image coordinates: rounds
    half up and clamps the right and bottom edges into the last pixel.
    Raises for the first coordinate pair outside [0, width) x [0, height)."""
    inside = (xs >= 0.0) & (xs < width) & (ys >= 0.0) & (ys < height)
    if not inside.all():
        i = int(np.argmin(inside))
        raise PreconditionError(
            f"fixation at ({float(xs[i])}, {float(ys[i])}) outside "
            f"{width}x{height} image")
    rows = np.minimum(np.floor(ys + 0.5).astype(np.intp), height - 1)
    cols = np.minimum(np.floor(xs + 0.5).astype(np.intp), width - 1)
    return rows, cols


@functools.lru_cache(maxsize=16)
def _blur_matrix(sigma: float, size: int) -> np.ndarray:
    """(size, size) banded matrix convolving a vector with
    ``gaussian_kernel_1d(sigma)`` under zero padding: entry (i, j) is the
    kernel tap at offset j - i, or 0 beyond the kernel radius. Cached
    per (sigma, size), so it is returned read-only."""
    kernel = gaussian_kernel_1d(sigma)
    radius = (kernel.size - 1) // 2
    offsets = np.arange(size)[None, :] - np.arange(size)[:, None]
    inside = np.abs(offsets) <= radius
    mat = np.where(inside, kernel[np.where(inside, offsets + radius, 0)], 0.0)
    mat.flags.writeable = False
    return mat


def rasterize(xs: np.ndarray, ys: np.ndarray, width: int, height: int,
              sigma_px: float | None = None,
              normalization: Normalization = Normalization.RAW
              ) -> np.ndarray:
    """Unit impulse at the nearest pixel of each fixation (xs[i], ys[i]),
    blurred with a separable truncated Gaussian (radius ceil(3 sigma),
    zero padding at the borders).

    The blur is two matrix products, ``Ky @ grid @ Kx.T``, with the
    banded kernel matrices of ``_blur_matrix``; a kernel wider than the
    map is cut off at the borders like any other."""
    if width < 1 or height < 1:
        raise ConfigError(f"invalid map size {width}x{height}")
    if sigma_px is None:
        sigma_px = default_sigma(width, height)
    if sigma_px <= 0.0:
        raise ConfigError(f"sigma must be positive, got {sigma_px}")

    grid = np.zeros((height, width))
    rows, cols = nearest_pixels(xs, ys, width, height)
    np.add.at(grid, (rows, cols), 1.0)

    if not rows.size:
        if normalization is not Normalization.RAW:
            raise DegenerateMapError(
                "no fixations: cannot produce a normalized map")
        return grid

    blurred = (_blur_matrix(sigma_px, height) @ grid
               @ _blur_matrix(sigma_px, width).T)
    return normalize_map(blurred, normalization)


# ---------------------------------------------------------------------------
# Gaze log (JSON lines) and fixation CSV
# ---------------------------------------------------------------------------

def _require_number(record: dict, key: str, line_no: int) -> float:
    value = record.get(key)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise FormatError(f"line {line_no}: {key!r} missing or not a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        raise FormatError(f"line {line_no}: {key!r} is not finite")
    return value


def _gaze_lines(lines: list[str], line_no: int) -> GazeTable:
    """Gaze lines parsed one by one, the first numbered ``line_no``.
    Blank lines are skipped; the first bad line raises ``FormatError``
    naming it."""
    records = []
    for line_no, line in enumerate(lines, start=line_no):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"line {line_no}: invalid JSON") from exc
        except ValueError as exc:  # an integer of over 4300 digits
            raise FormatError(f"line {line_no}: bad value ({exc})") from exc
        if not isinstance(record, dict):
            raise FormatError(f"line {line_no}: expected an object")
        for key in ("image_id", "observer_id"):
            if not isinstance(record.get(key), str):
                raise FormatError(
                    f"line {line_no}: {key!r} missing or not a string")
        records.append((record["image_id"], record["observer_id"],
                        *(_require_number(record, key, line_no)
                          for key in ("t_ms", "x", "y"))))
    return GazeTable(*zip(*records) if records else [()] * 5)


_GAZE_KEYS = operator.itemgetter("image_id", "observer_id", "t_ms", "x", "y")
_ENDS = operator.itemgetter(0, -1)


def _gaze_lines_bulk(lines: list[str]) -> GazeTable | None:
    """The table ``_gaze_lines`` gives for these lines, from one
    ``json.loads`` of them all, or None when any line needs the
    per-line checks. Lines that are each invalid can join into valid
    JSON ('{"a": [' and '1]}'), so the bulk parse is used only where
    each non-blank line is one flat object: it starts with ``{``, ends
    with ``}`` and holds no other brace and no ``[``, and the parse
    gives exactly one dict per line."""
    stripped = [s for s in map(str.strip, lines) if s]
    text, n = ",".join(stripped), len(stripped)
    if (not n or "[" in text or text.count("{") != n
            or text.count("}") != n
            or {*map(_ENDS, stripped)} != {("{", "}")}):
        return None
    try:
        records = json.loads(f"[{text}]")
        if len(records) != n or {*map(type, records)} != {dict}:
            return None
        image_ids, observer_ids, *numbers = zip(*map(_GAZE_KEYS, records))
        if {*map(type, image_ids), *map(type, observer_ids)} != {str} or \
                not {*map(type, itertools.chain(*numbers))} <= {int, float}:
            return None
        return GazeTable(image_ids, observer_ids,
                         *np.array(numbers, dtype=np.float64))
    except (ValueError, KeyError, OverflowError, NonFiniteError):
        return None


def _chunks(rows, line_no: int, bulk, check, *args):
    """Tables of an iterator of lines or CSV rows, ``_CHUNK`` rows each
    and at least one, the first row numbered ``line_no``: ``bulk(chunk,
    *args)``, or ``check(chunk, line_no, *args)`` where that returns
    None (as it always does for no rows); ids are interned."""
    for line_no in itertools.count(line_no, _CHUNK):
        chunk = list(itertools.islice(rows, _CHUNK))
        table = bulk(chunk, *args)
        table = check(chunk, line_no, *args) if table is None else table
        yield replace(table, image_id=tuple(map(sys.intern, table.image_id)),
                      observer_id=tuple(map(sys.intern, table.observer_id)))
        if len(chunk) < _CHUNK:
            return


def read_gaze_jsonl(path: str) -> GazeTable:
    """Parse a gaze log into a table, ``_CHUNK`` lines at a time. Blank
    lines are skipped; the first bad line raises ``FormatError`` naming
    it."""
    with reading(path) as fh:
        return GazeTable.concat(_chunks(fh, 1, _gaze_lines_bulk, _gaze_lines))


def write_gaze_jsonl(path: str, table: GazeTable) -> None:
    """One JSON object per row, byte for byte what ``json.dump`` writes
    for {"image_id", "observer_id", "t_ms", "x", "y"}: default
    separators, ``float.__repr__`` for the numbers and each distinct id
    escaped once by ``json.dumps``. Rows are encoded and written
    ``_CHUNK`` at a time."""
    ids = {s: json.dumps(s) for s in {*table.image_id, *table.observer_id}}
    with atomic_writer(path) as fh:
        for lo in range(0, len(table), _CHUNK):
            rows = slice(lo, lo + _CHUNK)
            fh.write("".join(
                f'{{"image_id": {ids[i]}, "observer_id": {ids[o]}, '
                f'"t_ms": {t!r}, "x": {x!r}, "y": {y!r}}}\n'
                for i, o, t, x, y in zip(
                    table.image_id[rows], table.observer_id[rows],
                    table.t_ms[rows].tolist(), table.x[rows].tolist(),
                    table.y[rows].tolist())).encode("utf-8"))


_FIXATION_COLUMNS = ("image_id", "observer_id", "order_index", "x", "y")


def read_fixation_table(path: str
                        ) -> tuple[FixationTable, np.ndarray | None]:
    """Read a fixation CSV in chunks of ``_CHUNK`` rows, as a gaze log is
    read: (fixations, fixations.slice_index). The t_ms and slice_index
    columns are optional; t_ms is None unless every row has one, and
    slice_index is None unless the header names it. The first bad row
    raises ``FormatError`` naming its line."""
    with reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise FormatError("empty fixation file")
            missing = [c for c in _FIXATION_COLUMNS if c not in header]
            if missing:
                raise FormatError(f"missing columns {missing}")
            table = FixationTable.concat(_chunks(
                reader, 2, _fixation_chunk, _fixation_rows, header))
        except csv.Error as exc:  # a field over the csv module's limit
            raise FormatError(f"line {reader.line_num}: {exc}") from exc
    return table, table.slice_index


def _fixation_chunk(rows: list[list[str]], header: list[str]):
    """What ``_fixation_rows`` gives for a chunk of CSV rows, converted
    column by column, or None when a row needs the per-row checks."""
    if {*map(len, rows)} != {len(header)}:
        return None
    columns = dict(zip(header, zip(*rows)))  # a repeated name: the last
    try:
        order, slice_of = (np.array([*map(int, columns[key])], np.int64)
                           if key in columns else None
                           for key in ("order_index", "slice_index"))
        x, y = (np.array([*map(float, columns[key])]) for key in "xy")
        t_ms = np.array([float(t) for t in columns.get("t_ms", ()) if t])
        table = FixationTable(columns["image_id"], columns["observer_id"],
                              order, x, y,
                              t_ms if len(t_ms) == len(rows) else None,
                              slice_of)
    except (ValueError, OverflowError, NonFiniteError):
        return None
    # a t_ms column with blanks reads as None, but its times must be finite
    return table if np.isfinite(t_ms).all() else None


def _fixation_rows(rows: list[list[str]], line_no: int, header: list[str]):
    """Fixation CSV rows checked one by one, the first numbered
    ``line_no``; blank rows are skipped, and the first bad row raises
    ``FormatError``."""
    has_slice, records = "slice_index" in header, []
    for line_no, row in enumerate(rows, start=line_no):
        if not row:
            continue
        if len(row) != len(header):
            raise FormatError(f"line {line_no}: expected {len(header)} "
                              f"fields, got {len(row)}")
        row = dict(zip(header, row))  # a repeated name: the last
        t_raw = row.get("t_ms", "")
        try:
            values = (row["image_id"], row["observer_id"],
                      int(row["order_index"]), float(row["x"]),
                      float(row["y"]), None if t_raw == "" else float(t_raw),
                      int(row["slice_index"]) if has_slice else 0)
        except ValueError as exc:
            raise FormatError(f"line {line_no}: bad value ({exc})") from exc
        for key, value in zip(_FIXATION_COLUMNS + ("t_ms", "slice_index"),
                              values):
            if isinstance(value, int) and not -2 ** 63 <= value < 2 ** 63:
                raise FormatError(
                    f"line {line_no}: {key!r} does not fit in 64 bits")
            if isinstance(value, float) and not math.isfinite(value):
                raise FormatError(f"line {line_no}: {key!r} is not finite")
        records.append(values)
    *columns, t_ms, slice_of = zip(*records) if records else [()] * 7
    return FixationTable(*columns, t_ms=None if None in t_ms else t_ms,
                         slice_index=slice_of if has_slice else None)


def write_fixations_csv(path: str, fixations: FixationTable) -> None:
    """One CSV row per fixation; floats written by ``repr``, so they read
    back exactly, an empty t_ms when the table has no times, and a
    slice_index column exactly when the table has one."""
    columns = [fixations.image_id, fixations.observer_id,
               fixations.order_index.tolist(), fixations.x.tolist(),
               fixations.y.tolist(),
               [""] * len(fixations) if fixations.t_ms is None
               else fixations.t_ms.tolist()]
    header = [*_FIXATION_COLUMNS, "t_ms"]
    if fixations.slice_index is not None:
        columns.append(fixations.slice_index.tolist())
        header.append("slice_index")
    write_csv(path, header, zip(*columns))


# ---------------------------------------------------------------------------
# Map container ("TSAL") and viewing exports
# ---------------------------------------------------------------------------

_MAP_MAGIC = b"TSAL"


def serialize_map(values: np.ndarray, normalization: Normalization) -> bytes:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise PreconditionError(f"map payload must be 2-D, got {v.shape}")
    header = _MAP_MAGIC + struct.pack("<IIB", v.shape[1], v.shape[0],
                                      normalization.value)
    return header + v.astype("<f4").tobytes()


def deserialize_map(blob: bytes) -> tuple[np.ndarray, Normalization]:
    if blob[:4] != _MAP_MAGIC:
        raise FormatError("not a TSAL map (bad magic)")
    if len(blob) < 13:
        raise FormatError("truncated TSAL header")
    width, height, code = struct.unpack_from("<IIB", blob, 4)
    if not width or not height:
        raise FormatError(f"TSAL map has zero size {width}x{height}")
    try:
        normalization = Normalization(code)
    except ValueError as exc:
        raise FormatError(f"unknown normalization code {code}") from exc
    expected = 13 + 4 * width * height
    if len(blob) != expected:
        raise FormatError(f"TSAL payload is {len(blob)} bytes, "
                          f"expected {expected}")
    values = np.frombuffer(blob, dtype="<f4", offset=13).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise NonFiniteError("TSAL payload contains NaN or Inf")
    return values.reshape(height, width), normalization


def write_map_tsal(path: str, values: np.ndarray,
                   normalization: Normalization = Normalization.RAW) -> None:
    """Write a saliency map with its declared normalization. The map
    must be 2-D, finite and nonnegative, and a declared sum or max must
    be 1 within ``NORM_TOLERANCE``."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 2:
        raise PreconditionError(f"map values must be 2-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteError("map contains NaN or Inf")
    if v.min() < 0.0:
        raise PreconditionError("map values must be nonnegative")
    if normalization is Normalization.SUM_TO_ONE:
        if abs(v.sum() - 1.0) > NORM_TOLERANCE:
            raise PreconditionError(
                f"sum-normalized map sums to {float(v.sum())!r}, not 1")
    elif normalization is Normalization.MAX_TO_ONE:
        if abs(v.max() - 1.0) > NORM_TOLERANCE:
            raise PreconditionError(
                f"max-normalized map has max {float(v.max())!r}, not 1")
    atomic_write_bytes(path, serialize_map(v, normalization))


def write_signed_tsal(path: str, values: np.ndarray) -> None:
    """Container for signed data (difference maps); always Raw."""
    atomic_write_bytes(path, serialize_map(values, Normalization.RAW))


def read_map_tsal(path: str) -> np.ndarray:
    """Read a saliency map. The f32 payload cannot carry the 1e-9
    normalization invariant exactly, so declared Sum/Max maps are
    renormalized after decoding."""
    with reading(path, binary=True) as fh:
        values, normalization = deserialize_map(fh.read())
        if values.min() < 0.0:
            raise PreconditionError("saliency map has negative values")
        return normalize_map(values, normalization)


def write_map_pgm(path: str, values: np.ndarray) -> None:
    """16-bit max-scaled PGM (P5, big-endian samples per the format)."""
    peak = values.max()
    scaled = (np.round(values / peak * 65535.0) if peak > 0.0
              else np.zeros_like(values)).astype(">u2")
    height, width = values.shape
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    atomic_write_bytes(path, header + scaled.tobytes())


def write_diff_ppm(path: str, diff: np.ndarray) -> None:
    """8-bit PPM with a diverging ramp: positive red, negative blue,
    zero white. Scaled symmetrically by the largest magnitude."""
    d = np.asarray(diff, dtype=np.float64)
    if d.ndim != 2:
        raise PreconditionError(f"difference map must be 2-D, got {d.shape}")
    if not np.all(np.isfinite(d)):
        raise NonFiniteError("difference map contains NaN or Inf")
    scale = np.abs(d).max()
    t = d / scale if scale > 0.0 else np.zeros_like(d)
    fade = np.round(255.0 * (1.0 - np.abs(t))).astype(np.uint8)
    full = np.full_like(fade, 255)
    rgb = np.where((t >= 0)[..., None],
                   np.stack([full, fade, fade], axis=-1),
                   np.stack([fade, fade, full], axis=-1))
    header = f"P6\n{d.shape[1]} {d.shape[0]}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + rgb.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Grouping helpers
# ---------------------------------------------------------------------------

def group_rows(keys) -> dict:
    """Row indices (intp arrays, in row order) of each distinct key,
    keys in order of first appearance."""
    rows: dict = {}
    for i, key in enumerate(keys):
        rows.setdefault(key, []).append(i)
    return {key: np.array(idx, dtype=np.intp) for key, idx in rows.items()}


def group_gaze(table: GazeTable) -> dict[tuple[str, str], GazeTable]:
    """One sub-table per (image_id, observer_id), rows in table order,
    keys in order of first appearance."""
    return {key: table.take(rows) for key, rows in group_rows(
        zip(table.image_id, table.observer_id)).items()}
