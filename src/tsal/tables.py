"""Columnar record tables: gaze samples and fixations as id tuples and
read-only numpy columns, a row per record. Every field of a record is a
column, a fixation's time and slice too, so no array travels beside a
table. Tables are values: their operations return new tables, and no
function changes an array it was given."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .errors import NonFiniteError, PreconditionError


class _Columns:
    """The column idiom of ``GazeTable`` and ``FixationTable``: a frozen
    dataclass whose first two fields are the id columns, tuples of str,
    and whose other fields are read-only numeric columns of finite
    values (int64 if named in ``_INTEGER``, else float64); a field that
    defaults to None may be None; a column given as a read-only array
    of its type is kept, not copied. Row i is the i-th entry of every
    column. ``len()`` is the row count and ``==`` compares every
    column."""
    _INTEGER: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "image_id", tuple(self.image_id))
        object.__setattr__(self, "observer_id", tuple(self.observer_id))
        n, name = len(self.image_id), type(self).__name__
        if len(self.observer_id) != n:
            raise PreconditionError(
                f"{name} columns disagree in length: {n} image ids, "
                f"{len(self.observer_id)} observer ids")
        for field in fields(self)[2:]:
            key, col = field.name, getattr(self, field.name)
            if col is None and field.default is None:
                continue
            dtype = np.int64 if key in self._INTEGER else np.float64
            if not (isinstance(col, np.ndarray) and col.dtype == dtype
                    and not col.flags.writeable):
                col = np.array(col, dtype=dtype)
            if col.shape != (n,):
                raise PreconditionError(
                    f"{name} columns disagree in length: {n} ids, "
                    f"{key} of shape {col.shape}")
            if not np.isfinite(col).all():
                raise NonFiniteError(f"{name} column {key!r} contains NaN or Inf")
            col.flags.writeable = False
            object.__setattr__(self, key, col)

    def _columns(self) -> tuple:
        return tuple(getattr(self, field.name) for field in fields(self))

    def __len__(self) -> int:
        return len(self.image_id)

    def __reduce__(self):
        # rebuild through __init__ so a copy sent between processes gets
        # read-only columns again
        return type(self), self._columns()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(a == b if isinstance(a, tuple) else
                   a is b if a is None or b is None else np.array_equal(a, b)
                   for a, b in zip(self._columns(), other._columns()))

    def take(self, rows):
        """The table of the given rows (an index array), in that order."""
        rows = np.asarray(rows, dtype=np.intp)
        ids, numbers = self._columns()[:2], self._columns()[2:]
        return type(self)(
            *(tuple(map(col.__getitem__, rows.tolist())) for col in ids),
            *(None if col is None else col[rows] for col in numbers))

    @classmethod
    def concat(cls, tables):
        """Rows of every table of an iterable, in order; a column that is
        None in any table is None in the result. Tables are consumed one
        at a time, numbers copied to byte buffers and id tuples chained."""
        ids: tuple[list, list] = ([], [])  # a tuple of ids per table
        numbers = [bytearray() for _ in fields(cls)[2:]]
        for table in tables:
            for parts, col in zip(ids, table._columns()[:2]):
                parts.append(col)
            for i, col in enumerate(table._columns()[2:]):
                if col is None or numbers[i] is None:
                    numbers[i] = None
                else:
                    numbers[i] += col.tobytes()
        # popped while read, each table's id tuples are let go once chained
        return cls(*(tuple(itertools.chain.from_iterable(
            parts.pop(0) for _ in range(len(parts)))) for parts in ids),
            *(buf if buf is None else np.frombuffer(
                memoryview(buf).toreadonly(),  # a read-only column
                np.int64 if field.name in cls._INTEGER else np.float64)
              for buf, field in zip(numbers, fields(cls)[2:])))


@dataclass(frozen=True, eq=False)
class GazeTable(_Columns):
    """Raw gaze points from the tracker log, a row per sample."""
    image_id: tuple[str, ...]
    observer_id: tuple[str, ...]
    t_ms: np.ndarray
    x: np.ndarray
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class FixationTable(_Columns):
    """Dwell points, a row per fixation; t_ms is None until timestamp
    recovery fills it, and slice_index (the temporal slice of each
    fixation) None until slicing does."""
    image_id: tuple[str, ...]
    observer_id: tuple[str, ...]
    order_index: np.ndarray
    x: np.ndarray
    y: np.ndarray
    t_ms: np.ndarray | None = None
    slice_index: np.ndarray | None = None
    _INTEGER = ("order_index", "slice_index")
