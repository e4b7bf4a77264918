"""File reading and atomic file writing.

Every input file is opened by ``reading``, so each input error names its
file, and ``naming`` names the file in the errors of a block that works
on its data. Artifacts are written to a temporary file in the
destination directory and then renamed by ``atomic_writer``, so readers
never observe a partial file; every CSV artifact is written by
``write_csv``.
"""

import contextlib
import csv
import io
import os
import tempfile

from .errors import FormatError, TsalError


@contextlib.contextmanager
def naming(path, error=TsalError):
    """In the block an ``error`` keeps its type and gets ``<path>: `` put
    in front; with ``path`` None it passes as it is."""
    try:
        yield
    except error as exc:
        if path is None:
            raise
        raise type(exc)(f"{path}: {exc}") from exc


@contextlib.contextmanager
def reading(path, binary: bool = False):
    """Open ``path`` (text as UTF-8) and yield the handle. In the block an
    ``OSError`` or ``UnicodeDecodeError`` becomes a ``FormatError`` and a
    ``TsalError`` keeps its type, each with ``<path>: `` put in front."""
    try:
        with naming(path), (open(path, "rb") if binary else
                            open(path, encoding="utf-8", newline="")) as fh:
            yield fh
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def atomic_writer(path):
    """Yield a binary handle on a temporary file in the directory of
    ``path`` (made if missing) and rename the file onto ``path`` when
    the block ends; if the block raises, the file is removed and
    ``path`` is left as it was. Large artifacts are written through it
    in pieces, so they are never held in memory whole."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, data: bytes) -> None:
    with atomic_writer(path) as fh:
        fh.write(data)


def write_csv(path, header, rows) -> None:
    """A header and rows as UTF-8 CSV, one ``\n`` per row. A field is
    quoted only when it holds a comma, a quote or a line break (RFC
    4180), and floats are written by ``repr``, so they read back
    exactly."""
    with atomic_writer(path) as fh, \
            io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
