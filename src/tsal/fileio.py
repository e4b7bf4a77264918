"""File reading and atomic file writing.

Every input file is opened by ``reading``, so each input error names its
file. Artifacts are written to a temporary file in the destination
directory and then renamed, so readers never observe a partial file;
every CSV artifact is written by ``write_csv``.
"""

import contextlib
import csv
import io
import os
import tempfile

from .errors import FormatError, TsalError


@contextlib.contextmanager
def reading(path, binary: bool = False):
    """Open ``path`` (text as UTF-8) and yield the handle. In the block an
    ``OSError`` or ``UnicodeDecodeError`` becomes a ``FormatError`` and a
    ``TsalError`` keeps its type, each with ``<path>: `` put in front."""
    try:
        with (open(path, "rb") if binary else
              open(path, encoding="utf-8", newline="")) as fh:
            yield fh
    except OSError as exc:
        raise FormatError(f"{path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    except TsalError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path, header, rows) -> None:
    """A header and rows as UTF-8 CSV, one ``\n`` per row. A field is
    quoted only when it holds a comma, a quote or a line break (RFC
    4180), and floats are written by ``repr``, so they read back
    exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    atomic_write_bytes(path, buf.getvalue().encode("utf-8"))
