"""File reading and staged file writing.

Every input file is opened by ``reading``, so each input error names its
file, and ``naming`` names the file in the errors of a block that works
on its data. Every artifact is opened by ``writing`` and every CSV
artifact is written by ``write_csv``. A command writes its outputs,
files or trees, into the staging paths of ``staged``, which puts them
all in place only when the command has succeeded. Only this module
makes, moves or removes paths.
"""

import contextlib
import csv
import errno
import io
import os
import shutil
import tempfile

from .errors import FormatError, PreconditionError, TsalError


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


def writing(path):
    """``path`` opened for binary writing, its parent directories made
    if missing: the output twin of ``reading``. Large artifacts are
    written through it in pieces, so they are never held in memory
    whole."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return open(path, "wb")


def _replace(src, dst) -> None:
    """``os.replace``, whose error names only ``dst``: the random name of
    a staging directory would make two runs print different lines."""
    try:
        os.replace(src, dst)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(dst)) from exc


@contextlib.contextmanager
def staged(*outs):
    """Yield a list of one staging path per target of ``outs``, each for
    the block to write a file or a tree at. A target that is a directory
    with entries is a ``PreconditionError`` naming it, raised before
    anything is made, so an output never mixes with an earlier run's and
    no file is deleted. A target's path sits in a staging directory
    ``.tmp-*~`` beside its highest missing ancestor, or beside it if its
    parent exists, so on the same filesystem. When the block ends every
    target is checked to take its twin (a file where a directory is, or
    a tree where a file is, is an ``OSError`` naming the target), then
    one rename per target puts it in place, missing parents too. The
    staging directories are removed in any case, so if the block raises
    or a target cannot take its twin, nothing is moved."""
    for out in outs:
        if os.path.isdir(out) and os.listdir(out):
            raise PreconditionError(f"{out}: directory not empty")
    tops = {}  # each target's top path -> its staged twin
    paths = []
    try:
        for out in map(os.path.normpath, outs):
            top = out
            while not os.path.lexists(os.path.dirname(top) or os.curdir):
                top = os.path.dirname(top)
            if top not in tops:
                parent, name = os.path.split(os.path.abspath(top))
                os.makedirs(parent, exist_ok=True)  # a file here: named error
                tops[top] = os.path.join(tempfile.mkdtemp(
                    dir=parent, prefix=".tmp-", suffix="~"), name)
            paths.append(os.path.normpath(
                os.path.join(tops[top], os.path.relpath(out, top))))
        yield paths
        for top, twin in tops.items():
            if os.path.lexists(top) and \
                    os.path.isdir(top) != os.path.isdir(twin):
                code = errno.EISDIR if os.path.isdir(top) else errno.ENOTDIR
                raise OSError(code, os.strerror(code), top)
        for top, twin in tops.items():
            _replace(twin, top)
    finally:
        for twin in tops.values():
            shutil.rmtree(os.path.dirname(twin), ignore_errors=True)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """``data`` written to ``path`` by ``writing``. Nothing here is
    atomic any more; the name stays only because the per-layer metrics
    of ``BENCHMARK.json`` name it."""
    with writing(path) as fh:
        fh.write(data)


def write_csv(path, header, rows) -> None:
    """A header and rows as UTF-8 CSV, one ``\n`` per row. A field is
    quoted only when it holds a comma, a quote or a line break (RFC
    4180), and floats are written by ``repr``, so they read back
    exactly."""
    with writing(path) as fh, \
            io.TextIOWrapper(fh, encoding="utf-8", newline="") as text:
        writer = csv.writer(text, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
