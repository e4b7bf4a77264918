"""File reading and atomic file writing.

Every input file is opened by ``reading``, so each input error names its
file, and ``naming`` names the file in the errors of a block that works
on its data. Artifacts are written to a temporary file in the
destination directory and then renamed by ``atomic_writer``, so readers
never observe a partial file; every CSV artifact is written by
``write_csv``. A stage that writes a tree of files writes it into the
staging directory of ``staged_tree``, which puts the whole tree in place
only when the stage has succeeded. Only this module makes, moves or
removes paths.
"""

import contextlib
import csv
import errno
import io
import os
import shutil
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
        _replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _replace(src, dst) -> None:
    """``os.replace``, whose error names only ``dst``: the random name of
    a temporary file or staging directory would make two runs print
    different lines."""
    try:
        os.replace(src, dst)
    except OSError as exc:
        raise type(exc)(exc.errno, exc.strerror, str(dst)) from exc


@contextlib.contextmanager
def staged_tree(out):
    """Yield an empty directory for a stage's tree, made in a staging
    directory ``.tmp-*~`` beside ``out`` (whose parents are made if
    missing), so on the same filesystem. When the block ends the tree is
    put in place: in one rename if ``out`` does not exist, else entry by
    entry into ``out``, once ``_placements`` has checked every place.
    The staging directory is removed in any case, so if the block raises
    or a place cannot take its entry, ``out`` is left as it was."""
    out = os.path.normpath(out)
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    stage = tempfile.mkdtemp(dir=parent, prefix=".tmp-", suffix="~")
    try:
        tree = os.path.join(stage, "tree")
        os.mkdir(tree)  # the mode os.makedirs gives; mkdtemp's is 0700
        yield tree
        if os.path.lexists(out):
            for src, dst in list(_placements(tree, out)):
                _replace(src, dst)
        else:
            _replace(tree, out)
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _placements(src, dst):
    """The ``(staged, target)`` renames that put the entries of the
    directory ``src`` into the directory ``dst``: an entry whose target
    is absent, or a file onto a file, moves whole, and a directory onto a
    directory merges into it. A file where a directory goes, or a
    directory where a file goes, is an ``OSError`` naming the target."""
    if not os.path.isdir(dst):
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR),
                                 dst)
    for name in sorted(os.listdir(src)):
        s, d = os.path.join(src, name), os.path.join(dst, name)
        if os.path.isdir(s) and os.path.lexists(d):
            yield from _placements(s, d)
        elif os.path.isdir(d):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                    d)
        else:
            yield s, d


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
