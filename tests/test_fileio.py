"""Atomic writing: a target, a file or a tree of files, is replaced whole
or not at all."""

import os
from pathlib import Path

import pytest

from tsal import fileio


def test_writer_replaces_the_target_when_the_block_ends(tmp_path):
    path = tmp_path / "new" / "out.bin"
    with fileio.atomic_writer(path) as fh:
        fh.write(b"first piece, ")
        assert not path.exists()
        fh.write(b"second piece")
    assert path.read_bytes() == b"first piece, second piece"
    assert os.listdir(path.parent) == ["out.bin"]


def test_failed_block_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="^mid-write$"):
        with fileio.atomic_writer(path) as fh:
            fh.write(b"new")
            raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def listing(root):
    return {p.relative_to(root).as_posix():
            None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


def test_new_tree_is_renamed_into_place_whole(tmp_path):
    out = tmp_path / "out"
    with fileio.staged_tree(out) as staged:
        assert os.listdir(staged) == []
        assert os.path.dirname(os.path.dirname(staged)) == str(tmp_path)
        write_tree(Path(staged), {"a/x.bin": b"x", "y.bin": b"y"})
        assert not out.exists()
    assert listing(tmp_path) == {"out": None, "out/a": None,
                                 "out/a/x.bin": b"x", "out/y.bin": b"y"}


def test_tree_is_merged_into_an_existing_directory(tmp_path):
    out = tmp_path / "out"
    write_tree(out, {"a/x.bin": b"old", "a/kept.bin": b"kept",
                     "z.bin": b"kept"})
    with fileio.staged_tree(out) as staged:
        write_tree(Path(staged), {"a/x.bin": b"new", "b/n.bin": b"n",
                                  "y.bin": b"y"})
    assert listing(tmp_path) == {
        "out": None, "out/a": None, "out/a/kept.bin": b"kept",
        "out/a/x.bin": b"new", "out/b": None, "out/b/n.bin": b"n",
        "out/y.bin": b"y", "out/z.bin": b"kept"}


@pytest.mark.parametrize("existing", [False, True],
                         ids=["absent", "existing"])
def test_failed_block_leaves_out_as_it_was(tmp_path, existing):
    out = tmp_path / "out"
    if existing:
        write_tree(out, {"a/x.bin": b"old"})
    before = listing(tmp_path)
    with pytest.raises(RuntimeError, match="^mid-tree$"):
        with fileio.staged_tree(out) as staged:
            write_tree(Path(staged), {"a/x.bin": b"new", "y.bin": b"y"})
            raise RuntimeError("mid-tree")
    assert listing(tmp_path) == before


@pytest.mark.parametrize("place, error, target", [
    ("a", "NotADirectoryError: [Errno 20] Not a directory", "out/a"),
    ("y.bin/", "IsADirectoryError: [Errno 21] Is a directory", "out/y.bin")])
def test_place_that_cannot_take_its_entry_moves_nothing(
        tmp_path, place, error, target):
    out = tmp_path / "out"
    write_tree(out, {"b.bin": b"old"})
    if place.endswith("/"):
        (out / place).mkdir()
    else:
        (out / place).write_bytes(b"a file")
    before = listing(tmp_path)
    with pytest.raises(OSError) as caught:
        with fileio.staged_tree(out) as staged:
            write_tree(Path(staged), {"a/x.bin": b"x", "b.bin": b"new",
                                      "y.bin": b"y"})
    assert f"{type(caught.value).__name__}: {caught.value}" == \
        f"{error}: '{tmp_path / target}'"
    assert listing(tmp_path) == before
