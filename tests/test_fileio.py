"""Staged writing: every target, a file or a tree of files, is put in
place whole or not at all."""

import os
from pathlib import Path

import pytest

from tsal import fileio
from tsal.errors import PreconditionError


def test_writer_replaces_the_target_when_the_block_ends(tmp_path):
    path = tmp_path / "new" / "out.bin"
    with fileio.staged(path) as (staged,):
        with fileio.writing(staged) as fh:
            fh.write(b"first piece, ")
            assert not path.exists()
            fh.write(b"second piece")
        assert not path.exists()
    assert path.read_bytes() == b"first piece, second piece"
    assert os.listdir(tmp_path) == ["new"]
    assert os.listdir(path.parent) == ["out.bin"]


def test_failed_block_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(RuntimeError, match="^mid-write$"):
        with fileio.staged(path) as (staged,):
            with fileio.writing(staged) as fh:
                fh.write(b"new")
                raise RuntimeError("mid-write")
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_writing_makes_the_parents_and_writes_in_place(tmp_path):
    path = tmp_path / "a" / "b" / "out.bin"
    with fileio.writing(path) as fh:
        fh.write(b"piece")
        fh.flush()
        assert path.read_bytes() == b"piece"
    assert os.listdir(path.parent) == ["out.bin"]


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
    with fileio.staged(out) as (staged,):
        assert not os.path.lexists(staged)
        assert os.path.dirname(os.path.dirname(staged)) == str(tmp_path)
        write_tree(Path(staged), {"a/x.bin": b"x", "y.bin": b"y"})
        assert not out.exists()
    assert listing(tmp_path) == {"out": None, "out/a": None,
                                 "out/a/x.bin": b"x", "out/y.bin": b"y"}


def test_non_empty_directory_is_refused_before_anything_is_made(tmp_path):
    out = tmp_path / "out"
    write_tree(out, {"a/x.bin": b"old"})
    before = listing(tmp_path)
    with pytest.raises(PreconditionError) as caught:
        with fileio.staged(tmp_path / "first.bin", out):
            pytest.fail("the block ran")
    assert str(caught.value) == f"{out}: directory not empty"
    assert listing(tmp_path) == before


def test_empty_directory_is_replaced_by_the_tree_whole(tmp_path,
                                                      monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    renames = []
    real = os.replace
    monkeypatch.setattr(os, "replace", lambda *a: renames.append(real(*a)))
    with fileio.staged(out) as (staged,):
        write_tree(Path(staged), {"a/x.bin": b"x", "y.bin": b"y"})
    assert listing(tmp_path) == {"out": None, "out/a": None,
                                 "out/a/x.bin": b"x", "out/y.bin": b"y"}
    assert len(renames) == 1


@pytest.mark.parametrize("existing", [False, True],
                         ids=["absent", "existing"])
def test_failed_block_leaves_out_as_it_was(tmp_path, existing):
    out = tmp_path / "out"
    if existing:  # a tree goes only to an empty directory
        out.mkdir()
    before = listing(tmp_path)
    with pytest.raises(RuntimeError, match="^mid-tree$"):
        with fileio.staged(out) as (staged,):
            write_tree(Path(staged), {"a/x.bin": b"new", "y.bin": b"y"})
            raise RuntimeError("mid-tree")
    assert listing(tmp_path) == before


def test_tree_where_a_file_is_moves_nothing(tmp_path):
    (tmp_path / "out").write_bytes(b"a file")
    before = listing(tmp_path)
    with pytest.raises(NotADirectoryError) as caught:
        with fileio.staged(tmp_path / "first.bin", tmp_path / "out") as (
                first, tree):
            with fileio.writing(first) as fh:
                fh.write(b"new")
            write_tree(Path(tree), {"x.bin": b"x"})
    assert str(caught.value) == \
        f"[Errno 20] Not a directory: '{tmp_path / 'out'}'"
    assert listing(tmp_path) == before


@pytest.mark.parametrize("place, error, target", [
    ("y.bin/", "IsADirectoryError: [Errno 21] Is a directory", "out/y.bin")])
def test_place_that_cannot_take_its_entry_moves_nothing(
        tmp_path, place, error, target):
    out = tmp_path / "out"
    write_tree(out, {"b.bin": b"old"})
    (out / place).mkdir()
    before = listing(tmp_path)
    with pytest.raises(OSError) as caught:
        with fileio.staged(out / "a" / "x.bin", out / "b.bin",
                           out / "y.bin") as paths:
            for path in paths:
                with fileio.writing(path) as fh:
                    fh.write(b"new")
    assert f"{type(caught.value).__name__}: {caught.value}" == \
        f"{error}: '{tmp_path / target}'"
    assert listing(tmp_path) == before


def test_second_target_that_cannot_be_placed_keeps_both_out(tmp_path):
    (tmp_path / "second").mkdir()
    before = listing(tmp_path)
    with pytest.raises(IsADirectoryError) as caught:
        with fileio.staged(tmp_path / "first.bin",
                           tmp_path / "second") as paths:
            for path in paths:
                with fileio.writing(path) as fh:
                    fh.write(b"new")
    assert str(caught.value) == \
        f"[Errno 21] Is a directory: '{tmp_path / 'second'}'"
    assert listing(tmp_path) == before


def test_targets_under_missing_parents_appear_with_them(tmp_path):
    outs = [tmp_path / "new" / "deeper" / "out.bin",
            tmp_path / "new" / "other" / "tree"]
    with fileio.staged(*outs) as (first, tree):
        assert os.path.dirname(first).startswith(
            os.path.join(str(tmp_path), ".tmp-"))
        with fileio.writing(first) as fh:
            fh.write(b"1")
        write_tree(Path(tree), {"x.bin": b"x"})
        assert [p[:5] for p in os.listdir(tmp_path)] == [".tmp-"]  # shared
    assert listing(tmp_path) == {
        "new": None, "new/deeper": None, "new/deeper/out.bin": b"1",
        "new/other": None, "new/other/tree": None,
        "new/other/tree/x.bin": b"x"}


def test_failure_under_missing_parents_leaves_none_of_them(tmp_path):
    out = tmp_path / "new" / "deeper" / "out"
    with pytest.raises(RuntimeError, match="^mid-tree$"):
        with fileio.staged(out) as (staged,):
            write_tree(Path(staged), {"a/x.bin": b"x"})
            raise RuntimeError("mid-tree")
    assert listing(tmp_path) == {}


def test_relative_target_is_named_as_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").mkdir()
    with pytest.raises(IsADirectoryError) as caught:
        with fileio.staged("taken") as (staged,):
            with fileio.writing(staged) as fh:
                fh.write(b"x")
    assert str(caught.value) == "[Errno 21] Is a directory: 'taken'"
    assert listing(tmp_path) == {"taken": None}
