"""Atomic writing: a target is replaced whole or not at all."""

import os

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
