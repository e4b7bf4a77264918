"""Command-line surface: exit codes, file artifacts, determinism."""

import contextlib
import csv
import errno
import io
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tsal import analysis, cli, fileio, gaze, model
from tsal.autodiff import load_params, save_params
from tsal.cli import _read_stack, _worker_count, main
from tsal.errors import (
    DegenerateMapError,
    FormatError,
    NonFiniteError,
    PreconditionError,
    TsalError,
)
from tsal.gaze import (
    FixationTable,
    Normalization,
    group_rows,
    read_fixation_table,
    read_map_tsal,
    serialize_map,
    slice_equal_distribution,
    slice_equal_duration,
    write_fixations_csv,
    write_map_tsal,
)


def run(*argv) -> int:
    return main([str(a) for a in argv])


def run0(*argv) -> None:
    code = run(*argv)
    assert code == 0, f"command failed: {argv}"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset(workdir):
    """One small synthetic dataset taken through recovery, slicing,
    and rasterization; later tests build on these files."""
    scene = workdir / "scene.json"
    scene.write_text(json.dumps({
        "preset": "drift", "images": 4, "width": 64, "height": 64,
        "objects": 4, "slices": 5, "center_bias_strength": 0.05,
        "anchor": [20.0, 32.0], "scene_seed": 3}))
    data = workdir / "data"
    run0("synth", "--scene", scene, "--out", data, "--seed", 5,
         "--observers", 3, "--samples-per-sec", 20, "--fixation-rate", 3)
    run0("timestamps", "--gaze", data / "gaze.jsonl",
         "--fixations", data / "fixations.csv",
         "--out", workdir / "recovered.csv")
    run0("slice", "--fixations", workdir / "recovered.csv",
         "--out", workdir / "sliced.csv", "--scheme", "equal-duration")
    run0("rasterize", "--fixations", workdir / "sliced.csv",
         "--images", data / "images", "--out", workdir / "maps")
    return {"scene": scene, "data": data, "images": data / "images",
            "recovered": workdir / "recovered.csv",
            "sliced": workdir / "sliced.csv", "maps": workdir / "maps"}


@pytest.fixture(scope="module")
def trained(workdir, dataset):
    stage1 = workdir / "stage1.tspw"
    final = workdir / "model.tspw"
    run0("train", "--images", dataset["images"], "--maps", dataset["maps"],
         "--out", stage1, "--stage", "temporal", "--epochs", 2,
         "--lr", "1e-3", "--seed", 7, "--loss-csv", workdir / "loss1.csv")
    run0("train", "--images", dataset["images"], "--maps", dataset["maps"],
         "--out", final, "--stage", "mixing", "--base", stage1,
         "--epochs", 2, "--lr", "1e-3", "--seed", 8)
    run0("predict", "--checkpoint", final, "--images", dataset["images"],
         "--out", workdir / "pred")
    return {"stage1": stage1, "final": final, "pred": workdir / "pred"}


def only_error_line(capsys) -> str:
    """The one stderr line of a failed command; nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    return lines[0]


SLICE_IO = ("slice", "--fixations", "in.csv", "--out", "out.csv")

# Every float setting, and the inputs its command needs besides --out.
FLOAT_SETTINGS = [
    *(("synth", f) for f in ("fixation-rate", "rho", "jitter", "t-total")),
    *(("timestamps", f) for f in ("spatial-weight", "temporal-weight",
                                  "t-total")),
    ("slice", "t-total"), ("rasterize", "sigma"), ("analyze", "t-total"),
    *(("train", f) for f in ("lr", "decay-factor", "lambda1", "beta1",
                             "lambda2", "beta2"))]
INPUTS = {
    "synth": ("--scene", "scene.json"),
    "timestamps": ("--gaze", "gaze.jsonl", "--fixations", "in.csv"),
    "slice": ("--fixations", "in.csv"),
    "rasterize": ("--fixations", "in.csv", "--images", "images"),
    "analyze": ("--maps", "maps", "--fixations", "in.csv"),
    "train": ("--images", "images", "--maps", "maps")}


# One command line per input format, with the path of the input that
# the test breaks; the other inputs are valid or never read. The broken
# image or map is img000, the first in id order, so nothing is written
# before it is read.
FILE_INPUTS = {
    "scene": (("synth", "--scene", "in.json"), "in.json"),
    "config": (("slice", "--fixations", "fix.csv", "--config", "in.cfg"),
               "in.cfg"),
    "gaze": (("timestamps", "--gaze", "in.jsonl", "--fixations", "fix.csv"),
             "in.jsonl"),
    "fixations-slice": (("slice", "--fixations", "in.csv"), "in.csv"),
    "fixations-eval": (("eval", "--pred", "maps/t0", "--gt", "maps/t0",
                        "--fixations", "in.csv"), "in.csv"),
    "npy": (("rasterize", "--fixations", "fix.csv", "--images", "images"),
            "images/img000.npy"),
    "tsal": (("analyze", "--maps", "maps", "--fixations", "fix.csv"),
             "maps/full/img000.tsal"),
    "tspw": (("predict", "--checkpoint", "in.tspw", "--images", "images"),
             "in.tspw")}
# Three defects of every input; a zero-byte file of the two binary
# formats that a zero-byte file cannot be (it is valid UTF-8 text); a
# zip archive (what np.savez writes), a text array and a complex array
# as an image; JSON nested too deep for the parser as a scene file and
# as a gaze line; a fixation row with one field too many or too few;
# and a fixation field over the csv module's size limit.
FILE_DEFECTS = [(name, defect) for name in sorted(FILE_INPUTS)
                for defect in ("0xff", "missing", "directory")] + [
    ("npy", "empty"), ("tspw", "empty"), ("npy", "npz"),
    ("npy", "text-dtype"), ("npy", "complex"),
    ("gaze", "nested"), ("scene", "nested"),
    ("fixations-slice", "extra-field"), ("fixations-slice", "short-row"),
    ("fixations-slice", "huge-field"), ("fixations-eval", "huge-field")]


def npz_bytes() -> bytes:
    buf = io.BytesIO()
    np.savez(buf, image=np.ones((3, 4, 4)))
    return buf.getvalue()


def npy_bytes(arr: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


FIXATION_HEADER = b"image_id,observer_id,order_index,x,y,t_ms,slice_index\n"

# The bytes a defect writes in place of the valid file.
DEFECT_BYTES = {"0xff": b"\xff\n", "empty": b"", "npz": npz_bytes(),
                "nested": b"[" * 100_000,
                "text-dtype": npy_bytes(np.full((3, 4, 4), "a")),
                "complex": npy_bytes(np.ones((3, 4, 4), dtype=complex)),
                "extra-field": FIXATION_HEADER + b"img000,o,0,1,2,3,0,9\n",
                "short-row": FIXATION_HEADER + b"img000,o,0,1,2\n",
                "huge-field": FIXATION_HEADER + b"a" * 200_000
                + b",o,0,1,2,3,0\n"}
# The error line's "<Type>: <message>" after "tsal: ", the path of the
# file put between the two. A format may read a defect its own way;
# "..." ends a message whose rest is the wording of numpy or Python.
DEFECTS = {"0xff": "FormatError: 'utf-8' codec can't decode byte 0xff in "
                   "position 0: invalid start byte",
           "missing": "FormatError: No such file or directory",
           "directory": "FormatError: Is a directory"}
FORMAT_DEFECTS = {
    ("npy", "0xff"): "FormatError: not a .npy array: ...",
    ("npy", "empty"): "FormatError: not a .npy array: No data left in file",
    ("tsal", "0xff"): "FormatError: not a TSAL map (bad magic)",
    ("tspw", "0xff"): "CheckpointError: truncated checkpoint: magic needs "
                      "4 bytes at offset 0, 2 left",
    ("tspw", "empty"): "CheckpointError: truncated checkpoint: magic needs "
                       "4 bytes at offset 0, 0 left",
    ("npy", "npz"): "FormatError: not a .npy array: a zip archive (.npz)",
    ("npy", "text-dtype"): "FormatError: expected a real-valued array, "
                           "got dtype <U1",
    ("npy", "complex"): "FormatError: expected a real-valued array, got "
                        "dtype complex128",
    ("gaze", "nested"): "FormatError: line 1: invalid JSON",
    ("fixations-slice", "extra-field"): "FormatError: line 2: expected 7 "
                                        "fields, got 8",
    ("fixations-slice", "short-row"): "FormatError: line 2: expected 7 "
                                      "fields, got 5",
    ("fixations-slice", "huge-field"): "FormatError: line 2: field larger "
                                       "than field limit (131072)",
    ("fixations-eval", "huge-field"): "FormatError: line 2: field larger "
                                      "than field limit (131072)",
    ("scene", "nested"): "FormatError: invalid JSON: maximum recursion "
                         "depth exceeded..."}


def write_file_inputs(root: Path) -> None:
    """A valid file at every path of FILE_INPUTS, plus what the command
    lines read besides: an empty timestamped and sliced fixation CSV, a
    second image, and a t0 map for img000."""
    (root / "images").mkdir()
    for image_id in ("img000", "img001"):
        np.save(root / "images" / f"{image_id}.npy", np.ones((3, 4, 4)))
    for kind in ("t0", "full"):
        write_map_tsal(root / "maps" / kind / "img000.tsal", np.ones((4, 4)))
    header = "image_id,observer_id,order_index,x,y,t_ms,slice_index\n"
    for name in ("fix.csv", "in.csv"):
        (root / name).write_text(header)
    (root / "in.json").write_text('{"preset": "drift"}')
    (root / "in.cfg").write_text("n=5\n")
    (root / "in.jsonl").write_text("")
    save_params(root / "in.tspw", {"w": np.zeros(1)})


class TestSurface:
    def test_no_subcommand_is_an_input_error(self, capsys):
        assert run() == 2
        assert only_error_line(capsys) == \
            "tsal: ConfigError: no subcommand given"

    def test_unknown_flag_exits_two(self, capsys):
        assert run(*SLICE_IO, "--bogus", 1) == 2
        assert only_error_line(capsys) == \
            "tsal: ConfigError: unrecognized arguments: --bogus 1"

    @pytest.mark.parametrize("argv, message", [
        (SLICE_IO + ("--n", "five"), "argument --n: invalid int value: 'five'"),
        (SLICE_IO + ("--scheme", "sideways"),
         "argument --scheme: invalid choice: 'sideways' (choose from "
         "'equal-duration', 'equal-distribution')"),
        (("slice", "--out", "out.csv"),
         "the following arguments are required: --fixations"),
        (("segment",), "argument COMMAND: invalid choice: 'segment'")],
        ids=["bad-value", "bad-choice", "missing-required", "unknown-command"])
    def test_flag_errors_are_one_config_error_line(self, capsys, argv,
                                                   message):
        assert run(*argv) == 2
        assert only_error_line(capsys).startswith(
            f"tsal: ConfigError: {message}")

    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("command, flag", FLOAT_SETTINGS)
    def test_non_finite_float_setting_exits_two(self, tmp_path, capsys,
                                                command, flag, value,
                                                via_config):
        out = tmp_path / "out"
        argv = [command, *INPUTS[command], "--out", out]
        if via_config:
            cfg = tmp_path / "settings.cfg"
            cfg.write_text(f"{flag.replace('-', '_')}={value}\n")
            argv += ["--config", cfg]
        else:
            argv.append(f"--{flag}={value}")
        assert run(*argv) == 2
        assert only_error_line(capsys) == (
            f"tsal: ConfigError: argument --{flag}: "
            f"{value!r} is not a finite number")
        assert not out.exists()

    @pytest.mark.parametrize("name, defect", FILE_DEFECTS,
                             ids=[f"{n}-{d}" for n, d in FILE_DEFECTS])
    def test_unreadable_input_names_its_file(self, tmp_path, monkeypatch,
                                             capsys, name, defect):
        argv, path = FILE_INPUTS[name]
        message = FORMAT_DEFECTS.get((name, defect), DEFECTS.get(defect))
        monkeypatch.chdir(tmp_path)
        write_file_inputs(Path("."))
        bad = Path(path)
        bad.unlink()
        if defect == "missing" and name == "npy":
            bad.symlink_to("gone.npy")  # listed, but not there to read
        elif defect == "directory":
            bad.mkdir()
        elif defect != "missing":
            bad.write_bytes(DEFECT_BYTES[defect])
        assert run(*argv, "--out", "out") == 2
        kind, _, text = message.partition(": ")
        line = only_error_line(capsys)
        if text.endswith("..."):  # numpy's own wording follows
            assert line.startswith(f"tsal: {kind}: {path}: {text[:-3]}")
        else:
            assert line == f"tsal: {kind}: {path}: {text}"
        assert not Path("out").exists()

    @pytest.mark.parametrize("text, message", [
        ("n=5\nfive\n", "line 2: expected key=value"),
        ("n=5\nspeed=3\n", "unknown config keys: speed")])
    def test_bad_config_line_names_the_file(self, tmp_path, capsys, text,
                                            message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        assert run(*SLICE_IO, "--config", cfg) == 2
        assert only_error_line(capsys) == (
            f"tsal: ConfigError: {cfg}: {message}")

    @pytest.mark.parametrize("error", TsalError.__subclasses__(),
                             ids=lambda error: error.__name__)
    def test_every_toolkit_error_is_one_line(self, monkeypatch, capsys,
                                             error):
        def fail(args):
            raise error("went\nwrong")
        monkeypatch.setattr(cli, "cmd_slice", fail)
        degenerate = error in (DegenerateMapError, NonFiniteError)
        assert run(*SLICE_IO) == (3 if degenerate else 2)
        assert only_error_line(capsys) == \
            f"tsal: {error.__name__}: went wrong"

    def test_help_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("slice", "--help")
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tsal slice")

    def test_errors_are_one_line_and_machine_parseable(self, capsys):
        assert run("timestamps", "--gaze", "nope.jsonl",
                   "--fixations", "nope.csv", "--out", "x.csv") == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert err.startswith("tsal: ") and ": " in err[6:]


class TestWorkerCount:
    @pytest.mark.parametrize("jobs, items, cpus, want", [
        (1, 10, 8, 1), (4, 10, 8, 4), (64, 10, 8, 8), (64, 3, 8, 3),
        (4, 0, 8, 1), (0, 10, 8, 1), (-3, 10, 8, 1), (4, 10, None, 1),
        (10 ** 6, 10 ** 6, 2, 2)])
    def test_clamped_to_items_and_cpus(self, jobs, items, cpus, want):
        assert _worker_count(jobs, items, cpus) == want

    def test_pool_modules_load_only_with_a_pool(self):
        # a fresh interpreter: the pool machinery is imported by the
        # first run with more than one worker, not by tsal.cli
        src = str(Path(cli.__file__).resolve().parents[1])
        probe = ("import sys, tsal.cli; print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src})
        assert done.stdout == "[]\n"


# Runs tsal in a fresh interpreter and prints, as its last line, the exit
# code and the tsal modules (and numpy) that ran: a module that tsal.cli
# put into sys.modules lazily and nothing has used is not a ModuleType yet
MODULES_PROBE = """\
import json, sys, types
from tsal.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(json.dumps([code, sorted(
    name.rpartition(".")[2] for name, m in sys.modules.items()
    if (name == "numpy" or name.startswith("tsal."))
    and type(m) is types.ModuleType)]))
"""
CLI_MODULES = {"cli", "defaults", "errors", "fileio"}
DATA_MODULES = CLI_MODULES | {"gaze", "numpy", "tables"}
EVAL_MODULES = DATA_MODULES | {"metrics"}
MODEL_MODULES = EVAL_MODULES | {"autodiff", "model"}
MODULES_CASES = {  # in pipeline order: each command reads what one wrote
    "help": (["--help"], 0, CLI_MODULES),
    "no-subcommand": ([], 2, CLI_MODULES),
    "bad-flag": (["slice", "--bogus"], 2, CLI_MODULES),
    "synth": (["synth", "--scene", "scene.json", "--out", "data",
               "--observers", "1", "--samples-per-sec", "10"], 0,
              DATA_MODULES | {"synth"}),
    "timestamps": (["timestamps", "--gaze", "data/gaze.jsonl",
                    "--fixations", "data/fixations.csv",
                    "--out", "recovered.csv"], 0, DATA_MODULES),
    "slice": (["slice", "--fixations", "recovered.csv",
               "--out", "sliced.csv"], 0, DATA_MODULES),
    "rasterize": (["rasterize", "--fixations", "sliced.csv",
                   "--images", "data/images", "--out", "maps"], 0,
                  DATA_MODULES),
    "analyze": (["analyze", "--maps", "maps", "--fixations", "sliced.csv",
                 "--out", "analysis"], 0, EVAL_MODULES | {"analysis"}),
    "train": (["train", "--images", "data/images", "--maps", "maps",
               "--out", "model.tspw", "--max-steps", "1",
               "--batch-size", "2"], 0, MODEL_MODULES),
    "predict": (["predict", "--checkpoint", "model.tspw",
                 "--images", "data/images", "--out", "pred"], 0,
                MODEL_MODULES),
    "eval": (["eval", "--pred", "pred/s_r", "--gt", "maps/full",
              "--fixations", "sliced.csv", "--out", "metrics.csv"], 0,
             EVAL_MODULES),
}


@pytest.fixture(scope="module")
def modules_run(tmp_path_factory):
    """Per case of MODULES_CASES, the exit code and the modules that ran,
    each case in a fresh interpreter, on a two-image 16x16 scene."""
    root = tmp_path_factory.mktemp("modules")
    (root / "scene.json").write_text(json.dumps({
        "preset": "drift", "images": 2, "width": 16, "height": 16,
        "objects": 2, "slices": 5, "scene_seed": 1}))
    env = {**os.environ,
           "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    found = {}
    for case, (argv, _, _) in MODULES_CASES.items():
        done = subprocess.run([sys.executable, "-c", MODULES_PROBE, *argv],
                              cwd=root, env=env, capture_output=True,
                              text=True, check=True)
        code, ran = json.loads(done.stdout.splitlines()[-1])
        found[case] = code, set(ran)
    return found


class TestEachCommandRunsOnlyItsModules:
    @pytest.mark.parametrize("case", MODULES_CASES)
    def test_modules_that_ran(self, modules_run, case):
        _, code, modules = MODULES_CASES[case]
        assert modules_run[case] == (code, modules)


class TestSynth:
    def test_dataset_layout_and_counts(self, dataset):
        data = dataset["data"]
        ids = sorted(p.stem for p in (data / "images").glob("*.npy"))
        assert ids == ["img000", "img001", "img002", "img003"]
        fixations, _ = read_fixation_table(data / "fixations.csv")
        assert len(fixations) == 4 * 3 * 15  # images x observers x 5s*3/s
        assert fixations.t_ms is None and fixations.slice_index is None
        gaze_lines = (data / "gaze.jsonl").read_text().strip().split("\n")
        assert len(gaze_lines) == 4 * 3 * 5 * 20
        truth, _ = read_fixation_table(data / "truth" / "fixations.csv")
        assert len(truth) == len(fixations)
        assert truth.t_ms is not None and truth.slice_index is not None
        for k in range(5):
            assert (data / "truth" / "maps" / f"t{k}" / "img000.tsal").exists()

    def test_rerun_with_jobs_is_byte_identical(self, workdir, dataset):
        out = workdir / "data_jobs"
        run0("synth", "--scene", dataset["scene"], "--out", out, "--seed", 5,
             "--observers", 3, "--samples-per-sec", 20,
             "--fixation-rate", 3, "--jobs", 2)
        for rel in ("fixations.csv", "gaze.jsonl", "images/img002.npy",
                    "truth/maps/t3/img001.tsal"):
            assert (out / rel).read_bytes() == \
                (dataset["data"] / rel).read_bytes()

    def test_writes_nothing_outside_out(self, tmp_path):
        """synth in a fresh interpreter, with an empty home and temp
        directory and no TSAL_CACHE_DIR: both stay empty, and the only
        new entry beside the scene file is --out."""
        home, tmp = tmp_path / "home", tmp_path / "tmp"
        home.mkdir()
        tmp.mkdir()
        (tmp_path / "scene.json").write_text(json.dumps({
            "preset": "drift", "images": 2, "width": 16, "height": 16,
            "objects": 2, "slices": 5, "scene_seed": 1}))
        env = {k: v for k, v in os.environ.items() if k != "TSAL_CACHE_DIR"}
        env.update(HOME=str(home), TMPDIR=str(tmp),
                   PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        subprocess.run([sys.executable, "-m", "tsal.cli", "synth", "--scene",
                        "scene.json", "--out", "out", "--seed", "3"],
                       cwd=tmp_path, env=env, capture_output=True, check=True)
        assert sorted(os.listdir(tmp_path)) == [
            "home", "out", "scene.json", "tmp"]
        assert os.listdir(home) == os.listdir(tmp) == []
        assert (tmp_path / "out" / "images" / "img001.npy").is_file()

    def test_bad_scene_file_exits_two(self, workdir, capsys):
        def scene(**number):
            blob = {"cx": 8, "cy": 8, "sigma": 2, "weight": 1, **number}
            return {"scenes": [{"width": 16, "height": 16,
                                "objects": [blob], "drift": [[1]]}]}
        bad = workdir / "bad_scene.json"
        out = workdir / "nope"
        for text in ['{"preset": "nope"}',
                     '{"preset": "drift", "width": 1e400}',
                     '{"preset": "drift", "images": 1e400}',
                     '{"preset": "drift", "center_bias_strength": NaN}',
                     '{"preset": "drift", "center_bias_strength": Infinity}',
                     '{"preset": "drift", "spread": NaN}',
                     '{"preset": "drift", "spread": 0}',
                     json.dumps(scene(cx=float("nan"))),
                     json.dumps(scene(sigma=float("nan"))),
                     json.dumps(scene(cy=10 ** 400))]:
            bad.write_text(text)
            assert run("synth", "--scene", bad, "--out", out) == 2, text
            assert only_error_line(capsys).startswith(
                ("tsal: FormatError: ", "tsal: ConfigError: ")), text
            assert not out.exists(), text

    @pytest.mark.parametrize("scene,want", [
        ({"preset": "spiral"}, 'FormatError: scene file needs either a '
                               '"scenes" list or preset="drift"'),
        ({"scenes": 5}, 'FormatError: "scenes" must be a list'),
        ({"scenes": [{"width": 16, "height": 16, "drift": [[1]]}]},
         "FormatError: bad scene description: 'objects'"),
        ({"preset": "drift", "images": 0},
         "FormatError: preset needs images >= 1"),
        ({"scenes": [{"width": 16, "height": 16, "drift": [[1]], "objects": [
            {"cx": 8, "cy": 8, "sigma": -2, "weight": 1}]}]},
         "ConfigError: object sigma must be positive"),
        ({"scenes": [{"width": 16, "height": 16, "drift": [[1], [0]],
                      "objects": [{"cx": 8, "cy": 8, "sigma": 2,
                                   "weight": 1}]}]},
         "ConfigError: slice 1 has zero total attention weight")],
        ids=["unknown preset", "scenes not a list", "no objects",
             "no images", "negative sigma", "zero attention"])
    def test_scene_errors_name_the_file(self, tmp_path, capsys, scene, want):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        out = tmp_path / "out"
        assert run("synth", "--scene", path, "--out", out) == 2
        kind, message = want.split(": ", 1)
        assert only_error_line(capsys) == f"tsal: {kind}: {path}: {message}"
        assert not out.exists()

    def test_negative_jitter_exits_two(self, workdir, dataset, capsys):
        assert run("synth", "--scene", dataset["scene"],
                   "--out", workdir / "data_jitter", "--jitter", "-1") == 2
        assert only_error_line(capsys) == (
            "tsal: ConfigError: need fixation_rate > 0, rho in (0,1], "
            "duration > 0, jitter >= 0")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rejected_settings_leave_no_output(self, workdir, dataset, capsys,
                                               jobs):
        out = workdir / f"data_jitter_jobs{jobs}"
        assert run("synth", "--scene", dataset["scene"], "--out", out,
                   "--jitter", "-1", "--jobs", jobs) == 2
        assert only_error_line(capsys).startswith("tsal: ConfigError: ")
        assert not out.exists()


def write_rows(path, rows) -> None:
    """CSV rows (lists of fields), the way a per-row csv.writer writes."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def sliced_rows(dataset) -> list[list[str]]:
    """The fields of the sliced fixation CSV, header first."""
    with open(dataset["sliced"], newline="") as fh:
        return list(csv.reader(fh))


class TestTimestampsAndSlice:
    def test_recovered_rows_all_timestamped(self, dataset):
        fixations, _ = read_fixation_table(dataset["recovered"])
        assert fixations.t_ms is not None

    def test_timestamp_beyond_t_total_names_the_csv(self, dataset, tmp_path,
                                                    capsys):
        fixations, _ = read_fixation_table(dataset["recovered"])
        # slicing runs image by image: the first image with a late fixation
        late = next(t[t > 100.0] for t in (
            fixations.t_ms[rows]
            for rows in group_rows(fixations.image_id).values())
            if (t > 100.0).any())
        out = tmp_path / "sliced.csv"
        assert run("slice", "--fixations", dataset["recovered"],
                   "--out", out, "--t-total", 100) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {dataset['recovered']}: timestamp "
            f"{float(late[0])} outside [0, 100.0]")
        assert not out.exists()

    def test_slice_is_idempotent_on_its_own_output(self, workdir, dataset):
        again = workdir / "sliced_again.csv"
        run0("slice", "--fixations", dataset["sliced"], "--out", again,
             "--scheme", "equal-duration")
        assert again.read_bytes() == dataset["sliced"].read_bytes()

    def test_timestamps_drops_a_stale_slice_column(self, workdir, dataset):
        out = workdir / "recovered_from_sliced.csv"
        run0("timestamps", "--gaze", dataset["data"] / "gaze.jsonl",
             "--fixations", dataset["sliced"], "--out", out)
        assert out.read_bytes() == dataset["recovered"].read_bytes()

    def test_slice_replaces_an_existing_slice_column(self, workdir, dataset):
        again, fresh = workdir / "resliced_n3.csv", workdir / "sliced_n3.csv"
        run0("slice", "--fixations", dataset["sliced"], "--out", again,
             "--n", 3)
        run0("slice", "--fixations", dataset["recovered"], "--out", fresh,
             "--n", 3)
        assert again.read_bytes() == fresh.read_bytes()
        assert read_fixation_table(again)[0].slice_index.max() == 2

    def test_equal_distribution_scheme(self, workdir, dataset):
        out = workdir / "sliced_dist.csv"
        run0("slice", "--fixations", dataset["recovered"], "--out", out,
             "--scheme", "equal-distribution", "--n", 4)
        _, slices = read_fixation_table(out)
        # per image 45 fixations -> quota sizes 12,11,11,11
        assert set(slices) == {0, 1, 2, 3}

    @pytest.mark.parametrize("scheme", ["equal-duration",
                                        "equal-distribution"])
    def test_interleaved_rows_are_sliced_per_image_in_row_order(
            self, workdir, dataset, scheme):
        fixations, _ = read_fixation_table(dataset["recovered"])
        order = np.random.default_rng(8).permutation(len(fixations))
        rows = fixations.take(order)  # images and observers mixed
        src = workdir / "interleaved.csv"
        write_fixations_csv(src, rows)
        out = workdir / f"interleaved_{scheme}.csv"
        run0("slice", "--fixations", src, "--out", out, "--scheme", scheme,
             "--n", 4)
        got, slice_of = read_fixation_table(out)
        assert replace(got, slice_index=None) == rows
        for image_id in set(rows.image_id):
            mine = [i for i, other in enumerate(rows.image_id)
                    if other == image_id]
            if scheme == "equal-duration":
                want = slice_equal_duration(rows.t_ms[mine], n=4)
            else:
                want = slice_equal_distribution(rows.t_ms[mine],
                                                rows.order_index[mine], n=4)
            assert slice_of[mine].tolist() == want.tolist()

    def test_slicing_untimestamped_input_fails(self, dataset, capsys):
        assert run("slice", "--fixations",
                   dataset["data"] / "fixations.csv",
                   "--out", "unused.csv") == 2
        assert "t_ms" in capsys.readouterr().err

    @pytest.mark.parametrize("via_config", [False, True])
    def test_nan_t_total_exits_two(self, workdir, dataset, capsys,
                                   via_config):
        out = workdir / "nan_total.csv"
        if via_config:
            cfg = workdir / "nan_total.cfg"
            cfg.write_text("t_total=nan\n")
            extra = ("--config", cfg)
        else:
            extra = ("--t-total", "nan")
        assert run("slice", "--fixations", dataset["recovered"],
                   "--out", out, *extra) == 2
        assert only_error_line(capsys) == ("tsal: ConfigError: argument "
                                           "--t-total: 'nan' is not a finite "
                                           "number")
        assert not out.exists()

    def test_missing_gaze_for_observer_exits_two(self, workdir, dataset,
                                                 capsys):
        fixations, _ = read_fixation_table(dataset["data"] / "fixations.csv")
        orphan = fixations.take([0, 1, 2])
        orphan_csv = workdir / "orphan.csv"
        write_fixations_csv(orphan_csv, orphan)
        empty_gaze = workdir / "empty.jsonl"
        empty_gaze.write_text("")
        assert run("timestamps", "--gaze", empty_gaze,
                   "--fixations", orphan_csv, "--out", "x.csv") == 2
        assert "UnrecoverableObserverError" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("t_ms", "true", "'t_ms' missing or not a number"),
        ("x", '"3"', "'x' missing or not a number"),
        ("y", "NaN", "'y' is not finite"),
        ("x", "1e999", "'x' is not finite"),
        ("t_ms", "1" + "0" * 400, "'t_ms' is not finite"),  # int overflow
        ("observer_id", "null", "'observer_id' missing or not a string")])
    def test_bad_gaze_line_exits_two(self, workdir, dataset, capsys, field,
                                     value, message):
        lines = (dataset["data"] / "gaze.jsonl").read_text().splitlines()
        record = json.loads(lines[4])
        lines[4] = json.dumps(record).replace(
            f'"{field}": {json.dumps(record[field])}', f'"{field}": {value}')
        bad = workdir / "bad_gaze.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        out = workdir / "bad_gaze_out.csv"
        assert run("timestamps", "--gaze", bad,
                   "--fixations", dataset["data"] / "fixations.csv",
                   "--out", out) == 2
        err = capsys.readouterr().err.strip()
        assert err == f"tsal: FormatError: {bad}: line 5: {message}"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("column", ["x", "y", "t_ms"])
    @pytest.mark.parametrize("command", ["timestamps", "slice"])
    def test_non_finite_fixation_value_exits_two(self, workdir, dataset,
                                                 capsys, command, column,
                                                 value):
        rows = read_csv(dataset["recovered"])
        rows[1][column] = value
        bad = workdir / f"nonfinite_{command}_{column}_{value}.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out = workdir / "nonfinite_out.csv"
        if command == "timestamps":
            code = run(command, "--gaze", dataset["data"] / "gaze.jsonl",
                       "--fixations", bad, "--out", out)
        else:
            code = run(command, "--fixations", bad, "--out", out,
                       "--scheme", "equal-distribution")
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert "\n" not in err
        assert err.startswith("tsal: FormatError: ")
        assert f"line 3: {column!r} is not finite" in err
        assert not out.exists()


    @pytest.mark.parametrize("via_config", [False, True],
                             ids=["flag", "config"])
    @pytest.mark.parametrize("t_total", ["0", "-100"])
    @pytest.mark.parametrize("command", ["timestamps", "analyze"])
    def test_non_positive_t_total_exits_two(self, workdir, dataset, capsys,
                                            command, t_total, via_config):
        # every t_ms 0.0: inside [0, t_total] for t_total = 0
        rows = sliced_rows(dataset)
        t_col = rows[0].index("t_ms")
        for row in rows[1:]:
            row[t_col] = "0.0"
        src = workdir / "zero_times.csv"
        write_rows(src, rows)
        out = workdir / f"t_total_{command}"
        if command == "timestamps":
            argv = [command, "--gaze", dataset["data"] / "gaze.jsonl",
                    "--fixations", src, "--out", out]
        else:
            argv = [command, "--maps", dataset["maps"], "--fixations", src,
                    "--out", out]
        if via_config:
            cfg = workdir / "t_total.cfg"
            cfg.write_text(f"t_total={t_total}\n")
            argv += ["--config", cfg]
        else:
            argv.append(f"--t-total={t_total}")
        assert run(*argv) == 2
        assert only_error_line(capsys) == (
            f"tsal: ConfigError: t_total must be positive, "
            f"got {float(t_total)}")
        assert not out.exists()

    @pytest.mark.parametrize("column", ["order_index", "slice_index"])
    @pytest.mark.parametrize("command", ["timestamps", "slice", "rasterize"])
    def test_integer_beyond_64_bits_exits_two(self, workdir, dataset, capsys,
                                              command, column):
        rows = sliced_rows(dataset)
        rows[2][rows[0].index(column)] = "1" + "0" * 400
        src = workdir / f"big_{column}.csv"
        write_rows(src, rows)
        out = workdir / f"big_{command}_out"
        inputs = {"timestamps": ("--gaze", dataset["data"] / "gaze.jsonl"),
                  "slice": ("--scheme", "equal-distribution"),
                  "rasterize": ("--images", dataset["images"])}[command]
        assert run(command, "--fixations", src, *inputs, "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: FormatError: {src}: line 3: {column!r} does not fit "
            f"in 64 bits")
        assert not out.exists()


# One field of the sliced CSV per case: a value from MUTATIONS put in
# the named column, or None to drop the row's last field.
MUTATIONS = ("", "nan", "inf", "1e999", "-1", "1" + "0" * 400, "text", "a,b")
FIELD_CASES = [(column, value) for column in (
    "image_id", "observer_id", "order_index", "x", "y", "t_ms",
    "slice_index") for value in MUTATIONS] + [(None, None)]


class TestMutatedFixationCsv:
    """Every stage that reads fixations, on a valid sliced CSV with one
    field mutated: an exit code of the contract, and one error line on
    failure."""

    def test_each_stage_exits_by_the_contract(self, workdir, dataset,
                                              capsys):
        rng = np.random.default_rng(707)  # picks the row of each case
        header, *body = sliced_rows(dataset)
        for n, (column, value) in enumerate(FIELD_CASES):
            rows = [list(row) for row in body]
            row = rows[int(rng.integers(len(rows)))]
            if column is None:
                row.pop()
            else:
                row[header.index(column)] = value
            src = workdir / f"mutated{n}.csv"
            write_rows(src, [header, *rows])
            out = workdir / f"mutated{n}"
            for argv in (
                    ("timestamps", "--gaze", dataset["data"] / "gaze.jsonl",
                     "--out", out / "recovered.csv"),
                    ("slice", "--out", out / "sliced.csv"),
                    ("rasterize", "--images", dataset["images"],
                     "--out", out / "maps"),
                    ("analyze", "--maps", dataset["maps"],
                     "--out", out / "analysis"),
                    ("eval", "--pred", dataset["maps"] / "full",
                     "--gt", dataset["data"] / "truth" / "maps" / "full",
                     "--out", out / "metrics.csv")):
                case = f"{argv[0]} with {column}={value!r}"
                code = run(*argv, "--fixations", src)
                captured = capsys.readouterr()
                assert code in (0, 2, 3), case
                if code:
                    assert re.fullmatch(r"tsal: \w+: [^\n]*\n",
                                        captured.err), (case, captured.err)
                else:
                    assert captured.err == "", case


class TestRasterize:
    def test_map_tree(self, dataset):
        for kind in ("full", "t0", "t1", "t2", "t3", "t4"):
            for i in range(4):
                path = dataset["maps"] / kind / f"img{i:03d}.tsal"
                assert path.exists()
                m = read_map_tsal(path)
                assert m.shape == (64, 64)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_normalized_empty_slice_is_degenerate(self, dataset, tmp_path,
                                                  capsys, jobs):
        # over-provision n so that slices 5 and 6 have no fixations
        out = tmp_path / "maps"
        assert run("rasterize", "--fixations", dataset["sliced"],
                   "--images", dataset["images"], "--out", out, "--n", 7,
                   "--normalize", "sum", "--jobs", jobs) == 3
        assert only_error_line(capsys) == (
            f"tsal: DegenerateMapError: {dataset['sliced']}: image 'img000' "
            f"slice 5: no fixations: cannot produce a normalized map")
        assert not out.exists()

    def test_kernel_wider_than_the_map(self, workdir, dataset):
        # sigma 40 gives a 241-tap kernel on 64x64 maps
        out = workdir / "maps_wide"
        run0("rasterize", "--fixations", dataset["sliced"],
             "--images", dataset["images"], "--out", out, "--sigma", 40)
        m = read_map_tsal(out / "full" / "img000.tsal")
        assert m.shape == (64, 64) and m.min() > 0.0

    def test_out_of_range_slice_index_exits_two(self, workdir, dataset):
        assert run("rasterize", "--fixations", dataset["sliced"],
                   "--images", dataset["images"],
                   "--out", workdir / "maps_bad", "--n", 3) == 2

    def test_out_of_range_slice_index_names_the_csv(self, dataset, tmp_path,
                                                    capsys):
        fixations, _ = read_fixation_table(dataset["sliced"])
        first = fixations.slice_index[fixations.slice_index >= 2][0]
        out = tmp_path / "maps"
        assert run("rasterize", "--fixations", dataset["sliced"],
                   "--images", dataset["images"], "--out", out,
                   "--n", 2) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {dataset['sliced']}: slice index "
            f"{first} out of range for n=2")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fixation_outside_its_image_names_the_csv(self, tmp_path, capsys,
                                                      jobs):
        # img000's maps are written before img001's worker finds the
        # fixation; the staged tree is then removed whole
        images = tmp_path / "images"
        images.mkdir()
        for image_id in ("img000", "img001"):
            np.save(images / f"{image_id}.npy", np.full((3, 6, 8), 0.5))
        fixations = tmp_path / "sliced.csv"
        write_rows(fixations, [
            ["image_id", "observer_id", "order_index", "x", "y", "t_ms",
             "slice_index"],
            ["img000", "o000", "0", "2.0", "3.0", "10.0", "0"],
            ["img000", "o000", "1", "5.0", "1.0", "900.0", "1"],
            ["img001", "o000", "0", "50.0", "1.0", "10.0", "0"]])
        out = tmp_path / "maps"
        assert run("rasterize", "--fixations", fixations, "--images", images,
                   "--out", out, "--n", 2, "--jobs", jobs) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {fixations}: fixation at (50.0, 1.0) "
            f"outside 8x6 image")
        assert not out.exists()

    def test_unknown_image_reference_exits_two(self, workdir, dataset):
        rogue = workdir / "rogue.csv"
        fixations, _ = read_fixation_table(dataset["sliced"])
        fixations = replace(fixations,
                            image_id=("ghost",) + fixations.image_id[1:])
        write_fixations_csv(rogue, fixations)
        assert run("rasterize", "--fixations", rogue,
                   "--images", dataset["images"],
                   "--out", workdir / "maps_rogue") == 2


@pytest.fixture(scope="module")
def analysis_dir(workdir, dataset):
    out = workdir / "analysis"
    run0("analyze", "--maps", dataset["maps"],
         "--fixations", dataset["sliced"], "--out", out)
    return out


class TestAnalyze:
    def test_csv_headers(self, analysis_dir):
        corr = (analysis_dir / "correlation.csv").read_text().splitlines()
        assert corr[0] == "slice,t1,t2,t3,t4,t5,skipped_max"
        dev = (analysis_dir / "deviation.csv").read_text().splitlines()
        assert dev[0] == "slice,mean_cc_to_average,skipped"
        assert len(dev) == 6
        hist = (analysis_dir / "histogram.csv").read_text().splitlines()
        assert hist[0] == "time_bin_start_ms,saliency_bin_start,count"

    def test_histogram_counts_every_fixation(self, analysis_dir, dataset):
        fixations, _ = read_fixation_table(dataset["sliced"])
        rows = read_csv(analysis_dir / "histogram.csv")
        assert sum(int(r["count"]) for r in rows) == len(fixations)

    def test_average_and_difference_maps(self, analysis_dir):
        for k in range(5):
            assert (analysis_dir / "average" / f"t{k}.tsal").exists()
            assert (analysis_dir / "average" / f"t{k}.pgm").exists()
        for k in range(4):
            assert (analysis_dir / "diff" / f"d{k}.tsal").exists()
            assert (analysis_dir / "diff" / f"d{k}.ppm").exists()

    def test_correlation_diagonal_is_one(self, analysis_dir):
        rows = read_csv(analysis_dir / "correlation.csv")
        for i, row in enumerate(rows):
            assert float(row[f"t{i + 1}"]) == 1.0

    def test_missing_maps_dir_exits_two(self, workdir, dataset):
        assert run("analyze", "--maps", workdir / "no_such_maps",
                   "--fixations", dataset["sliced"],
                   "--out", workdir / "x") == 2

    def test_timestamp_beyond_t_total_names_the_csv(self, dataset, tmp_path,
                                                    capsys):
        fixations, _ = read_fixation_table(dataset["sliced"])
        late = fixations.t_ms[fixations.t_ms > 100.0][0]
        out = tmp_path / "analysis"
        assert run("analyze", "--maps", dataset["maps"],
                   "--fixations", dataset["sliced"], "--out", out,
                   "--t-total", 100) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {dataset['sliced']}: timestamp "
            f"{float(late)} outside [0, 100.0]")
        assert not out.exists()

    def test_unknown_image_leaves_no_output(self, workdir, dataset, capsys):
        table, _ = read_fixation_table(dataset["sliced"])
        ghost = workdir / "ghost.csv"
        write_fixations_csv(
            ghost, replace(table, image_id=("ghost",) + table.image_id[1:]))
        out = workdir / "analysis_ghost"
        assert run("analyze", "--maps", dataset["maps"],
                   "--fixations", ghost, "--out", out) == 2
        assert only_error_line(capsys) == (
            "tsal: PreconditionError: fixations reference images without "
            "maps: ghost")
        assert not out.exists()

    def test_image_without_fixations_is_skipped(self, tmp_path):
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps({
            "preset": "drift", "images": 3, "width": 32, "height": 32,
            "slices": 5, "scene_seed": 4}))
        run0("synth", "--scene", scene, "--out", tmp_path / "data",
             "--seed", 2, "--observers", 2, "--samples-per-sec", 10)
        run0("timestamps", "--gaze", tmp_path / "data" / "gaze.jsonl",
             "--fixations", tmp_path / "data" / "fixations.csv",
             "--out", tmp_path / "recovered.csv")
        run0("slice", "--fixations", tmp_path / "recovered.csv",
             "--out", tmp_path / "sliced.csv")
        table, slices = read_fixation_table(tmp_path / "sliced.csv")
        kept = [i for i, image_id in enumerate(table.image_id)
                if image_id != "img002"]
        write_fixations_csv(tmp_path / "sliced.csv", table.take(kept))
        run0("rasterize", "--fixations", tmp_path / "sliced.csv",
             "--images", tmp_path / "data" / "images",
             "--out", tmp_path / "maps")
        assert not read_map_tsal(tmp_path / "maps" / "full" /
                                 "img002.tsal").any()
        out = tmp_path / "analysis"
        run0("analyze", "--maps", tmp_path / "maps",
             "--fixations", tmp_path / "sliced.csv", "--out", out)
        # a slice map is all-zero where its image has no fixation in it
        present = {(table.image_id[i], int(slices[i])) for i in kept}
        want = [sum((f"img{i:03d}", k) not in present for i in range(3))
                for k in range(5)]
        rows = read_csv(out / "deviation.csv")
        assert [int(r["skipped"]) for r in rows] == want
        assert min(want) >= 1
        hist = read_csv(out / "histogram.csv")
        assert sum(int(r["count"]) for r in hist) == len(kept)

    def test_map_listing_order_is_irrelevant_bitwise(self, workdir, dataset,
                                                     analysis_dir):
        tree = workdir / "maps_reversed"
        for f in sorted(dataset["maps"].glob("*/*.tsal"), reverse=True):
            (tree / f.parent.name).mkdir(parents=True, exist_ok=True)
            shutil.copyfile(f, tree / f.parent.name / f.name)
        out = workdir / "analysis_reversed"
        run0("analyze", "--maps", tree, "--fixations", dataset["sliced"],
             "--out", out)
        files = sorted(f.relative_to(analysis_dir)
                       for f in analysis_dir.rglob("*") if f.is_file())
        assert files == sorted(f.relative_to(out)
                               for f in out.rglob("*") if f.is_file())
        for rel in files:
            assert (out / rel).read_bytes() == (analysis_dir / rel).read_bytes()


@pytest.fixture(scope="module")
def mixed_sizes(workdir):
    """Two 32x32 images whose map tree (t0, t1, full) holds one 16x16 t1
    map, a timestamped fixation CSV, and a full-map directory whose two
    maps are 32x32 and 16x16."""
    root = workdir / "mixed"
    (root / "images").mkdir(parents=True)
    rng = np.random.default_rng(40)
    ids = ("img000", "img001")
    for image_id in ids:
        np.save(root / "images" / f"{image_id}.npy",
                rng.uniform(size=(3, 32, 32)))
        for kind in ("t0", "t1", "full"):
            n = 16 if (kind, image_id) == ("t1", "img001") else 32
            write_map_tsal(root / "maps" / kind / f"{image_id}.tsal",
                           rng.uniform(0.01, 1.0, size=(n, n)))
        n = 16 if image_id == "img001" else 32
        write_map_tsal(root / "full_mixed" / f"{image_id}.tsal",
                       rng.uniform(0.01, 1.0, size=(n, n)))
    write_fixations_csv(root / "fixations.csv", FixationTable(
        ids * 2, ("obs",) * 4, range(4), (4.0, 5.0, 6.0, 7.0),
        (8.0, 9.0, 10.0, 11.0), (100.0, 200.0, 300.0, 400.0)))
    return root


class TestMapStack:
    def test_reader_stacks_maps_in_the_given_order(self, mixed_sizes):
        maps = mixed_sizes / "maps"
        stack = _read_stack(maps, ["t0", "full"], ["img001", "img000"])
        assert stack.shape == (2, 2, 32, 32) and stack.dtype == np.float64
        for i, image_id in enumerate(["img001", "img000"]):
            for k, kind in enumerate(["t0", "full"]):
                want = read_map_tsal(maps / kind / f"{image_id}.tsal")
                assert stack[i, k].tobytes() == want.tobytes()

    def test_reader_rejects_inconsistent_sizes(self, mixed_sizes):
        maps = mixed_sizes / "maps"
        with pytest.raises(PreconditionError, match=(
                "^inconsistent map sizes: .*img001.tsal is 16x16, "
                "expected 32x32$")):
            _read_stack(maps, ["t0", "t1"], ["img000", "img001"])

    def test_reader_rejects_a_missing_map(self, mixed_sizes):
        missing = mixed_sizes / "maps" / "t0" / "img002.tsal"
        with pytest.raises(FormatError, match=(
                f"^{re.escape(str(missing))}: No such file or directory$")):
            _read_stack(mixed_sizes / "maps", ["t0"], ["img000", "img002"])

    @pytest.mark.parametrize("width,height", [(0, 0), (0, 5), (5, 0)])
    @pytest.mark.parametrize("command", ["analyze", "eval", "train"])
    def test_zero_size_map_exits_two(self, mixed_sizes, tmp_path, capsys,
                                     command, width, height):
        maps = tmp_path / "maps"
        shutil.copytree(mixed_sizes / "maps", maps)
        # a 32x32 t1 map, so only the zero-size one can be refused
        write_map_tsal(maps / "t1" / "img001.tsal", np.ones((32, 32)))
        (maps / "full" / "img001.tsal").write_bytes(
            b"TSAL" + width.to_bytes(4, "little") +
            height.to_bytes(4, "little") + b"\x00")
        out = tmp_path / "out"
        if command == "eval":
            argv = ["eval", "--pred", maps / "full", "--gt", maps / "full",
                    "--fixations", mixed_sizes / "fixations.csv"]
        elif command == "analyze":
            argv = ["analyze", "--maps", maps,
                    "--fixations", mixed_sizes / "fixations.csv"]
        else:
            argv = ["train", "--maps", maps, "--images",
                    mixed_sizes / "images", "--epochs", 1]
        assert run(*argv, "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: FormatError: {maps / 'full' / 'img001.tsal'}: "
            f"TSAL map has zero size {width}x{height}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "analyze", "eval"])
    def test_mixed_sizes_exit_two(self, mixed_sizes, capsys, command):
        out = mixed_sizes / f"out_{command}"
        argv = [command, "--out", out]
        broken = mixed_sizes / "maps" / "t1" / "img001.tsal"
        if command == "train":
            argv += ["--maps", mixed_sizes / "maps",
                     "--images", mixed_sizes / "images", "--epochs", 1]
        elif command == "analyze":
            argv += ["--maps", mixed_sizes / "maps",
                     "--fixations", mixed_sizes / "fixations.csv"]
        else:
            full = mixed_sizes / "full_mixed"
            broken = full / "img001.tsal"
            argv += ["--pred", full, "--gt", full,
                     "--fixations", mixed_sizes / "fixations.csv"]
        assert run(*argv) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: inconsistent map sizes: {broken} is "
            f"16x16, expected 32x32")
        assert not out.exists()


def eval_argv(pred, gt, fixations, out):
    return ["eval", "--pred", pred, "--gt", gt, "--fixations", fixations,
            "--out", out]


class TestStreamedMapTrees:
    """``analyze`` and ``eval`` read their map trees image by image: each
    error is the one a whole tree read first would give, and memory does
    not grow with the image count."""

    @staticmethod
    def break_map(path, defect):
        path.unlink()
        if defect == "wrong size":
            write_map_tsal(path, np.ones((32, 32)))
        elif defect == "zero size":
            path.write_bytes(b"TSAL" + bytes(8) + b"\x00")
        else:  # listed, but not there
            path.symlink_to(path.parent / "nowhere.tsal")

    @pytest.mark.parametrize("defect", ["wrong size", "zero size", "missing"])
    @pytest.mark.parametrize("command,tree", [
        ("analyze", "full"), ("analyze", "t4"), ("eval", "gt"),
        ("eval", "pred")])
    def test_bad_last_map_is_one_error_line(self, dataset, tmp_path, capsys,
                                            command, tree, defect):
        maps = tmp_path / "maps"
        shutil.copytree(dataset["maps"], maps)
        shutil.copytree(maps / "full", maps / "gt")
        shutil.copytree(maps / "full", maps / "pred")
        broken = maps / tree / "img003.tsal"
        self.break_map(broken, defect)
        out = tmp_path / "out"
        if command == "analyze":
            argv = ["analyze", "--maps", maps, "--fixations",
                    dataset["sliced"], "--out", out]
        else:
            argv = eval_argv(maps / "pred", maps / "gt", dataset["sliced"],
                             out / "metrics.csv")
        assert run(*argv) == 2
        want = {
            "wrong size": f"PreconditionError: inconsistent map sizes: "
                          f"{broken} is 32x32, expected 64x64",
            "zero size": f"FormatError: {broken}: TSAL map has zero size 0x0",
            "missing": f"FormatError: {broken}: No such file or directory",
        }[defect]
        assert only_error_line(capsys) == f"tsal: {want}"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "eval"])
    def test_every_map_is_read_before_one_is_refused(
            self, dataset, tmp_path, capsys, command):
        """An all-zero map of the first image, which has fixations, is
        refused only once the last map is read, so the last map's read
        error comes first, as when the whole tree was read first."""
        maps = tmp_path / "maps"
        shutil.copytree(dataset["maps"], maps)
        write_map_tsal(maps / "full" / "img000.tsal", np.zeros((64, 64)))
        missing = maps / "full" / "img003.tsal"
        self.break_map(missing, "missing")
        out = tmp_path / "out"
        if command == "analyze":
            argv = ["analyze", "--maps", maps, "--fixations",
                    dataset["sliced"], "--out", out]
        else:
            argv = eval_argv(dataset["maps"] / "full", maps / "full",
                             dataset["sliced"], out / "metrics.csv")
        assert run(*argv) == 2
        assert only_error_line(capsys) == (
            f"tsal: FormatError: {missing}: No such file or directory")
        assert not out.exists()

    def test_constant_prediction_is_named_by_file(self, dataset, tmp_path,
                                                  capsys):
        pred = tmp_path / "pred"
        shutil.copytree(dataset["maps"] / "full", pred)
        write_map_tsal(pred / "img002.tsal", np.full((64, 64), 0.5))
        out = tmp_path / "out" / "metrics.csv"
        assert run(*eval_argv(pred, dataset["maps"] / "full",
                              dataset["sliced"], out)) == 3
        assert only_error_line(capsys) == (
            f"tsal: DegenerateMapError: {pred / 'img002.tsal'}: cc is "
            f"undefined for a constant map")
        assert not out.parent.exists()

    def test_constant_ground_truth_map_is_named_by_file(
            self, dataset, tmp_path, capsys):
        """A constant ground-truth map has no cc: it is refused with the
        other ground-truth errors, before any prediction is read."""
        gt = tmp_path / "gt"
        shutil.copytree(dataset["maps"] / "full", gt)
        write_map_tsal(gt / "img002.tsal", np.full((64, 64), 0.5))
        pred = tmp_path / "pred"
        shutil.copytree(dataset["maps"] / "full", pred)
        self.break_map(pred / "img000.tsal", "zero size")
        out = tmp_path / "out" / "metrics.csv"
        assert run(*eval_argv(pred, gt, dataset["sliced"], out)) == 3
        assert only_error_line(capsys) == (
            f"tsal: DegenerateMapError: {gt / 'img002.tsal'}: ground-truth "
            f"map is constant")
        assert not out.parent.exists()

    def test_wrong_size_first_prediction_is_named(self, dataset, tmp_path,
                                                   capsys):
        pred = tmp_path / "pred"
        shutil.copytree(dataset["maps"] / "full", pred)
        self.break_map(pred / "img000.tsal", "wrong size")
        out = tmp_path / "out" / "metrics.csv"
        assert run(*eval_argv(pred, dataset["maps"] / "full",
                              dataset["sliced"], out)) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: inconsistent map sizes: "
            f"{pred / 'img000.tsal'} is 32x32, expected 64x64")
        assert not out.parent.exists()

    @pytest.mark.parametrize("defect", ["outside", "no fixations"])
    def test_fixation_errors_name_the_csv(self, dataset, tmp_path, capsys,
                                          defect):
        header, *rows = sliced_rows(dataset)
        if defect == "outside":
            rows[5][3] = "500.0"
            want = (f"fixation at (500.0, {float(rows[5][4])}) outside "
                    f"64x64 image")
        else:
            rows = [row for row in rows if row[0] != "img002"]
            want = "no fixations for image 'img002'"
        fixations = tmp_path / "fixations.csv"
        write_rows(fixations, [header, *rows])
        out = tmp_path / "out" / "metrics.csv"
        assert run(*eval_argv(dataset["maps"] / "full",
                              dataset["maps"] / "full", fixations, out)) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {fixations}: {want}")
        assert not out.parent.exists()

    @pytest.mark.parametrize("command", ["analyze", "train", "eval"])
    def test_all_zero_map_tagged_sum_one_is_named(self, dataset, tmp_path,
                                                   capsys, command):
        maps = tmp_path / "maps"
        shutil.copytree(dataset["maps"], maps)
        broken = maps / "full" / "img002.tsal"
        broken.write_bytes(serialize_map(np.zeros((64, 64)),
                                         Normalization.SUM_TO_ONE))
        out = tmp_path / "out"
        argv = {"analyze": ["analyze", "--maps", maps, "--fixations",
                            dataset["sliced"], "--out", out],
                "train": ["train", "--images", dataset["images"], "--maps",
                          maps, "--out", out, "--epochs", 1],
                "eval": eval_argv(dataset["maps"] / "full", maps / "full",
                                  dataset["sliced"], out)}[command]
        assert run(*argv) == 3
        assert only_error_line(capsys) == (
            f"tsal: DegenerateMapError: {broken}: cannot sum-normalize an "
            f"all-zero map")
        assert not out.exists()

    @pytest.mark.parametrize("defect", ["all-zero map", "outside"])
    def test_histogram_errors_name_their_file(self, tmp_path, capsys, defect):
        fixations = self.write_trees(tmp_path, 2, np.random.default_rng(181),
                                     (6, 8))
        csv_path = tmp_path / "fixations.csv"
        if defect == "all-zero map":
            path = tmp_path / "maps" / "full" / "img001.tsal"
            write_map_tsal(path, np.zeros((6, 8)))
            code, want = 3, (f"DegenerateMapError: {path}: cannot "
                             f"max-normalize an all-zero map")
        else:
            x = np.array(fixations.x)
            x[4] = 50.0
            y = np.array(fixations.y)
            y[4] = 1.0
            write_fixations_csv(csv_path, replace(fixations, x=x, y=y))
            code, want = 2, (f"PreconditionError: {csv_path}: fixation at "
                             f"(50.0, 1.0) outside 8x6 image")
        out = tmp_path / "analysis"
        assert run("analyze", "--maps", tmp_path / "maps", "--fixations",
                   csv_path, "--out", out) == code
        assert only_error_line(capsys) == f"tsal: {want}"
        assert not out.exists()

    @staticmethod
    def write_trees(root, count, rng, shape, n_slices=5):
        """``count`` images' slice and full maps under root/maps, and a
        timestamped fixation CSV with three fixations per image."""
        ids = [f"img{i:03d}" for i in range(count)]
        for image_id in ids:
            for kind in [f"t{k}" for k in range(n_slices)] + ["full"]:
                write_map_tsal(root / "maps" / kind / f"{image_id}.tsal",
                               rng.uniform(0.01, 1.0, size=shape))
        n = 3 * count
        fixations = FixationTable(
            [i for i in ids for _ in range(3)], ["obs"] * n,
            [0, 1, 2] * count, rng.uniform(0, shape[1] - 1, size=n),
            rng.uniform(0, shape[0] - 1, size=n), rng.uniform(0, 5000, size=n))
        write_fixations_csv(root / "fixations.csv", fixations)
        return fixations

    def test_memory_does_not_grow_with_the_image_count(self, tmp_path):
        """From 20 to 80 images the peaks of analyze and eval grow by a
        few maps at most, plus the fixation table, which holds every
        image's rows. Read into one stack, the 60 more images' maps would
        be 60 maps for eval and 360 for analyze."""
        rng = np.random.default_rng(180)
        shape = (48, 64)
        map_bytes = np.zeros(shape).nbytes
        peaks, tables = {}, {}
        for count in (4, 20, 80):  # the first run only warms up
            root = tmp_path / f"n{count}"
            fixations = self.write_trees(root, count, rng, shape)
            tables[count] = sum(np.asarray(a).nbytes for a in (
                fixations.x, fixations.y, fixations.t_ms,
                fixations.order_index)) + 2 * 8 * len(fixations)
            maps = root / "maps"
            for name, argv in [
                    ("analyze", ["analyze", "--maps", maps, "--fixations",
                                 root / "fixations.csv",
                                 "--out", root / "analysis"]),
                    ("eval", eval_argv(maps / "full", maps / "full",
                                       root / "fixations.csv",
                                       root / "metrics.csv"))]:
                tracemalloc.start()
                try:
                    run0(*argv)
                    peaks[name, count] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for name in ("analyze", "eval"):
            growth = peaks[name, 80] - peaks[name, 20]
            assert growth < 4 * map_bytes + 4 * tables[80], (name, growth)


class TestTrainPredictEval:
    def test_checkpoints_and_loss_csv(self, workdir, trained):
        assert trained["stage1"].exists() and trained["final"].exists()
        lines = (workdir / "loss1.csv").read_text().splitlines()
        assert lines[0] == "epoch,stage,loss,lr"
        assert len(lines) == 3

    def test_mixing_keeps_backbone_frozen(self, trained):
        before = load_params(trained["stage1"])
        after = load_params(trained["final"])
        for name in before:
            if not name.startswith("smm."):
                assert before[name].tobytes() == after[name].tobytes()

    def test_mixing_without_base_exits_two(self, dataset, workdir, capsys):
        assert run("train", "--images", dataset["images"],
                   "--maps", dataset["maps"], "--out", workdir / "x.tspw",
                   "--stage", "mixing", "--epochs", 1) == 2
        assert "--base" in capsys.readouterr().err

    @pytest.mark.parametrize("steps", [0, -3])
    def test_max_steps_below_one_is_one_error_line(self, dataset, tmp_path,
                                                   capsys, steps):
        # it used to train nothing, print "final loss nan" and write the
        # initial parameters as a checkpoint
        out = tmp_path / "model.tspw"
        assert run("train", "--images", dataset["images"],
                   "--maps", dataset["maps"], "--out", out,
                   "--max-steps", steps) == 2
        assert only_error_line(capsys) == (
            f"tsal: ConfigError: max steps must be >= 1, got {steps}")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kinds", [["t0", "t1", "t2", "t3", "t4"],
                                       ["full"]], ids=["slices", "full"])
    def test_map_size_differs_from_the_images(self, dataset, tmp_path,
                                              capsys, kinds):
        maps = tmp_path / "maps"
        shutil.copytree(dataset["maps"], maps)
        for kind in kinds:
            for path in (maps / kind).glob("*.tsal"):
                write_map_tsal(path, np.ones((48, 32)))
        out = tmp_path / "model.tspw"
        assert run("train", "--images", dataset["images"], "--maps", maps,
                   "--out", out, "--epochs", 1) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {maps / kinds[0] / 'img000.tsal'}: "
            f"map is 32x48, images are 64x64")
        assert not out.exists()

    def test_overflowing_lr_is_one_error_line(self, dataset, workdir,
                                              capsys):
        out = workdir / "overflow.tspw"
        with warnings.catch_warnings():
            # a numpy overflow warning would be one more stderr line
            warnings.simplefilter("error")
            assert run("train", "--images", dataset["images"],
                       "--maps", dataset["maps"], "--out", out, "--lr",
                       "1e308", "--batch-size", 1, "--max-steps", 2) == 3
        assert only_error_line(capsys).startswith("tsal: NonFiniteError: ")
        assert not out.exists()

    def test_prediction_tree_and_determinism(self, workdir, dataset,
                                             trained):
        pred = trained["pred"]
        kinds = ["s_r", "s_i"] + [f"t{k}" for k in range(5)]
        for kind in kinds:
            assert (pred / kind / "img000.tsal").exists()
        assert (pred / "s_r" / "img000.pgm").exists()
        again = workdir / "pred_again"
        run0("predict", "--checkpoint", trained["final"],
             "--images", dataset["images"], "--out", again, "--jobs", 2)
        for kind in kinds:
            assert (again / kind / "img003.tsal").read_bytes() == \
                (pred / kind / "img003.tsal").read_bytes()

    def test_truncated_checkpoint_exits_two(self, workdir, dataset, trained,
                                            capsys):
        cut = workdir / "cut.tspw"
        cut.write_bytes(trained["stage1"].read_bytes()[:200])
        capsys.readouterr()
        assert run("predict", "--checkpoint", cut,
                   "--images", dataset["images"],
                   "--out", workdir / "pred_cut") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("tsal: CheckpointError: ")

    @pytest.mark.parametrize("argv, tensor, value", [
        (("predict",), "enc.c1.b", np.nan),
        (("train", "--stage", "mixing"), "smm.s1.w", np.inf),
        (("train", "--stage", "temporal"), "smm.s1.w", np.nan)],
        ids=["predict", "train-mixing", "train-temporal"])
    def test_non_finite_checkpoint_exits_two_naming_it(
            self, dataset, trained, tmp_path, capsys, argv, tensor, value):
        params = load_params(trained["final"])
        params[tensor].flat[0] = value
        bad = tmp_path / "bad.tspw"
        save_params(bad, params)
        flag = "--checkpoint" if argv[0] == "predict" else "--base"
        inputs = ("--maps", dataset["maps"], "--max-steps", 1) \
            if argv[0] == "train" else ()
        capsys.readouterr()
        assert run(*argv, flag, bad, "--images", dataset["images"], *inputs,
                   "--out", tmp_path / "out") == 2
        assert only_error_line(capsys) == (
            f"tsal: CheckpointError: {bad}: {tensor}: holds NaN or Inf "
            f"values")
        assert os.listdir(tmp_path) == ["bad.tspw"]

    @pytest.mark.parametrize("command", ["rasterize", "train", "predict"])
    def test_zero_byte_image_exits_two(self, dataset, trained, tmp_path,
                                       capsys, command):
        images = tmp_path / "images"
        shutil.copytree(dataset["images"], images)
        (images / "img001.npy").write_bytes(b"")
        out = tmp_path / "out"
        inputs = {"rasterize": ("--fixations", dataset["sliced"]),
                  "train": ("--maps", dataset["maps"], "--epochs", 1),
                  "predict": ("--checkpoint", trained["final"])}[command]
        capsys.readouterr()
        assert run(command, "--images", images, *inputs, "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: FormatError: {images / 'img001.npy'}: not a .npy array: "
            f"No data left in file")
        assert not out.exists()

    def test_bad_image_leaves_no_predictions(self, dataset, trained,
                                             tmp_path, capsys):
        images = tmp_path / "images"
        shutil.copytree(dataset["images"], images)
        np.save(images / "img002.npy", np.ones((64, 64)))
        out = tmp_path / "pred"
        capsys.readouterr()
        assert run("predict", "--checkpoint", trained["final"],
                   "--images", images, "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: FormatError: {images / 'img002.npy'}: expected a "
            f"(3, H, W) array, got (64, 64)")
        assert not out.exists()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_overflowing_image_is_named(self, dataset, trained, tmp_path,
                                        capsys, jobs):
        # finite, so it passes the image checks; only computing finds
        # that the first conv overflows
        images = tmp_path / "images"
        shutil.copytree(dataset["images"], images)
        np.save(images / "img001.npy", np.full((3, 64, 64), 1.7e308))
        capsys.readouterr()
        assert run("predict", "--checkpoint", trained["final"],
                   "--images", images, "--out", tmp_path / "pred",
                   "--jobs", jobs) == 3
        assert only_error_line(capsys) == (
            f"tsal: NonFiniteError: {images / 'img001.npy'}: conv2d "
            f"produced NaN or Inf values")
        assert not (tmp_path / "pred").exists()

    def test_predict_keeps_one_image_in_memory(self, tmp_path):
        """Over 16 images predict peaks within a few image arrays of its
        peak over 4: no image is held while the others are read."""
        config = model.ModelConfig(
            enc_channels=(2, 3, 3, 4, 4), dec_channels=(3, 3, 3, 3),
            head_hidden=3, smm_channels=(3, 3, 3, 3), n_slices=2)
        save_params(tmp_path / "tiny.tspw", model.init_params(config, 0))
        rng = np.random.default_rng(140)
        shape = (3, 64, 64)
        peaks = {}
        for count in (1, 4, 16):  # the first run only warms up
            images = tmp_path / f"images{count}"
            images.mkdir()
            for i in range(count):
                np.save(images / f"img{i:02d}.npy", rng.uniform(size=shape))
            tracemalloc.start()
            try:
                run0("predict", "--checkpoint", tmp_path / "tiny.tspw",
                     "--images", images, "--out", tmp_path / f"pred{count}",
                     "--jobs", 1)
                peaks[count] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[16] - peaks[4] < 6 * np.zeros(shape).nbytes

    def test_eval_writes_metric_csv(self, workdir, dataset, trained):
        out = workdir / "metrics.csv"
        run0("eval", "--pred", trained["pred"] / "s_r",
             "--gt", dataset["maps"] / "full",
             "--fixations", dataset["sliced"], "--out", out)
        rows = read_csv(out)
        assert rows[0].keys() == {"image_id", "cc", "kl", "nss", "auc_judd",
                                  "sauc", "sim", "ig"}
        assert rows[-1]["image_id"] == "mean"
        assert len(rows) == 5

    def test_image_named_mean_exits_two(self, tmp_path, capsys):
        """The mean row's id cannot be an image's too: eval refuses the
        trees before it writes metrics.csv."""
        rng = np.random.default_rng(14)
        for tree in ("pred", "gt"):
            for image in ("img", "mean"):
                write_map_tsal(tmp_path / tree / f"{image}.tsal",
                               rng.uniform(size=(8, 8)))
        fixations = tmp_path / "fix.csv"
        write_fixations_csv(fixations, FixationTable(
            ("img", "mean"), ("o", "o"), (0, 0), (1.0, 2.0), (3.0, 4.0)))
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", tmp_path / "pred", "--gt",
                   tmp_path / "gt", "--fixations", fixations,
                   "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: image id 'mean' "
            f"({tmp_path / 'pred' / 'mean.tsal'}) clashes with the mean row "
            f"of {out}")
        assert not out.exists()

    def test_all_zero_ground_truth_map_is_named_by_file(
            self, workdir, dataset, tmp_path, capsys):
        gt = tmp_path / "gt"
        shutil.copytree(dataset["maps"] / "full", gt)
        write_map_tsal(gt / "img001.tsal", np.zeros((64, 64)))
        out = tmp_path / "metrics.csv"
        assert run("eval", "--pred", dataset["maps"] / "full", "--gt", gt,
                   "--fixations", dataset["sliced"], "--out", out) == 3
        assert only_error_line(capsys) == (
            f"tsal: DegenerateMapError: {gt / 'img001.tsal'}: ground-truth "
            f"map is all-zero")
        assert not out.exists()

    def test_self_evaluation_identity(self, workdir, dataset):
        out = workdir / "self_metrics.csv"
        run0("eval", "--pred", dataset["maps"] / "full",
             "--gt", dataset["maps"] / "full",
             "--fixations", dataset["sliced"], "--out", out)
        for row in read_csv(out):
            assert float(row["cc"]) == 1.0
            assert float(row["kl"]) < 1e-6

    def test_mismatched_directories_exit_two(self, workdir, dataset,
                                              analysis_dir):
        assert run("eval", "--pred", dataset["maps"] / "t0",
                   "--gt", analysis_dir / "average",
                   "--fixations", dataset["sliced"],
                   "--out", workdir / "x.csv") == 2


def snapshot(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {p.relative_to(root).as_posix():
            None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


class TestStagedOutput:
    """Every output of a command appears whole or not at all."""

    # each case's command line besides --out (given for train's loss CSV,
    # which goes beside it), and the file the command writes last
    STAGES = {
        "synth": (lambda d, t, out: (
            "synth", "--scene", d["scene"], "--seed", 5, "--observers", 3,
            "--samples-per-sec", 20), "truth/fixations.csv"),
        "timestamps": (lambda d, t, out: (
            "timestamps", "--gaze", d["data"] / "gaze.jsonl",
            "--fixations", d["data"] / "fixations.csv"), "/out"),
        "slice": (lambda d, t, out: ("slice", "--fixations", d["recovered"]),
                  "/out"),
        "rasterize": (lambda d, t, out: (
            "rasterize", "--fixations", d["sliced"], "--images", d["images"]),
            "full/img003.tsal"),
        "rasterize-jobs2": (lambda d, t, out: (
            "rasterize", "--fixations", d["sliced"], "--images", d["images"],
            "--jobs", 2), "full/img003.tsal"),
        "analyze": (lambda d, t, out: (
            "analyze", "--maps", d["maps"], "--fixations", d["sliced"]),
            "histogram.csv"),
        "train": (lambda d, t, out: (
            "train", "--images", d["images"], "--maps", d["maps"],
            "--max-steps", 1, "--loss-csv", out.with_name("loss.csv")),
            "loss.csv"),
        "predict": (lambda d, t, out: (
            "predict", "--checkpoint", t["final"], "--images", d["images"]),
            "t4/img003.tsal"),
        "eval": (lambda d, t, out: (
            "eval", "--pred", d["maps"] / "full", "--gt", d["maps"] / "full",
            "--fixations", d["sliced"]), "/out"),
    }

    @pytest.mark.parametrize("before", ["absent", "existing",
                                        "missing-parents"])
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_failed_last_write_leaves_out_as_it_was(
            self, dataset, trained, tmp_path, monkeypatch, capsys, stage,
            before):
        root = tmp_path / "run"
        out = root / ("new/deeper/out" if before == "missing-parents"
                      else "out")
        inputs, last = self.STAGES[stage]
        argv = inputs(dataset, trained, out)
        root.mkdir()
        if before == "existing":  # each output file marked, a tree emptied
            run0(*argv, "--out", out)
            files = [p for p in root.rglob("*") if p.is_file()]
            if out.is_dir():
                shutil.rmtree(out)
                out.mkdir()
            else:
                for path in files:
                    path.write_bytes(b"old " + path.name.encode())
        before_run = snapshot(root)
        written = []
        real = fileio.writing

        @contextlib.contextmanager
        def failing_writer(path):
            with real(path) as fh:
                yield fh
                written.append(Path(path).as_posix())
                if written[-1].endswith(last):
                    raise OSError(errno.ENOSPC, "No space left on device")
        for module in (fileio, gaze):
            monkeypatch.setattr(module, "writing", failing_writer)
        capsys.readouterr()
        assert run(*argv, "--out", out) == 2
        assert only_error_line(capsys) == (
            "tsal: OSError: [Errno 28] No space left on device")
        assert snapshot(root) == before_run
        if before == "existing" and "--jobs" not in argv:
            # the failed write was the command's last (a pool worker's
            # writes are not seen here)
            assert len(written) == len(files)

    @pytest.mark.parametrize("stage", ["synth", "rasterize",
                                       "rasterize-jobs2", "analyze",
                                       "predict"])
    def test_non_empty_tree_out_is_refused_before_any_work(
            self, dataset, trained, tmp_path, monkeypatch, capsys, stage):
        out = tmp_path / "out"
        inputs, _ = self.STAGES[stage]
        argv = inputs(dataset, trained, out)
        run0(*argv, "--out", out)
        before_run = snapshot(tmp_path)

        def unreached(*args, **kwargs):
            raise AssertionError("computed or wrote into a refused --out")
        for module, name in ((fileio, "writing"), (gaze, "writing"),
                             (gaze, "rasterize"), (model, "predict"),
                             *((analysis, f) for f in (
                                 "saliency_time_histogram", "average_slices",
                                 "inter_slice_cc", "intra_slice_deviation"))):
            monkeypatch.setattr(module, name, unreached)
        capsys.readouterr()
        assert run(*argv, "--out", out) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {out}: directory not empty")
        assert snapshot(tmp_path) == before_run

    def test_fewer_slices_into_an_earlier_tree_are_refused(
            self, dataset, tmp_path, capsys):
        maps = tmp_path / "maps"
        shutil.copytree(dataset["maps"], maps)  # five slices
        before_run = snapshot(maps)
        run0("slice", "--fixations", dataset["recovered"], "--n", 3,
             "--out", tmp_path / "sliced3.csv")
        capsys.readouterr()
        assert run("rasterize", "--fixations", tmp_path / "sliced3.csv",
                   "--images", dataset["images"], "--n", 3,
                   "--out", maps) == 2
        assert only_error_line(capsys) == (
            f"tsal: PreconditionError: {maps}: directory not empty")
        assert snapshot(maps) == before_run
        assert sorted(os.listdir(tmp_path)) == ["maps", "sliced3.csv"]

    @pytest.mark.parametrize("cwd", ["empty", "non-empty"])
    def test_out_dot_exits_two_and_leaves_it_as_it_was(
            self, dataset, tmp_path, monkeypatch, capsys, cwd):
        work = tmp_path / "work"
        work.mkdir()
        if cwd == "non-empty":
            (work / "mine.txt").write_bytes(b"mine")
        monkeypatch.chdir(work)
        before_run = snapshot(tmp_path)
        assert run("rasterize", "--fixations", dataset["sliced"],
                   "--images", dataset["images"], "--out", ".") == 2
        assert only_error_line(capsys) == (
            "tsal: PreconditionError: .: directory not empty"
            if cwd == "non-empty" else
            "tsal: OSError: [Errno 16] Device or resource busy: '.'")
        assert snapshot(tmp_path) == before_run

    def test_loss_csv_that_cannot_be_placed_leaves_no_checkpoint(
            self, dataset, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "lossdir").mkdir()
        assert run("train", "--images", dataset["images"],
                   "--maps", dataset["maps"], "--max-steps", 1,
                   "--out", "ck.tspw", "--loss-csv", "lossdir") == 2
        assert only_error_line(capsys) == (
            "tsal: IsADirectoryError: [Errno 21] Is a directory: 'lossdir'")
        assert os.listdir(tmp_path) == ["lossdir"]

    def test_run_into_an_empty_directory_replaces_it_whole(
            self, dataset, tmp_path):
        out = tmp_path / "maps"
        out.mkdir()
        run0("rasterize", "--fixations", dataset["sliced"],
             "--images", dataset["images"], "--out", out)
        assert snapshot(out) == snapshot(dataset["maps"])
        assert os.listdir(tmp_path) == ["maps"]

    def test_new_tree_gets_the_mode_of_makedirs(self, dataset, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        out = tmp_path / "maps"
        run0("rasterize", "--fixations", dataset["sliced"],
             "--images", dataset["images"], "--out", out)
        run0("slice", "--fixations", dataset["recovered"],
             "--out", tmp_path / "sliced.csv")
        run0("train", "--images", dataset["images"], "--maps", out,
             "--max-steps", 1, "--out", tmp_path / "ck.tspw")
        for d in (out, out / "full"):
            assert stat.S_IMODE(d.stat().st_mode) == 0o777 & ~umask
        for f in (out / "full" / "img000.tsal", tmp_path / "sliced.csv",
                  tmp_path / "ck.tspw"):  # as open() makes them
            assert stat.S_IMODE(f.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("target", ["directory", "file", "parent"],
                             ids=["slice-into-directory",
                                  "rasterize-into-file", "slice-under-a-file"])
    def test_failed_final_rename_names_the_target(
            self, dataset, tmp_path, capsys, target):
        out = tmp_path / "out"
        argv = ("slice", "--fixations", dataset["recovered"], "--out", out)
        if target == "directory":
            out.mkdir()
            error = "IsADirectoryError: [Errno 21] Is a directory"
        elif target == "file":
            out.write_bytes(b"a file")
            argv = ("rasterize", "--fixations", dataset["sliced"],
                    "--images", dataset["images"], "--out", out)
            error = "NotADirectoryError: [Errno 20] Not a directory"
        else:  # a file where a parent of --out goes
            out.write_bytes(b"a file")
            argv = (*argv[:-1], out / "x")
            error = "FileExistsError: [Errno 17] File exists"
        assert run(*argv) == 2
        assert only_error_line(capsys) == f"tsal: {error}: '{out}'"
        assert os.listdir(tmp_path) == ["out"]


class TestConfigPrecedence:
    def test_flag_beats_config_beats_default(self, workdir, dataset):
        cfg = workdir / "slice.cfg"
        cfg.write_text("n=3\n# comment line\nscheme=equal-duration\n")
        out_cfg = workdir / "s_cfg.csv"
        run0("slice", "--fixations", dataset["recovered"], "--out", out_cfg,
             "--config", cfg)
        _, slices = read_fixation_table(out_cfg)
        assert max(slices) == 2  # config file n=3 overrode default 5

        out_flag = workdir / "s_flag.csv"
        run0("slice", "--fixations", dataset["recovered"], "--out", out_flag,
             "--config", cfg, "--n", 4)
        _, slices = read_fixation_table(out_flag)
        assert max(slices) == 3  # flag overrode the config file

    def test_unknown_config_key_exits_two(self, workdir, dataset, capsys):
        cfg = workdir / "bad.cfg"
        cfg.write_text("bogus_knob=7\n")
        assert run("slice", "--fixations", dataset["recovered"],
                   "--out", workdir / "x.csv", "--config", cfg) == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_invalid_config_value_exits_two(self, workdir, dataset):
        cfg = workdir / "badval.cfg"
        cfg.write_text("n=many\n")
        assert run("slice", "--fixations", dataset["recovered"],
                   "--out", workdir / "x.csv", "--config", cfg) == 2

    def test_config_value_must_honor_choices(self, workdir, dataset):
        cfg = workdir / "badchoice.cfg"
        cfg.write_text("scheme=fancy\n")
        assert run("slice", "--fixations", dataset["recovered"],
                   "--out", workdir / "x.csv", "--config", cfg) == 2
