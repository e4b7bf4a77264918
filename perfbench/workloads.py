"""The benchmark's workloads: inputs made from a seed, the timed CLI
commands, and the checks on their outputs.

Each workload has
  * ``setup(d, seed, cli)``: writes the inputs into directory ``d``; it may
    run tsal commands through ``cli(name, argv)`` (untimed),
  * ``steps(seed)``: the timed commands as (stage, tsal arguments) pairs,
    run in order in a fresh copy of the set-up directory,
  * ``check(d, seed)``: output checks on a finished pass directory, as a
    list of (name, ok, detail).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

# Every stage a workload can time, in pipeline order.
STAGES = ("synth", "timestamps", "slice", "rasterize", "analyze",
          "train_temporal", "train_mixing", "predict", "eval")

# Mean eval cc of the refined map S_R on the README scene per synth
# seed, as the pipeline produced it when this benchmark was written, and
# the drift allowed before the readme check fails. A seed outside the
# table is held to the table's range widened by the tolerance.
README_CC = {int(k): v for k, v in json.loads(
    (Path(__file__).resolve().parent / "readme_cc.json").read_text()).items()}
README_CC_TOLERANCE = 0.02

SLICE_RECOVERY_FLOOR = 0.95


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    steps: Callable
    check: Callable


def _scene(images: int, width: int, height: int, scene_seed: int) -> str:
    return json.dumps({"preset": "drift", "images": images, "width": width,
                       "height": height, "objects": 5, "slices": 5,
                       "center_bias_strength": 0.05,
                       "scene_seed": scene_seed}) + "\n"


def _data_steps(synth_seed: int, observers: int, rate: int) -> list:
    return [
        ("synth", ["synth", "--scene", "scene.json", "--out", "data",
                   "--seed", str(synth_seed), "--observers", str(observers),
                   "--samples-per-sec", str(rate), "--jobs", "1"]),
        ("timestamps", ["timestamps", "--gaze", "data/gaze.jsonl",
                        "--fixations", "data/fixations.csv",
                        "--out", "recovered.csv"]),
        ("slice", ["slice", "--fixations", "recovered.csv",
                   "--out", "sliced.csv"]),
        ("rasterize", ["rasterize", "--fixations", "sliced.csv",
                       "--images", "data/images", "--out", "maps",
                       "--jobs", "1"]),
        ("analyze", ["analyze", "--maps", "maps", "--fixations", "sliced.csv",
                     "--out", "analysis"]),
    ]


def _mean_row(path: Path) -> dict[str, float]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {k: float(v) for k, v in rows[-1].items() if k != "image_id"}


# ---------------------------------------------------------------------------
# readme: the README walkthrough as written
# ---------------------------------------------------------------------------

def _readme_setup(d: Path, seed: int, cli) -> None:
    (d / "scene.json").write_text(_scene(6, 64, 64, 1))


def _readme_steps(seed: int) -> list:
    # The README's own seeds; --seed picks the observers' sampling seed,
    # and seed 7 reproduces the walkthrough byte for byte.
    return _data_steps(seed, 4, 30) + [
        ("train_temporal", ["train", "--images", "data/images",
                            "--maps", "maps", "--out", "stage1.tspw",
                            "--stage", "temporal", "--epochs", "10",
                            "--seed", "0"]),
        ("train_mixing", ["train", "--images", "data/images", "--maps", "maps",
                          "--out", "model.tspw", "--stage", "mixing",
                          "--base", "stage1.tspw", "--epochs", "10",
                          "--seed", "1"]),
        ("predict", ["predict", "--checkpoint", "model.tspw",
                     "--images", "data/images", "--out", "pred",
                     "--jobs", "1"]),
        ("eval", ["eval", "--pred", "pred/s_r", "--gt", "maps/full",
                  "--fixations", "sliced.csv", "--out", "metrics.csv"]),
    ]


def _readme_check(d: Path, seed: int) -> list:
    cc = _mean_row(d / "metrics.csv")["cc"]
    lo, hi = (README_CC[seed],) * 2 if seed in README_CC else \
        (min(README_CC.values()), max(README_CC.values()))
    tol = README_CC_TOLERANCE
    return [("readme.s_r_cc", lo - tol <= cc <= hi + tol,
             f"mean cc {cc:.4f}, reference [{lo:.4f}, {hi:.4f}] +- {tol}")]


# ---------------------------------------------------------------------------
# scale_data: the scale scene through every data stage, then eval
# ---------------------------------------------------------------------------

SCALE_IMAGES = 100
# Gaze per image: 4 observers at 60 Hz over the scene's 5 s, 120k samples
# in all. Few enough observers that one pass is short and a run holds
# several passes to take the median over.
SCALE_OBSERVERS = 4
SCALE_RATE = 60


def _scale_setup(d: Path, seed: int, cli) -> None:
    (d / "scene.json").write_text(_scene(SCALE_IMAGES, 128, 96, seed))


def _scale_data_steps(seed: int) -> list:
    return _data_steps(seed, SCALE_OBSERVERS, SCALE_RATE) + [
        ("eval", ["eval", "--pred", "data/truth/maps/full", "--gt", "maps/full",
                  "--fixations", "sliced.csv", "--out", "metrics.csv"]),
    ]


def _slice_table(path: Path) -> dict[tuple, str]:
    with open(path, newline="") as fh:
        return {(r["image_id"], r["observer_id"], r["order_index"]):
                r["slice_index"] for r in csv.DictReader(fh)}


def _scale_data_check(d: Path, seed: int) -> list:
    truth = _slice_table(d / "data" / "truth" / "fixations.csv")
    got = _slice_table(d / "sliced.csv")
    same = sum(got.get(k) == v for k, v in truth.items())
    rate = same / len(truth)
    mean = _mean_row(d / "metrics.csv")
    return [
        ("scale_data.slice_recovery", rate >= SLICE_RECOVERY_FLOOR,
         f"{same}/{len(truth)} fixations in their true slice ({rate:.4f})"),
        ("scale_data.truth_cc", abs(mean["cc"] - 1.0) <= 1e-9,
         f"mean cc {mean['cc']!r}"),
        ("scale_data.truth_sim", abs(mean["sim"] - 1.0) <= 1e-9,
         f"mean sim {mean['sim']!r}"),
    ]


# ---------------------------------------------------------------------------
# scale_predict: one predict over 100 images of the scale scene's size
# ---------------------------------------------------------------------------

def _scale_predict_setup(d: Path, seed: int, cli) -> None:
    """A checkpoint from one step of each training stage on a two-image
    scene, and SCALE_IMAGES seeded random images of the scale scene's
    size to predict on; predict costs the same whatever the pixels and
    weights."""
    (d / "scene.json").write_text(_scene(2, 128, 96, seed))
    cli("synth", ["synth", "--scene", "scene.json", "--out", "train",
                  "--seed", str(seed), "--observers", "1", "--jobs", "1"])
    common = ["--images", "train/images", "--maps", "train/truth/maps",
              "--batch-size", "1", "--max-steps", "1"]
    cli("train_temporal", ["train", *common, "--out", "stage1.tspw",
                           "--stage", "temporal", "--seed", str(seed)])
    cli("train_mixing", ["train", *common, "--out", "model.tspw",
                         "--stage", "mixing", "--base", "stage1.tspw",
                         "--seed", str(seed)])
    rng = np.random.default_rng(seed)
    (d / "images").mkdir()
    for i in range(SCALE_IMAGES):
        np.save(d / "images" / f"img{i:03d}.npy", rng.random((3, 96, 128)))


def _scale_predict_steps(seed: int) -> list:
    return [("predict", ["predict", "--checkpoint", "model.tspw",
                         "--images", "images", "--out", "pred",
                         "--jobs", "1"])]


def _scale_predict_check(d: Path, seed: int) -> list:
    kinds = ["s_r", "s_i"] + [f"t{k}" for k in range(5)]
    counts = {k: len(list((d / "pred" / k).glob("*.tsal"))) for k in kinds}
    ok = all(n == SCALE_IMAGES for n in counts.values())
    return [("scale_predict.maps", ok,
             f"maps per kind {counts}, expected {SCALE_IMAGES} each")]


WORKLOADS = {w.name: w for w in (
    Workload("readme", _readme_setup, _readme_steps, _readme_check),
    Workload("scale_data", _scale_setup, _scale_data_steps, _scale_data_check),
    Workload("scale_predict", _scale_predict_setup, _scale_predict_steps,
             _scale_predict_check),
)}
