"""What ``perfbench/bootstrap.py`` relies on in the package, checked in
tier-1 so that a change which breaks it fails here, not only in a
traced bench run. Both files under ``perfbench/`` are read, never
changed. This test goes together with ``bootstrap.py``."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tsal import autodiff, model
from tsal.cli import main
from tsal.gaze import write_map_tsal

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SRC = Path(model.__file__).resolve().parents[1]  # the tsal under test


def wrapped_names() -> set[str]:
    """The ``HOOKS`` names and the ``COUNTERS`` keys of bootstrap.py."""
    names = set()
    for node in ast.parse((PERFBENCH / "bootstrap.py").read_text()).body:
        if isinstance(node, ast.Assign) and \
                node.targets[0].id in ("HOOKS", "COUNTERS"):
            elements = node.value.elts if isinstance(node.value, ast.Set) \
                else node.value.keys
            names.update(ast.literal_eval(e) for e in elements)
    return names


def test_every_wrapped_name_is_a_function_import_loads():
    # bootstrap.py wraps only functions defined in the tsal modules that
    # importing tsal.cli loads: public ones, and the private HOOKS
    names = wrapped_names()
    assert {"model._conv", "model._train_step",
            "autodiff.backward"} <= names
    env = dict(os.environ, PYTHONPATH=str(SRC))
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, tsal.cli; print(' '.join("
         "m for m in sys.modules if m.startswith('tsal.')))"],
        env=env, capture_output=True, text=True, check=True).stdout.split()
    for name in sorted(names):
        short, attr = name.split(".")
        assert f"tsal.{short}" in loaded, name
        module = importlib.import_module(f"tsal.{short}")
        fn = getattr(module, attr, None)
        assert inspect.isfunction(fn), name
        assert fn.__module__ == module.__name__, name


def test_readme_training_feeds_the_conv_shape_table(monkeypatch):
    # as the bench merges them: a mixing run's first shapes, overridden
    # by a temporal run's; readme trains 6 images 64x64 at batch 4
    table = json.loads((PERFBENCH / "conv_shapes.json").read_text())
    real_conv = model._conv
    seen = {}

    def recording_conv(x, pt, name, stride=1, **kwargs):
        out = real_conv(x, pt, name, stride, **kwargs)
        seen[-1].setdefault(name, {
            "x": list(x.shape), "w": list(pt[name + ".w"].shape),
            "stride": stride, "out": list(out.shape)})
        return out

    monkeypatch.setattr(model, "_conv", recording_conv)
    rng = np.random.default_rng(81)
    images = rng.uniform(size=(6, 3, 64, 64))
    maps = rng.uniform(size=(6, 6, 64, 64))
    maps /= maps.sum(axis=(2, 3), keepdims=True)
    data = model.TrainData(images, maps[:, :5], maps[:, 5:])
    base = model.init_params(model.ModelConfig(), seed=82)
    for stage in ("mixing", "temporal"):
        seen[-1] = {}
        model.train(data, model.TrainSchedule(stage=stage, batch_size=4,
                                               max_steps=1),
                    seed=83, base_params=base)
        seen[stage] = seen.pop(-1)
    merged = {**seen["mixing"], **seen["temporal"]}
    for layer, shape in table.items():
        assert merged.get(layer) == shape, layer


def bootstrap_counters() -> dict:
    """bootstrap.py's ``COUNTERS``, from the file as it is."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_bootstrap", PERFBENCH / "bootstrap.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


def test_counters_read_the_arguments_of_real_calls(tmp_path, monkeypatch):
    # bootstrap.py applies each COUNTERS entry to the positional
    # arguments of a call as its call site passes them, so the calls
    # here go through tsal.cli as a bench run's do: a changed signature
    # or call site fails here
    counters = bootstrap_counters()
    spied = {"model._train_step": (model, "_train_step"),
             "model.train": (model, "train"),
             "model.predict": (model, "predict"),
             "autodiff.backward": (autodiff, "backward")}
    counts = {name: [] for name in spied}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[name].append(counters[name](args, result, 0.5))
            return result
        return wrapped

    for name, (module, attr) in spied.items():
        monkeypatch.setattr(module, attr, spy(name, getattr(module, attr)))
    rng = np.random.default_rng(84)
    (tmp_path / "images").mkdir()
    for i in range(3):
        np.save(tmp_path / "images" / f"img{i}.npy",
                rng.uniform(size=(3, 16, 16)))
        for kind in ("t0", "t1", "t2", "t3", "t4", "full"):
            write_map_tsal(tmp_path / "maps" / kind / f"img{i}.tsal",
                           rng.uniform(size=(16, 16)))
    tree = ["--images", str(tmp_path / "images"),
            "--maps", str(tmp_path / "maps"), "--batch-size", "2",
            "--max-steps", "2"]
    assert main(["train", "--stage", "temporal", *tree,
                 "--out", str(tmp_path / "stage1.tspw")]) == 0
    assert main(["train", "--stage", "mixing", *tree,
                 "--base", str(tmp_path / "stage1.tspw"),
                 "--out", str(tmp_path / "model.tspw")]) == 0
    assert main(["predict", "--checkpoint", str(tmp_path / "model.tspw"),
                 "--images", str(tmp_path / "images"),
                 "--out", str(tmp_path / "pred"), "--jobs", "1"]) == 0
    assert counts["model._train_step"] == [{"steps.temporal": 1}] * 2 + \
        [{"steps.mixing": 1}] * 2
    assert counts["model.train"] == [{"seconds.temporal": 0.5},
                                     {"seconds.mixing": 0.5}]
    assert counts["model.predict"] == [{"images": 1}] * 3
    # a temporal step differentiates three tapes, a mixing step one
    nodes = counts["autodiff.backward"]
    assert len(nodes) == 2 * 3 + 2
    assert all(c.keys() == {"tape_nodes"} and c["tape_nodes"] > 0
               for c in nodes)
