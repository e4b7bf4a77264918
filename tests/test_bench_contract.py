"""What ``perfbench/bootstrap.py`` relies on in the package, checked in
tier-1 so that a change which breaks it fails here, not only in a
traced bench run. Both files under ``perfbench/`` are read, never
changed. This test goes together with ``bootstrap.py``."""

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from tsal import model

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
