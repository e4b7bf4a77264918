"""Run one tsal command with a timing span around every tsal function.

    python3 perfbench/bootstrap.py SPANS.json <tsal arguments>

Imports ``tsal.cli`` (timed), then replaces every module-level binding
across the ``tsal.*`` modules it loaded that holds one of the package's
public functions (and the few private ones in HOOKS) with a wrapper
that records calls, total time and time spent in wrapped callees. Names imported into another
module (``from .gaze import read_gaze_jsonl`` in ``cli``) are separate
bindings and are replaced too, so every call path is seen. Some wrappers
also count the items a call handled. Calls ``tsal.cli.main`` with the
arguments, writes the spans as JSON and exits with the command's code.
The program's source is not changed and its outputs are not touched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

# Private functions that mark a layer boundary the metrics need: the
# per-layer conv call, one training step, and the scene cache lookup.
HOOKS = {"model._conv", "model._train_step", "cli._generate_scene_cached"}

# Items a call handled, keyed by span name: (args, result, seconds) ->
# {counter: amount}, recorded as "<span>.<counter>".
COUNTERS = {
    "synth.sample_observers": lambda a, r, e: {"gaze_samples": len(r.gaze)},
    "gaze.write_gaze_jsonl": lambda a, r, e: {
        "records": len(a[1]), "bytes": os.path.getsize(a[0])},
    "fileio.atomic_write_bytes": lambda a, r, e: {"bytes": len(a[1])},
    "gaze.read_gaze_jsonl": lambda a, r, e: {"records": len(r)},
    "gaze.read_fixation_table": lambda a, r, e: {"records": len(r[0])},
    "gaze.write_fixations_csv": lambda a, r, e: {"records": len(a[1])},
    "metrics.fixation_pixels": lambda a, r, e: {"fixations": len(a[0])},
    "autodiff.backward": lambda a, r, e: {"tape_nodes": len(a[0].nodes)},
    "model.predict": lambda a, r, e: {"images": a[0].shape[0]},
    "model.train": lambda a, r, e: {f"seconds.{a[1].stage}": e},
    "model._train_step": lambda a, r, e: {f"steps.{a[4]}": 1},
}


class Recorder:
    """Per-function call count, total time and callee time."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.conv_shapes: dict[str, dict] = {}
        self.stack: list[list[float]] = []

    def wrap(self, name: str, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(name, args, kwargs, result, elapsed)
            return result
        return span

    def count(self, name: str, args, kwargs, result, elapsed) -> None:
        for key, n in COUNTERS[name](args, result, elapsed).items():
            self.counts[f"{name}.{key}"] += n

    def conv(self, name: str, args, kwargs, result, elapsed) -> None:
        """First input, kernel and output shape each conv layer sees."""
        x, pt, layer = args[:3]
        self.conv_shapes.setdefault(layer, {
            "x": list(x.shape), "w": list(pt[layer + ".w"].shape),
            "stride": kwargs.get("stride", args[3] if len(args) > 3 else 1),
            "out": list(result.shape)})

    def install(self, modules: list) -> None:
        """Wrap each function once, then rebind every module attribute
        that holds the original."""
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                name = f"{short}.{attr}"
                if inspect.isfunction(obj) and obj.__module__ == \
                        module.__name__ and (not attr.startswith("_")
                                             or name in HOOKS):
                    after = self.conv if name == "model._conv" else \
                        self.count if name in COUNTERS else None
                    wrappers[obj] = self.wrap(name, obj, after)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts),
                "conv_shapes": self.conv_shapes}


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    cli = importlib.import_module("tsal.cli")
    import_s = time.perf_counter() - start
    recorder = Recorder()
    recorder.install([m for name, m in sorted(sys.modules.items())
                      if name.startswith("tsal.")])
    try:
        code = cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump({"argv": argv, "import_s": import_s,
                       **recorder.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
