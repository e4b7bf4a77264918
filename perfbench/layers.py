"""Per-layer metrics from the traced pass, and what each workload
predicts about them.

``per_layer`` turns the span files bootstrap.py wrote (one per stage
process) into flat metrics: ``<module>.<function>.calls`` and
``.self_s`` for every wrapped function, item counts, derived rates, the
CLI glue time and the untraced wall time per stage, the tracing overhead
per stage and the conv2d microbench. Self time is a span's time minus the time of the wrapped
calls made inside it. README.md maps each metric to the end-to-end
metric and workload it should move.

``expectations`` checks the trace against each workload's design: the
layers a workload exists to exercise must fire, the ones it bypasses
must read exactly 0, and a few counts are known exactly.
"""

from __future__ import annotations

import fnmatch
import json
import statistics
from pathlib import Path

from workloads import SCALE_IMAGES, SCALE_OBSERVERS, SCALE_RATE, STAGES

CMD = {stage: "cmd_" + stage.split("_")[0] for stage in STAGES}
COUNTS = ("synth.sample_observers.gaze_samples",
          "gaze.write_gaze_jsonl.records", "gaze.write_gaze_jsonl.bytes",
          "fileio.atomic_write_bytes.bytes", "gaze.read_gaze_jsonl.records",
          "gaze.read_fixation_table.records",
          "gaze.write_fixations_csv.records",
          "metrics.fixation_pixels.fixations")
SHAPES = Path(__file__).resolve().parent / "conv_shapes.json"

# Per workload, (pattern, expectation) pairs; the first pattern that
# matches a metric decides. Overheads and microbench times are exempt.
EXEMPT = ("trace.overhead_s.*", "autodiff.conv2d.*_ms")
EXPECT = {
    "readme": [("cli.scene_cache.hit_ratio", "zero"), ("*", "positive")],
    "scale_data": [(p, "zero") for p in (
        "cli.train_*", "cli.predict.*", "model.*", "autodiff.*",
        "metrics.*_loss_node.*", "cli.scene_cache.hit_ratio")]
    + [("*", "positive")],
    "scale_predict": [(p, "positive") for p in (
        "cli.import_s", "cli.predict.*", "model.predict.*",
        "model.forward.self_s", "model.smm.self_s", "autodiff.conv2d.*",
        "autodiff.resize_bilinear.self_s", "autodiff.load_params.self_s",
        "gaze.write_map_tsal.*", "fileio.atomic_write_bytes.*")]
    + [("*", "zero")],
}
SCALE_GAZE = SCALE_IMAGES * SCALE_OBSERVERS * SCALE_RATE * 5
EXACT = {
    "readme": {"gaze.read_gaze_jsonl.records": 6 * 4 * 30 * 5,
               "synth.sample_observers.gaze_samples": 6 * 4 * 30 * 5,
               "model.train.steps.temporal": 20,
               "model.train.steps.mixing": 20,
               "model.predict.calls": 6},
    "scale_data": {"gaze.read_gaze_jsonl.records": SCALE_GAZE,
                   "synth.sample_observers.gaze_samples": SCALE_GAZE,
                   "metrics.evaluate_pair.calls": SCALE_IMAGES},
    "scale_predict": {"model.predict.calls": SCALE_IMAGES},
}


def _merge(dumps: dict[str, dict]) -> tuple[dict, dict]:
    spans: dict[str, list] = {}
    counts: dict[str, float] = dict.fromkeys(COUNTS, 0)
    for dump in dumps.values():
        for name, stat in dump["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i, v in enumerate(stat):
                acc[i] += v
        for name, v in dump["counts"].items():
            counts[name] = counts.get(name, 0) + v
    return spans, counts


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(dumps: dict[str, dict], walls: dict[str, float],
              traced: dict[str, float], bench: dict[str, dict]
              ) -> dict[str, float]:
    """Flat per-layer metrics. ``dumps`` holds the span file of each
    traced stage process, ``walls`` and ``traced`` the stage wall times
    without and with tracing, ``bench`` the conv2d microbench."""
    spans, counts = _merge(dumps)
    v: dict[str, float] = {}
    for name, (calls, total, child) in spans.items():
        v[f"{name}.calls"] = calls
        v[f"{name}.self_s"] = total - child
    v.update(counts)

    v["cli.import_s"] = statistics.median(d["import_s"]
                                          for d in dumps.values())
    for stage in STAGES:
        _, total, child = dumps[stage]["spans"][f"cli.{CMD[stage]}"] \
            if stage in dumps else (0, 0.0, 0.0)
        v[f"cli.{stage}.self_s"] = total - child
        v[f"cli.{stage}.wall_s"] = walls.get(stage, 0.0)
        v[f"trace.overhead_s.{stage}"] = traced.get(stage, 0.0) - \
            walls.get(stage, 0.0)
    looked_up = spans["cli._generate_scene_cached"][0]
    v["cli.scene_cache.hit_ratio"] = _ratio(
        looked_up - spans["synth.generate_scene"][0], looked_up)

    for stage in ("temporal", "mixing"):
        steps = counts.get(f"model._train_step.steps.{stage}", 0)
        v[f"model.train.steps.{stage}"] = steps
        v[f"model.train.step_s.{stage}"] = _ratio(
            counts.get(f"model.train.seconds.{stage}", 0.0), steps)
    v["model.predict.per_image_s"] = _ratio(
        spans["model.predict"][1], counts.get("model.predict.images", 0))
    v["autodiff.conv2d.fwd_s"] = spans["autodiff.conv2d"][1]
    v["autodiff.tape_nodes_per_step"] = _ratio(
        counts.get("autodiff.backward.tape_nodes", 0),
        spans["autodiff.backward"][0])
    for layer, r in bench.items():
        v[f"autodiff.conv2d.{layer}.fwd_ms"] = r["fwd_ms"]
        v[f"autodiff.conv2d.{layer}.bwd_ms"] = r["bwd_ms"]
    return v


def expectations(workload: str, names: list[str], values: dict[str, float],
                 dumps: dict[str, dict]) -> list[tuple[str, bool, str]]:
    checks = []
    for name in names:
        if any(fnmatch.fnmatchcase(name, p) for p in EXEMPT):
            continue
        want = next(e for p, e in EXPECT[workload]
                    if fnmatch.fnmatchcase(name, p))
        value = values[name]
        ok = value == 0 if want == "zero" else value > 0
        checks.append((f"trace.{want}.{name}", ok, f"{name} = {value}"))
    for name, want in EXACT[workload].items():
        checks.append((f"trace.exact.{name}", values[name] == want,
                       f"{name} = {values[name]}, expected {want}"))
    if workload == "readme":
        checks += _conv_shape_checks(dumps)
    return checks


def _conv_shape_checks(dumps: dict[str, dict]) -> list:
    """The microbench shapes must be the ones readme training feeds each
    layer: temporal training for the backbone, mixing for the mixer."""
    seen = {**dumps["train_mixing"]["conv_shapes"],
            **dumps["train_temporal"]["conv_shapes"]}
    table = json.loads(SHAPES.read_text())
    return [(f"trace.conv_shape.{layer}", seen.get(layer) == shape,
             f"observed {seen.get(layer)}, table {shape}")
            for layer, shape in table.items()]
