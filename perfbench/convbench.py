"""conv2d microbench: forward and backward at every distinct conv layer
shape of the model.

    python3 perfbench/convbench.py conv_shapes.json OUT.json

conv_shapes.json holds, per layer, the input, kernel and output shapes
and the stride that README temporal training feeds it (mixing training
for the ``smm.*`` layers); layers whose shapes repeat an earlier one
(``idec.d4`` repeats ``tdec.d4``) are listed once. Each repeat builds a
fresh Tape, runs conv2d on seeded random input, then backward from the
sum of the output (a scalar is what backward takes). Writes, per layer,
the median forward and backward time in ms and whether the output and
gradients were finite and of the expected shape.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import numpy as np

from tsal import autodiff as ad

REPEATS = 5


def bench_layer(shape: dict, rng) -> dict:
    x = rng.standard_normal(shape["x"])
    w = rng.standard_normal(shape["w"]) * 0.1
    b = rng.standard_normal(shape["w"][0]) * 0.1
    fwd, bwd, problems = [], [], []
    for _ in range(REPEATS):
        tape = ad.Tape()
        params = [tape.param(a, n) for a, n in ((x, "x"), (w, "w"), (b, "b"))]
        start = time.perf_counter()
        y = ad.conv2d(*params, stride=shape["stride"])
        fwd.append(time.perf_counter() - start)
        loss = ad.reduce_sum(y)
        start = time.perf_counter()
        grads = ad.backward(tape, loss)
        bwd.append(time.perf_counter() - start)
        if list(y.shape) != shape["out"]:
            problems.append(f"output shape {list(y.shape)}")
        if not np.all(np.isfinite(y.data)):
            problems.append("non-finite output")
        for p in params:
            g = grads.get(p.node_id)
            if g is None or g.shape != p.shape or not np.all(np.isfinite(g)):
                problems.append(f"bad gradient for {p.name}")
    return {"fwd_ms": 1e3 * statistics.median(fwd),
            "bwd_ms": 1e3 * statistics.median(bwd),
            "ok": not problems,
            "detail": "; ".join(sorted(set(problems))) or
                      f"out {shape['out']}, {REPEATS} repeats"}


def main() -> int:
    shapes_path, out_path = sys.argv[1:3]
    with open(shapes_path) as fh:
        shapes = json.load(fh)
    rng = np.random.default_rng(0)
    results = {layer: bench_layer(shape, rng) for layer, shape in shapes.items()}
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
