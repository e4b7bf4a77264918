#!/usr/bin/env python3
"""Benchmark of the tsal CLI pipeline.

    python3 perfbench/run.py --workload readme --seed 7 --seconds 55 --trace 0

Runs one workload (see workloads.py) the way a user would: every command
is its own ``python -m tsal.cli`` process with ``--jobs 1``, taking the
program from the ``src/`` tree of the checkout this file sits in. Set-up
runs SETUP_REPEATS times; the timed commands then run as whole passes,
each in a fresh copy of the set-up directory, for as many passes as fit
in ``--seconds`` (at least one). Outputs are checked after every pass.
A short fixed computation, calibrate(), is timed before the first
command of a pass and after each command; the end-to-end wall time
(wall_cal_s) scales each pass by their mean, so that drift in the
shared host's speed cancels (see README.md, Noise).

Standard output gets a per-stage report and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics. With
``--trace 0`` the metrics are the end-to-end ones declared in
BENCHMARK.json. With ``--trace 1`` one more pass runs every command
through bootstrap.py, which times each tsal function, and the metrics
are the per-layer ones (see layers.py), including the conv2d
microbench (convbench.py).

Everything the benchmark writes goes under ``.perfbench/`` in the
checkout: a results file per run with stage timings, check details,
artifact sha256 digests and the machine description, and the digests
each (build, workload, seed) produced first, which later runs must
reproduce byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from workloads import STAGES, WORKLOADS  # noqa: E402

SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 5
# Files a pass writes that are not artifacts of the program.
NOT_ARTIFACTS = ("cache", "logs")


class BenchError(Exception):
    """The benchmark itself cannot run here."""


# About what calibrate() takes on the box where the benchmark was written;
# wall_cal_s is wall time scaled to that host speed.
CAL_REF_S = 0.1
# calibrate() works in place on these, so that its time does not depend
# on how the allocator happens to serve fresh arrays.
_CAL_RNG = np.random.default_rng(0)
_CAL_A = _CAL_RNG.random(1 << 15)
_CAL_B = np.empty_like(_CAL_A)
_CAL_X = _CAL_RNG.random((4, 32, 66, 66))
_CAL_W = _CAL_RNG.random((32, 32))
_CAL_Y = np.empty((4, 32, 64, 64))


def calibrate() -> float:
    """Seconds a fixed piece of work takes now: a gauge of the host's
    speed at this moment. It mixes the program's kinds of work: an
    interpreter loop, whole-array numpy arithmetic, and an einsum over a
    strided window of a few MB like one tap of the model's conv2d, whose
    speed depends on the memory traffic of the host. Single-threaded,
    so it leaves nothing running when the next command starts."""
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    for _ in range(120):
        np.multiply(_CAL_A, 3.0, out=_CAL_B)
        np.add(_CAL_B, _CAL_A, out=_CAL_B)
        np.cumsum(_CAL_B, out=_CAL_B)
    for _ in range(3):
        np.einsum("nchw,oc->nohw", _CAL_X[:, :, 1:65, 1:65], _CAL_W,
                  out=_CAL_Y)
    return time.perf_counter() - start


@dataclass
class Proc:
    name: str
    code: int
    wall_s: float
    rss_mb: float
    # calibrate() just before and just after the command, in timed passes.
    cal_before_s: float = 0.0
    cal_after_s: float = 0.0


def wall_cal(ps: dict[str, Proc]) -> float:
    """Wall time of a pass at the host speed where calibrate() takes
    CAL_REF_S, judged from the mean of the calibrations through the
    pass."""
    procs = list(ps.values())
    cals = [procs[0].cal_before_s, *(p.cal_after_s for p in procs)]
    return sum(p.wall_s for p in procs) * CAL_REF_S / statistics.mean(cals)


def run_cli(d: Path, name: str, argv: list[str],
            spans: Path | None = None) -> Proc:
    """Run one tsal command in directory ``d`` and wait for it. With
    ``spans``, the command runs under bootstrap.py, which writes its
    timing spans there."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               TSAL_CACHE_DIR=str(d / "cache"))
    if spans is None:
        cmd = [sys.executable, "-m", "tsal.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "bootstrap.py"), str(spans), *argv]
    logs = d / "logs"
    logs.mkdir(exist_ok=True)
    with open(logs / f"{name}.out", "wb") as out, \
            open(logs / f"{name}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=d, env=env, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(name, proc.returncode, wall, usage.ru_maxrss / 1024.0)


def digests(d: Path) -> dict[str, str]:
    """sha256 of every artifact under ``d``, keyed by relative path."""
    out = {}
    for path in sorted(d.rglob("*")):
        rel = path.relative_to(d)
        if path.is_file() and rel.parts[0] not in NOT_ARTIFACTS:
            out[rel.as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def changed(a: dict[str, str], b: dict[str, str]) -> list[str]:
    """Artifacts whose bytes differ between two digest tables, or that
    only one of them has."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def digest_of(table: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(table, sort_keys=True).encode()
                          ).hexdigest()


class Run:
    """One benchmark run: counts attempts and failures, keeps details."""

    def __init__(self, workload, seed: int, run_dir: Path):
        self.workload = workload
        self.seed = seed
        self.dir = run_dir
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        self.failed += not ok
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            print(f"CHECK FAILED {name}: {detail}", file=sys.stderr)
        return ok

    def command(self, d: Path, name: str, argv: list[str],
                spans: Path | None = None) -> Proc:
        proc = run_cli(d, name, argv, spans)
        if not self.check(f"exit.{name}", proc.code == 0,
                          f"tsal {' '.join(argv)} exited {proc.code}"):
            err = (d / "logs" / f"{name}.err").read_text(errors="replace")
            print(err.strip()[-2000:], file=sys.stderr)
            raise BenchError(f"command {name} failed")
        return proc

    def setup(self) -> tuple[Path, list[float]]:
        """Set up SETUP_REPEATS times from scratch; returns the last
        set-up directory and every set-up time."""
        times, tables = [], []
        for i in range(SETUP_REPEATS):
            d = self.dir / f"setup{i}"
            start = time.perf_counter()
            d.mkdir(parents=True)
            # A cold process start of the program doubles as the check
            # that the checkout holds it.
            self.command(d, "probe", ["--help"])
            self.workload.setup(d, self.seed,
                                lambda name, argv: self.command(d, name, argv))
            times.append(time.perf_counter() - start)
            tables.append(digests(d))
            if i:
                shutil.rmtree(self.dir / f"setup{i - 1}")
        self.check("setup.deterministic", all(t == tables[0] for t in tables),
                   f"{len(tables)} set-ups, digests "
                   f"{sorted({digest_of(t)[:12] for t in tables})}")
        return d, times

    def timed_pass(self, inputs: Path, d: Path,
                   spans: Path | None = None) -> dict[str, Proc]:
        shutil.copytree(inputs, d)
        procs = {}
        cal = calibrate()
        for stage, argv in self.workload.steps(self.seed):
            procs[stage] = proc = self.command(
                d, stage, argv, None if spans is None else
                spans / f"{stage}.json")
            proc.cal_before_s, cal = cal, calibrate()
            proc.cal_after_s = cal
        for name, ok, detail in self.workload.check(d, self.seed):
            self.check(name, ok, detail)
        return procs


def build_id() -> str:
    """Content hash of the program and benchmark source: one build, one
    id."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine() -> dict:
    import ctypes

    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    # numpy's bundled OpenBLAS, at its default thread count.
    for lib in (Path(numpy.__file__).parent.parent / "numpy.libs").glob(
            "*openblas*"):
        get = getattr(ctypes.CDLL(str(lib)),
                      "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            threads = get()
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": threads}


def stage_table(passes: list[dict[str, Proc]]) -> dict[str, float]:
    """Median wall time per stage over the passes that ran it."""
    return {f"{s}_s": statistics.median(p[s].wall_s for p in passes)
            for s in STAGES if s in passes[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tsal" / "cli.py").is_file():
        print(f"perfbench: no tsal source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload]
    run_dir = SCRATCH / "runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run = Run(workload, args.seed, run_dir)
    try:
        result = measure(run, args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(run: Run, args, spec: dict) -> dict:
    inputs, setup_times = run.setup()

    passes: list[dict[str, Proc]] = []
    tables: list[dict[str, str]] = []
    start = time.perf_counter()
    while True:
        d = run.dir / f"pass{len(passes)}"
        passes.append(run.timed_pass(inputs, d))
        tables.append(digests(d))
        shutil.rmtree(d)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break

    table = tables[0]
    run.check("artifacts.same_across_passes", all(t == table for t in tables),
              f"{len(tables)} passes")
    registry = SCRATCH / "digests" / build_id() / \
        f"{args.workload}-{args.seed}.json"
    if registry.exists():
        diff = changed(json.loads(registry.read_text()), table)
        run.check("artifacts.same_across_runs", not diff,
                  f"{len(diff)} artifacts differ from the first run "
                  f"of this build, e.g. {diff[:3]}")
    else:
        registry.parent.mkdir(parents=True, exist_ok=True)
        registry.write_text(json.dumps(table, indent=0, sort_keys=True))

    stages = stage_table(passes)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_cal_s": statistics.median(wall_cal(ps) for ps in passes),
        "peak_rss_mb": max(p.rss_mb for ps in passes for p in ps.values()),
    }

    per_layer = None
    if args.trace:
        per_layer = traced(run, inputs, passes, table,
                           [m["name"] for m in spec["per_layer"]])

    report = {**end_to_end,
              "wall_s": statistics.median(sum(p.wall_s for p in ps.values())
                                          for ps in passes),
              **stages, "error_rate": run.failed / run.attempted}
    units = {"peak_rss_mb": "MB", "error_rate": "ratio"}
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} "
          f"pass(es), {SETUP_REPEATS} set-ups, artifacts "
          f"{digest_of(table)[:16]} ({len(table)} files)")
    for name, value in report.items():
        print(f"  {name:<18} {value:12.4f} {units.get(name, 's')}")

    results = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "build": build_id(), "machine": machine(),
        "setup_s": setup_times, "passes": [
            {s: vars(p) for s, p in ps.items()} for ps in passes],
        "report": report, "per_layer": per_layer, "checks": run.checks,
        "artifacts": table,
    }
    out = SCRATCH / "results" / \
        f"{args.workload}-{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"  details in {out.relative_to(ROOT)}")

    section = "per_layer" if args.trace else "end_to_end"
    values = per_layer if args.trace else end_to_end
    missing = [m["name"] for m in spec[section] if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    return {"correct": run.failed == 0, "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]}
                        for m in spec[section]}}


def traced(run: Run, inputs: Path, passes: list[dict[str, Proc]],
           untraced: dict[str, str], names: list[str]) -> dict[str, float]:
    """One more pass with every command under bootstrap.py; returns the
    per-layer metrics and checks the trace left the artifacts alone."""
    spans = run.dir / "spans"
    spans.mkdir()
    d = run.dir / "traced"
    procs = run.timed_pass(inputs, d, spans)
    diff = changed(digests(d), untraced)
    run.check("trace.artifacts_unchanged", not diff,
              f"{len(diff)} artifacts differ from the untraced pass, "
              f"e.g. {diff[:3]}")
    dumps = {s: json.loads((spans / f"{s}.json").read_text()) for s in procs}
    walls = {s: statistics.median(p[s].wall_s for p in passes) for s in procs}
    values = layers.per_layer(dumps, walls,
                              {s: p.wall_s for s, p in procs.items()},
                              run_convbench(run))
    for name, ok, detail in layers.expectations(run.workload.name, names,
                                                values, dumps):
        run.check(name, ok, detail)
    return values


def run_convbench(run: Run) -> dict:
    out = run.dir / "convbench.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(HERE / "convbench.py"),
         str(HERE / "conv_shapes.json"), str(out)],
        env=env, capture_output=True, text=True)
    if not run.check("convbench.exit", proc.returncode == 0,
                     proc.stderr.strip()[-2000:]):
        raise BenchError("conv2d microbench failed")
    bench = json.loads(out.read_text())
    for layer, r in bench.items():
        run.check(f"convbench.{layer}", r["ok"], r["detail"])
    return bench


if __name__ == "__main__":
    sys.exit(main())
