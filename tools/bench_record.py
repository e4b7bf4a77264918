#!/usr/bin/env python3
"""Record benchmark measurements of one checkout in a ``BENCH_<pr>.json``.

    python3 tools/bench_record.py runs BENCH.json RESULTS.json...
    python3 tools/bench_record.py launch BENCH.json --checkout DIR \\
        --workload scale_data --seed 1
    python3 tools/bench_record.py tier1 BENCH.json --checkout DIR

Each subcommand adds to BENCH.json (made if absent) and never drops what
is there, so a comparison of two checkouts is built by alternating:
after each ``perfbench/run.py`` run or launcher pass on one side, the
same is done on the other side into that side's file. The i-th entry of
a list in one file pairs with the i-th entry in the other. Run the two
checkouts from paths of equal length.

``runs`` reads the results files that ``perfbench/run.py`` writes
(``.perfbench/results/<workload>-<seed>-trace<t>.json``, overwritten by
each run, so hand it over after every run). ``launch`` copies DIR's
``src/`` to one fixed directory, ``SAME_PATH``, runs the workload's
timed commands as ``python -m tsal.cli`` processes of that copy, in a
pass directory beside it, and measures each with ``os.wait4``. So every
checkout's commands run from the same paths, and the heap-layout effect
of a path's length on peak RSS cancels within a pair; run one launch at
a time. This script imports no numpy, so the launcher's own size does
not enter a command's peak RSS. ``tier1`` runs the tier-1 verify command
in DIR once.

Fields of BENCH.json:

- ``runs``: per ``<workload>-<seed>``, one entry per bench run:
  ``setup_s``, ``wall_cal_s``, ``peak_rss_mb``, ``wall_s`` (the run's
  end-to-end metrics), ``stages`` (per stage, its median wall time over
  the run's passes, uncalibrated), ``passes`` (the pass count; ``scale_data``
  ``peak_rss_mb`` grows with it), ``checks`` and ``failed`` (checks
  made and failed), ``artifacts`` (digest of the artifact table, 16
  hex digits, as ``perfbench/run.py`` prints it), ``files`` (artifact
  count), ``build`` and ``trace``; a ``--trace 1`` run adds
  ``per_layer``, its per-layer metrics under the names of
  ``BENCHMARK.json``.
- ``launcher``: per ``<workload>-<seed>``, one entry per launcher
  pass: per stage (``help`` is ``tsal --help``, then the
  workload's stages in order) ``wall_s``, ``rss_mb`` (peak RSS) and
  ``minflt`` (minor page faults).
- ``tier1``: one entry per run: ``wall_s``, ``passed``, ``failed``,
  ``skipped``, ``errors`` and the pytest summary line.
- ``medians``: per section and key above, the median of each numeric
  field over the entries, rewritten on every call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

END_TO_END = ("setup_s", "wall_cal_s", "peak_rss_mb", "wall_s")
# Where ``launch`` runs every checkout's commands from; it is emptied
# before and removed after each pass.
SAME_PATH = Path(tempfile.gettempdir()) / "tsal-bench-launch"
TIER1 = [sys.executable, "-m", "pytest", "-q",
         "--continue-on-collection-errors"]
# Writes the workload's inputs into a directory and prints its timed
# commands, in a process of its own: perfbench's modules import numpy.
STEPS = """\
import json, subprocess, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
workload = workloads.WORKLOADS[sys.argv[2]]
seed, d = int(sys.argv[3]), Path(sys.argv[4])
workload.setup(d, seed, lambda name, argv: subprocess.run(
    [sys.executable, "-m", "tsal.cli", *argv], cwd=d, check=True))
print(json.dumps(workload.steps(seed)))
"""


def record_runs(paths: list[str]) -> list[tuple[str, dict]]:
    """``(<workload>-<seed>, entry)`` per perfbench results file."""
    out = []
    for path in paths:
        r = json.loads(Path(path).read_text())
        table = r["artifacts"]
        digest = hashlib.sha256(
            json.dumps(table, sort_keys=True).encode()).hexdigest()[:16]
        entry = {k: r["report"][k] for k in END_TO_END}
        entry["stages"] = {s: r["report"][f"{s}_s"]
                           for s in r["passes"][0]}
        entry.update(passes=len(r["passes"]), checks=len(r["checks"]),
                     failed=sum(not c["ok"] for c in r["checks"]),
                     artifacts=digest, files=len(table), build=r["build"],
                     trace=r["trace"])
        if r["per_layer"] is not None:  # a --trace 1 run
            entry["per_layer"] = r["per_layer"]
        out.append((f"{r['workload']}-{r['seed']}", entry))
    return out


def timed(argv: list[str], cwd: Path, env: dict) -> dict:
    """Wall time, peak RSS and minor faults of one command."""
    with open(os.devnull, "wb") as null, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=null,
                                stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        if os.waitstatus_to_exitcode(status) != 0:
            err.seek(0)
            raise SystemExit(f"bench_record: {' '.join(argv)} failed:\n"
                             + err.read().decode(errors="replace"))
    return {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "minflt": usage.ru_minflt}


def launch(checkout: Path, workload: str, seed: int) -> dict:
    """One launcher pass: ``tsal --help``, then each timed command of the
    workload in a fresh copy of its inputs, as ``perfbench/run.py`` runs
    them, all from ``SAME_PATH`` with the checkout's ``src/`` copied
    there."""
    shutil.rmtree(SAME_PATH, ignore_errors=True)
    src = SAME_PATH / "src"
    shutil.copytree(checkout / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "tsal.cli"]
    try:
        inputs, d = SAME_PATH / "inputs", SAME_PATH / "pass"
        inputs.mkdir()
        steps = json.loads(subprocess.run(
            [sys.executable, "-c", STEPS, str(checkout / "perfbench"),
             workload, str(seed), str(inputs)], env=env, check=True,
            capture_output=True, text=True).stdout)
        shutil.copytree(inputs, d)
        stages = {"help": timed([*cli, "--help"], d, env)}
        for stage, argv in steps:
            stages[stage] = timed([*cli, *argv], d, env)
    finally:
        shutil.rmtree(SAME_PATH, ignore_errors=True)
    return stages


def tier1(checkout: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True,
                          text=True)
    wall = time.perf_counter() - start
    summary = done.stdout.strip().splitlines()[-1]
    counts = {k: int(n) for n, k in re.findall(
        r"(\d+) (passed|failed|skipped|error)", summary)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0),
            "skipped": counts.get("skipped", 0),
            "errors": counts.get("error", 0), "summary": summary}


def medians(entries: list[dict]) -> dict:
    """Median of every numeric field over the entries that hold it,
    nested for ``stages`` and ``per_layer``."""
    out = {}
    for key in dict.fromkeys(k for e in entries for k in e):
        values = [e[key] for e in entries if key in e]
        if isinstance(values[0], dict):
            out[key] = medians(values)
        elif isinstance(values[0], (int, float)) and \
                not isinstance(values[0], bool):
            out[key] = statistics.median(values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("runs", help="add perfbench results files")
    p.add_argument("bench")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("launch", help="add one os.wait4 launcher pass")
    p.add_argument("bench")
    p.add_argument("--checkout", type=Path, required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("tier1", help="add one tier-1 run")
    p.add_argument("bench")
    p.add_argument("--checkout", type=Path, required=True)
    args = parser.parse_args(argv)

    path = Path(args.bench)
    bench = json.loads(path.read_text()) if path.exists() else {}
    if args.command == "runs":
        for key, entry in record_runs(args.results):
            bench.setdefault("runs", {}).setdefault(key, []).append(entry)
    elif args.command == "launch":
        key = f"{args.workload}-{args.seed}"
        bench.setdefault("launcher", {}).setdefault(key, []).append(
            launch(args.checkout.resolve(), args.workload, args.seed))
    else:
        bench.setdefault("tier1", []).append(tier1(args.checkout.resolve()))
    bench["medians"] = {
        "runs": {k: medians(v) for k, v in bench.get("runs", {}).items()},
        "launcher": {k: medians(v)
                     for k, v in bench.get("launcher", {}).items()},
        "tier1": medians(bench["tier1"]) if bench.get("tier1") else {}}
    path.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
