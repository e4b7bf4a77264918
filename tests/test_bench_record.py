"""``tools/bench_record.py`` on small hand-written results files of the
shape ``perfbench/run.py`` writes."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def results(path, trace, wall, per_layer=None):
    path.write_text(json.dumps({
        "workload": "readme", "seed": 1, "trace": trace, "build": "b1",
        "passes": [{"synth": {}, "slice": {}}] * 2,
        "report": {"setup_s": 0.1, "wall_cal_s": wall, "peak_rss_mb": 60.0,
                   "wall_s": wall, "synth_s": wall / 2, "slice_s": wall / 4},
        "per_layer": per_layer, "checks": [{"ok": True}, {"ok": False}],
        "artifacts": {"maps/t0/img000.tsal": "ab"}}))
    return str(path)


def test_runs_keeps_per_layer_of_a_traced_run_and_medians_mix(tmp_path):
    files = [results(tmp_path / "r0.json", 0, 4.0),
             results(tmp_path / "r1.json", 1, 6.0,
                     {"cli.import_s": 0.25, "model.predict.calls": 4}),
             results(tmp_path / "r2.json", 1, 5.0,
                     {"cli.import_s": 0.75, "model.predict.calls": 4})]
    (key, untraced), (_, traced), _ = bench_record.record_runs(files)
    assert key == "readme-1"
    assert "per_layer" not in untraced
    assert traced["per_layer"] == {"cli.import_s": 0.25,
                                   "model.predict.calls": 4}
    assert traced["stages"] == {"synth": 3.0, "slice": 1.5}
    assert (traced["passes"], traced["checks"], traced["failed"]) == (2, 2, 1)

    bench = tmp_path / "BENCH.json"
    assert bench_record.main(["runs", str(bench), *files]) == 0
    written = json.loads(bench.read_text())
    assert [e["trace"] for e in written["runs"]["readme-1"]] == [0, 1, 1]
    medians = written["medians"]["runs"]["readme-1"]
    assert medians["wall_cal_s"] == 5.0
    assert medians["stages"] == {"synth": 2.5, "slice": 1.25}
    assert medians["per_layer"] == {"cli.import_s": 0.5,
                                    "model.predict.calls": 4}


# A checkout small enough to launch: a tsal.cli that logs where it runs
# from, and a workload of one logging command.
FAKE_CLI = """\
import json, os, sys
import tsal
if sys.argv[1:] != ["--help"]:
    with open(sys.argv[1], "a") as fh:
        fh.write(json.dumps({{"mark": {mark!r}, "module": tsal.__file__,
                             "cwd": os.getcwd(),
                             "input": open("input.txt").read()}}) + "\\n")
"""
FAKE_WORKLOADS = """\
class Tiny:
    def setup(self, d, seed, run):
        (d / "input.txt").write_text(f"seed {{seed}}")

    def steps(self, seed):
        return [["log", [{log!r}]]]


WORKLOADS = {{"tiny": Tiny()}}
"""


def fake_checkout(root, mark, log):
    (root / "src" / "tsal").mkdir(parents=True)
    (root / "src" / "tsal" / "__init__.py").write_text("")
    (root / "src" / "tsal" / "cli.py").write_text(FAKE_CLI.format(mark=mark))
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        FAKE_WORKLOADS.format(log=str(log)))
    return root


def test_launch_runs_each_checkout_from_the_same_path(tmp_path, monkeypatch):
    same = tmp_path / "same"
    monkeypatch.setattr(bench_record, "SAME_PATH", same)
    log = tmp_path / "log.jsonl"
    short = fake_checkout(tmp_path / "a", "short", log)
    long = fake_checkout(tmp_path / "a-much-longer-checkout-path" / "b",
                         "long", log)
    bench = tmp_path / "BENCH.json"
    for checkout in (short, long, short):
        assert bench_record.main(["launch", str(bench), "--checkout",
                                  str(checkout), "--workload", "tiny",
                                  "--seed", "3"]) == 0
        assert not same.exists()
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["mark"] for r in runs] == ["short", "long", "short"]
    assert {r["module"] for r in runs} == {
        str(same / "src" / "tsal" / "__init__.py")}
    assert {r["cwd"] for r in runs} == {str(same / "pass")}
    assert {r["input"] for r in runs} == {"seed 3"}
    passes = json.loads(bench.read_text())["launcher"]["tiny-3"]
    assert [sorted(p) for p in passes] == [["help", "log"]] * 3
    assert all(p["log"]["rss_mb"] > 0 for p in passes)
