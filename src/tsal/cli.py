"""Batch command-line pipeline.

Subcommands chain into each other through plain files:

    synth      scene JSON -> images/, gaze.jsonl, fixations.csv, truth/
    timestamps gaze + untimestamped fixations -> timestamped CSV
    slice      timestamped CSV -> CSV with a slice_index column
    rasterize  sliced CSV + images -> maps/full/, maps/t<k>/
    analyze    maps + sliced CSV -> correlation/deviation/histogram CSVs,
               average and difference maps
    train      images + maps -> TSPW checkpoint (+ loss CSV)
    predict    checkpoint + images -> pred/s_r/, pred/s_i/, pred/t<k>/
    eval       predictions vs ground truth + fixations -> metric CSV

Exit codes: 0 success, 2 bad input or configuration, 3 numerically
degenerate data. Errors print one line to stderr. Settings resolve as
CLI flag, then key=value config file (--config), then built-in default.
No environment variable is read, and a command writes nothing outside
its output paths except its ``.tmp-*~`` staging entries beside them.

Importing this module runs neither numpy nor the package's numerical
modules: ``_lazy`` binds them here, and each runs on its first use. So
a command runs only the modules it calls, and ``--help`` or a bad
command line runs no numpy at all. The parser's defaults come from the
numpy-free ``defaults`` module.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import io
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .defaults import (DEFAULT_JITTER_PX, DEFAULT_RHO, DEFAULT_SLICES,
                       DEFAULT_SPATIAL_WEIGHT, DEFAULT_T_TOTAL_MS,
                       DEFAULT_TEMPORAL_WEIGHT)
from .errors import (
    ConfigError,
    DegenerateMapError,
    FormatError,
    NonFiniteError,
    PreconditionError,
    TsalError,
    UnrecoverableObserverError,
)
from .fileio import atomic_write_bytes, naming, reading, staged, write_csv


def _lazy(name: str):
    """The module ``name`` (relative to this package if it starts with
    a dot), put into ``sys.modules`` now but run only on its first
    attribute access: the ``importlib.util.LazyLoader`` recipe. A module
    already imported is returned as it is. The package gets no attribute
    for it, so a ``from . import m`` in a module that runs runs ``m``
    with it, as a plain import would. These are not imports inside
    the commands because ``perfbench/bootstrap.py`` wraps the functions
    of every ``tsal`` module in ``sys.modules`` right after importing
    this one. LazyLoader is not thread-safe; tsal runs modules from its
    main thread only, as its pools are processes."""
    name = importlib.util.resolve_name(name, __package__)
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy("numpy")
analysis = _lazy(".analysis")
autodiff = _lazy(".autodiff")
gaze = _lazy(".gaze")
metrics = _lazy(".metrics")
model = _lazy(".model")
synth = _lazy(".synth")

# --normalize choices, as names of gaze.Normalization members
NORMALIZATION_NAMES = {"raw": "RAW", "sum": "SUM_TO_ONE", "max": "MAX_TO_ONE"}


# ---------------------------------------------------------------------------
# Settings: flag > config file > default
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of every float setting: NaN and infinities (also
    overflowing literals such as ``1e999``) are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _config_flags(path: str, settable: set[str]) -> list[str]:
    """A key=value config file's entries as ``--key=value`` flags (the
    ``=`` form keeps a value such as ``-5`` from reading as a flag)."""
    entries: dict[str, str] = {}
    with reading(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key=value")
            key, _, value = line.partition("=")
            entries[key.strip().replace("-", "_")] = value.strip()
        unknown = sorted(set(entries) - settable)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return [f"--{key.replace('_', '-')}={value}"
            for key, value in entries.items()]


# ---------------------------------------------------------------------------
# Small IO helpers
# ---------------------------------------------------------------------------

def _save_npy(path: Path, arr: np.ndarray) -> None:
    buf = io.BytesIO()
    np.save(buf, arr)
    atomic_write_bytes(path, buf.getvalue())


def _load_image(path: Path) -> np.ndarray:
    with reading(path, binary=True) as fh:
        try:
            arr = np.load(fh)
        except (EOFError, ValueError) as exc:
            raise FormatError(f"not a .npy array: {exc}") from exc
        if not isinstance(arr, np.ndarray):
            raise FormatError("not a .npy array: a zip archive (.npz)")
        if arr.dtype.kind not in "biuf":
            raise FormatError(
                f"expected a real-valued array, got dtype {arr.dtype}")
        if arr.ndim != 3 or arr.shape[0] != 3:
            raise FormatError(f"expected a (3, H, W) array, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise FormatError("image contains non-finite values")
    return arr.astype(np.float64)


def _ids(directory, suffix: str) -> list[str]:
    """The sorted stems of the ``*<suffix>`` files in ``directory``; a
    directory without one (or no directory) is a ``PreconditionError``."""
    ids = sorted(p.stem for p in Path(directory).glob(f"*{suffix}"))
    if not ids:
        raise PreconditionError(f"no {suffix} files in {directory}")
    return ids


def _map_path(maps_dir, kind: str, image_id: str) -> Path:
    return Path(maps_dir) / kind / f"{image_id}.tsal"


def _write_map(maps_dir, kind: str, image_id: str, values: np.ndarray,
               normalization: gaze.Normalization) -> None:
    gaze.write_map_tsal(_map_path(maps_dir, kind, image_id), values,
                        normalization)


def _map_rows(dirs: list, ids: list[str]):
    """Each image's maps ``<dir>/<id>.tsal``, one per directory of
    ``dirs``, as a float64 ``(len(dirs), H, W)`` array, image by image in
    ``ids`` order; every map must have the size of the first."""
    shape = None
    for image_id in ids:
        maps = []
        for directory in dirs:
            path = Path(directory) / f"{image_id}.tsal"
            values = gaze.read_map_tsal(path)
            if shape is None:
                shape = values.shape
            elif values.shape != shape:
                (h, w), (eh, ew) = values.shape, shape
                raise PreconditionError(
                    f"inconsistent map sizes: {path} is {w}x{h}, "
                    f"expected {ew}x{eh}")
            maps.append(values)
        yield np.stack(maps)


def _read_stack(maps_dir, kinds: list[str], ids: list[str]) -> np.ndarray:
    """The maps ``<maps_dir>/<kind>/<id>.tsal`` as one float64
    ``(images, kinds, H, W)`` array, read by ``_map_rows``."""
    stack = None
    for i, maps in enumerate(_map_rows([Path(maps_dir) / k for k in kinds],
                                       ids)):
        if stack is None:
            stack = np.empty((len(ids),) + maps.shape)
        stack[i] = maps
    return stack


def _slice_kinds(maps_dir: str) -> list[str]:
    kinds = []
    while (Path(maps_dir) / f"t{len(kinds)}").is_dir():
        kinds.append(f"t{len(kinds)}")
    if not kinds:
        raise PreconditionError(
            f"{maps_dir} has no t0/ slice directory; run rasterize first")
    return kinds


def _worker_count(jobs: int, n_items: int, cpus: int | None) -> int:
    """Pool size for ``--jobs``: no more workers than items or CPUs
    (``os.cpu_count()`` may be None), and at least one."""
    return max(1, min(jobs, n_items, cpus or 1))


def _run_parallel(jobs: int, fn, items: list):
    workers = _worker_count(jobs, len(items), os.cpu_count())
    if workers == 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # 20 ms; pools only
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _require_timestamps(fixations: gaze.FixationTable, path) -> None:
    if fixations.t_ms is None:
        raise FormatError(
            f"{path} has rows without t_ms; run the timestamps step first")


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------

def _derived_seed(*parts: int) -> int:
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


def _generate_scene_cached(spec: synth.SceneSpec, seed: int) -> synth.Scene:
    """``synth.generate_scene``. The name stays only because
    ``perfbench/bootstrap.py`` ``HOOKS`` and ``perfbench/layers.py`` time
    the scene layer under it (``tests/test_bench_contract.py`` checks
    that it exists)."""
    return synth.generate_scene(spec, seed)


def _synth_one(item, out_dir: str, seed: int, observers: int,
               samples_per_sec: int, fixation_rate: float, rho: float,
               jitter: float, t_total: float):
    index, spec = item
    image_id = f"img{index:03d}"
    scene = _generate_scene_cached(spec, _derived_seed(seed, index, 0))
    sampled = synth.sample_observers(
        scene.mixture, observers, samples_per_sec, fixation_rate,
        seed=_derived_seed(seed, index, 1), image_id=image_id, rho=rho,
        t_total_ms=t_total, jitter_px=jitter)
    out = Path(out_dir)
    _save_npy(out / "images" / f"{image_id}.npy", scene.image)
    for k, m in enumerate(sampled.slice_maps):
        _write_map(out / "truth" / "maps", f"t{k}", image_id, m,
                   gaze.Normalization.RAW)
    _write_map(out / "truth" / "maps", "full", image_id, sampled.full_map,
               gaze.Normalization.RAW)
    # the maps are written; the caller only needs the records
    return sampled.gaze, sampled.fixations


def cmd_synth(args) -> None:
    specs = synth.read_scenes(args.scene)
    with staged(args.out) as (out,):
        worker = functools.partial(
            _synth_one, out_dir=out, seed=args.seed,
            observers=args.observers, samples_per_sec=args.samples_per_sec,
            fixation_rate=args.fixation_rate, rho=args.rho,
            jitter=args.jitter, t_total=args.t_total)
        results = _run_parallel(args.jobs, worker, list(enumerate(specs)))

        samples, truth = zip(*results)
        samples = gaze.GazeTable.concat(samples)
        truth = gaze.FixationTable.concat(truth)
        out = Path(out)
        gaze.write_gaze_jsonl(out / "gaze.jsonl", samples)
        gaze.write_fixations_csv(out / "fixations.csv",
                                 replace(truth, t_ms=None, slice_index=None))
        gaze.write_fixations_csv(out / "truth" / "fixations.csv", truth)
    print(f"synthesized {len(specs)} images, {len(truth)} fixations, "
          f"{len(samples)} gaze samples")


# ---------------------------------------------------------------------------
# timestamps / slice
# ---------------------------------------------------------------------------

def cmd_timestamps(args) -> None:
    samples = gaze.read_gaze_jsonl(args.gaze)
    table, _ = gaze.read_fixation_table(args.fixations)
    if not len(table):
        raise PreconditionError(f"{args.fixations} has no fixation rows")
    with staged(args.out) as (out,):  # refused before any recovery
        gaze_groups = gaze.group_gaze(samples)
        t_ms = np.empty(len(table))
        for key, rows in gaze.group_rows(zip(table.image_id,
                                             table.observer_id)).items():
            if key not in gaze_groups:
                raise UnrecoverableObserverError(
                    f"observer {key[1]!r} on image {key[0]!r} has fixations "
                    f"but no gaze samples")
            t_ms[rows] = gaze.recover_timestamps(
                table.take(rows), gaze_groups[key], w_s=args.spatial_weight,
                w_t=args.temporal_weight, t_total=args.t_total)
        gaze.write_fixations_csv(out, replace(table, t_ms=t_ms,
                                              slice_index=None))
    print(f"recovered timestamps for {len(table)} fixations")


def cmd_slice(args) -> None:
    fixations, _ = gaze.read_fixation_table(args.fixations)
    if not len(fixations):
        raise PreconditionError(f"{args.fixations} has no fixation rows")
    _require_timestamps(fixations, args.fixations)
    t_ms = fixations.t_ms
    slice_of = np.empty(len(fixations), dtype=np.intp)
    with staged(args.out) as (out,):  # refused before any slicing
        with naming(args.fixations, PreconditionError):
            for rows in gaze.group_rows(fixations.image_id).values():
                if args.scheme == "equal-duration":
                    slice_of[rows] = gaze.slice_equal_duration(
                        t_ms[rows], n=args.n, t_total=args.t_total)
                else:
                    slice_of[rows] = gaze.slice_equal_distribution(
                        t_ms[rows], fixations.order_index[rows], n=args.n)
        gaze.write_fixations_csv(out, replace(fixations, slice_index=slice_of))
    print(f"sliced {len(fixations)} fixations into {args.n} bins "
          f"({args.scheme})")


# ---------------------------------------------------------------------------
# rasterize
# ---------------------------------------------------------------------------

def _rasterize_one(item, out_dir: str, fixations_path: str, n: int,
                   sigma: float | None, norm_name: str):
    image_id, (width, height), xs, ys, slice_of = item
    norm = gaze.Normalization[NORMALIZATION_NAMES[norm_name]]
    maps = {f"t{k}": (slice_of == k, f" slice {k}") for k in range(n)}
    maps["full"] = (slice(None), "")
    for kind, (rows, which) in maps.items():
        with naming(fixations_path, PreconditionError), naming(
                f"{fixations_path}: image {image_id!r}{which}",
                DegenerateMapError):
            m = gaze.rasterize(xs[rows], ys[rows], width, height,
                               sigma_px=sigma, normalization=norm)
        _write_map(out_dir, kind, image_id, m, norm)
    return image_id


def cmd_rasterize(args) -> None:
    fixations, _ = gaze.read_fixation_table(args.fixations)
    slice_of = fixations.slice_index
    if slice_of is None:
        raise FormatError(
            f"{args.fixations} has no slice_index column; run slice first")
    bad = (slice_of < 0) | (slice_of >= args.n)
    if bad.any():
        raise PreconditionError(
            f"{args.fixations}: slice index {slice_of[bad][0]} out of range "
            f"for n={args.n}")
    ids = _ids(args.images, ".npy")
    dims = {}
    for image_id in ids:
        arr = _load_image(Path(args.images) / f"{image_id}.npy")
        dims[image_id] = (arr.shape[2], arr.shape[1])
    groups = gaze.group_rows(fixations.image_id)
    unknown = [image_id for image_id in groups if image_id not in dims]
    if unknown:
        raise PreconditionError(
            f"fixation references unknown image {unknown[0]!r}")
    items = []
    for image_id in ids:
        rows = groups.get(image_id, slice(0))  # slice(0): no rows
        items.append((image_id, dims[image_id], fixations.x[rows],
                      fixations.y[rows], slice_of[rows]))
    with staged(args.out) as (out,):
        worker = functools.partial(
            _rasterize_one, out_dir=out, fixations_path=args.fixations,
            n=args.n, sigma=args.sigma, norm_name=args.normalize)
        _run_parallel(args.jobs, worker, items)
    print(f"rasterized {len(ids)} images x {args.n} slices -> {args.out}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def cmd_analyze(args) -> None:
    kinds = _slice_kinds(args.maps)
    ids = _ids(Path(args.maps) / "t0", ".tsal")
    fixations, _ = gaze.read_fixation_table(args.fixations)
    _require_timestamps(fixations, args.fixations)
    unknown = set(fixations.image_id) - set(ids)
    if unknown:
        raise PreconditionError(
            f"fixations reference images without maps: {sorted(unknown)[0]}")
    with naming(args.fixations, PreconditionError):
        gaze.check_time_range(fixations.t_ms, args.t_total)
    with staged(args.out) as (out,):  # refused before any statistic
        # one image's maps in memory at a time: the full maps are read once,
        # and each slice statistic reads the slice maps afresh
        full_dir = Path(args.maps) / "full"
        full = (maps[0] for maps in _map_rows([full_dir], ids))
        grid = analysis.saliency_time_histogram(
            fixations, zip(ids, full), t_total=args.t_total,
            fixations_path=args.fixations,
            map_path=lambda image_id: full_dir / f"{image_id}.tsal")
        dirs = [Path(args.maps) / kind for kind in kinds]
        averages = analysis.average_slices(_map_rows(dirs, ids))
        values, pair_skipped = analysis.inter_slice_cc(_map_rows(dirs, ids))
        scores, skipped = analysis.intra_slice_deviation(_map_rows(dirs, ids),
                                                         averages)
        diffs = (analysis.consecutive_differences(averages)
                 if len(kinds) >= 2 else [])
        out = Path(out)
        for k, m in enumerate(averages):
            gaze.write_map_tsal(out / "average" / f"t{k}.tsal", m,
                                gaze.Normalization.SUM_TO_ONE)
            gaze.write_map_pgm(out / "average" / f"t{k}.pgm", m)
        slices = [f"t{k + 1}" for k in range(len(kinds))]
        write_csv(out / "correlation.csv",
                  ["slice", *slices, "skipped_max"],
                  ([name, *v, k] for name, v, k in zip(
                      slices, values.tolist(),
                      pair_skipped.max(axis=1).tolist())))
        write_csv(out / "deviation.csv",
                  ["slice", "mean_cc_to_average", "skipped"],
                  zip(slices, scores, skipped.tolist()))
        for k, d in enumerate(diffs):
            gaze.write_signed_tsal(out / "diff" / f"d{k}.tsal", d)
            gaze.write_diff_ppm(out / "diff" / f"d{k}.ppm", d)
        dt, ds = args.t_total / grid.shape[0], 1.0 / grid.shape[1]
        write_csv(out / "histogram.csv",
                  ["time_bin_start_ms", "saliency_bin_start", "count"],
                  ((bt * dt, bs * ds, count)
                   for bt, counts in enumerate(grid.tolist())
                   for bs, count in enumerate(counts)))
    print(f"analyzed {len(ids)} images x {len(kinds)} slices -> {args.out}")


# ---------------------------------------------------------------------------
# train / predict / eval
# ---------------------------------------------------------------------------

def _load_train_data(images_dir: str, maps_dir: str
                     ) -> tuple[list[str], model.TrainData]:
    ids = _ids(images_dir, ".npy")
    kinds = _slice_kinds(maps_dir)
    images = [_load_image(Path(images_dir) / f"{image_id}.npy")
              for image_id in ids]
    shapes = {arr.shape for arr in images}
    if len(shapes) != 1:
        raise PreconditionError(
            f"images disagree on shape: {sorted(shapes)}")
    slices, full = (_read_stack(maps_dir, k, ids) for k in (kinds, ["full"]))
    for kind, stack in ((kinds[0], slices), ("full", full)):
        (h, w), (eh, ew) = stack.shape[2:], images[0].shape[1:]
        if (h, w) != (eh, ew):
            raise PreconditionError(
                f"{_map_path(maps_dir, kind, ids[0])}: map is {w}x{h}, "
                f"images are {ew}x{eh}")
    return ids, model.TrainData(np.stack(images), slices, full)


def cmd_train(args) -> None:
    ids, data = _load_train_data(args.images, args.maps)
    n = data.gt_slices.shape[1]
    schedule = model.TrainSchedule(
        stage=args.stage, batch_size=args.batch_size, lr0=args.lr,
        decay_factor=args.decay_factor, decay_every=args.decay_every,
        epochs=args.epochs, max_steps=args.max_steps)
    loss_cfg = model.LossConfig(lambda1=args.lambda1, beta1=args.beta1,
                                lambda2=args.lambda2, beta2=args.beta2)
    if args.stage == "mixing" and not args.base:
        raise ConfigError("--base checkpoint is required for the mixing stage")
    base = autodiff.load_params(args.base) if args.base else None
    config = model.ModelConfig(n_slices=n) if base is None else None
    # model.train gets the only reference, so that the mixing stage can
    # let go of the images and slice maps once its frozen outputs exist
    handed = [data]
    del data
    outs = [args.out, args.loss_csv] if args.loss_csv else [args.out]
    # refused before any step; both in place, or neither
    with staged(*outs) as paths:
        params, trace = model.train(handed.pop(), schedule, seed=args.seed,
                                    loss_cfg=loss_cfg, config=config,
                                    base_params=base)
        autodiff.save_params(paths[0], params)
        if args.loss_csv:
            write_csv(paths[1], ["epoch", "stage", "loss", "lr"], trace)
    final = trace[-1][2] if trace else float("nan")
    print(f"trained stage={args.stage} on {len(ids)} images, "
          f"final loss {final:.6f} -> {args.out}")


def _predict_one(item, out_dir: str, params: dict) -> str:
    image_id, path = item
    image = _load_image(path)
    with naming(path):  # an overflow that only computing finds
        pred = model.predict(image[None], params)
    refined = pred["S_R"][0, 0]
    _write_map(out_dir, "s_r", image_id, refined, gaze.Normalization.RAW)
    pgm = _map_path(out_dir, "s_r", image_id).with_suffix(".pgm")
    gaze.write_map_pgm(pgm, refined)
    _write_map(out_dir, "s_i", image_id, pred["S_I"][0, 0],
               gaze.Normalization.RAW)
    for k in range(pred["T"].shape[1]):
        _write_map(out_dir, f"t{k}", image_id, pred["T"][0, k],
                   gaze.Normalization.RAW)
    return image_id


def cmd_predict(args) -> None:
    params = autodiff.load_params(args.checkpoint)
    model.check_params(params, model.infer_config(params))
    items = [(i, Path(args.images) / f"{i}.npy")
             for i in _ids(args.images, ".npy")]
    # each worker reads its own image: one image in memory at a time
    with staged(args.out) as (out,):
        worker = functools.partial(_predict_one, out_dir=out,
                                   params=params)
        _run_parallel(args.jobs, worker, items)
    print(f"predicted {len(items)} images -> {args.out}")


def _varying_maps(maps_dir, ids: list[str]):
    """The maps ``<maps_dir>/<id>.tsal`` in ``ids`` order, one at a time.
    A constant map (an all-zero one too) has no mean and no cc: it is
    refused by its path once every map is read."""
    refused = None
    for image_id, (m,) in zip(ids, _map_rows([maps_dir], ids)):
        if metrics.usable_maps(m):
            yield m
        elif refused is None:
            refused = DegenerateMapError(
                f"{Path(maps_dir) / f'{image_id}.tsal'}: ground-truth map is "
                f"{'constant' if m.any() else 'all-zero'}")
    if refused is not None:
        raise refused


def cmd_eval(args) -> None:
    fixations, _ = gaze.read_fixation_table(args.fixations)
    ids, gt_ids = _ids(args.pred, ".tsal"), _ids(args.gt, ".tsal")
    if ids != gt_ids:
        only_pred = sorted(f"{i}.tsal" for i in set(ids) - set(gt_ids))
        only_gt = sorted(f"{i}.tsal" for i in set(gt_ids) - set(ids))
        raise PreconditionError(
            f"prediction/ground-truth directories disagree "
            f"(only in pred: {only_pred}, only in gt: {only_gt})")
    if "mean" in ids:
        raise PreconditionError(
            f"image id 'mean' ({Path(args.pred) / 'mean.tsal'}) clashes "
            f"with the mean row of {args.out}")
    with staged(args.out) as (out,):  # refused before any map is read
        # first pass: the baseline, so every ground-truth error comes
        # before any prediction error
        baseline = metrics.mean_map(_varying_maps(args.gt, ids))
        height, width = baseline.shape
        with naming(args.fixations, PreconditionError):
            sets = metrics.fixation_sets(ids, fixations, width, height)
        # second pass: one ground-truth map and one prediction at a time
        rows = []
        for image_id, (truth, pred), (fixated, negatives) in zip(
                ids, _map_rows([args.gt, args.pred], ids), sets):
            with naming(args.fixations, PreconditionError), naming(
                    Path(args.pred) / f"{image_id}.tsal", DegenerateMapError):
                rows.append(metrics.evaluate_pair(
                    pred, truth, fixated, negatives, baseline,
                    seed=args.seed))
        columns = metrics.METRIC_COLUMNS
        means = {c: sum(r[c] for r in rows) / len(rows) for c in columns}
        write_csv(out, ["image_id", *columns],
                  ([i, *(r[c] for c in columns)]
                   for i, r in zip([*ids, "mean"], [*rows, means])))
    print(f"evaluated {len(ids)} images -> {args.out}")


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as ``ConfigError``, so it is reported
    like any other input error (argparse would print usage and exit).
    The subcommand parsers are made from this class too."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, set[str]]]:
    """The parser, and per subcommand the keys a config file may set."""
    parser = _Parser(
        prog="tsal",
        description="Temporal saliency pipeline over plain files.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    settable: dict[str, set[str]] = {}

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=handler)
        p.add_argument("--config", metavar="FILE",
                       help="key=value settings file")
        keys = settable[name] = set()

        def add(flag, convert, default, help, choices=None):
            p.add_argument(flag, type=convert, default=default,
                           choices=choices,
                           help=f"{help} (default: {default})")
            keys.add(flag[2:].replace("-", "_"))
        return p, add

    t_total = ("--t-total", _finite_float, DEFAULT_T_TOTAL_MS,
               "viewing duration, ms")
    p, add = command("synth", cmd_synth, "generate a synthetic dataset")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.add_argument("--out", required=True, help="dataset directory")
    add("--seed", int, 0, "master seed")
    add("--observers", int, 4, "observers per image")
    add("--samples-per-sec", int, 30, "gaze sampling rate")
    add("--fixation-rate", _finite_float, 3.0, "fixations per second")
    add("--rho", _finite_float, DEFAULT_RHO, "revisit decay factor")
    add("--jitter", _finite_float, DEFAULT_JITTER_PX,
        "gaze jitter around fixations, pixels")
    add(*t_total)
    add("--jobs", int, 1, "parallel workers")

    p, add = command("timestamps", cmd_timestamps,
                     "recover fixation timestamps from gaze data")
    p.add_argument("--gaze", required=True, help="gaze JSONL file")
    p.add_argument("--fixations", required=True, help="fixation CSV file")
    p.add_argument("--out", required=True, help="output fixation CSV")
    add("--spatial-weight", _finite_float, DEFAULT_SPATIAL_WEIGHT,
        "spatial match weight")
    add("--temporal-weight", _finite_float, DEFAULT_TEMPORAL_WEIGHT,
        "temporal prior weight")
    add(*t_total)

    p, add = command("slice", cmd_slice, "assign fixations to time slices")
    p.add_argument("--fixations", required=True,
                   help="timestamped fixation CSV")
    p.add_argument("--out", required=True, help="output fixation CSV")
    add("--scheme", str, "equal-duration", "slicing scheme",
        choices=("equal-duration", "equal-distribution"))
    add("--n", int, DEFAULT_SLICES, "number of slices")
    add(*t_total)

    p, add = command("rasterize", cmd_rasterize,
                     "render fixations into saliency maps")
    p.add_argument("--fixations", required=True, help="sliced fixation CSV")
    p.add_argument("--images", required=True,
                   help="image directory (provides map dimensions)")
    p.add_argument("--out", required=True, help="map directory")
    add("--n", int, DEFAULT_SLICES, "number of slices")
    add("--sigma", _finite_float, None,
        "blur sigma in pixels (default: 19/480 of the short side)")
    add("--normalize", str, "raw", "stored normalization",
        choices=tuple(NORMALIZATION_NAMES))
    add("--jobs", int, 1, "parallel workers")

    p, add = command("analyze", cmd_analyze,
                     "slice correlation, deviation, averages, histogram")
    p.add_argument("--maps", required=True, help="map directory")
    p.add_argument("--fixations", required=True,
                   help="timestamped fixation CSV")
    p.add_argument("--out", required=True, help="analysis output directory")
    add(*t_total)

    p, add = command("train", cmd_train, "fit the saliency network")
    p.add_argument("--images", required=True, help="image directory")
    p.add_argument("--maps", required=True, help="ground-truth map directory")
    p.add_argument("--out", required=True, help="output checkpoint (TSPW)")
    p.add_argument("--base", help="starting checkpoint "
                   "(required for --stage mixing)")
    p.add_argument("--loss-csv", help="write per-epoch losses here")
    add("--stage", str, "temporal", "training stage",
        choices=("temporal", "mixing"))
    add("--seed", int, 0, "init and batch-order seed")
    add("--epochs", int, 10, "training epochs")
    add("--lr", _finite_float, 1e-4, "initial learning rate")
    add("--batch-size", int, 4, "images per step")
    add("--decay-factor", _finite_float, 0.1, "lr multiplier at each decay")
    add("--decay-every", int, 2, "epochs between lr decays")
    add("--max-steps", int, None, "hard cap on optimizer steps")
    add("--lambda1", _finite_float, 1.0, "stage-1 correlation weight")
    add("--beta1", _finite_float, 1.0, "stage-1 divergence weight")
    add("--lambda2", _finite_float, 1.0, "stage-2 correlation weight")
    add("--beta2", _finite_float, 1.0, "stage-2 divergence weight")

    p, add = command("predict", cmd_predict, "run a checkpoint over images")
    p.add_argument("--checkpoint", required=True, help="TSPW checkpoint")
    p.add_argument("--images", required=True, help="image directory")
    p.add_argument("--out", required=True, help="prediction map directory")
    add("--jobs", int, 1, "parallel workers")

    p, add = command("eval", cmd_eval,
                     "score predictions against ground truth")
    p.add_argument("--pred", required=True, help="prediction map directory")
    p.add_argument("--gt", required=True, help="ground-truth map directory")
    p.add_argument("--fixations", required=True, help="fixation CSV")
    p.add_argument("--out", required=True, help="output metric CSV")
    add("--seed", int, 0, "negative-set subsampling seed")

    return parser, settable


def main(argv=None) -> int:
    parser, settable = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            raise ConfigError("no subcommand given")
        if args.config:  # parsed again: flag > config > default
            at = argv.index(args.command) + 1
            flags = _config_flags(args.config, settable[args.command])
            args = parser.parse_args(argv[:at] + flags + argv[at:])
        # no numpy warnings on stderr; the non-finite checks report those
        with np.errstate(all="ignore"):
            args.func(args)
    except (DegenerateMapError, NonFiniteError) as exc:
        _print_error(exc)
        return 3
    except (TsalError, OSError) as exc:
        _print_error(exc)
        return 2
    return 0


def _print_error(exc: BaseException) -> None:
    message = " ".join(str(exc).split())
    print(f"tsal: {type(exc).__name__}: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
