"""Synthetic stimuli and temporally structured gaze recordings.

A scene is a set of Gaussian blob objects on a noise background. Each
time slice redistributes attention over the objects via a drift
schedule, optionally pulled toward the image center with growing
strength. Observers fixate objects drawn from those mixtures (revisits
suppressed multiplicatively) and emit jittered gaze samples at a fixed
rate, so the whole pipeline can run on data whose true timing is known:
a sampling's fixation table holds it in its t_ms and slice_index
columns, which the pipeline's input leaves out. Maps are float64
arrays: a scene's or a sampling's slice maps are one ``(slices, H, W)``
stack and a whole-viewing map is ``(H, W)``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_JITTER_PX, DEFAULT_RHO, DEFAULT_T_TOTAL_MS
from .errors import ConfigError, FormatError
from .fileio import reading
from .gaze import FixationTable, GazeTable, rasterize


@dataclass(frozen=True)
class Blob:
    """One scene object: an isotropic Gaussian salience source."""
    cx: float
    cy: float
    sigma: float
    weight: float


@dataclass(frozen=True)
class SceneSpec:
    width: int
    height: int
    objects: tuple[Blob, ...]
    center_bias_strength: float = 0.0
    # drift[k][o]: attention multiplier for object o during slice k
    drift: tuple[tuple[float, ...], ...] = ((1.0,),)

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ConfigError("scene dimensions must be positive")
        if not self.objects:
            raise ConfigError("scene needs at least one object")
        numbers = [self.center_bias_strength,
                   *(v for o in self.objects for v in dataclasses.astuple(o)),
                   *(v for row in self.drift for v in row)]
        if not all(map(math.isfinite, numbers)):
            raise ConfigError("scene numbers must be finite")
        for o in self.objects:
            if o.weight < 0.0:
                raise ConfigError("object weights must be nonnegative")
            if o.sigma <= 0.0:
                raise ConfigError("object sigma must be positive")
        if self.center_bias_strength < 0.0:
            raise ConfigError("center bias strength must be nonnegative")
        if not self.drift:
            raise ConfigError("drift schedule must cover at least one slice")
        for k, row in enumerate(self.drift):
            if len(row) != len(self.objects):
                raise ConfigError(
                    f"drift row has {len(row)} entries for "
                    f"{len(self.objects)} objects")
            if any(d < 0.0 for d in row):
                raise ConfigError("drift entries must be nonnegative")
            # generate_scene divides slice k's weights by this total
            pull = self.center_bias_strength * (k + 1) / len(self.drift)
            if sum(d * o.weight for d, o in zip(row, self.objects)) \
                    + pull <= 0.0:
                raise ConfigError(f"slice {k} has zero total attention weight")

    @property
    def n_slices(self) -> int:
        return len(self.drift)


@dataclass(frozen=True)
class SliceMixture:
    """Per-slice attention mixture: component Gaussians plus weights.

    The last component is the central attractor when present; it is
    exempt from revisit suppression because it is a pull, not a thing
    one looks at.
    """
    width: int
    height: int
    centers: np.ndarray        # (C, 2) as (x, y)
    sigmas: np.ndarray         # (C,)
    weights: np.ndarray        # (n_slices, C), rows sum to 1
    center_index: int | None   # index of the attractor component, if any


@dataclass(frozen=True)
class Scene:
    spec: SceneSpec
    image: np.ndarray                 # (3, H, W) in [0, 1]
    slice_maps: np.ndarray            # (n_slices, H, W), each sums to 1
    mixture: SliceMixture


@dataclass(frozen=True)
class SampledGaze:
    gaze: GazeTable
    fixations: FixationTable             # with the true t_ms and slice_index
    slice_maps: np.ndarray               # (n_slices, H, W), rasterized
    full_map: np.ndarray                 # (H, W), all fixations


def _dense_gaussian(width, height, cx, cy, sigma):
    yy, xx = np.mgrid[0:height, 0:width]
    g = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * sigma * sigma))
    return g / g.sum()


def center_sigma(width: int, height: int) -> float:
    return 0.25 * min(width, height)


def generate_scene(spec: SceneSpec, seed: int) -> Scene:
    """Render the stimulus and build each slice's target distribution.

    Slice k mixes the object Gaussians with weights drift[k][o] *
    object weight, plus a central attractor whose share grows linearly
    with k. Every slice map sums to 1.
    """
    rng = np.random.default_rng(seed)
    w, h, n = spec.width, spec.height, spec.n_slices

    has_center = spec.center_bias_strength > 0.0
    centers = [(o.cx, o.cy) for o in spec.objects]
    sigmas = [o.sigma for o in spec.objects]
    if has_center:
        centers.append(((w - 1) / 2.0, (h - 1) / 2.0))
        sigmas.append(center_sigma(w, h))
    # each component rendered once, for the image bumps and every slice
    gaussians = [_dense_gaussian(w, h, cx, cy, s)
                 for (cx, cy), s in zip(centers, sigmas)]

    image = rng.uniform(0.0, 0.3, size=(3, h, w))
    for bump in gaussians[:len(spec.objects)]:
        bump = bump / bump.max()
        color = rng.uniform(0.4, 1.0, size=3)
        image = image + color[:, None, None] * bump
    image = np.clip(image, 0.0, 1.0)

    weights = np.zeros((n, len(centers)))
    for k in range(n):
        for i, o in enumerate(spec.objects):
            weights[k, i] = spec.drift[k][i] * o.weight
        if has_center:
            weights[k, -1] = spec.center_bias_strength * (k + 1) / n
        weights[k] /= weights[k].sum()  # positive: SceneSpec checks it

    mixture = SliceMixture(w, h, np.array(centers, dtype=float),
                           np.array(sigmas, dtype=float), weights,
                           len(centers) - 1 if has_center else None)
    maps = np.empty((n, h, w))
    for k in range(n):
        dist = np.zeros((h, w))
        for i in range(len(centers)):
            if weights[k, i] > 0.0:
                dist += weights[k, i] * gaussians[i]
        maps[k] = dist / dist.sum()
    return Scene(spec, image, maps, mixture)


def sample_observers(mixture: SliceMixture, observers: int,
                     samples_per_sec: int, fixation_rate: float,
                     seed: int, image_id: str = "img",
                     rho: float = DEFAULT_RHO,
                     t_total_ms: float = DEFAULT_T_TOTAL_MS,
                     jitter_px: float = DEFAULT_JITTER_PX) -> SampledGaze:
    """Simulate viewing sessions over the slice mixtures.

    Each observer fixates round(fixation_rate * slice seconds) points
    per slice, choosing objects by mixture weight scaled by
    rho^(times already visited); the attractor component never decays.
    Gaze samples tick uniformly through the whole viewing, jittered
    around whichever fixation is current, giving exactly
    observers * seconds * samples_per_sec samples.
    """
    if observers < 1 or samples_per_sec < 1:
        raise ConfigError("observer and sample counts must be positive")
    if fixation_rate <= 0.0 or not 0.0 < rho <= 1.0 or t_total_ms <= 0.0 \
            or jitter_px < 0.0:
        raise ConfigError("need fixation_rate > 0, rho in (0,1], "
                          "duration > 0, jitter >= 0")

    rng = np.random.default_rng(seed)
    n = mixture.weights.shape[0]
    n_comp = mixture.centers.shape[0]
    slice_ms = t_total_ms / n
    per_slice = max(1, round(fixation_rate * slice_ms / 1000.0))
    samples_per_obs = round(samples_per_sec * t_total_ms / 1000.0)
    w, h = mixture.width, mixture.height

    gaze: list[GazeTable] = []
    fixated: list[np.ndarray] = []  # each observer's (x, y) rows

    for obs in range(observers):
        observer_id = f"o{obs:03d}"
        visits = np.zeros(n_comp)
        points: list[tuple[float, float]] = []
        for k in range(n):
            for _ in range(per_slice):
                # refresh so a visit suppresses revisits immediately
                probs = mixture.weights[k] * rho ** visits
                if mixture.center_index is not None:
                    probs[mixture.center_index] = \
                        mixture.weights[k, mixture.center_index]
                total = probs.sum()
                if total <= 0.0:  # everything suppressed to zero, reset
                    probs = mixture.weights[k].copy()
                    total = probs.sum()
                comp = rng.choice(n_comp, p=probs / total)
                if comp != mixture.center_index:
                    visits[comp] += 1.0
                points.append(rng.normal(mixture.centers[comp],
                                         mixture.sigmas[comp]))
        fix_dur = t_total_ms / (n * per_slice)
        t = (np.arange(samples_per_obs) + 0.5) * t_total_ms / samples_per_obs
        active = np.minimum((t / fix_dur).astype(np.intp), len(points) - 1)
        # one draw per sample and axis, in the order x0, y0, x1, y1, ...
        jitter = rng.normal(0.0, jitter_px, size=(samples_per_obs, 2))
        fixated.append(np.clip(points, 0.0, [w - 1, h - 1]))
        xy = fixated[-1][active] + jitter
        gaze.append(GazeTable((image_id,) * samples_per_obs,
                              (observer_id,) * samples_per_obs, t,
                              np.clip(xy[:, 0], 0.0, w - 1),
                              np.clip(xy[:, 1], 0.0, h - 1)))

    # each observer's fixations run slice by slice, per_slice in each
    order = np.tile(np.arange(n * per_slice), observers)
    fixations = FixationTable(
        (image_id,) * order.size,
        tuple(f"o{obs:03d}" for obs in range(observers) for _ in range(
            n * per_slice)), order, *np.concatenate(fixated).T,
        t_ms=(order + 0.5) * t_total_ms / (n * per_slice),
        slice_index=order // per_slice)
    true_slice = fixations.slice_index
    slice_maps = np.stack([rasterize(fixations.x[true_slice == k],
                                     fixations.y[true_slice == k], w, h)
                           for k in range(n)])
    full_map = rasterize(fixations.x, fixations.y, w, h)
    return SampledGaze(GazeTable.concat(gaze), fixations, slice_maps,
                       full_map)


# ---------------------------------------------------------------------------
# Scene construction helpers and the JSON scene format
# ---------------------------------------------------------------------------

def drift_spec(rng, width: int, height: int, n_objects: int = 5,
               n_slices: int = 5, anchor: tuple[float, float] | None = None,
               spread: float = 0.8,
               center_bias_strength: float = 0.05) -> SceneSpec:
    """Random scene whose attention sweeps object-by-object over time.

    drift[k][o] is a Gaussian bump in o centered at the object "due" at
    slice k, so consecutive slices share attention targets but distant
    slices do not. With ``anchor`` the first object (the slice-0
    target) sits at a fixed position, which makes early slices agree
    across scenes generated from different draws.
    """
    if n_objects < 1 or n_slices < 1:
        raise ConfigError("object and slice counts must be positive")
    two_var = 2.0 * np.float64(spread) ** 2  # a huge spread squares to inf
    if not (math.isfinite(spread) and two_var > 0.0):
        raise ConfigError("drift spread must be finite and nonzero")
    margin = 0.15
    objects = []
    for i in range(n_objects):
        if i == 0 and anchor is not None:
            cx, cy = anchor
        else:
            cx = rng.uniform(margin * width, (1 - margin) * width)
            cy = rng.uniform(margin * height, (1 - margin) * height)
        sigma = rng.uniform(0.05, 0.09) * min(width, height)
        objects.append(Blob(cx, cy, sigma, 1.0))
    drift = []
    for k in range(n_slices):
        due = k * (n_objects - 1) / max(n_slices - 1, 1)
        row = tuple(float(np.exp(-((o - due) ** 2) / two_var))
                    for o in range(n_objects))
        drift.append(row)
    return SceneSpec(width, height, tuple(objects),
                     center_bias_strength, tuple(drift))


def scene_from_dict(d: dict) -> SceneSpec:
    try:
        objects = tuple(Blob(float(o["cx"]), float(o["cy"]),
                             float(o["sigma"]), float(o["weight"]))
                        for o in d["objects"])
        return SceneSpec(
            width=int(d["width"]), height=int(d["height"]), objects=objects,
            center_bias_strength=float(d.get("center_bias_strength", 0.0)),
            drift=tuple(tuple(float(v) for v in row) for row in d["drift"]))
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad scene description: {exc}") from exc


def read_scenes(path) -> list[SceneSpec]:
    """The scenes of a scene JSON file: a ``"scenes"`` list of scene
    descriptions, or ``"preset": "drift"`` with ``drift_spec`` settings
    (``images`` scenes drawn from ``scene_seed``). Every error, of the
    JSON or of a scene in it, names the file."""
    with reading(path) as fh:
        try:
            data = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"invalid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FormatError("scene file must hold a JSON object")
        if "scenes" in data:
            if not isinstance(data["scenes"], list):
                raise FormatError("\"scenes\" must be a list")
            specs = [scene_from_dict(d) for d in data["scenes"]]
            if not specs:
                raise FormatError("scene file lists no scenes")
            if len({s.n_slices for s in specs}) != 1:
                raise FormatError("scenes disagree on slice count")
            return specs
        if data.get("preset") != "drift":
            raise FormatError("scene file needs either a \"scenes\" list "
                              "or preset=\"drift\"")
        try:
            images = int(data.get("images", 20))
            width = int(data.get("width", 64))
            height = int(data.get("height", 64))
            objects = int(data.get("objects", 5))
            slices = int(data.get("slices", 5))
            bias = float(data.get("center_bias_strength", 0.05))
            spread = float(data.get("spread", 0.8))
            anchor = data.get("anchor")
            if anchor is not None:
                anchor = (float(anchor[0]), float(anchor[1]))
            seed = int(data.get("scene_seed", 0))
        except (TypeError, ValueError, IndexError, OverflowError) as exc:
            raise FormatError(f"bad drift preset settings: {exc}") from exc
        if images < 1:
            raise FormatError("preset needs images >= 1")
        rng = np.random.default_rng(seed)
        return [drift_spec(rng, width, height, n_objects=objects,
                           n_slices=slices, anchor=anchor, spread=spread,
                           center_bias_strength=bias)
                for _ in range(images)]
