"""Loss landscapes around trained models.

1D profiles displace the flat parameter vector along random directions whose
per-block norm is rescaled to match the corresponding block of the trained
weights (dead blocks and frozen blocks stay at zero); 2D surfaces use a
Gram-Schmidt-orthogonalized pair of such directions.  Losses are RMSEs
evaluated on a fixed dataset; grid points are independent pure evaluations.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .model import DatasetTables, NeuralPotential, ParameterVector, tables_loss
from .seeding import substream


class DegenerateDirectionError(ArithmeticError):
    """Zero or parallel direction where a usable one is required; a numeric fault."""


@dataclass
class Direction:
    values: np.ndarray
    normalized: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("non-finite direction")


def sample_direction(p: ParameterVector, seed: int) -> Direction:
    """I.i.d. standard-normal direction with frozen blocks zeroed; unnormalized."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(p.partition.total)
    values[p.partition.frozen_mask()] = 0.0
    return Direction(values, normalized=False)


def filter_normalize(d: Direction, p: ParameterVector) -> Direction:
    """Rescale each partition block of d to the norm of the matching block of p.

    Blocks of p with zero norm map to zero; a zero direction block against a
    nonzero parameter block is degenerate (resample the direction).
    """
    if len(d.values) != p.partition.total:
        raise ValueError("direction/parameter shape mismatch")
    out = np.zeros_like(d.values)
    for b, sl in p.partition.slices():
        theta_norm = np.linalg.norm(p.values[sl])
        if b.frozen or theta_norm == 0.0:
            continue
        delta_norm = np.linalg.norm(d.values[sl])
        if delta_norm == 0.0:
            raise DegenerateDirectionError(
                f"zero direction block (layer {b.layer}, filter {b.filter})")
        out[sl] = d.values[sl] * (theta_norm / delta_norm)
    return Direction(out, normalized=True)


def orthogonalize_pair(d1: Direction, d2: Direction, p: ParameterVector):
    """Gram-Schmidt on the raw vectors, then filter-normalize each."""
    if d1.normalized or d2.normalized:
        raise ValueError("orthogonalize_pair expects unnormalized directions")
    v1 = d1.values
    n1 = np.linalg.norm(v1)
    if n1 == 0.0:
        raise DegenerateDirectionError("first direction is zero")
    v2 = d2.values - (d2.values @ v1) / (n1 * n1) * v1
    if np.linalg.norm(v2) < 1e-10 * np.linalg.norm(d2.values):
        raise DegenerateDirectionError("directions are parallel")
    return (filter_normalize(Direction(v1), p),
            filter_normalize(Direction(v2), p))


@dataclass
class LandscapeProfile:
    """Per-direction RMSE curves over a displacement grid, plus their average."""

    t_grid: np.ndarray
    loss_E: np.ndarray   # (n_directions, n_t), meV/atom
    loss_F: np.ndarray   # (n_directions, n_t), meV/A
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t_grid = np.asarray(self.t_grid, dtype=float)
        self.loss_E = np.asarray(self.loss_E, dtype=float)
        self.loss_F = np.asarray(self.loss_F, dtype=float)
        if np.any(np.diff(self.t_grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        if self.loss_E.shape != self.loss_F.shape or self.loss_E.shape[1] != len(self.t_grid):
            raise ValueError("curve shapes do not match the grid")

    @property
    def n_directions(self) -> int:
        return self.loss_E.shape[0]

    @property
    def mean_E(self) -> np.ndarray:
        return self.loss_E.mean(axis=0)

    @property
    def mean_F(self) -> np.ndarray:
        return self.loss_F.mean(axis=0)


@dataclass
class Surface2D:
    t1_grid: np.ndarray
    t2_grid: np.ndarray
    loss_E: np.ndarray   # (n_t1, n_t2)
    loss_F: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.t1_grid = np.asarray(self.t1_grid, dtype=float)
        self.t2_grid = np.asarray(self.t2_grid, dtype=float)
        shape = (len(self.t1_grid), len(self.t2_grid))
        if self.loss_E.shape != shape or self.loss_F.shape != shape:
            raise ValueError("surface shape does not match grids")


DEFAULT_T_GRID = np.linspace(-1.0, 1.0, 21)
DEFAULT_N_DIRECTIONS = 20


def _losses_on_points(model, tables, points):
    """Evaluate (loss_E, loss_F) at each flat-parameter point; inf on failure."""
    out = np.empty((len(points), 2))
    for idx, values in enumerate(points):
        lv = tables_loss(model, tables, values, 1.0, 1.0)
        out[idx] = (lv.loss_E if np.isfinite(lv.loss_E) else np.inf,
                    lv.loss_F if np.isfinite(lv.loss_F) else np.inf)
    return out


def _nonfinite_points(loss_E, loss_F) -> list:
    """Indices into the loss arrays where either loss is not finite."""
    bad = ~(np.isfinite(loss_E) & np.isfinite(loss_F))
    return [[int(i) for i in idx] for idx in zip(*np.nonzero(bad))]


def landscape_1d(m: NeuralPotential, d: Dataset, n_dirs: int = DEFAULT_N_DIRECTIONS,
                 t_grid=None, frozen=(), seed: int = 0) -> LandscapeProfile:
    """RMSE curves along n_dirs filter-normalized random directions.

    `frozen` lists partition block indices excluded from perturbation.  The
    t=0 loss is evaluated once and shared across directions.  Non-finite grid
    points become +inf and are flagged in the metadata.
    """
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    if not np.any(t_grid == 0.0):
        raise ValueError("t_grid must contain 0")
    part = m.params.partition.with_frozen(frozen)
    pvec = ParameterVector(m.params.values, part)
    tables = DatasetTables(m, d)
    theta = m.params.values

    dirs = []
    for k in range(n_dirs):
        raw = sample_direction(pvec, substream(seed, "direction", k).integers(2**31))
        dirs.append(filter_normalize(raw, pvec).values)

    i0 = int(np.nonzero(t_grid == 0.0)[0][0])
    base = _losses_on_points(m, tables, [theta])[0]
    points, where = [], []
    for n in range(n_dirs):
        for i, t in enumerate(t_grid):
            if i == i0:
                continue
            points.append(theta + t * dirs[n])
            where.append((n, i))
    vals = _losses_on_points(m, tables, points)

    loss_E = np.empty((n_dirs, len(t_grid)))
    loss_F = np.empty((n_dirs, len(t_grid)))
    loss_E[:, i0] = base[0]
    loss_F[:, i0] = base[1]
    for (n, i), (le, lf) in zip(where, vals):
        loss_E[n, i] = le
        loss_F[n, i] = lf
    meta = {
        "kind": "landscape1d",
        "model": m.name,
        "dataset": d.name,
        "seed": seed,
        "n_directions": n_dirs,
        "frozen_blocks": sorted(int(i) for i in frozen),
        "grid": {"min": float(t_grid[0]), "max": float(t_grid[-1]), "points": len(t_grid)},
        "n_evaluations": int(tables.eval_count),
        "nonfinite_points": _nonfinite_points(loss_E, loss_F),
    }
    return LandscapeProfile(t_grid, loss_E, loss_F, meta)


def landscape_2d(m: NeuralPotential, d: Dataset, t1_grid=None, t2_grid=None,
                 seed: int = 0, frozen=()) -> Surface2D:
    """Losses over the plane spanned by an orthogonalized direction pair."""
    t1_grid = DEFAULT_T_GRID if t1_grid is None else np.asarray(t1_grid, dtype=float)
    t2_grid = DEFAULT_T_GRID if t2_grid is None else np.asarray(t2_grid, dtype=float)
    if not np.any(t1_grid == 0.0) or not np.any(t2_grid == 0.0):
        raise ValueError("both grids must contain 0")
    part = m.params.partition.with_frozen(frozen)
    pvec = ParameterVector(m.params.values, part)
    tables = DatasetTables(m, d)
    theta = m.params.values

    raw1 = sample_direction(pvec, substream(seed, "direction", 0).integers(2**31))
    raw2 = sample_direction(pvec, substream(seed, "direction", 1).integers(2**31))
    d1, d2 = orthogonalize_pair(raw1, raw2, pvec)

    points = [theta + t1 * d1.values + t2 * d2.values
              for t1 in t1_grid for t2 in t2_grid]
    vals = _losses_on_points(m, tables, points)
    shape = (len(t1_grid), len(t2_grid))
    loss_E = vals[:, 0].reshape(shape)
    loss_F = vals[:, 1].reshape(shape)
    meta = {
        "kind": "landscape2d",
        "model": m.name,
        "dataset": d.name,
        "seed": seed,
        "frozen_blocks": sorted(int(i) for i in frozen),
        "grid1": {"min": float(t1_grid[0]), "max": float(t1_grid[-1]), "points": len(t1_grid)},
        "grid2": {"min": float(t2_grid[0]), "max": float(t2_grid[-1]), "points": len(t2_grid)},
        "n_evaluations": int(tables.eval_count),
        "nonfinite_points": _nonfinite_points(loss_E, loss_F),
        "orthogonalized_before_normalization": True,
    }
    return Surface2D(t1_grid, t2_grid, loss_E, loss_F, meta)


def interpolate_models(mA: NeuralPotential, mB: NeuralPotential, d: Dataset,
                       t_grid=None) -> LandscapeProfile:
    """Losses along the straight segment (1 - t) * thetaA + t * thetaB."""
    if mA.params.partition.total != mB.params.partition.total or \
            mA.hidden_layers != mB.hidden_layers or \
            mA.descriptor.n_radial != mB.descriptor.n_radial:
        raise ValueError("models must share architecture and partition")
    t_grid = np.linspace(0.0, 1.0, 21) if t_grid is None else np.asarray(t_grid, dtype=float)
    tables = DatasetTables(mA, d)
    a, b = mA.params.values, mB.params.values
    points = [(1.0 - t) * a + t * b for t in t_grid]
    vals = _losses_on_points(mA, tables, points)
    loss_E, loss_F = vals[:, 0].reshape(1, -1), vals[:, 1].reshape(1, -1)
    meta = {
        "kind": "interpolation",
        "model": f"{mA.name}->{mB.name}",
        "dataset": d.name,
        "seed": None,
        "n_directions": 1,
        "frozen_blocks": [],
        "grid": {"min": float(t_grid[0]), "max": float(t_grid[-1]), "points": len(t_grid)},
        "n_evaluations": int(tables.eval_count),
        "nonfinite_points": _nonfinite_points(loss_E, loss_F),
    }
    return LandscapeProfile(t_grid, loss_E, loss_F, meta)


def reweight_surface(s: Surface2D, w_E: float, w_F: float) -> np.ndarray:
    """Pointwise w_E * loss_E + w_F * loss_F; no model re-evaluation."""
    if w_E < 0 or w_F < 0:
        raise ValueError("weights must be nonnegative")
    return w_E * s.loss_E + w_F * s.loss_F


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

PROFILE_COLUMNS = ("direction", "t", "loss_energy_mev_per_atom", "loss_force_mev_per_ang")
SURFACE_COLUMNS = ("t1", "t2", "loss_energy", "loss_force")


def write_profile_csv(profile: LandscapeProfile, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(PROFILE_COLUMNS)
        for n in range(profile.n_directions):
            for i, t in enumerate(profile.t_grid):
                writer.writerow([n, repr(float(t)), repr(float(profile.loss_E[n, i])),
                                 repr(float(profile.loss_F[n, i]))])
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(profile.metadata, fh, sort_keys=True)
        fh.write("\n")


def read_profile_csv(path) -> LandscapeProfile:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != PROFILE_COLUMNS:
            raise ValueError(f"unexpected profile header in {path}")
        for rec in reader:
            rows.append((int(rec[0]), float(rec[1]), float(rec[2]), float(rec[3])))
    dirs = sorted({r[0] for r in rows})
    ts = sorted({r[1] for r in rows})
    tindex = {t: i for i, t in enumerate(ts)}
    loss_E = np.full((len(dirs), len(ts)), np.nan)
    loss_F = np.full((len(dirs), len(ts)), np.nan)
    for n, t, le, lf in rows:
        loss_E[n, tindex[t]] = le
        loss_F[n, tindex[t]] = lf
    meta = {}
    try:
        with open(str(path) + ".meta.json") as fh:
            meta = json.load(fh)
    except FileNotFoundError:
        pass
    return LandscapeProfile(np.array(ts), loss_E, loss_F, meta)


def write_surface_csv(surface: Surface2D, path, combined: np.ndarray | None = None) -> None:
    columns = SURFACE_COLUMNS + (("combined",) if combined is not None else ())
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for i, t1 in enumerate(surface.t1_grid):
            for j, t2 in enumerate(surface.t2_grid):
                row = [repr(float(t1)), repr(float(t2)),
                       repr(float(surface.loss_E[i, j])), repr(float(surface.loss_F[i, j]))]
                if combined is not None:
                    row.append(repr(float(combined[i, j])))
                writer.writerow(row)
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(surface.metadata, fh, sort_keys=True)
        fh.write("\n")
