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
from typing import Annotated

import numpy as np

from . import forked
from .artifacts import write_csv, write_json
from .data import Dataset
from .model import DatasetTables, FilterBlock, NeuralPotential, tables_loss
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


def free_blocks(m: NeuralPotential, frozen=()) -> list[FilterBlock]:
    """m's filter blocks but those whose indices ``frozen`` lists; ValueError if one
    is no block."""
    blocks, frozen = m.blocks, set(int(i) for i in frozen)
    if stray := sorted(i for i in frozen if not 0 <= i < len(blocks)):
        raise ValueError(f"block index {stray[0]} is not in 0..{len(blocks) - 1}")
    return [b for k, b in enumerate(blocks) if k not in frozen]


def sample_direction(theta: np.ndarray, free: list[FilterBlock], seed: int) -> Direction:
    """I.i.d. standard-normal direction, zero outside the ``free`` blocks; unnormalized."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(len(theta))
    frozen = np.ones(len(theta), dtype=bool)
    for b in free:
        frozen[b.offset:b.offset + b.length] = False
    values[frozen] = 0.0
    return Direction(values, normalized=False)


def filter_normalize(d: Direction, theta: np.ndarray, free: list[FilterBlock]) -> Direction:
    """Rescale each ``free`` block of d to the norm of the matching block of theta;
    the other entries are zero.

    Blocks of theta with zero norm map to zero; a zero direction block against a
    nonzero parameter block is degenerate (resample the direction).
    """
    if len(d.values) != len(theta):
        raise ValueError("direction/parameter shape mismatch")
    out = np.zeros_like(d.values)
    for b in free:
        sl = slice(b.offset, b.offset + b.length)
        theta_norm = np.linalg.norm(theta[sl])
        if theta_norm == 0.0:
            continue
        delta_norm = np.linalg.norm(d.values[sl])
        if delta_norm == 0.0:
            raise DegenerateDirectionError(
                f"zero direction block (layer {b.layer}, filter {b.filter})")
        out[sl] = d.values[sl] * (theta_norm / delta_norm)
    return Direction(out, normalized=True)


def orthogonalize_pair(d1: Direction, d2: Direction, theta: np.ndarray,
                       free: list[FilterBlock]):
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
    return (filter_normalize(Direction(v1), theta, free),
            filter_normalize(Direction(v2), theta, free))


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
DEFAULT_INTERP_GRID = np.linspace(0.0, 1.0, 21)
DEFAULT_N_DIRECTIONS = 20


def _directions(m: NeuralPotential, frozen, seed: int, n: int):
    """The blocks that `frozen` does not list, and n raw directions from the seed."""
    free = free_blocks(m, frozen)
    return free, [sample_direction(m.params, free, substream(seed, "direction", k).integers(2**31))
                  for k in range(n)]


def _scan(m: NeuralPotential, d: Dataset, points, arrange, **meta):
    """(loss_E, loss_F, metadata) at each flat-parameter point.

    The points are split into contiguous slices, one per CPU of the process's
    affinity mask (at most one per point).  The parent evaluates the first point,
    which builds a fixed basis's G, then forks one child per other slice and
    evaluates the first slice itself (``forked.Children``: each process is
    pinned to its own CPU of the mask while the children run, and a fork gives
    each child the built table at no cost).  Each point
    is the same computation on the same table in whichever process runs it, so
    the result does not depend on the split; with one CPU no child is made.  A
    child that fails or sends short data makes the parent raise
    ``ChildProcessError``; on any fault the parent kills and reaps the children
    that are left.

    Non-finite losses become +inf.  `arrange` maps the (2, n_points) losses to the
    (2, ...) layout of the result.  The metadata is `meta` plus the dataset, the
    evaluation count and the non-finite grid points.
    """
    tables = DatasetTables(m, d)
    vals = np.empty((2, len(points)))

    def evaluate(lo, hi):
        for idx in range(lo, hi):
            lv = tables_loss(m, tables, points[idx], 1.0, 1.0)
            vals[:, idx] = lv.loss_E, lv.loss_F

    def evaluate_and_send(lo, hi):
        def run(out, inp):   # reads nothing
            evaluate(lo, hi)
            out.write(vals[:, lo:hi].tobytes())
        return run

    with forked.Children() as children:
        n_procs = max(1, min(len(children.mask), len(points)))
        bounds = [k * len(points) // n_procs for k in range(n_procs + 1)]
        head = min(1, len(points))
        evaluate(0, head)
        slices = [(children.fork(cpu, evaluate_and_send(lo, hi)), lo, hi)
                  for cpu, lo, hi in zip(children.mask[1:], bounds[1:-1], bounds[2:])]
        evaluate(head, bounds[1])
        for child, lo, hi in slices:
            data = children.join(child, vals[:, lo:hi].nbytes,
                                 f"landscape worker for points {lo}..{hi - 1}")
            vals[:, lo:hi] = np.frombuffer(data).reshape(2, hi - lo)
    vals[~np.isfinite(vals)] = np.inf
    loss_E, loss_F = arrange(vals)
    meta.update(dataset=d.name, n_evaluations=len(points),
                nonfinite_points=np.argwhere(np.isinf(loss_E) | np.isinf(loss_F)).tolist())
    return loss_E, loss_F, meta


def _grid(t) -> dict:
    return {"min": float(t[0]), "max": float(t[-1]), "points": len(t)}


def check_n_dirs(n: int):
    """Raise ValueError unless a profile has at least one direction."""
    if n < 1:
        raise ValueError(f"the direction count must be >= 1, got {n}")


def landscape_1d(m: NeuralPotential, d: Dataset,
                 n_dirs: Annotated[int, check_n_dirs] = DEFAULT_N_DIRECTIONS,
                 t_grid=None, frozen=(), seed: int = 0) -> LandscapeProfile:
    """RMSE curves along n_dirs filter-normalized random directions.

    `frozen` lists the indices of ``m.blocks`` excluded from perturbation.  The
    t=0 loss is evaluated once and shared across directions.  Non-finite grid
    points become +inf and are flagged in the metadata.
    """
    check_n_dirs(n_dirs)
    t_grid = DEFAULT_T_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    if not np.any(t_grid == 0.0):
        raise ValueError("t_grid must contain 0")
    free, raw = _directions(m, frozen, seed, n_dirs)
    theta = m.params
    i0 = int(np.nonzero(t_grid == 0.0)[0][0])
    ts = np.delete(t_grid, i0)
    dirs = [filter_normalize(r, theta, free).values for r in raw]
    points = [theta] + [theta + t * v for v in dirs for t in ts]
    return LandscapeProfile(t_grid, *_scan(
        m, d, points,   # the base point's losses fill every direction's t = 0 column
        lambda v: np.insert(v[:, 1:].reshape(2, n_dirs, len(ts)), i0, v[:, :1], axis=2),
        kind="landscape1d", model=m.name, seed=seed, n_directions=n_dirs,
        frozen_blocks=sorted({int(i) for i in frozen}), grid=_grid(t_grid)))


def landscape_2d(m: NeuralPotential, d: Dataset, t1_grid=None, t2_grid=None,
                 seed: int = 0, frozen=()) -> Surface2D:
    """Losses over the plane spanned by an orthogonalized direction pair."""
    t1_grid = DEFAULT_T_GRID if t1_grid is None else np.asarray(t1_grid, dtype=float)
    t2_grid = DEFAULT_T_GRID if t2_grid is None else np.asarray(t2_grid, dtype=float)
    if not np.any(t1_grid == 0.0) or not np.any(t2_grid == 0.0):
        raise ValueError("both grids must contain 0")
    free, raw = _directions(m, frozen, seed, 2)
    theta = m.params
    d1, d2 = orthogonalize_pair(*raw, theta, free)
    points = [theta + t1 * d1.values + t2 * d2.values for t1 in t1_grid for t2 in t2_grid]
    return Surface2D(t1_grid, t2_grid, *_scan(
        m, d, points, lambda v: v.reshape(2, len(t1_grid), len(t2_grid)),
        kind="landscape2d", model=m.name, seed=seed,
        frozen_blocks=sorted({int(i) for i in frozen}), grid1=_grid(t1_grid),
        grid2=_grid(t2_grid), orthogonalized_before_normalization=True))


def interpolate_models(mA: NeuralPotential, mB: NeuralPotential, d: Dataset,
                       t_grid=None) -> LandscapeProfile:
    """Losses along the straight segment (1 - t) * thetaA + t * thetaB.

    Every point is evaluated with mA's descriptor and rescale, so the models must
    share them and the architecture; a fixed basis's centers and widths too.
    """
    def evaluation(m):
        s = m.descriptor
        basis = () if s.trainable_basis else (s.centers.tolist(), s.widths.tolist())
        return (m.hidden_layers, m.rescale.effective(), s.n_radial, s.cutoff,
                s.trainable_basis, basis)

    if evaluation(mA) != evaluation(mB):
        raise ValueError("models must share architecture, descriptor and rescale")
    t_grid = DEFAULT_INTERP_GRID if t_grid is None else np.asarray(t_grid, dtype=float)
    a, b = mA.params, mB.params
    return LandscapeProfile(t_grid, *_scan(
        mA, d, [(1.0 - t) * a + t * b for t in t_grid], lambda v: v.reshape(2, 1, -1),
        kind="interpolation", model=f"{mA.name}->{mB.name}", seed=None, n_directions=1,
        frozen_blocks=[], grid=_grid(t_grid)))


def check_weight(w: float):
    """Raise ValueError unless the loss weight ``w`` is finite and >= 0."""
    if not 0.0 <= w < np.inf:
        raise ValueError(f"weights must be finite and >= 0, got {w}")


def reweight_surface(s: Surface2D, w_E: float, w_F: float) -> np.ndarray:
    """Pointwise w_E * loss_E + w_F * loss_F; no model re-evaluation."""
    check_weight(w_E)
    check_weight(w_F)
    return w_E * s.loss_E + w_F * s.loss_F


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

PROFILE_COLUMNS = ("direction", "t", "loss_energy_mev_per_atom", "loss_force_mev_per_ang")
SURFACE_COLUMNS = ("t1", "t2", "loss_energy", "loss_force")


def write_profile_csv(profile: LandscapeProfile, path) -> None:
    write_csv(path, PROFILE_COLUMNS,
              [(n, t, profile.loss_E[n, i], profile.loss_F[n, i])
               for n in range(profile.n_directions) for i, t in enumerate(profile.t_grid)])
    write_json(profile.metadata, str(path) + ".meta.json")


def read_profile_csv(path) -> LandscapeProfile:
    """The profile that ``write_profile_csv`` wrote; a row without exactly four
    fields, a second row for a (direction, t) cell, a missing cell, or directions
    other than 0..n-1 raise ValueError."""
    cells = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != PROFILE_COLUMNS:
            raise ValueError(f"unexpected profile header in {path}")
        for rec in reader:
            where = f"{path} line {reader.line_num}"
            if len(rec) != len(PROFILE_COLUMNS):
                raise ValueError(f"{where}: {len(rec)} fields, expected {len(PROFILE_COLUMNS)}")
            cell = int(rec[0]), float(rec[1])
            if cell in cells:
                raise ValueError(f"{where}: second row for direction {cell[0]} at t = {cell[1]!r}")
            cells[cell] = float(rec[2]), float(rec[3])
    dirs = sorted({n for n, _ in cells})
    if dirs != list(range(len(dirs))):
        raise ValueError(f"{path}: directions {dirs} are not 0..{len(dirs) - 1}")
    ts = sorted({t for _, t in cells})
    for n in dirs:
        for t in ts:
            if (n, t) not in cells:
                raise ValueError(f"{path}: no row for direction {n} at t = {t!r}")
    tindex = {t: i for i, t in enumerate(ts)}
    loss_E = np.full((len(dirs), len(ts)), np.nan)
    loss_F = np.full((len(dirs), len(ts)), np.nan)
    for (n, t), (le, lf) in cells.items():
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
    header = SURFACE_COLUMNS
    columns = [*np.meshgrid(surface.t1_grid, surface.t2_grid, indexing="ij"),
               surface.loss_E, surface.loss_F]
    if combined is not None:
        header += ("combined",)
        columns.append(combined)
    write_csv(path, header, zip(*(np.asarray(c, dtype=float).ravel() for c in columns)))
    write_json(surface.metadata, str(path) + ".meta.json")
