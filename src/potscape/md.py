"""NVT molecular dynamics with a Berendsen thermostat and bond-rupture detection.

Internal units: Angstrom, eV, fs, amu.  A trajectory "fails" the first time a
bonded pair stretches strictly beyond the failure length, two atoms coincide,
or a position, energy or force goes non-finite; the ensemble summary reports
time-to-failure statistics.  ``_integrate`` is the one MD loop: MD ensembles
and the temperature chains of reference-data generation alike are integrated
as one (B, N, 3) state, stepped by ``md_step``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated

import numpy as np

from .artifacts import write_csv, write_json
from .data import Configuration, Dataset, write_extxyz_file
from .geometry import SingularGeometryError, pair_table
from .model import NumericEvalError
from .potentials import KB_EV_PER_K
from .seeding import substream

# 1 amu * A^2 / fs^2 in eV; divides kinetic energy, multiplies acceleration.
EV_PER_AMU_A2_FS2 = 103.642696562

ATOMIC_MASSES = {
    "H": 1.008, "He": 4.0026, "Li": 6.94, "Be": 9.0122, "B": 10.81, "C": 12.011,
    "N": 14.007, "O": 15.999, "F": 18.998, "Ne": 20.180, "Na": 22.990, "Mg": 24.305,
    "Al": 26.982, "Si": 28.085, "P": 30.974, "S": 32.06, "Cl": 35.45, "Ar": 39.948,
    "K": 39.098, "Ca": 40.078, "Ti": 47.867, "Fe": 55.845, "Ni": 58.693,
    "Cu": 63.546, "Zn": 65.38, "Ag": 107.87, "Au": 196.97,
}


class MDNumericError(ArithmeticError):
    """Non-finite forces or positions during integration."""


def masses_for(species) -> np.ndarray:
    try:
        return np.array([ATOMIC_MASSES[s] for s in species])
    except KeyError as exc:
        raise ValueError(f"unknown species {exc.args[0]!r}") from None


@dataclass
class MDConfig:
    temperature: float = 1600.0        # K
    timestep_fs: float = 1.0
    tau_fs: float = 250.0              # Berendsen time constant; inf disables
    total_time_ps: float = 6.0
    n_trajectories: int = 30
    failure_bond_length: float = 2.0   # A
    bond_list: tuple = ()              # pairs of atom indices; inferred if empty
    seed: int = 0
    trace_interval: int = 10           # steps between temperature-trace samples
    dump_interval: int | None = None   # extended-XYZ dump cadence, if set

    def __post_init__(self):
        if not all(0.0 < x < math.inf for x in (self.temperature, self.timestep_fs,
                                                 self.total_time_ps, self.failure_bond_length)):
            raise ValueError("temperature, timestep_fs, total_time_ps and failure_bond_length "
                             "must be positive and finite")
        if not self.tau_fs > 0.0:
            raise ValueError("tau_fs must be positive, or inf for no thermostat")
        if self.n_trajectories < 1 or self.trace_interval < 1:
            raise ValueError("n_trajectories and trace_interval must be >= 1")
        if self.dump_interval is not None and self.dump_interval < 1:
            raise ValueError("dump_interval must be >= 1, or None for no dumps")


def kinetic_energy(velocities, masses):
    """Kinetic energy (eV) of one (N, 3) velocity array, or of each of B (B, N, 3)."""
    mv2 = (masses[:, None] * velocities**2).reshape(velocities.shape[:-2] + (3 * len(masses),))
    return 0.5 * np.add.reduce(mv2, axis=-1) * EV_PER_AMU_A2_FS2


def instantaneous_temperature(velocities, masses):
    dof = 3 * len(masses) - 3  # COM momentum removed
    if dof <= 0:
        raise ValueError("temperature undefined for a single atom")
    return 2.0 * kinetic_energy(velocities, masses) / (dof * KB_EV_PER_K)


def init_velocities(c: Configuration, T: float, seed: int = 0) -> np.ndarray:
    """Maxwell-Boltzmann draw with zero total momentum, rescaled to T exactly."""
    if c.n_atoms < 2:
        raise ValueError("temperature undefined for a single atom")
    masses = masses_for(c.species)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((c.n_atoms, 3)) * \
        np.sqrt(KB_EV_PER_K * T / (masses[:, None] * EV_PER_AMU_A2_FS2))
    v -= np.sum(masses[:, None] * v, axis=0) / masses.sum()
    t_now = instantaneous_temperature(v, masses)
    return v * math.sqrt(T / t_now)


def berendsen_lambda(dt: float, tau: float, target_T, inst_T):
    """Velocity rescale factor sqrt(1 + (dt/tau)(T0/T - 1)), clamped to [0.9, 1.1].

    Elementwise over arrays of target and instantaneous temperatures, with the
    IEEE operations of the scalar formula.  A state at T <= 0 has nothing to
    rescale and gets 1.
    """
    if not math.isfinite(tau):
        return 1.0
    inst_T = np.where(inst_T > 0.0, inst_T, target_T)
    lam = np.sqrt(np.maximum(1.0 + (dt / tau) * (target_T / inst_T - 1.0), 0.0))
    return np.minimum(np.maximum(lam, 0.9), 1.1)


def _drop(rows, arrays):
    """The arrays without the given rows."""
    keep = np.ones(len(arrays[0]), dtype=bool)
    keep[list(rows)] = False
    return [a[keep] for a in arrays]


def md_step(model, state, masses, cfg: MDConfig):
    """One velocity-Verlet step of B members, each thermostatted toward its own target.

    ``state`` is ``(members, targets, positions, velocities, forces, energies)``
    with one row per live member.  The step drifts, evaluates the members as
    one batch (``_evaluate``), drops those whose positions, energy or forces are
    not finite ("numeric") or whose atoms coincide ("collapse"), and kicks the
    rest.  Returns the new state and {member: (cause, None)} for those dropped.

    Every operation acts on each member alone, in a fixed order: the first
    half kick adds ``0.5*dt * (F/m/c)`` and the second ``(0.5*dt*F)/m/c``, and
    a member's kinetic energy sums ``m*v**2`` over its 3N components in atom
    order.  So a member's trajectory keeps its bits whatever batch it is in.
    Only the first half kick, the drift and the position screen ignore
    overflow and invalid operations; the model, the second half kick and the
    thermostat run under the caller's errstate.
    """
    members, targets, pos, vel, forces, _ = state
    dt, m = cfg.timestep_fs, masses[:, None]
    with np.errstate(over="ignore", invalid="ignore"):   # overflow is caught below
        vel = vel + 0.5 * dt * (forces / m / EV_PER_AMU_A2_FS2)   # half kick, then drift
        pos = pos + dt * vel
        screen = np.add.reduce(pos, axis=None)   # finite when every position is; else by row
    failed = {}
    if not math.isfinite(screen):
        rows = np.flatnonzero(~np.isfinite(pos).all(axis=(1, 2)))
        failed = {int(members[row]): ("numeric", None) for row in rows}
        members, targets, pos, vel = _drop(rows, (members, targets, pos, vel))
    energy, forces, lost = _evaluate(model, pos)
    if lost:
        failed.update((int(members[row]), cause) for row, cause in lost.items())
        members, targets, pos, vel = _drop(lost, (members, targets, pos, vel))
    vel = vel + 0.5 * dt * forces / m / EV_PER_AMU_A2_FS2   # second half kick
    if math.isfinite(cfg.tau_fs):
        lam = berendsen_lambda(dt, cfg.tau_fs, targets, instantaneous_temperature(vel, masses))
        vel = vel * lam[:, None, None]
    return (members, targets, pos, vel, forces, energy), failed


def check_bond_factor(factor: float):
    """Raise ValueError unless ``factor`` lies in [1, inf): a smaller one leaves no bond."""
    if not 1.0 <= factor < math.inf:
        raise ValueError(f"bond factor must lie in [1, inf), got {factor}")


def infer_bond_list(positions, bond_factor: Annotated[float, check_bond_factor] = 1.2) -> tuple:
    """Pairs within ``bond_factor`` times the nearest-neighbor distance of the geometry;
    coincident atoms and non-finite positions raise, as in ``pair_table``, and so
    does a factor that ``check_bond_factor`` rejects."""
    check_bond_factor(bond_factor)
    pt = pair_table(positions, np.inf)
    bonded = (pt.i < pt.j) & (pt.r <= bond_factor * pt.r.min(initial=np.inf))
    return tuple(zip(pt.i[bonded].tolist(), pt.j[bonded].tolist()))


def _check_bonds(positions, bonds, threshold):
    """First bond of the (n, 2) index array beyond threshold, as ((i, j), dist), or None.

    Squared lengths only screen; bonds near the threshold or beyond are measured
    one at a time, in order, so the verdict does not depend on array rounding.
    """
    d = positions[bonds[:, 1]] - positions[bonds[:, 0]]
    near = ~(np.einsum("ij,ij->i", d, d) <= (threshold * (1.0 - 1e-9)) ** 2)
    for k in np.flatnonzero(near):
        dist = float(np.linalg.norm(d[k]))
        if not dist <= threshold:   # a NaN distance fails too
            return (int(bonds[k, 0]), int(bonds[k, 1])), dist
    return None


@dataclass
class TrajectoryRecord:
    time_to_failure: float           # ps; equals total time when no failure
    failed: bool
    failure_pair: tuple | None
    temperature_trace: list
    seed: int
    cause: str | None = None         # "bond" | "numeric" | "collapse" | None

    def to_dict(self) -> dict:
        return {
            "time_to_failure_ps": self.time_to_failure,
            "failed": self.failed,
            "failure_pair": list(self.failure_pair) if self.failure_pair else None,
            "temperature_trace": self.temperature_trace,
            "seed": self.seed,
            "cause": self.cause,
        }


@dataclass
class EnsembleSummary:
    mean_ttf: float
    std_ttf: float
    median_ttf: float
    q1_ttf: float
    q3_ttf: float
    n_failed: int
    n_trajectories: int

    def to_dict(self) -> dict:
        return {
            "mean_ttf_ps": self.mean_ttf, "std_ttf_ps": self.std_ttf,
            "median_ttf_ps": self.median_ttf, "q1_ttf_ps": self.q1_ttf,
            "q3_ttf_ps": self.q3_ttf, "n_failed": self.n_failed,
            "n_trajectories": self.n_trajectories,
        }


def _evaluate(model, positions):
    """Energies and forces of the B states' rows that evaluate, in order, and
    {row: (cause, None)} for the others.

    ``model.energy_forces_batch`` evaluates the rows as one batch.  When it
    raises SingularGeometryError ("collapse") or NumericEvalError ("numeric"),
    the frames that the exception names are dropped and the rest evaluated
    again, until a call succeeds or no row is left; an exception naming no
    frame propagates.  A batch's frames equal their own evaluations bit for
    bit, so the dropped rows do not change the others.  A row with a
    non-finite energy or force is "numeric" too.
    """
    rows, batch, failed = None, positions, {}   # rows: the batch's rows, once one is dropped
    while len(batch):
        try:
            energy, forces = model.energy_forces_batch(batch)[:2]
            break
        except (SingularGeometryError, NumericEvalError) as exc:
            if not exc.frames:
                raise
            cause = "collapse" if isinstance(exc, SingularGeometryError) else "numeric"
            rows = np.arange(len(positions)) if rows is None else rows
            failed.update((int(rows[f]), (cause, None)) for f in exc.frames)
            rows = np.delete(rows, exc.frames)
            batch = positions[rows]
    else:
        return np.zeros(0), positions[:0], failed
    # one reduction of isfinite per array: a sum could overflow and warn
    if not (np.logical_and.reduce(np.isfinite(forces), axis=None)
            and np.logical_and.reduce(np.isfinite(energy))):
        bad = ~(np.isfinite(forces).all(axis=(1, 2)) & np.isfinite(energy))
        rows = np.arange(len(positions)) if rows is None else rows
        failed.update((int(row), ("numeric", None)) for row in rows[bad])
        energy, forces = energy[~bad], forces[~bad]
    return energy, forces, failed


def _integrate(model, start: Configuration, cfg: MDConfig, seeds, targets, bonds=(),
               frames=None):
    """One member per velocity seed and target temperature, integrated as one (B, N, 3) state.

    A member fails at the first step where ``md_step`` drops it ("numeric" or
    "collapse") or one of ``bonds`` stretches beyond the failure length
    ("bond"); it is recorded and the others go on.  Every array operation acts
    on each member alone, so a member's record does not depend on the others.
    ``frames = (s0, k)`` keeps every k-th step after step s0 of each member as
    a labelled Configuration.  Returns the records and each member's frames.
    A bond that is not a pair of distinct atom indices of ``start`` raises ValueError.
    """
    n_atoms = len(start.positions)
    for pair in bonds:
        if np.ndim(pair) != 1 or len(pair) != 2 or pair[0] == pair[1] or not all(
                isinstance(i, (int, np.integer)) and not isinstance(i, bool) and 0 <= i < n_atoms
                for i in pair):
            raise ValueError(f"bond_list entry {pair!r} is not a pair of distinct atom "
                             f"indices in 0..{n_atoms - 1}")
    bonds, threshold = np.array(bonds, dtype=int).reshape(-1, 2), cfg.failure_bond_length
    lo, hi = bonds.T
    limit = (threshold * (1.0 - 1e-9)) ** 2   # squared lengths below it pass unmeasured
    n_steps = int(round(cfg.total_time_ps * 1000.0 / cfg.timestep_fs))
    masses = masses_for(start.species)
    vel = np.stack([init_velocities(start, t, seed=s) for s, t in zip(seeds, targets)])
    out = model.energy_forces(start.positions)
    state = (np.arange(len(seeds)), np.array(targets, dtype=float),
             np.broadcast_to(start.positions, vel.shape).copy(), vel,
             np.broadcast_to(out[1], vel.shape).copy(), np.full(len(seeds), float(out[0])))
    traces = [[] for _ in seeds]
    kept = [[] for _ in seeds]
    records = [None] * len(seeds)

    def finish(k, step, cause=None, pair=None):
        ttf = cfg.total_time_ps if cause is None else step * cfg.timestep_fs / 1000.0
        records[k] = TrajectoryRecord(ttf, cause is not None, pair, traces[k], seeds[k],
                                      cause=cause)

    for step in range(1, n_steps + 1):
        state, failed = md_step(model, state, masses, cfg)
        for k, hit in failed.items():
            finish(k, step, *hit)
        members, _, pos, vel, forces, energy = state
        if step % cfg.trace_interval == 0:
            for k, t in zip(members.tolist(), instantaneous_temperature(vel, masses).tolist()):
                traces[k].append(t)
        if frames and step > frames[0] and (step - frames[0]) % frames[1] == 0:
            for row, k in enumerate(members):
                kept[k].append(Configuration(pos[row].copy(), list(start.species),
                                             energy=float(energy[row]),
                                             forces=forces[row].copy()))
        if len(bonds):
            # squared lengths screen every member; _check_bonds gives the exact verdict
            d = pos[:, hi] - pos[:, lo]
            sq = np.einsum("bij,bij->bi", d, d)
            if not np.maximum.reduce(sq, axis=None, initial=0.0) <= limit:   # some bond is near
                hits = ((row, _check_bonds(pos[row], bonds, threshold))
                        for row in np.flatnonzero(~(sq <= limit).all(axis=1)))
                failed = {row: hit[0] for row, hit in hits if hit is not None}
                for row, pair in failed.items():
                    finish(members[row], step, "bond", pair)
                if failed:
                    state = _drop(failed, state)
        if not len(state[0]):
            break
    for k in state[0]:
        finish(k, n_steps)
    return records, kept


def _run(model, start: Configuration, cfg: MDConfig, seeds, dump_paths):
    """Records of one trajectory per velocity seed; each writes its dump path, if any."""
    dump = dump_paths is not None and cfg.dump_interval
    records, frames = _integrate(model, start, cfg, seeds, [cfg.temperature] * len(seeds),
                                 cfg.bond_list or infer_bond_list(start.positions),
                                 (0, cfg.dump_interval) if dump else None)
    for kept, path in zip(frames, dump_paths or ()):
        if kept:
            write_extxyz_file(Dataset(kept, name=str(path)), path)
    return records


def run_trajectory(model, start: Configuration, cfg: MDConfig, velocity_seed: int,
                   dump_path=None):
    """Integrate one trajectory; failure is checked after every step.

    With ``cfg.dump_interval`` set and a ``dump_path``, every k-th frame is
    written to an extended-XYZ file at the end of the run.
    """
    return _run(model, start, cfg, [velocity_seed],
                None if dump_path is None else [dump_path])[0]


def run_ensemble(model, start: Configuration, cfg: MDConfig, dump_dir=None):
    """Independent trajectories differing only in the velocity seed, integrated together.

    Records are ordered by trajectory index; each equals ``run_trajectory`` of
    that index's seed.  With ``cfg.dump_interval`` set and a ``dump_dir``,
    trajectory k writes every ``dump_interval``-th frame to
    ``trajectory_{k:03d}.extxyz``.
    """
    seeds = [int(substream(cfg.seed, "velocities", k).integers(2**31))
             for k in range(cfg.n_trajectories)]
    paths = None if dump_dir is None else [Path(dump_dir) / f"trajectory_{k:03d}.extxyz"
                                           for k in range(len(seeds))]
    records = _run(model, start, cfg, seeds, paths)
    ttf = np.array([r.time_to_failure for r in records])
    summary = EnsembleSummary(
        mean_ttf=float(np.mean(ttf)),
        std_ttf=float(np.std(ttf)),  # population std; 0 for a single trajectory
        median_ttf=float(np.median(ttf)),
        q1_ttf=float(np.percentile(ttf, 25)),
        q3_ttf=float(np.percentile(ttf, 75)),
        n_failed=int(sum(r.failed for r in records)),
        n_trajectories=cfg.n_trajectories,
    )
    return records, summary


SUMMARY_COLUMNS = ("model", "mean_ttf_ps", "std_ttf_ps", "median", "q1", "q3", "n_failed")


def write_ensemble_json(records, summary, cfg: MDConfig, path, model_name="model") -> None:
    doc = {
        "model": model_name,
        "config": {
            "temperature_K": cfg.temperature, "timestep_fs": cfg.timestep_fs,
            "tau_fs": cfg.tau_fs, "total_time_ps": cfg.total_time_ps,
            "n_trajectories": cfg.n_trajectories,
            "failure_bond_length_ang": cfg.failure_bond_length,
            "bond_list": [list(p) for p in cfg.bond_list],
            "seed": cfg.seed, "trace_interval": cfg.trace_interval,
        },
        "records": [r.to_dict() for r in records],
        "summary": summary.to_dict(),
    }
    write_json(doc, path)


def write_summary_csv(rows, path) -> None:
    """rows: list of (model_name, EnsembleSummary)."""
    write_csv(path, SUMMARY_COLUMNS,
              [[name] + [float(x) for x in (s.mean_ttf, s.std_ttf, s.median_ttf, s.q1_ttf,
                                            s.q3_ttf)] + [s.n_failed] for name, s in rows])
