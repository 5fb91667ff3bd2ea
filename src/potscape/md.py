"""NVT molecular dynamics with a Berendsen thermostat and bond-rupture detection.

Internal units: Angstrom, eV, fs, amu.  A trajectory "fails" the first time a
bonded pair stretches strictly beyond the failure length (or a force goes
non-finite); the ensemble summary reports time-to-failure statistics.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .data import Configuration
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
        if min(self.temperature, self.timestep_fs, self.tau_fs,
               self.total_time_ps, self.failure_bond_length) <= 0:
            raise ValueError("MD parameters must be positive")
        if self.n_trajectories < 1 or self.trace_interval < 1:
            raise ValueError("n_trajectories and trace_interval must be >= 1")


@dataclass
class MDState:
    positions: np.ndarray
    velocities: np.ndarray   # A/fs
    forces: np.ndarray       # eV/A
    potential_energy: float
    species: list[str]
    step: int = 0

    @property
    def masses(self) -> np.ndarray:
        return masses_for(self.species)


def kinetic_energy(velocities, masses) -> float:
    return 0.5 * float(np.sum(masses[:, None] * velocities**2)) * EV_PER_AMU_A2_FS2


def instantaneous_temperature(velocities, masses) -> float:
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


def berendsen_lambda(dt: float, tau: float, target_T: float, inst_T: float) -> float:
    """Velocity rescale factor sqrt(1 + (dt/tau)(T0/T - 1)), clamped to [0.9, 1.1]."""
    if not math.isfinite(tau):
        return 1.0
    lam = math.sqrt(max(1.0 + (dt / tau) * (target_T / inst_T - 1.0), 0.0))
    return min(max(lam, 0.9), 1.1)


def md_step(state: MDState, model, cfg: MDConfig) -> MDState:
    """One velocity-Verlet step followed by the Berendsen velocity rescale."""
    m = state.masses
    dt = cfg.timestep_fs
    acc = state.forces / m[:, None] / EV_PER_AMU_A2_FS2
    v_half = state.velocities + 0.5 * dt * acc
    pos = state.positions + dt * v_half
    if not np.all(np.isfinite(pos)):
        raise MDNumericError(f"non-finite positions at step {state.step + 1}")
    out = model.energy_forces(pos)
    energy, forces = out[0], out[1]
    if not (np.all(np.isfinite(forces)) and np.isfinite(energy)):
        raise MDNumericError(f"non-finite forces at step {state.step + 1}")
    v = v_half + 0.5 * dt * forces / m[:, None] / EV_PER_AMU_A2_FS2
    if math.isfinite(cfg.tau_fs):
        t_inst = instantaneous_temperature(v, m)
        if t_inst > 0.0:
            lam = berendsen_lambda(dt, cfg.tau_fs, cfg.temperature, t_inst)
            if lam != 1.0:
                v = v * lam
    return MDState(pos, v, forces, float(energy), state.species, state.step + 1)


def infer_bond_list(positions, factor: float = 1.2) -> tuple:
    """Pairs within ``factor`` times the nearest-neighbor distance of the geometry."""
    pos = np.asarray(positions, dtype=float)
    d = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    rmin = d.min()
    ii, jj = np.nonzero(np.triu(d <= factor * rmin, k=1))
    return tuple((int(i), int(j)) for i, j in zip(ii, jj))


def detect_failure(c: Configuration, cfg: MDConfig):
    """First bonded pair strictly beyond the failure length, or None."""
    if not cfg.bond_list:
        raise ValueError("bond_list is empty")
    return _check_bonds(c.positions, np.array(cfg.bond_list), cfg.failure_bond_length)


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
    cause: str | None = None         # "bond" | "numeric" | None

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


def run_trajectory(model, start: Configuration, cfg: MDConfig, velocity_seed: int,
                   dump_path=None):
    """Integrate one trajectory; failure is checked after every step.

    With ``cfg.dump_interval`` set and a ``dump_path``, every k-th frame is
    written to an extended-XYZ file at the end of the run.
    """
    bonds = np.array(cfg.bond_list or infer_bond_list(start.positions))
    n_steps = int(round(cfg.total_time_ps * 1000.0 / cfg.timestep_fs))
    vel = init_velocities(start, cfg.temperature, seed=velocity_seed)
    out = model.energy_forces(start.positions)
    state = MDState(start.positions.copy(), vel, out[1], float(out[0]),
                    list(start.species))
    masses = state.masses
    trace = []
    dump_frames = []

    def _dump(step):
        if dump_path is not None and cfg.dump_interval and step % cfg.dump_interval == 0:
            dump_frames.append(Configuration(
                state.positions.copy(), list(state.species),
                energy=state.potential_energy, forces=state.forces.copy()))

    def _finish(record):
        if dump_frames:
            from .data import Dataset, write_extxyz_file
            write_extxyz_file(Dataset(dump_frames, name=str(dump_path)), dump_path)
        return record

    for step in range(1, n_steps + 1):
        try:
            state = md_step(state, model, cfg)
        except MDNumericError:
            return _finish(TrajectoryRecord(step * cfg.timestep_fs / 1000.0, True, None,
                                            trace, velocity_seed, cause="numeric"))
        if step % cfg.trace_interval == 0:
            trace.append(instantaneous_temperature(state.velocities, masses))
        _dump(step)
        hit = _check_bonds(state.positions, bonds, cfg.failure_bond_length)
        if hit is not None:
            return _finish(TrajectoryRecord(step * cfg.timestep_fs / 1000.0, True, hit[0],
                                            trace, velocity_seed, cause="bond"))
    return _finish(TrajectoryRecord(cfg.total_time_ps, False, None, trace, velocity_seed))


def run_ensemble(model, start: Configuration, cfg: MDConfig, dump_dir=None):
    """Independent trajectories differing only in the velocity seed.

    Records are ordered by trajectory index.
    """
    def one(k):
        seed_k = int(substream(cfg.seed, "velocities", k).integers(2**31))
        dump_path = None
        if dump_dir is not None and cfg.dump_interval:
            from pathlib import Path
            dump_path = Path(dump_dir) / f"trajectory_{k:03d}.extxyz"
        return run_trajectory(model, start, cfg, seed_k, dump_path=dump_path)

    records = [one(k) for k in range(cfg.n_trajectories)]
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
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def write_summary_csv(rows, path) -> None:
    """rows: list of (model_name, EnsembleSummary)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_COLUMNS)
        for name, s in rows:
            writer.writerow([name] + [repr(float(x)) for x in
                                      (s.mean_ttf, s.std_ttf, s.median_ttf, s.q1_ttf, s.q3_ttf)]
                            + [s.n_failed])
