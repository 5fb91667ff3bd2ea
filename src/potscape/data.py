"""Atomistic datasets: extended-XYZ I/O, label corruption, statistics, splits.

Units throughout: positions in Angstrom, energies in eV, forces in eV/Angstrom.
Per-atom energy statistics are reported in meV/atom.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .geometry import SingularGeometryError
from .seeding import substream


class ExtxyzError(ValueError):
    """Malformed extended-XYZ content; message carries the frame index."""


@dataclass
class Configuration:
    """One atomistic frame with optional reference labels."""

    positions: np.ndarray           # (N, 3) Angstrom
    species: list[str]
    energy: float | None = None    # total energy, eV
    forces: np.ndarray | None = None  # (N, 3) eV/A
    cell: np.ndarray | None = None    # (3, 3) lattice rows, Angstrom
    pbc: np.ndarray | None = None     # (3,) bool
    temperature_tag: float | None = None  # sampling temperature, K

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must be (N, 3)")
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite position component")
        n = len(self.positions)
        if len(self.species) != n:
            raise ValueError("species count does not match positions")
        if self.forces is not None:
            self.forces = np.asarray(self.forces, dtype=float)
            if self.forces.shape != (n, 3):
                raise ValueError("forces shape does not match positions")
            if not np.all(np.isfinite(self.forces)):
                raise ValueError("non-finite force component")
        if self.energy is not None:
            self.energy = float(self.energy)
            if not math.isfinite(self.energy):
                raise ValueError("non-finite energy")
        if self.cell is not None:
            self.cell = np.asarray(self.cell, dtype=float)
            if self.cell.shape != (3, 3):
                raise ValueError("cell must be 3x3")
            if self.pbc is None:
                self.pbc = np.array([True, True, True])
            self.pbc = np.asarray(self.pbc, dtype=bool)
            if self.pbc.shape != (3,):
                raise ValueError("pbc needs 3 flags")
            if np.any(self.pbc) and abs(np.linalg.det(self.cell)) < 1e-12:
                raise ValueError("periodic cell is singular")

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def copy(self) -> "Configuration":
        return Configuration(
            positions=self.positions.copy(),
            species=list(self.species),
            energy=self.energy,
            forces=None if self.forces is None else self.forces.copy(),
            cell=None if self.cell is None else self.cell.copy(),
            pbc=None if self.pbc is None else self.pbc.copy(),
            temperature_tag=self.temperature_tag,
        )


@dataclass
class Dataset:
    """Ordered collection of configurations plus label-noise scales.

    ``sigma_dft_energy`` (meV/atom) and ``sigma_dft_force`` (eV/A) are the
    population standard deviations of the per-atom energies and of the pooled
    force components, recomputed from the contained labels at construction.
    """

    configurations: list[Configuration]
    name: str = "dataset"
    sigma_dft_energy: float | None = field(default=None, init=False)
    sigma_dft_force: float | None = field(default=None, init=False)

    def __post_init__(self):
        if not self.configurations:
            raise ValueError("dataset must be nonempty")
        e = [c.energy / c.n_atoms for c in self.configurations if c.energy is not None]
        if e:
            self.sigma_dft_energy = float(np.std(e)) * 1000.0  # eV/atom -> meV/atom
        f = [c.forces.ravel() for c in self.configurations if c.forces is not None]
        if f:
            self.sigma_dft_force = float(np.std(np.concatenate(f)))

    def __len__(self) -> int:
        return len(self.configurations)

    def __iter__(self):
        return iter(self.configurations)

    def __getitem__(self, i) -> Configuration:
        return self.configurations[i]


def check_sigmas(sigmas):
    """Raise ValueError unless each noise level in ``sigmas`` is finite and >= 0."""
    if bad := [s for s in sigmas if not 0.0 <= s < np.inf]:
        raise ValueError(f"noise levels must be finite and >= 0, got {bad[0]}")


@dataclass(frozen=True)
class NoiseSpec:
    """Dimensionless noise scale applied on top of the dataset's label spread."""

    sigma: float
    target: str = "forces"  # "energies" | "forces" | "both"
    seed: int = 0

    def __post_init__(self):
        check_sigmas([self.sigma])
        if self.target not in ("energies", "forces", "both"):
            raise ValueError(f"unknown noise target {self.target!r}")


# ---------------------------------------------------------------------------
# extended-XYZ
# ---------------------------------------------------------------------------

_DEFAULT_PROPERTIES = "species:S:1:pos:R:3"


# One comment-line item: a key, then ``=value``, ``="quoted value"`` (a missing closing
# quote runs to the end of the line) or nothing; the value is group 3, absent for a flag.
_ITEM = re.compile(r'\s*([^= \t]*)(?:=(")?((?(2)[^"]*|\S*))"?)?')


def _floats(text, what: str) -> np.ndarray:
    """A str, or a list of str, as float64; numpy parses each str with ``float()``."""
    try:
        return np.array(text, dtype=float)
    except ValueError:
        raise ValueError(f"non-numeric {what}") from None


def _frame(comment: str, rows: list[list[str]]) -> Configuration:
    """One frame from its comment line and its split atom lines; a fault raises ValueError.

    Declared columns other than species, pos and forces are skipped by width.  Of the
    atom-line faults, the first in atom order, then column order, is named.
    """
    items = {key: value for key, _, value in (m.groups("T") for m in _ITEM.finditer(comment))
             if key}   # a flag reads "T"
    spec = items.get("Properties", _DEFAULT_PROPERTIES)
    fields = spec.split(":")
    if len(fields) % 3:
        raise ValueError(f"malformed Properties string {spec!r}")
    try:
        widths = [int(w) for w in fields[2::3]]
        if min(widths) < 1:
            raise ValueError
    except ValueError:
        raise ValueError("bad column count in Properties") from None
    ends = list(itertools.accumulate(widths))
    columns = list(zip(fields[::3], [0] + ends, ends))   # (name, first, end) per property
    if "pos" not in fields[::3]:
        raise ValueError("Properties has no pos column")

    energy = float(_floats(items["energy"], "energy")) if "energy" in items else None
    cell = pbc = None
    if "Lattice" in items:
        cell = _floats(items["Lattice"].split(), "Lattice")
        if cell.size != 9:
            raise ValueError("Lattice needs 9 numbers")
        cell = cell.reshape(3, 3)
    if "pbc" in items:
        if cell is None:
            raise ValueError("pbc needs a Lattice")
        tokens = items["pbc"].split()
        if not set(tokens) <= {"T", "True", "1", "F", "False", "0"}:
            raise ValueError(f"pbc takes only T, True, 1, F, False and 0, got {items['pbc']!r}")
        pbc = np.array([t in ("T", "True", "1") for t in tokens])
    temperature = (float(_floats(items["temperature"], "temperature"))
                   if "temperature" in items else None)

    try:
        if min(map(len, rows)) < ends[-1]:
            raise ValueError
        values = {name: np.array([r[first:end] for r in rows], dtype=float)
                  for name, first, end in columns if name in ("pos", "forces")}
    except ValueError:
        for a, r in enumerate(rows):
            for name, first, end in columns:
                if end > len(r):
                    raise ValueError(f"atom line {a} has too few columns") from None
                if name in ("pos", "forces"):
                    _floats(r[first:end], f"{name} on atom line {a}")
        raise
    species = [r[first] for name, first, _ in columns if name == "species" for r in rows]
    return Configuration(values["pos"], species, energy=energy,
                         forces=values.get("forces"), cell=cell, pbc=pbc,
                         temperature_tag=temperature)


def parse_extxyz(text: str | bytes, name: str = "dataset") -> Dataset:
    """Parse extended-XYZ text into a Dataset.

    Recognized comment keys: ``energy``, ``Lattice``, ``Properties``, ``pbc``,
    ``temperature``.  Unknown keys and unreferenced atom-line columns are
    ignored.  Raises ExtxyzError with the offending frame index.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = text.splitlines()
    frames: list[Configuration] = []
    pos = 0
    try:
        while pos < len(lines):
            if not lines[pos].strip():
                pos += 1
                continue
            try:
                natoms = int(lines[pos])
            except ValueError:
                raise ValueError(f"malformed header {lines[pos]!r}") from None
            if natoms <= 0:
                raise ValueError("nonpositive atom count")
            if pos + 2 + natoms > len(lines):
                raise ValueError(f"truncated frame (expected {natoms} atoms)")
            frames.append(_frame(lines[pos + 1],
                                 [line.split() for line in lines[pos + 2:pos + 2 + natoms]]))
            pos += 2 + natoms
    except ValueError as exc:
        raise ExtxyzError(f"frame {len(frames)}: {exc}") from None
    if not frames:
        raise ExtxyzError("no frames found")
    return Dataset(frames, name=name)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_extxyz(d: Dataset) -> str:
    """Serialize a Dataset to extended-XYZ with 17 significant digits."""
    out: list[str] = []
    for c in d.configurations:
        out.append(str(c.n_atoms))
        parts = []
        if c.cell is not None:
            parts.append('Lattice="' + " ".join(_fmt(x) for x in c.cell.ravel()) + '"')
            parts.append('pbc="' + " ".join("T" if b else "F" for b in c.pbc) + '"')
        props = _DEFAULT_PROPERTIES + (":forces:R:3" if c.forces is not None else "")
        parts.append(f"Properties={props}")
        if c.energy is not None:
            parts.append(f"energy={_fmt(c.energy)}")
        if c.temperature_tag is not None:
            parts.append(f"temperature={_fmt(c.temperature_tag)}")
        out.append(" ".join(parts))
        for a in range(c.n_atoms):
            cols = [c.species[a]] + [_fmt(x) for x in c.positions[a]]
            if c.forces is not None:
                cols += [_fmt(x) for x in c.forces[a]]
            out.append(" ".join(cols))
    return "\n".join(out) + "\n"


def read_extxyz_file(path, name: str | None = None) -> Dataset:
    with open(path, "rb") as fh:
        return parse_extxyz(fh.read(), name=name or str(path))


def write_extxyz_file(d: Dataset, path) -> None:
    with open(path, "w") as fh:
        fh.write(write_extxyz(d))


# ---------------------------------------------------------------------------
# label corruption and statistics
# ---------------------------------------------------------------------------

def corrupt_labels(d: Dataset, spec: NoiseSpec) -> Dataset:
    """Return a new dataset with Gaussian noise added to the chosen labels.

    Energy noise on a configuration is drawn with standard deviation
    sigma * sigma_dft_energy * n_atoms (per-atom scale applied to the total);
    force noise is per component with standard deviation
    sigma * sigma_dft_force.  The input dataset is never mutated.
    """
    do_e = spec.target in ("energies", "both")
    do_f = spec.target in ("forces", "both")
    if do_e and d.sigma_dft_energy is None:
        raise ValueError("dataset has no energy labels to corrupt")
    if do_f and d.sigma_dft_force is None:
        raise ValueError("dataset has no force labels to corrupt")
    rng = np.random.default_rng(spec.seed)
    sig_e = (d.sigma_dft_energy or 0.0) / 1000.0  # meV/atom -> eV/atom
    sig_f = d.sigma_dft_force or 0.0
    out = []
    for c in d.configurations:
        c2 = c.copy()
        if do_e:
            if c.energy is None:
                raise ValueError("configuration without energy in energy-corruption target")
            g = rng.standard_normal()
            if spec.sigma > 0:
                c2.energy = c.energy + g * spec.sigma * sig_e * c.n_atoms
        if do_f:
            if c.forces is None:
                raise ValueError("configuration without forces in force-corruption target")
            g = rng.standard_normal(c.forces.shape)
            if spec.sigma > 0:
                c2.forces = c.forces + g * spec.sigma * sig_f
        out.append(c2)
    return Dataset(out, name=f"{d.name}+noise{spec.sigma:g}")


@dataclass(frozen=True)
class DatasetStats:
    n_configurations: int
    n_atoms_total: int
    energy_mean_mev_per_atom: float | None
    energy_std_mev_per_atom: float | None
    force_mean_ev_per_ang: float | None
    force_std_ev_per_ang: float | None
    counts_per_temperature: dict

    def to_dict(self) -> dict:
        return {
            "n_configurations": self.n_configurations,
            "n_atoms_total": self.n_atoms_total,
            "energy_mean_mev_per_atom": self.energy_mean_mev_per_atom,
            "energy_std_mev_per_atom": self.energy_std_mev_per_atom,
            "force_mean_ev_per_ang": self.force_mean_ev_per_ang,
            "force_std_ev_per_ang": self.force_std_ev_per_ang,
            "counts_per_temperature": {str(k): v for k, v in self.counts_per_temperature.items()},
        }


def dataset_stats(d: Dataset) -> DatasetStats:
    """Label distributions: per-atom energies (meV/atom), force components (eV/A); the
    standard deviations are the dataset's ``sigma_dft_energy`` and ``sigma_dft_force``."""
    e = [c.energy / c.n_atoms for c in d if c.energy is not None]
    f = [c.forces.ravel() for c in d if c.forces is not None]
    return DatasetStats(
        n_configurations=len(d),
        n_atoms_total=sum(c.n_atoms for c in d),
        energy_mean_mev_per_atom=float(np.mean(e)) * 1000.0 if e else None,
        energy_std_mev_per_atom=d.sigma_dft_energy,
        force_mean_ev_per_ang=float(np.mean(np.concatenate(f))) if f else None,
        force_std_ev_per_ang=d.sigma_dft_force,
        counts_per_temperature=dict(Counter(c.temperature_tag for c in d)),
    )


# ---------------------------------------------------------------------------
# synthetic reference data and temperature splits
# ---------------------------------------------------------------------------

def generate_reference_dataset(pot, n_atoms: int = 6,
                               temperatures: tuple[float, ...] = (300.0, 600.0, 1200.0),
                               frames_per_T: int = 100, seed: int = 0, *, species: str = "Ar",
                               timestep_fs: float = 1.0, tau_fs: float = 250.0,
                               stride: int = 50, burn_in_steps: int = 2000,
                               name: str | None = None) -> Dataset:
    """Sample decorrelated frames from thermostatted MD under a reference potential.

    One Berendsen chain per temperature, each with its own velocity stream,
    all integrated together as one batched state by the MD integrator; every
    ``stride``-th frame after ``burn_in_steps`` is kept and labeled with the
    exact reference energy/forces and its sampling temperature, chain after
    chain.  A chain whose atoms coincide raises SingularGeometryError, and one
    that goes non-finite raises MDNumericError.
    """
    from .md import MDConfig, MDNumericError, _integrate
    from .potentials import build_cluster

    if frames_per_T < 1 or stride < 1 or burn_in_steps < 0:
        raise ValueError("need frames_per_T >= 1, stride >= 1 and burn_in_steps >= 0")
    temperatures = [float(t) for t in temperatures]
    if not all(0.0 < t < math.inf for t in temperatures):
        raise ValueError("temperatures must be positive and finite")
    n_steps = burn_in_steps + stride * frames_per_T
    cfg = MDConfig(timestep_fs=timestep_fs, tau_fs=tau_fs,
                   total_time_ps=n_steps * timestep_fs / 1000.0)

    start = build_cluster(pot, n_atoms, seed=substream(seed, "cluster").integers(2**31))
    seeds = [substream(seed, "velocities", k).integers(2**31) for k in range(len(temperatures))]
    records, chains = _integrate(pot, Configuration(start, [species] * n_atoms), cfg, seeds,
                                 temperatures, frames=(burn_in_steps, stride))
    for T, record, chain in zip(temperatures, records, chains):
        if record.failed:
            step = round(record.time_to_failure * 1000.0 / timestep_fs)
            error = SingularGeometryError if record.cause == "collapse" else MDNumericError
            raise error(f"the {T:g} K chain failed ({record.cause}) at step {step}")
        for c in chain:
            c.temperature_tag = T
    frames = [c for chain in chains for c in chain]
    return Dataset(frames, name=name or f"synthetic-{n_atoms}atoms")


def split_by_temperature(d: Dataset, train_T: float, holdout_fraction: float = 0.1,
                         seed: int = 0):
    """Partition into a training split at ``train_T`` and per-temperature test splits.

    A seeded random fraction of the train_T frames is held out and returned in
    the test map under the train_T key.  The union of all outputs equals the
    input as a multiset.  A holdout fraction outside [0, 1) raises ValueError.
    """
    if not 0.0 <= holdout_fraction < 1.0:   # NaN fails too
        raise ValueError(f"holdout_fraction must lie in [0, 1), got {holdout_fraction!r}")
    tags = [c.temperature_tag for c in d]
    if train_T not in tags:
        raise ValueError(f"train temperature {train_T} not present in dataset tags")
    by_tag: dict[float, list[int]] = {}
    for idx, t in enumerate(tags):
        if t is None:
            raise ValueError("split requires temperature tags on every configuration")
        by_tag.setdefault(t, []).append(idx)

    train_idx = np.array(by_tag[train_T])
    rng = substream(seed, "split")
    perm = rng.permutation(len(train_idx))
    n_hold = int(round(holdout_fraction * len(train_idx)))
    hold = sorted(train_idx[perm[:n_hold]].tolist())
    keep = sorted(train_idx[perm[n_hold:]].tolist())
    if not keep:
        raise ValueError("holdout fraction leaves no training frames")

    train = Dataset([d[i] for i in keep], name=f"{d.name}-train{train_T:g}K")
    tests: dict[float, Dataset] = {}
    if hold:
        tests[train_T] = Dataset([d[i] for i in hold], name=f"{d.name}-held{train_T:g}K")
    for t in sorted(by_tag):
        if t == train_T:
            continue
        tests[t] = Dataset([d[i] for i in by_tag[t]], name=f"{d.name}-test{t:g}K")
    return train, tests
