"""Analytic pair potentials used as ground truth for synthetic experiments."""

from dataclasses import dataclass

import numpy as np

from .geometry import pair_table, scatter_add

KB_EV_PER_K = 8.617333262e-5  # Boltzmann constant, eV/K


def quintic_switch(x):
    """C2 step from 1 at x=0 to 0 at x=1; value and derivative w.r.t. x."""
    x = np.asarray(x, dtype=float)
    s = 1.0 - x**3 * (10.0 - 15.0 * x + 6.0 * x**2)
    ds = -30.0 * x**2 * (1.0 - x) ** 2
    return s, ds


def _switched(v, dv, r, r_on, cutoff):
    """Apply the smooth switch to raw pair energies/derivatives on [r_on, cutoff].

    Only the distances beyond r_on are touched; ``v`` and ``dv`` are updated in place.
    """
    if np.maximum.reduce(r, initial=-np.inf) > r_on:   # some pairs switched or cut off
        out = r > r_on
        ro = r[out]
        s, ds = quintic_switch(np.clip((ro - r_on) / (cutoff - r_on), 0.0, 1.0))
        ds = ds / (cutoff - r_on)
        beyond = ro >= cutoff
        vo = v[out]
        v[out] = np.where(beyond, 0.0, vo * s)
        dv[out] = np.where(beyond, 0.0, dv[out] * s + vo * ds)
    return v, dv


class _PairPotential:
    """Shared pairwise-sum machinery; subclasses provide raw V(r), V'(r)."""

    def pair_energy_deriv(self, r):
        """Switched pair energies and their derivatives at an array of distances."""
        r = np.asarray(r, dtype=float)
        v, dv = self._raw(r)
        return _switched(v, dv, r, self.switch_start, self.cutoff)

    def energy_forces(self, positions, species=None, cell=None, pbc=None):
        """Total switched pair energy and analytic forces (eV, eV/A) of one frame."""
        energy, forces = self.energy_forces_batch(np.asarray(positions, dtype=float)[None],
                                                  cell=cell, pbc=pbc)
        return float(energy[0]), forces[0]

    def energy_forces_batch(self, positions, cell=None, pbc=None):
        """Energies (B,) and forces (B, N, 3) of B frames from their pair table.

        Each frame's energy sums its pairs i < j in pair order, and each atom's
        force sums its pairs' terms in pair order from 0.0, as ``scatter_add``
        does; so each frame's results equal those of the frame alone bit for
        bit.  When every frame keeps all its pairs, the sums are the rows of one
        reduction (an atom's N-1 pairs are consecutive); otherwise each frame's
        energy is summed alone and the forces go through ``scatter_add``.  A
        periodic cell narrower than twice the cutoff raises ValueError.
        """
        b, n = np.shape(positions)[:2]
        pt = pair_table(positions, self.cutoff, cell, pbc)
        v, dv = self.pair_energy_deriv(pt.r)
        terms = dv[:, None] * pt.unit
        upper = pt.i < pt.j
        v, m = v[upper], n * (n - 1) // 2
        if len(v) == b * m:   # no frame loses a pair at the cutoff
            return (np.add.reduce(v.reshape(b, m), axis=1),
                    np.add.reduce(terms.reshape(b, n, n - 1, 3), axis=2, initial=0.0))
        ends = pt.i[upper].searchsorted(n * np.arange(1, b + 1)).tolist()   # each frame's end
        energy = np.array([v[start:end].sum() for start, end in zip([0] + ends, ends)])
        return energy, scatter_add(pt.i, terms, b * n).reshape(b, n, 3)


@dataclass
class LennardJones(_PairPotential):
    """4*eps*((sigma/r)^12 - (sigma/r)^6), smoothly switched off at the cutoff."""

    epsilon: float = 0.0104  # eV (argon-like)
    sigma: float = 3.4       # A
    cutoff: float = 9.0      # A
    switch_start: float | None = None

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.epsilon, self.sigma)):
            raise ValueError("epsilon and sigma must be positive and finite")
        if self.switch_start is None:
            self.switch_start = 0.9 * self.cutoff
        if not 0 < self.switch_start < self.cutoff:
            raise ValueError("switch_start must lie inside the cutoff")

    def _raw(self, r):
        sr6 = (self.sigma / r) ** 6
        v = 4.0 * self.epsilon * (sr6**2 - sr6)
        dv = 4.0 * self.epsilon * (-12.0 * sr6**2 + 6.0 * sr6) / r
        return v, dv

    @property
    def r_min(self) -> float:
        return 2.0 ** (1.0 / 6.0) * self.sigma


@dataclass
class Morse(_PairPotential):
    """D*(exp(-2a(r-r0)) - 2 exp(-a(r-r0))): well depth D at r0, zero at infinity."""

    well_depth: float = 0.5  # D, eV
    stiffness: float = 1.5   # a, 1/A
    r0: float = 2.5          # A
    cutoff: float = 7.0      # A
    switch_start: float | None = None

    def __post_init__(self):
        if not all(0.0 < x < np.inf for x in (self.well_depth, self.stiffness, self.r0)):
            raise ValueError("well_depth, stiffness and r0 must be positive and finite")
        if self.switch_start is None:
            self.switch_start = 0.9 * self.cutoff
        if not 0 < self.switch_start < self.cutoff:
            raise ValueError("switch_start must lie inside the cutoff")

    def _raw(self, r):
        e1 = np.exp(-self.stiffness * (r - self.r0))
        e2 = e1**2
        v = self.well_depth * (e2 - 2.0 * e1)
        dv = 2.0 * self.well_depth * self.stiffness * (e1 - e2)
        return v, dv

    @property
    def r_min(self) -> float:
        return self.r0


def potential_class(kind: str):
    """The pair potential dataclass that ``kind`` names, in any case."""
    kind = kind.lower()
    if kind in ("lj", "lennardjones", "lennard-jones"):
        return LennardJones
    if kind == "morse":
        return Morse
    raise ValueError(f"unknown potential kind {kind!r}")


def build_cluster(pot, n_atoms: int, seed: int = 0, relax_steps: int = 800) -> np.ndarray:
    """Deterministic compact cluster near a local minimum of the potential.

    Atoms start on a simple-cubic grid at the pair-minimum spacing with a tiny
    seeded jitter, then follow normalized gradient descent.
    """
    if n_atoms < 1:
        raise ValueError("n_atoms must be >= 1")
    a = pot.r_min
    side = int(np.ceil(n_atoms ** (1.0 / 3.0)))
    grid = np.array([[i, j, k] for i in range(side) for j in range(side) for k in range(side)],
                    dtype=float)
    order = np.lexsort((grid[:, 2], grid[:, 1], grid[:, 0],
                        np.linalg.norm(grid - (side - 1) / 2.0, axis=1)))
    pos = grid[order[:n_atoms]] * a
    rng = np.random.default_rng(seed)
    pos = pos + 0.02 * a * rng.standard_normal(pos.shape)
    # normalized-step descent with backtracking
    step = 0.05 * a
    energy, forces = pot.energy_forces(pos)
    for _ in range(relax_steps):
        fmax = np.max(np.abs(forces))
        if fmax < 1e-6 or step < 1e-12:
            break
        trial = pos + step * forces / fmax
        e_trial, f_trial = pot.energy_forces(trial)
        if e_trial < energy:
            pos, energy, forces = trial, e_trial, f_trial
            step = min(step * 1.2, 0.1 * a)
        else:
            step *= 0.5
    return pos - pos.mean(axis=0)
