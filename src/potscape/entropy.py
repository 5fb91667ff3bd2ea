"""Flatness of loss landscapes as a Boltzmann-weighted log-sum ("loss entropy").

S(T) = k * log sum_t exp(-curve(t) / (k T)) with k fixed to 1; a perfectly
flat zero curve over n grid points gives S = log n, and every added unit of
loss at tolerance scale T costs 1/T of entropy.  Energy and force entropies
are combined as alpha * S_E + (1 - alpha) * S_F.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .artifacts import write_csv, write_json
from .landscape import LandscapeProfile

K_CONST = 1.0  # dimensionless

DEFAULT_ALPHA = 0.2   # shared by entropy_from_profile and temperature_sweep


@dataclass(frozen=True)
class EntropyReport:
    S_E: float
    S_F: float
    S: float
    T_E: float       # meV/atom
    T_F: float       # meV/A
    alpha: float
    k: float
    grid_points: int
    profile_ref: str = ""

    def to_dict(self) -> dict:
        return {
            "S_E": self.S_E, "S_F": self.S_F, "S": self.S,
            "T_E_mev_per_atom": self.T_E, "T_F_mev_per_ang": self.T_F,
            "alpha": self.alpha, "k": self.k,
            "grid_points": self.grid_points, "profile_ref": self.profile_ref,
        }


def check_kT(kT: float):
    """Raise ValueError unless ``kT`` is positive and finite."""
    if not 0.0 < kT < np.inf:
        raise ValueError(f"kT must be positive and finite, got {kT}")


def check_range(bounds):
    """Raise ValueError unless ``bounds`` is a pair of positive, finite temperatures."""
    if len(bounds) != 2 or not all(0.0 < t < np.inf for t in bounds):
        raise ValueError(f"ranges must be pairs of positive, finite bounds, got {bounds}")


def check_alpha(alpha: float):
    """Raise ValueError unless ``alpha`` lies in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")


def check_points(points: int):
    """Raise ValueError unless a sweep has at least two ``points``."""
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")


def loss_entropy(curve, kT: float) -> float:
    """Stable log-sum-exp of -curve/kT; +inf entries contribute zero weight."""
    curve = np.asarray(curve, dtype=float)
    if curve.size == 0:
        raise ValueError("empty curve")
    check_kT(kT)
    if np.any(np.isnan(curve)):
        raise ValueError("curve contains NaN")
    a = -curve / (K_CONST * kT)          # +inf loss -> -inf exponent -> weight 0
    amax = np.max(a)
    if amax == -np.inf:
        return -np.inf
    return float(K_CONST * (amax + np.log(np.sum(np.exp(a - amax)))))


def weighted_entropy(S_E: float, S_F: float, alpha: float) -> float:
    """alpha * S_E + (1 - alpha) * S_F, alpha in [0, 1]."""
    check_alpha(alpha)
    return alpha * S_E + (1.0 - alpha) * S_F


def entropy_from_profile(p: LandscapeProfile, T_E: Annotated[float, check_kT] = 4.0,
                         T_F: Annotated[float, check_kT] = 40.0,
                         alpha: Annotated[float, check_alpha] = DEFAULT_ALPHA,
                         profile_ref: str = "") -> EntropyReport:
    """Entropies of the direction-averaged energy/force curves of a profile."""
    s_e = loss_entropy(p.mean_E, T_E)
    s_f = loss_entropy(p.mean_F, T_F)
    return EntropyReport(S_E=s_e, S_F=s_f, S=weighted_entropy(s_e, s_f, alpha),
                         T_E=T_E, T_F=T_F, alpha=alpha, k=K_CONST,
                         grid_points=len(p.t_grid), profile_ref=profile_ref)


def temperature_sweep(p: LandscapeProfile,
                      T_E_range: Annotated[tuple[float, ...], check_range] = (0.4, 400.0),
                      T_F_range: Annotated[tuple[float, ...], check_range] = (4.0, 4000.0),
                      alpha: Annotated[float, check_alpha] = DEFAULT_ALPHA,
                      points: Annotated[int, check_points] = 25, profile_ref: str = ""):
    """Entropies over log-spaced (T_E, T_F) pairs spanning the given ranges.

    Returns (reports, info); info records the flat-zero reference entropy
    log(grid size) that upper-bounds every S in the sweep.
    """
    check_range(T_E_range)
    check_range(T_F_range)
    check_alpha(alpha)
    check_points(points)
    te = np.geomspace(T_E_range[0], T_E_range[1], points)
    tf = np.geomspace(T_F_range[0], T_F_range[1], points)
    reports = [entropy_from_profile(p, T_E=a, T_F=b, alpha=alpha, profile_ref=profile_ref)
               for a, b in zip(te, tf)]
    info = {"flat_zero_entropy": float(np.log(len(p.t_grid))),
            "alpha": alpha, "n_points": points}
    return reports, info


SWEEP_COLUMNS = ("T_E", "T_F", "S_E", "S_F", "S")


def write_report_json(report: EntropyReport, path) -> None:
    write_json(report.to_dict(), path)


def write_sweep_csv(reports, path, info=None) -> None:
    write_csv(path, SWEEP_COLUMNS,
              [[float(x) for x in (r.T_E, r.T_F, r.S_E, r.S_F, r.S)] for r in reports])
    if info is not None:
        write_json(info, str(path) + ".meta.json")
