"""Error tables, slope fits, correlations, and the noisy-linear-regression toy."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .artifacts import write_csv, write_json
from .data import check_sigmas
from .model import NeuralPotential, NumericEvalError, loss_eval
from .seeding import substream


def ols(x, y):
    """Ordinary least squares y = m x + b; returns (m, b, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need at least two matching points")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    if sxx == 0.0:
        raise ValueError("zero variance in x: singular fit")
    m = np.sum((x - xm) * (y - ym)) / sxx
    b = ym - m * xm
    syy = np.sum((y - ym) ** 2)
    r2 = 1.0 if syy == 0.0 else 1.0 - float(np.sum((y - (m * x + b)) ** 2)) / float(syy)
    return float(m), float(b), float(r2)


@dataclass(frozen=True)
class SlopeFit:
    m: float
    b: float
    r2: float
    x_def: str
    y_def: str
    n_points: int

    def to_dict(self) -> dict:
        return {"m": self.m, "b": self.b, "r2": self.r2,
                "x_def": self.x_def, "y_def": self.y_def, "n_points": self.n_points}


def rmse_by_split(model: NeuralPotential, tests: dict):
    """Per-split and pooled RMSEs: (T, energy meV/atom, force meV/A, counts).

    The pooled row (key "all") recombines the per-split sums of squares, so
    pooled MSE is the count-weighted mean of the split MSEs.
    """
    rows = []
    e_sq = e_n = f_sq = f_n = 0.0
    for T in sorted(tests):
        d = tests[T]
        if len(d) == 0:
            raise ValueError(f"empty test split at {T}")
        lv = loss_eval(model, d)
        if not (np.isfinite(lv.mse_E) and np.isfinite(lv.mse_F)):
            raise NumericEvalError(f"non-finite prediction on test split at {T}")
        ne = len(d)
        nf = 3 * sum(c.n_atoms for c in d)
        rows.append({"T": T, "energy_rmse_mev_per_atom": lv.loss_E,
                     "force_rmse_mev_per_ang": lv.loss_F, "n_frames": ne})
        e_sq += lv.mse_E * ne
        e_n += ne
        f_sq += lv.mse_F * nf
        f_n += nf
    rows.append({"T": "all", "energy_rmse_mev_per_atom": np.sqrt(e_sq / e_n) * 1000.0,
                 "force_rmse_mev_per_ang": np.sqrt(f_sq / f_n) * 1000.0,
                 "n_frames": int(e_n)})
    return rows


def extrapolation_slope(errors) -> SlopeFit:
    """OLS of force RMSE against sampling temperature (linear in T)."""
    t = [float(a) for a, _ in errors]
    e = [float(b) for _, b in errors]
    m, b, r2 = ols(t, e)
    return SlopeFit(m, b, r2, x_def="temperature_K", y_def="force_rmse_mev_per_ang",
                    n_points=len(t))


def learning_curve_slope(points) -> SlopeFit:
    """Fit log n = m log eps + b (natural log) over (n, eps) pairs."""
    n = np.array([float(a) for a, _ in points])
    eps = np.array([float(b) for _, b in points])
    if np.any(n <= 0) or np.any(eps <= 0):
        raise ValueError("learning-curve points must be positive")
    m, b, r2 = ols(np.log(eps), np.log(n))
    return SlopeFit(m, b, r2, x_def="log_force_rmse", y_def="log_n_train",
                    n_points=len(n))


# ---------------------------------------------------------------------------
# linear-regression noise toy
# ---------------------------------------------------------------------------

TRUE_SLOPE = 2.0
TRUE_INTERCEPT = 1.0


def toy_true_function(x):
    return TRUE_SLOPE * x + TRUE_INTERCEPT


@dataclass
class ToyRegressionResult:
    n_list: list
    sigma_list: list
    mean_rmse: np.ndarray    # (len(n_list), len(sigma_list))
    stderr_rmse: np.ndarray
    repeats: int


def toy_regression_experiment(n_list: tuple[int, ...] = (2, 10, 100, 1000, 10000),
                              sigma_list: Annotated[tuple[float, ...], check_sigmas] = (
                                  0.0, 0.5, 1.0, 2.0),
                              repeats: int = 100, seed: int = 0) -> ToyRegressionResult:
    """Mean RMSE of least-squares line fits to noise-corrupted linear data.

    For each (N, sigma): N equispaced x in [0, 1], targets 2x + 1 plus
    sigma * standard-normal noise, an exact least-squares fit, and the RMSE of
    the fitted line against the noise-free targets on the same grid.
    """
    n_list = [int(n) for n in n_list]
    sigma_list = [float(s) for s in sigma_list]
    check_sigmas(sigma_list)
    if any(n < 2 for n in n_list):
        raise ValueError("need at least 2 points to fit a line")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    mean = np.zeros((len(n_list), len(sigma_list)))
    stderr = np.zeros_like(mean)
    for i, n in enumerate(n_list):
        x = np.linspace(0.0, 1.0, n)
        y_true = toy_true_function(x)
        for j, sigma in enumerate(sigma_list):
            rmses = np.empty(repeats)
            for rep in range(repeats):
                rng = substream(seed, "toy", (i * len(sigma_list) + j) * repeats + rep)
                y_noisy = y_true + sigma * rng.standard_normal(n)
                a, b, _ = ols(x, y_noisy)
                rmses[rep] = np.sqrt(np.mean((a * x + b - y_true) ** 2))
            mean[i, j] = rmses.mean()
            stderr[i, j] = rmses.std(ddof=1) / np.sqrt(repeats) if repeats > 1 else 0.0
    return ToyRegressionResult(n_list, sigma_list, mean, stderr, repeats)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def write_rmse_csv(rows, path) -> None:
    write_csv(path, ("T", "energy_rmse_mev_per_atom", "force_rmse_mev_per_ang", "n_frames"),
              [(r["T"], float(r["energy_rmse_mev_per_atom"]), float(r["force_rmse_mev_per_ang"]),
                r["n_frames"]) for r in rows])


def write_slope_json(fit: SlopeFit, path) -> None:
    write_json(fit.to_dict(), path)


def write_toy_csv(result: ToyRegressionResult, path) -> None:
    write_csv(path, ("n", "sigma", "mean_rmse", "stderr_rmse", "repeats"),
              [(n, float(s), float(result.mean_rmse[i, j]), float(result.stderr_rmse[i, j]),
                result.repeats)
               for i, n in enumerate(result.n_list) for j, s in enumerate(result.sigma_list)])
