"""Deterministic training of neural potentials.

Optimizer is Adam (beta1=0.9, beta2=0.999, eps=1e-8) with an optional
AMSGrad max-of-second-moment, an optional exponential moving average of the
weights, plateau-based learning-rate decay, scheduled energy/force loss
weights, and optional uniform tail averaging of weights.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .model import DatasetTables, NeuralPotential, tables_loss, tables_loss_grad


class TrainingDiverged(ArithmeticError):
    """Non-finite training loss; message carries the epoch index."""


@dataclass
class TrainConfig:
    max_epochs: int = 500
    batch_size: int = 0          # 0 = full batch
    lr0: float = 0.005
    amsgrad: bool = False
    ema_decay: float | None = None
    plateau_patience: int = 50   # epochs without improvement before lr decays
    plateau_factor: float = 0.5
    weight_schedule: tuple = ((0, 1.0, 1000.0),)  # (epoch, w_E, w_F)
    swa_tail: int | None = None

    def __post_init__(self):
        if self.lr0 < 0:
            raise ValueError("lr0 must be >= 0")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.ema_decay is not None and not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_factor must be in (0, 1)")
        epochs = [int(e) for e, _, _ in self.weight_schedule]
        if not self.weight_schedule:
            raise ValueError("weight_schedule must be nonempty")
        if sorted(epochs) != epochs or len(set(epochs)) != len(epochs):
            raise ValueError("weight_schedule epochs must be strictly increasing")


def apply_weight_schedule(schedule, epoch: int):
    """Piecewise-constant (w_E, w_F): last entry whose epoch <= current."""
    if hasattr(schedule, "weight_schedule"):
        schedule = schedule.weight_schedule
    if not schedule:
        raise ValueError("empty weight schedule")
    current = None
    for e, w_e, w_f in schedule:
        if e <= epoch:
            current = (float(w_e), float(w_f))
    if current is None:
        raise ValueError(f"no schedule entry at or before epoch {epoch}")
    return current


class Adam:
    """Flat-vector Adam with optional AMSGrad second-moment maximum."""

    def __init__(self, n_params: int, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, amsgrad: bool = False):
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.amsgrad = amsgrad
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.vhat = np.zeros(n_params)
        self.t = 0

    def step(self, values: np.ndarray, grad: np.ndarray, lr: float) -> np.ndarray:
        self.t += 1
        self.m = self.beta1 * self.m + (1.0 - self.beta1) * grad
        self.v = self.beta2 * self.v + (1.0 - self.beta2) * grad**2
        mhat = self.m / (1.0 - self.beta1**self.t)
        if self.amsgrad:
            self.vhat = np.maximum(self.vhat, self.v)
            vref = self.vhat / (1.0 - self.beta2**self.t)
        else:
            vref = self.v / (1.0 - self.beta2**self.t)
        return values - lr * mhat / (np.sqrt(vref) + self.eps)


class PlateauScheduler:
    """Multiply lr by `factor` after `patience` epochs without improvement."""

    def __init__(self, lr0: float, patience: int = 50, factor: float = 0.5):
        self.lr = lr0
        self.patience = patience
        self.factor = factor
        self.best = np.inf
        self.bad_epochs = 0

    def update(self, loss: float) -> float:
        if loss < self.best:
            self.best = loss
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr *= self.factor
                self.bad_epochs = 0
        return self.lr


class EMA:
    """Exponential moving average of the weights, started at the initial iterate."""

    def __init__(self, values: np.ndarray, decay: float):
        self.decay = decay
        self.values = values.copy()

    def update(self, values: np.ndarray) -> None:
        self.values = self.decay * self.values + (1.0 - self.decay) * values


@dataclass
class TrainReport:
    history: list          # rows: dict(epoch, loss_E, loss_F, combined, lr, w_E, w_F)
    final_params: np.ndarray
    best_params: np.ndarray
    best_epoch: int
    ema_params: np.ndarray | None = None
    swa_params: np.ndarray | None = None


def train(model: NeuralPotential, d_train: Dataset, cfg: TrainConfig,
          d_val: Dataset | None = None, step_callback=None) -> TrainReport:
    """Optimize a copy of the model's parameters; the input model is untouched.

    Best-epoch selection uses the held-out split when provided, otherwise the
    training loss.  Deterministic given (seed, config, dataset): batches are
    contiguous frame ranges in fixed order.
    """
    if len(d_train) == 0:
        raise ValueError("empty training dataset")
    tables = DatasetTables(model, d_train)
    val_tables = DatasetTables(model, d_val) if d_val is not None else None

    n = len(d_train)
    bs = cfg.batch_size if cfg.batch_size and cfg.batch_size > 0 else n
    batches = [(lo, min(lo + bs, n)) for lo in range(0, n, bs)]
    batch_tables = [tables.frame_range(lo, hi) for lo, hi in batches] \
        if len(batches) > 1 else [tables]

    values = model.params.values.copy()
    opt = Adam(len(values), amsgrad=cfg.amsgrad)
    sched = PlateauScheduler(cfg.lr0, cfg.plateau_patience, cfg.plateau_factor)
    ema = EMA(values, cfg.ema_decay) if cfg.ema_decay is not None else None
    swa_sum = np.zeros_like(values)
    swa_count = 0

    history = []
    best = np.inf
    best_params = values.copy()
    best_epoch = 0
    for epoch in range(cfg.max_epochs):
        w_e, w_f = apply_weight_schedule(cfg.weight_schedule, epoch)
        for bt in batch_tables:
            _, grad = tables_loss_grad(model, bt, values, w_e, w_f)
            values = opt.step(values, grad, sched.lr)
            if ema is not None:
                ema.update(values)
            if step_callback is not None:
                step_callback(values)
        full = tables_loss(model, tables, values, w_e, w_f)
        if not np.isfinite(full.combined):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        lr_now = sched.lr
        sched.update(full.combined)
        history.append({"epoch": epoch, "loss_E": full.loss_E, "loss_F": full.loss_F,
                        "combined": full.combined, "lr": lr_now, "w_E": w_e, "w_F": w_f})
        if cfg.swa_tail is not None and epoch >= cfg.swa_tail:
            swa_sum += values
            swa_count += 1
        score = full.combined if val_tables is None else \
            tables_loss(model, val_tables, values, w_e, w_f).combined
        if score < best:
            best = score
            best_params = values.copy()
            best_epoch = epoch
    return TrainReport(
        history=history,
        final_params=values,
        best_params=best_params,
        best_epoch=best_epoch,
        ema_params=None if ema is None else ema.values,
        swa_params=None if swa_count == 0 else swa_sum / swa_count,
    )


HISTORY_COLUMNS = ("epoch", "loss_E", "loss_F", "combined", "lr", "w_E", "w_F")


def write_history_csv(report: TrainReport, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HISTORY_COLUMNS)
        for row in report.history:
            writer.writerow([row["epoch"]] + [repr(float(row[k])) for k in HISTORY_COLUMNS[1:]])
