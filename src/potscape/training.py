"""Deterministic training of neural potentials.

Optimizer is Adam (beta1=0.9, beta2=0.999, eps=1e-8) with an optional
AMSGrad max-of-second-moment, an optional exponential moving average of the
weights, plateau-based learning-rate decay, scheduled energy/force loss
weights, and optional uniform tail averaging of weights.  With two CPUs or
more, a forked worker evaluates each epoch's end while the next epoch runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import forked
from .artifacts import write_csv
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
        if not 0.0 <= self.lr0 < np.inf:
            raise ValueError(f"lr0 must be >= 0 and finite, got {self.lr0}")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.batch_size < 0:
            raise ValueError("batch_size must be >= 0 (0 = full batch)")
        if self.ema_decay is not None and not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must lie in (0, 1)")
        if self.plateau_patience < 1:
            raise ValueError("plateau_patience must be >= 1")
        if not 0.0 < self.plateau_factor < 1.0:
            raise ValueError("plateau_factor must be in (0, 1)")
        try:
            rows = [(float(e), float(w_e), float(w_f)) for e, w_e, w_f in self.weight_schedule]
        except (TypeError, ValueError):
            raise ValueError("weight_schedule entries must be (epoch, w_E, w_F) triples, "
                             f"got {self.weight_schedule!r}") from None
        if not rows:
            raise ValueError("weight_schedule must be nonempty")
        epochs = [e for e, _, _ in rows]
        fractional = [e for e in epochs if not e.is_integer()]   # nan and inf too
        if fractional:
            raise ValueError(f"weight_schedule epochs must be whole numbers, not {fractional[0]:g}")
        if epochs[0] > 0:
            raise ValueError(f"weight_schedule must start at epoch 0, not {epochs[0]:g}")
        if sorted(epochs) != epochs or len(set(epochs)) != len(epochs):
            raise ValueError("weight_schedule epochs must be strictly increasing")
        if not all(0.0 <= w < np.inf for _, *weights in rows for w in weights):
            raise ValueError(f"weight_schedule weights must be finite and >= 0, "
                             f"got {self.weight_schedule!r}")


def apply_weight_schedule(schedule, epoch: int):
    """Piecewise-constant (w_E, w_F): last entry whose epoch <= current."""
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

    def __init__(self, lr0: float, patience: int, factor: float):
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


# pair-epochs from which training forks its epoch-end worker (see ``train``)
OVERLAP_FLOOR = 400_000


def train(model: NeuralPotential, d_train: Dataset, cfg: TrainConfig,
          d_val: Dataset | None = None) -> TrainReport:
    """Optimize a copy of the model's parameters; the input model is untouched.

    Best-epoch selection uses the held-out split when provided, otherwise the
    training loss.  Deterministic given (seed, config, dataset): batches are
    contiguous frame ranges in fixed order, each with its own table of those
    frames.

    Each epoch ends with the loss over the full training table, and over the
    validation table if there is one.  The next epoch's minibatches depend on
    them only through the learning rate, which the plateau schedule can change
    only if ``bad_epochs + 1 >= patience`` before its update.  So the epochs
    are committed in order, one behind: after the next epoch's minibatches,
    the pending epoch's end gives its history row, schedule update,
    ``TrainingDiverged`` and best parameters.  The last epoch, and one whose
    loss could decay the rate, are committed at once.  A minibatch that raises
    while an epoch is pending commits that epoch first, so a divergence is
    named at the epoch where it happened.  When the affinity mask has two CPUs
    or more and the run reaches ``OVERLAP_FLOOR``, one worker forked after the
    tables are built (``forked.Children``: pinned to the second CPU, the parent
    to the first) evaluates each epoch's end while the parent runs the next
    epoch's minibatches; else (and with one CPU, ``taskset -c 0``) the parent
    evaluates it when it commits the epoch.  Either way the same computation
    runs on the same tables in the same order, so the report has the same
    bits.  A worker that fails raises ``ChildProcessError``; on a fault or an
    interrupt it is killed and reaped.

    The floor counts the epochs that can overlap (all but the last) times the
    pairs of both tables.  It weighs the fork against the time saved, measured
    on 2 vCPUs (Python 3.11, numpy 2.4): a fork, pin and reap of the worker
    took 2.6-4.4 ms next to a 38 MB parent, and an epoch-end loss about 77 ns
    per pair (624 us for 270 frames of 6 atoms), so at the floor the overlap
    saves about 30 ms, ten times the fork.  Sending the parameters and reading
    the losses back took 15 us per epoch, less than the fixed cost of even a
    small table's loss (69 us for 110 pairs).
    """
    if len(d_train) == 0:
        raise ValueError("empty training dataset")
    tables = DatasetTables(model, d_train)
    val_tables = DatasetTables(model, d_val) if d_val is not None else None
    n, bs = len(d_train), cfg.batch_size or len(d_train)
    batch_tables = [DatasetTables(model, d_train[lo:lo + bs])
                    for lo in range(0, n, bs)] if bs < n else [tables]

    values = model.params.copy()
    opt = Adam(len(values), amsgrad=cfg.amsgrad)
    sched = PlateauScheduler(cfg.lr0, cfg.plateau_patience, cfg.plateau_factor)
    ema = EMA(values, cfg.ema_decay) if cfg.ema_decay is not None else None
    swa_sum = np.zeros_like(values)
    swa_count = 0

    def epoch_end(values, w_e, w_f) -> np.ndarray:
        """The full table's loss_E, loss_F and combined, and the epoch's score."""
        full = tables_loss(model, tables, values, w_e, w_f)
        score = full.combined
        if val_tables is not None and np.isfinite(full.combined):
            score = tables_loss(model, val_tables, values, w_e, w_f).combined
        return np.array([full.loss_E, full.loss_F, full.combined, score])

    history = []
    best = np.inf
    best_params = values.copy()
    best_epoch = 0

    def commit(epoch, values, w_e, w_f, result):
        nonlocal best, best_params, best_epoch
        loss_E, loss_F, combined, score = result.tolist()
        if not np.isfinite(combined):
            raise TrainingDiverged(f"non-finite loss at epoch {epoch}")
        lr_now = sched.lr
        sched.update(combined)
        history.append({"epoch": epoch, "loss_E": loss_E, "loss_F": loss_F,
                        "combined": combined, "lr": lr_now, "w_E": w_e, "w_F": w_f})
        if score < best:
            best = score
            best_params = values.copy()
            best_epoch = epoch

    n_pairs = len(tables.r) + (0 if val_tables is None else len(val_tables.r))
    with forked.Children() as children:
        worker = None
        if len(children.mask) > 1 and (cfg.max_epochs - 1) * n_pairs >= OVERLAP_FLOOR:
            worker = children.fork(children.mask[1], _serve(epoch_end, len(values)))
        pending = []   # the epoch that ended and is not yet committed

        def settle():
            epoch, *sent = pending.pop()
            commit(epoch, *sent, epoch_end(*sent) if worker is None else np.frombuffer(
                children.receive(worker, 32, f"training worker at epoch {epoch}")))

        for epoch in range(cfg.max_epochs):
            w_e, w_f = apply_weight_schedule(cfg.weight_schedule, epoch)
            try:
                for bt in batch_tables:
                    _, grad = tables_loss_grad(model, bt, values, w_e, w_f)
                    values = opt.step(values, grad, sched.lr)
                    if ema is not None:
                        ema.update(values)
            except Exception:
                if pending:   # a divergence of the pending epoch is the cause
                    settle()
                raise
            if cfg.swa_tail is not None and epoch >= cfg.swa_tail:
                swa_sum += values
                swa_count += 1
            if worker is not None:
                children.send(worker, np.append(values, (w_e, w_f)).tobytes(),
                              f"training worker at epoch {epoch}")
            if pending:
                settle()
            pending.append((epoch, values, w_e, w_f))
            if epoch == cfg.max_epochs - 1 or sched.bad_epochs + 1 >= sched.patience:
                settle()   # the last epoch, or one whose loss could decay the rate
        if worker is not None:
            children.join(worker, 0, "training worker")
    return TrainReport(
        history=history,
        final_params=values,
        best_params=best_params,
        best_epoch=best_epoch,
        ema_params=None if ema is None else ema.values,
        swa_params=None if swa_count == 0 else swa_sum / swa_count,
    )


def _serve(epoch_end, n_values):
    """The worker: for each (values, w_E, w_F) that the parent sends, until it
    closes the pipe, the four floats of ``epoch_end``."""
    def run(out, inp):
        while message := inp.read(8 * (n_values + 2)):
            sent = np.frombuffer(message)
            out.write(epoch_end(sent[:-2].copy(), *sent[-2:].tolist()).tobytes())
            out.flush()
    return run


HISTORY_COLUMNS = ("epoch", "loss_E", "loss_F", "combined", "lr", "w_E", "w_F")


def write_history_csv(report: TrainReport, path) -> None:
    write_csv(path, HISTORY_COLUMNS,
              [[row["epoch"]] + [float(row[k]) for k in HISTORY_COLUMNS[1:]]
               for row in report.history])
