import os
import time
import warnings

import numpy as np
import pytest

from potscape import training
from potscape.model import loss_eval
from potscape.training import (Adam, EMA, PlateauScheduler, TrainConfig,
                               TrainingDiverged, apply_weight_schedule, train,
                               write_history_csv)
from tests.conftest import (assert_no_child_left, cpus, differing_cases, labeled_dataset,
                            random_model)


class TestWeightSchedule:
    def test_constant_schedule(self):
        for epoch in (0, 1, 17, 10**6):
            assert apply_weight_schedule(((0, 1.0, 1000.0),), epoch) == (1.0, 1000.0)

    def test_cycling_boundary(self):
        sched = ((0, 1.0, 10.0), (100, 1000.0, 1.0))
        assert apply_weight_schedule(sched, 99) == (1.0, 10.0)
        assert apply_weight_schedule(sched, 100) == (1000.0, 1.0)
        assert apply_weight_schedule(sched, 101) == (1000.0, 1.0)

    def test_query_before_first_entry_rejected(self):
        with pytest.raises(ValueError):
            apply_weight_schedule(((5, 1.0, 1.0),), 4)
        with pytest.raises(ValueError):
            apply_weight_schedule((), 0)

    def test_non_increasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(weight_schedule=((10, 1.0, 1.0), (5, 1.0, 1.0)))

    def test_integral_float_epochs_accepted(self):
        # int(e) once turned 2.5 into 2: [2.0, 2.5] read as not increasing, 2.5 alone as 2
        sched = ((0, 1.0, 25.0), (2.0, 1.0, 1.0))
        TrainConfig(weight_schedule=sched)
        assert [apply_weight_schedule(sched, e) for e in (1, 2)] == [(1.0, 25.0), (1.0, 1.0)]

    @pytest.mark.parametrize("epoch", [2.5, float("nan"), float("inf")])
    def test_fractional_epoch_named(self, epoch):
        with pytest.raises(ValueError, match=f"whole numbers, not {epoch:g}$"):
            TrainConfig(weight_schedule=((0, 1.0, 25.0), (epoch, 1.0, 1.0)))


class TestAdam:
    def quadratic(self, x, target, curv):
        return 0.5 * np.sum(curv * (x - target) ** 2), curv * (x - target)

    @pytest.mark.parametrize("amsgrad", [False, True])
    def test_converges_to_quadratic_minimum(self, amsgrad):
        target = np.array([1.5, -2.0, 0.25, 4.0])
        curv = np.array([1.0, 10.0, 0.3, 2.0])
        x = np.zeros(4)
        opt = Adam(4, amsgrad=amsgrad)
        for _ in range(4000):
            _, g = self.quadratic(x, target, curv)
            x = opt.step(x, g, lr=0.05)
        assert np.max(np.abs(x - target)) < 1e-6

    def test_zero_lr_identity(self):
        opt = Adam(3)
        x = np.array([1.0, 2.0, 3.0])
        out = opt.step(x, np.array([0.5, -1.0, 2.0]), lr=0.0)
        np.testing.assert_array_equal(out, x)


class TestPlateau:
    def test_halves_every_patience_on_flat_stream(self):
        sched = PlateauScheduler(1.0, patience=5, factor=0.5)
        lrs = []
        sched.update(1.0)  # sets best
        for _ in range(15):
            lrs.append(sched.update(1.0))  # never improves
        assert lrs[4] == 0.5 and lrs[9] == 0.25 and lrs[14] == 0.125
        assert all(lr == 1.0 for lr in lrs[:4])

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(1.0, patience=3, factor=0.5)
        sched.update(1.0)
        sched.update(1.0)
        sched.update(0.5)  # improvement
        for _ in range(2):
            sched.update(0.6)
        assert sched.lr == 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(plateau_patience=0)
        with pytest.raises(ValueError):
            TrainConfig(plateau_factor=1.5)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=-50)
        assert TrainConfig(batch_size=0).batch_size == 0   # full batch

    @pytest.mark.parametrize("lr0", [np.nan, np.inf])
    def test_lr0_must_be_finite(self, lr0):
        # a NaN lr0 once trained until a non-finite loss at epoch 0 (a numeric fault)
        with pytest.raises(ValueError, match="lr0 must be >= 0 and finite"):
            TrainConfig(lr0=lr0)
        assert TrainConfig(lr0=0.0).lr0 == 0.0


def adam_iterates(monkeypatch):
    """The list that every later ``Adam.step`` appends a copy of its result to."""
    iterates, step = [], Adam.step

    def recorded(self, values, grad, lr):
        out = step(self, values, grad, lr)
        iterates.append(out.copy())
        return out
    monkeypatch.setattr(Adam, "step", recorded)
    return iterates


class TestTrain:
    def setup_problem(self, seed=0, **kwargs):
        m = random_model(seed, **kwargs)
        ds = labeled_dataset(m, 6, seed=seed + 100, energy_offset=0.05,
                             force_offset=np.array([0.05, -0.02, 0.01]))
        return m, ds

    def test_zero_lr_flat_history(self):
        m, ds = self.setup_problem()
        cfg = TrainConfig(max_epochs=5, lr0=0.0, weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        np.testing.assert_array_equal(report.final_params, m.params)
        combined = [row["combined"] for row in report.history]
        assert len(set(combined)) == 1

    def test_loss_decreases(self):
        m, ds = self.setup_problem()
        cfg = TrainConfig(max_epochs=50, lr0=0.01, weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        assert report.history[report.best_epoch]["combined"] <= report.history[0]["combined"]
        assert report.history[-1]["combined"] < report.history[0]["combined"]

    def test_bitwise_reproducible(self):
        m, ds = self.setup_problem(3)
        cfg = TrainConfig(max_epochs=20, batch_size=2, lr0=0.01, amsgrad=True,
                          ema_decay=0.97, swa_tail=10, weight_schedule=((0, 1.0, 10.0),))
        r1 = train(m, ds, cfg)
        r2 = train(m, ds, cfg)
        np.testing.assert_array_equal(r1.final_params, r2.final_params)
        np.testing.assert_array_equal(r1.ema_params, r2.ema_params)
        np.testing.assert_array_equal(r1.swa_params, r2.swa_params)
        assert r1.history == r2.history

    @pytest.mark.parametrize("trainable_basis", [False, True])
    def test_best_params_bytes_pinned(self, corpus, trainable_basis):
        # best_params after a 20-epoch minibatch run of setup 3, as recorded when the pair
        # gathers were fancy indexing and the scatter one flat bincount
        kind = "trainable" if trainable_basis else "fixed"
        assert differing_cases(corpus, f"train/{kind}/best_params") == []

    def test_ema_equals_recomputed_average(self, monkeypatch):
        m, ds = self.setup_problem(5)
        decay = 0.99
        iterates = adam_iterates(monkeypatch)
        cfg = TrainConfig(max_epochs=15, batch_size=3, lr0=0.01, ema_decay=decay,
                          weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        expect = m.params.copy()
        for it in iterates:
            expect = decay * expect + (1.0 - decay) * it
        np.testing.assert_allclose(report.ema_params, expect, rtol=0, atol=0)

    def test_ema_within_visited_bounds(self, monkeypatch):
        m, ds = self.setup_problem(7)
        iterates = adam_iterates(monkeypatch)
        cfg = TrainConfig(max_epochs=25, lr0=0.02, ema_decay=0.9,
                          weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        visited = np.vstack([m.params] + iterates)
        assert np.all(report.ema_params >= visited.min(axis=0) - 1e-15)
        assert np.all(report.ema_params <= visited.max(axis=0) + 1e-15)

    def test_swa_is_tail_mean(self, monkeypatch):
        m, ds = self.setup_problem(9)
        epoch_ends = adam_iterates(monkeypatch)
        cfg = TrainConfig(max_epochs=12, lr0=0.01, swa_tail=8,
                          weight_schedule=((0, 1.0, 10.0),))
        # full-batch: one step per epoch, so the steps give the epoch-end params
        report = train(m, ds, cfg)
        expect = np.mean(epoch_ends[8:], axis=0)
        np.testing.assert_allclose(report.swa_params, expect, atol=1e-15)

    def test_best_params_track_validation(self):
        m, ds = self.setup_problem(11)
        val = labeled_dataset(m, 3, seed=500, energy_offset=0.05,
                              force_offset=np.array([0.05, -0.02, 0.01]))
        cfg = TrainConfig(max_epochs=30, lr0=0.01, weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg, d_val=val)
        best_model = m.with_values(report.best_params)
        final_model = m.with_values(report.final_params)
        assert loss_eval(best_model, val, 1.0, 10.0).combined <= \
            loss_eval(final_model, val, 1.0, 10.0).combined + 1e-15

    def test_divergence_aborts_with_epoch(self, monkeypatch):
        m, ds = self.setup_problem(13)
        cfg = TrainConfig(max_epochs=10, lr0=1e200, weight_schedule=((0, 1.0, 10.0),))
        # on both paths epoch 1's minibatch overflows (an error under tier-1's warning
        # filter) while epoch 0 is pending; epoch 0 is still the one named
        with pytest.raises(TrainingDiverged, match="epoch") as in_process:
            train(m, ds, cfg)
        monkeypatch.setattr(training, "OVERLAP_FLOOR", 1)
        pinned = cpus(monkeypatch, 2)
        with pytest.raises(TrainingDiverged, match="epoch") as forked:
            train(m, ds, cfg)
        assert str(forked.value) == str(in_process.value) == "non-finite loss at epoch 0"
        assert pinned == [[0], [0, 1]]
        assert_no_child_left()

    def test_divergence_warns_alike_on_both_paths(self, monkeypatch):
        # the one-process path once committed each epoch as it ended, so it raised with
        # no warning, where the forked path first warned of epoch 1's minibatch
        m, ds = self.setup_problem(13)
        cfg = TrainConfig(max_epochs=10, lr0=1e200, weight_schedule=((0, 1.0, 10.0),))
        shown = {}
        for path, floor in (("one process", training.OVERLAP_FLOOR), ("forked", 1)):
            monkeypatch.setattr(training, "OVERLAP_FLOOR", floor)
            pinned = cpus(monkeypatch, 2)
            with warnings.catch_warnings(record=True) as caught, \
                    pytest.raises(TrainingDiverged, match="non-finite loss at epoch 0$"):
                warnings.simplefilter("always")
                train(m, ds, cfg)
            shown[path] = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
            assert pinned == ([[0], [0, 1]] if path == "forked" else [])
        assert shown["forked"] == shown["one process"]
        assert {category for category, *_ in shown["forked"]} == {RuntimeWarning}
        assert_no_child_left()

    def test_weight_cycling_recorded_in_history(self):
        m, ds = self.setup_problem(15)
        cfg = TrainConfig(max_epochs=6, lr0=0.005,
                          weight_schedule=((0, 1.0, 10.0), (3, 1000.0, 1.0)))
        report = train(m, ds, cfg)
        assert report.history[2]["w_F"] == 10.0
        assert report.history[3]["w_E"] == 1000.0

    def test_history_csv(self, tmp_path):
        m, ds = self.setup_problem(17)
        cfg = TrainConfig(max_epochs=3, lr0=0.005, weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        path = tmp_path / "history.csv"
        write_history_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,loss_E,loss_F,combined,lr,w_E,w_F"
        assert len(lines) == 4


class TestEpochEndWorker:
    """Above the floor and with two CPUs or more, a forked worker evaluates each
    epoch's end while the parent runs the next epoch; it never shows in a result."""

    @staticmethod
    def problem():
        m = random_model(21, trainable_basis=True)
        offsets = dict(energy_offset=0.05, force_offset=np.array([0.05, -0.02, 0.01]))
        ds = labeled_dataset(m, 6, seed=121, **offsets)
        val = labeled_dataset(m, 3, seed=621, **offsets)
        # the schedule's change and patience 2 make the plateau decay the rate, and
        # make the parent wait for the worker before the epochs that might decay it
        cfg = TrainConfig(max_epochs=30, batch_size=2, lr0=0.05, amsgrad=True,
                          ema_decay=0.9, swa_tail=20, plateau_patience=2,
                          weight_schedule=((0, 1.0, 10.0), (12, 10.0, 1.0)))
        return m, ds, val, cfg

    @staticmethod
    def report_bytes(report):
        return ([getattr(report, name).tobytes() for name in
                 ("final_params", "best_params", "ema_params", "swa_params")],
                report.best_epoch,
                np.array([[row[k] for k in training.HISTORY_COLUMNS]
                          for row in report.history]).tobytes())

    def test_report_does_not_depend_on_the_cpus(self, monkeypatch):
        m, ds, val, cfg = self.problem()
        mask = os.sched_getaffinity(0)
        monkeypatch.setattr(training, "OVERLAP_FLOOR", 1)
        report = train(m, ds, cfg, d_val=val)
        results = {"this host": self.report_bytes(report)}
        assert len({row["lr"] for row in report.history}) > 2   # the rate decayed twice
        assert os.sched_getaffinity(0) == mask
        assert_no_child_left()
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for n in (1, 2, 3):
            pinned = cpus(monkeypatch, n)
            results[n] = self.report_bytes(train(m, ds, cfg, d_val=val))
            assert len(forks) == min(n - 1, 1)   # one worker, on the second CPU
            assert pinned == ([[0], list(range(n))] if n > 1 else [])
            forks.clear()
        assert results[2] == results[1]
        assert results[3] == results[1]
        assert results["this host"] == results[1]
        assert_no_child_left()

    def test_below_the_floor_nothing_forks(self, monkeypatch):
        m, ds, val, cfg = self.problem()
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        pinned = cpus(monkeypatch, 3)
        pairs = sum(len(training.DatasetTables(m, d).r) for d in (ds, val))
        at_floor = (cfg.max_epochs - 1) * pairs
        assert at_floor < training.OVERLAP_FLOOR
        train(m, ds, cfg, d_val=val)
        assert forks == [] and pinned == []
        monkeypatch.setattr(training, "OVERLAP_FLOOR", at_floor + 1)
        train(m, ds, cfg, d_val=val)
        assert forks == [] and pinned == []
        monkeypatch.setattr(training, "OVERLAP_FLOOR", at_floor)
        train(m, ds, cfg, d_val=val)
        assert forks == [1] and pinned == [[0], [0, 1, 2]]
        assert_no_child_left()

    def test_failed_worker_raises_and_is_reaped(self, monkeypatch):
        m, ds, val, cfg = self.problem()
        parent, loss = os.getpid(), training.tables_loss

        def worker_fails(*args):
            if os.getpid() != parent:
                raise RuntimeError("a fault in the worker only")
            return loss(*args)
        monkeypatch.setattr(training, "tables_loss", worker_fails)
        monkeypatch.setattr(training, "OVERLAP_FLOOR", 1)
        pinned = cpus(monkeypatch, 2)
        with pytest.raises(ChildProcessError, match=r"training worker at epoch \d+ exited 1"):
            train(m, ds, cfg, d_val=val)
        assert_no_child_left()
        assert pinned == [[0], [0, 1]]   # the parent's mask is restored

    def test_parent_interrupt_kills_the_worker(self, monkeypatch):
        m, ds, val, cfg = self.problem()
        parent, loss, grad, calls = os.getpid(), training.tables_loss, training.tables_loss_grad, []

        def worker_hangs(*args):
            if os.getpid() != parent:
                time.sleep(60)   # reaped within the test only if the parent kills it
            return loss(*args)

        def parent_interrupted(*args):
            calls.append(1)
            if len(calls) == 4:   # the first minibatch of epoch 1, with epoch 0 pending
                raise KeyboardInterrupt
            return grad(*args)
        monkeypatch.setattr(training, "tables_loss", worker_hangs)
        monkeypatch.setattr(training, "tables_loss_grad", parent_interrupted)
        monkeypatch.setattr(training, "OVERLAP_FLOOR", 1)
        pinned = cpus(monkeypatch, 2)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            train(m, ds, cfg, d_val=val)
        assert time.monotonic() - started < 30
        assert_no_child_left()
        assert pinned == [[0], [0, 1]]


def test_ema_tracker_unit():
    ema = EMA(np.array([0.0, 10.0]), decay=0.5)
    ema.update(np.array([2.0, 0.0]))
    np.testing.assert_allclose(ema.values, [1.0, 5.0])
    ema.update(np.array([2.0, 0.0]))
    np.testing.assert_allclose(ema.values, [1.5, 2.5])
