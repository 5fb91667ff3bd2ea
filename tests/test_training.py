import numpy as np
import pytest

from potscape.model import loss_eval
from potscape.training import (Adam, EMA, PlateauScheduler, TrainConfig,
                               TrainingDiverged, apply_weight_schedule, train,
                               write_history_csv)
from tests.conftest import labeled_dataset, random_model


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

    def test_accepts_config_object(self):
        cfg = TrainConfig(weight_schedule=((0, 2.0, 3.0),))
        assert apply_weight_schedule(cfg, 10) == (2.0, 3.0)

    def test_non_increasing_schedule_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(weight_schedule=((10, 1.0, 1.0), (5, 1.0, 1.0)))


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


class TestTrain:
    def setup_problem(self, seed=0):
        m = random_model(seed)
        ds = labeled_dataset(m, 6, seed=seed + 100, energy_offset=0.05,
                             force_offset=np.array([0.05, -0.02, 0.01]))
        return m, ds

    def test_zero_lr_flat_history(self):
        m, ds = self.setup_problem()
        cfg = TrainConfig(max_epochs=5, lr0=0.0, weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg)
        np.testing.assert_array_equal(report.final_params, m.params.values)
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

    def test_ema_equals_recomputed_average(self):
        m, ds = self.setup_problem(5)
        decay = 0.99
        iterates = []
        cfg = TrainConfig(max_epochs=15, batch_size=3, lr0=0.01, ema_decay=decay,
                          weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg, step_callback=lambda v: iterates.append(v.copy()))
        expect = m.params.values.copy()
        for it in iterates:
            expect = decay * expect + (1.0 - decay) * it
        np.testing.assert_allclose(report.ema_params, expect, rtol=0, atol=0)

    def test_ema_within_visited_bounds(self):
        m, ds = self.setup_problem(7)
        iterates = []
        cfg = TrainConfig(max_epochs=25, lr0=0.02, ema_decay=0.9,
                          weight_schedule=((0, 1.0, 10.0),))
        report = train(m, ds, cfg, step_callback=lambda v: iterates.append(v.copy()))
        visited = np.vstack([m.params.values] + iterates)
        assert np.all(report.ema_params >= visited.min(axis=0) - 1e-15)
        assert np.all(report.ema_params <= visited.max(axis=0) + 1e-15)

    def test_swa_is_tail_mean(self):
        m, ds = self.setup_problem(9)
        epoch_ends = []
        cfg = TrainConfig(max_epochs=12, lr0=0.01, swa_tail=8,
                          weight_schedule=((0, 1.0, 10.0),))
        # full-batch: one step per epoch, so callback sees epoch-end params
        report = train(m, ds, cfg, step_callback=lambda v: epoch_ends.append(v.copy()))
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

    def test_divergence_aborts_with_epoch(self):
        m, ds = self.setup_problem(13)
        cfg = TrainConfig(max_epochs=10, lr0=1e200, weight_schedule=((0, 1.0, 10.0),))
        with pytest.raises(TrainingDiverged, match="epoch"):
            train(m, ds, cfg)

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


def test_ema_tracker_unit():
    ema = EMA(np.array([0.0, 10.0]), decay=0.5)
    ema.update(np.array([2.0, 0.0]))
    np.testing.assert_allclose(ema.values, [1.0, 5.0])
    ema.update(np.array([2.0, 0.0]))
    np.testing.assert_allclose(ema.values, [1.5, 2.5])
