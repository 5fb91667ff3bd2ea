import math

import numpy as np
import pytest

from potscape.analysis import (SlopeFit, extrapolation_slope,
                               learning_curve_slope, ols, rmse_by_split,
                               toy_regression_experiment, write_rmse_csv,
                               write_slope_json, write_toy_csv)
from potscape.data import Configuration, Dataset
from tests.conftest import labeled_dataset, random_cluster, random_model


def oracle_ols(x, y):
    """Closed-form normal equations, assembled independently of analysis.ols."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    a = np.vstack([x, np.ones_like(x)]).T
    m, b = np.linalg.solve(a.T @ a, a.T @ y)
    return m, b


class TestRmseBySplit:
    def test_perfect_model_all_zero(self):
        m = random_model(0)
        tests = {300.0: labeled_dataset(m, 2, seed=1), 600.0: labeled_dataset(m, 3, seed=2)}
        rows = rmse_by_split(m, tests)
        # exact zeros on some kernels only: the exactness corpus pins these bytes
        assert all(r["energy_rmse_mev_per_atom"] == pytest.approx(0.0, abs=1e-12) for r in rows)
        assert all(r["force_rmse_mev_per_ang"] == pytest.approx(0.0, abs=1e-12) for r in rows)

    def test_single_frame_energy_error(self):
        m = random_model(1)
        pos = random_cluster(1, 0, min_dist=0.0)
        e, f, _ = m.energy_forces(pos)
        tests = {300.0: Dataset([Configuration(pos, ["Ar"], energy=e - 0.003, forces=f)])}
        rows = rmse_by_split(m, tests)
        assert rows[0]["energy_rmse_mev_per_atom"] == pytest.approx(3.0, rel=1e-12)

    def test_pooled_recomputes_from_sums_of_squares(self):
        m = random_model(2)
        d1 = labeled_dataset(m, 2, seed=3, energy_offset=0.004)
        d2 = labeled_dataset(m, 3, seed=4, energy_offset=0.008)
        rows = rmse_by_split(m, {300.0: d1, 600.0: d2})
        per = {r["T"]: r for r in rows}
        pooled_mse = (2 * per[300.0]["energy_rmse_mev_per_atom"] ** 2
                      + 3 * per[600.0]["energy_rmse_mev_per_atom"] ** 2) / 5
        assert per["all"]["energy_rmse_mev_per_atom"] == pytest.approx(
            np.sqrt(pooled_mse), rel=1e-12)

    def test_empty_split_rejected(self):
        m = random_model(3)
        with pytest.raises(ValueError):
            Dataset([])


class TestExtrapolationSlope:
    def test_collinear_points(self):
        fit = extrapolation_slope([(300.0, 30.0), (600.0, 60.0), (1200.0, 120.0)])
        assert fit.m == pytest.approx(0.1, abs=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_errors_zero_slope(self):
        fit = extrapolation_slope([(300.0, 25.0), (600.0, 25.0), (1200.0, 25.0)])
        assert fit.m == pytest.approx(0.0, abs=1e-15)

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            t = rng.uniform(100, 2000, 3)
            e = rng.uniform(5, 300, 3)
            fit = extrapolation_slope(list(zip(t, e)))
            m, b = oracle_ols(t, e)
            assert fit.m == pytest.approx(m, rel=1e-12)
            assert fit.b == pytest.approx(b, rel=1e-12)

    def test_duplicate_temperatures_rejected(self):
        with pytest.raises(ValueError):
            extrapolation_slope([(300.0, 10.0), (300.0, 20.0)])


class TestLearningCurveSlope:
    def test_inverse_sqrt_gives_minus_two(self):
        points = [(n, 3.0 * n ** -0.5) for n in (25, 125, 250, 500)]
        fit = learning_curve_slope(points)
        assert fit.m == pytest.approx(-2.0, abs=1e-10)

    def test_constant_error_degenerate(self):
        with pytest.raises(ValueError):
            learning_curve_slope([(25, 10.0), (125, 10.0), (500, 10.0)])

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            learning_curve_slope([(25, 0.0), (125, 10.0)])
        with pytest.raises(ValueError):
            learning_curve_slope([(0, 1.0), (125, 10.0)])

    def test_matches_closed_form_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = rng.integers(10, 1000, 4)
            eps = rng.uniform(1.0, 100.0, 4)
            fit = learning_curve_slope(list(zip(n, eps)))
            m, b = oracle_ols(np.log(eps), np.log(n))
            assert fit.m == pytest.approx(m, rel=1e-12)
            assert fit.b == pytest.approx(b, rel=1e-12)


class TestToyRegression:
    def test_zero_noise_exact_recovery(self):
        for n in (2, 3, 7, 50, 1000):
            x = np.linspace(0.0, 1.0, n)
            a, b, _ = ols(x, 2.0 * x + 1.0)
            assert abs(a - 2.0) < 1e-12 and abs(b - 1.0) < 1e-12
        result = toy_regression_experiment([2, 10, 100], [0.0], repeats=3, seed=0)
        assert np.all(result.mean_rmse <= 1e-12)

    def test_large_n_suppresses_noise(self):
        result = toy_regression_experiment([10000], [1.0], repeats=100, seed=1)
        assert result.mean_rmse[0, 0] < 0.05

    def test_rmse_nonincreasing_in_n(self):
        result = toy_regression_experiment([4, 16, 64, 256, 1024], [1.0],
                                           repeats=200, seed=2)
        rmse = result.mean_rmse[:, 0]
        se = result.stderr_rmse[:, 0]
        for k in range(len(rmse) - 1):
            assert rmse[k + 1] <= rmse[k] + 3 * np.hypot(se[k], se[k + 1])

    def test_validation(self):
        with pytest.raises(ValueError):
            toy_regression_experiment([1], [0.1], repeats=2)
        with pytest.raises(ValueError):
            toy_regression_experiment([4], [0.1], repeats=0)
        for bad in (math.nan, math.inf, -1.0):   # NaN once wrote NaN rows; -1 was accepted
            with pytest.raises(ValueError, match="noise levels must be finite and >= 0"):
                toy_regression_experiment([4], [0.0, bad], repeats=2)

    def test_reproducible(self):
        a = toy_regression_experiment([5, 10], [0.3, 0.6], repeats=5, seed=3)
        b = toy_regression_experiment([5, 10], [0.3, 0.6], repeats=5, seed=3)
        np.testing.assert_array_equal(a.mean_rmse, b.mean_rmse)


class TestPersistence:
    def test_slope_json(self, tmp_path):
        import json
        fit = SlopeFit(1.0, 2.0, 0.9, "x", "y", 4)
        write_slope_json(fit, tmp_path / "s.json")
        doc = json.loads((tmp_path / "s.json").read_text())
        assert doc["m"] == 1.0 and doc["n_points"] == 4

    def test_rmse_and_toy_csv(self, tmp_path):
        m = random_model(5)
        rows = rmse_by_split(m, {300.0: labeled_dataset(m, 2, seed=9)})
        write_rmse_csv(rows, tmp_path / "r.csv")
        assert (tmp_path / "r.csv").read_text().splitlines()[0] == \
            "T,energy_rmse_mev_per_atom,force_rmse_mev_per_ang,n_frames"
        result = toy_regression_experiment([2, 4], [0.0, 0.1], repeats=2, seed=0)
        write_toy_csv(result, tmp_path / "t.csv")
        assert len((tmp_path / "t.csv").read_text().splitlines()) == 5
