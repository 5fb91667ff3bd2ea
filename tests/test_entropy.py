import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape import entropy as entropy_mod
from potscape.entropy import (DEFAULT_ALPHA, EntropyReport, entropy_from_profile, loss_entropy,
                              temperature_sweep, weighted_entropy, write_report_json,
                              write_sweep_csv)
from potscape.landscape import LandscapeProfile


def make_profile(curve_E, curve_F=None):
    curve_E = np.asarray(curve_E, dtype=float)
    curve_F = curve_E * 10.0 if curve_F is None else np.asarray(curve_F, dtype=float)
    t = np.linspace(-1, 1, len(curve_E))
    return LandscapeProfile(t, curve_E[None, :], curve_F[None, :], {"kind": "test"})


class TestLossEntropy:
    def test_flat_zero_curve(self):
        s = loss_entropy(np.zeros(21), kT=4.0)
        assert s == pytest.approx(math.log(21), abs=1e-12)

    def test_two_point_oracle(self):
        kT = 3.7
        s = loss_entropy(np.array([0.0, kT]), kT=kT)
        assert s == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-12)

    def test_constant_shift_rule_1000_cases(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = rng.integers(2, 40)
            kT = float(rng.uniform(0.5, 50.0))
            curve = rng.uniform(0.0, 100.0, n) * kT / 10.0
            c = float(rng.uniform(0.0, 10.0)) * kT
            lhs = loss_entropy(curve + c, kT)
            rhs = loss_entropy(curve, kT) - c / kT
            assert abs(lhs - rhs) < 1e-12

    def test_infinite_sentinel_contributes_nothing(self):
        base = np.array([0.0, 1.0, 2.0])
        with_inf = np.array([0.0, 1.0, 2.0, np.inf])
        assert loss_entropy(with_inf, 1.0) == pytest.approx(loss_entropy(base, 1.0), abs=1e-15)

    def test_all_infinite(self):
        assert loss_entropy(np.full(5, np.inf), 1.0) == -np.inf

    def test_extreme_magnitudes_stay_finite(self):
        kT = 2.0
        assert math.isfinite(loss_entropy(np.array([0.0, 1e6 * kT]), kT))
        assert math.isfinite(loss_entropy(np.full(11, 1e6 * kT), kT))

    def test_errors(self):
        with pytest.raises(ValueError):
            loss_entropy(np.array([]), 1.0)
        with pytest.raises(ValueError):
            loss_entropy(np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            loss_entropy(np.array([np.nan]), 1.0)

    @pytest.mark.parametrize("kT", [math.nan, math.inf])
    def test_nonfinite_kT_rejected(self, kT):
        # NaN once gave S = NaN, and inf gave log n for any curve
        with pytest.raises(ValueError, match="kT must be positive and finite"):
            loss_entropy(np.array([1.0, 2.0]), kT)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.0, 1e4), min_size=2, max_size=30),
           st.floats(0.1, 100.0))
    def test_upper_bound_iff_zero(self, curve, kT):
        curve = np.array(curve)
        s = loss_entropy(curve, kT)
        assert s <= math.log(len(curve)) + 1e-12
        if np.all(curve == 0.0):
            assert s == pytest.approx(math.log(len(curve)), abs=1e-12)
        elif curve.max() > 1e-9 * kT:  # strict drop needs a float-resolvable loss
            assert s < math.log(len(curve))


class TestWeightedEntropy:
    def test_published_row_no_rescaling(self):
        assert weighted_entropy(-1.53, -0.67, 0.2) == pytest.approx(-0.842, abs=1e-12)

    def test_published_row_rescaling(self):
        assert weighted_entropy(0.26, 1.90, 0.2) == pytest.approx(1.572, abs=1e-12)

    def test_alpha_extremes(self):
        assert weighted_entropy(3.0, -1.0, 1.0) == 3.0
        assert weighted_entropy(3.0, -1.0, 0.0) == -1.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            weighted_entropy(1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            weighted_entropy(1.0, 1.0, -0.1)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10), st.floats(-10, 10), st.floats(0, 1))
    def test_affine_bounds(self, se, sf, alpha):
        s = weighted_entropy(se, sf, alpha)
        assert min(se, sf) - 1e-12 <= s <= max(se, sf) + 1e-12


class TestProfileEntropy:
    def test_zero_profile_gives_log_grid(self):
        p = make_profile(np.zeros(21), np.zeros(21))
        for alpha in (0.0, 0.2, 1.0):
            r = entropy_from_profile(p, alpha=alpha)
            assert r.S == pytest.approx(math.log(21), abs=1e-12)

    def test_defaults_echoed(self):
        p = make_profile(np.linspace(0, 5, 11))
        r = entropy_from_profile(p)
        assert (r.T_E, r.T_F, r.alpha, r.k) == (4.0, 40.0, 0.2, 1.0)
        assert r.grid_points == 11
        assert DEFAULT_ALPHA == 0.2

    def test_flatter_profile_has_larger_entropy(self):
        # same minimum, pointwise-dominating sharper curve
        t = np.linspace(-1, 1, 21)
        flat = 5.0 * t**2
        sharp = 25.0 * t**2
        p_flat = make_profile(flat, flat * 10)
        p_sharp = make_profile(sharp, sharp * 10)
        r_flat = entropy_from_profile(p_flat)
        r_sharp = entropy_from_profile(p_sharp)
        assert r_flat.S_E > r_sharp.S_E
        assert r_flat.S_F > r_sharp.S_F
        assert r_flat.S > r_sharp.S

    def test_mean_over_directions_used(self):
        t = np.linspace(-1, 1, 5)
        loss_E = np.array([[0.0, 1.0, 2.0, 1.0, 0.0], [2.0, 1.0, 0.0, 1.0, 2.0]])
        p = LandscapeProfile(t, loss_E, loss_E, {})
        r = entropy_from_profile(p, T_E=1.0, T_F=1.0, alpha=0.5)
        expected = loss_entropy(loss_E.mean(axis=0), 1.0)
        assert r.S == pytest.approx(expected, abs=1e-14)


class TestSweep:
    def test_monotone_in_temperature(self):
        p = make_profile(np.abs(np.linspace(-1, 1, 21)) * 30.0)
        reports, info = temperature_sweep(p, (0.4, 400.0), (4.0, 4000.0), points=20)
        s = [r.S for r in reports]
        assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))
        assert info["flat_zero_entropy"] == pytest.approx(math.log(21))

    def test_consistent_with_single_report(self):
        p = make_profile(np.linspace(0, 8, 21))
        reports, _ = temperature_sweep(p, (4.0, 16.0), (40.0, 160.0), points=3)
        single = entropy_from_profile(p, T_E=4.0, T_F=40.0)
        assert reports[0].S == pytest.approx(single.S, abs=1e-14)

    def test_nested_profiles_keep_ranking_across_sweep(self):
        t = np.linspace(-1, 1, 21)
        p_flat = make_profile(3.0 * t**2, 30.0 * t**2)
        p_sharp = make_profile(12.0 * t**2, 120.0 * t**2)
        r_flat, _ = temperature_sweep(p_flat, (2.0, 8.0), (20.0, 80.0), points=9)
        r_sharp, _ = temperature_sweep(p_sharp, (2.0, 8.0), (20.0, 80.0), points=9)
        assert all(a.S > b.S for a, b in zip(r_flat, r_sharp))

    def test_invalid_ranges(self):
        p = make_profile(np.zeros(5))
        with pytest.raises(ValueError):
            temperature_sweep(p, (0.0, 1.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            temperature_sweep(p, (1.0, 2.0), (1.0, 2.0), points=1)

    @pytest.mark.parametrize("kwargs,message", [
        ({"alpha": 1.5}, "alpha must lie in [0, 1], got 1.5"),
        ({"alpha": np.nan}, "alpha must lie in [0, 1], got nan"),
        ({"points": 1}, "points must be >= 2, got 1"),
    ])
    def test_alpha_and_points_checked_first(self, monkeypatch, kwargs, message):
        # the sweep once computed its first report's entropies before rejecting alpha
        monkeypatch.setattr(entropy_mod, "loss_entropy", None)
        with pytest.raises(ValueError) as err:
            temperature_sweep(make_profile(np.zeros(5)), **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("t_e_range,t_f_range", [
        ((400.0, np.nan), (4.0, 4000.0)), ((np.nan, 400.0), (4.0, 4000.0)),
        ((0.4, 400.0), (4.0, np.inf)), ((0.4, 400.0), (np.nan, 4000.0)),
        ((0.4,), (4.0, 4000.0)),
    ])
    def test_bad_range_rejected(self, t_e_range, t_f_range):
        # min() of a range with a NaN can be finite, so such a sweep once wrote NaN rows,
        # and a one-bound range raised an IndexError (no manifest, exit 1)
        with pytest.raises(ValueError, match="ranges must be pairs of positive, finite bounds"):
            temperature_sweep(make_profile(np.zeros(5)), t_e_range, t_f_range)


class TestPersistence:
    def test_report_json_keys(self, tmp_path):
        import json
        r = EntropyReport(S_E=0.1, S_F=0.2, S=0.18, T_E=4.0, T_F=40.0, alpha=0.2,
                          k=1.0, grid_points=21, profile_ref="p.csv")
        path = tmp_path / "entropy.json"
        write_report_json(r, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"S_E", "S_F", "S", "T_E_mev_per_atom", "T_F_mev_per_ang",
                            "alpha", "k", "grid_points", "profile_ref"}

    def test_sweep_csv_header(self, tmp_path):
        p = make_profile(np.zeros(5))
        reports, info = temperature_sweep(p, (1.0, 2.0), (1.0, 2.0), points=4)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(reports, path, info=info)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "T_E,T_F,S_E,S_F,S"
        assert len(lines) == 5
