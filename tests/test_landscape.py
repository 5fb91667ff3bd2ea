import numpy as np
import pytest

from potscape.descriptors import DescriptorSpec
from potscape.landscape import (DegenerateDirectionError, Direction, LandscapeProfile,
                                filter_normalize, interpolate_models, landscape_1d,
                                landscape_2d, orthogonalize_pair, read_profile_csv,
                                reweight_surface, sample_direction, write_profile_csv,
                                write_surface_csv)
from potscape.model import (FilterBlock, FilterPartition, NeuralPotential,
                            ParameterVector, loss_eval)
from potscape.seeding import substream
from tests.conftest import labeled_dataset, random_model


def two_block_vector(values, frozen=(False, False)):
    n = len(values) // 2
    part = FilterPartition([FilterBlock(1, 0, 0, n, frozen[0]),
                            FilterBlock(1, 1, n, len(values) - n, frozen[1])], len(values))
    return ParameterVector(np.asarray(values, dtype=float), part)


class TestSampleDirection:
    def test_same_seed_identical(self):
        p = two_block_vector([1.0, 2.0, 3.0, 4.0])
        d1 = sample_direction(p, 42)
        d2 = sample_direction(p, 42)
        np.testing.assert_array_equal(d1.values, d2.values)
        assert not d1.normalized

    def test_all_frozen_gives_zero(self):
        p = two_block_vector([1.0, 2.0, 3.0, 4.0], frozen=(True, True))
        d = sample_direction(p, 7)
        assert np.all(d.values == 0.0)

    def test_moment_check(self):
        n = 1_000_000
        part = FilterPartition([FilterBlock(1, 0, 0, n)], n)
        p = ParameterVector(np.ones(n), part)
        d = sample_direction(p, 123)
        assert abs(d.values.mean()) < 0.01
        assert abs(d.values.std() - 1.0) < 0.01


class TestFilterNormalize:
    def test_forced_example(self):
        # parameter block norm 2 against direction block (3, 4)
        p = two_block_vector([2.0, 0.0, 1.0, 1.0])
        d = Direction(np.array([3.0, 4.0, 1.0, 1.0]))
        out = filter_normalize(d, p)
        np.testing.assert_allclose(out.values[:2], [1.2, 1.6], rtol=1e-15)
        assert out.normalized

    def test_dead_parameter_block_zeroed(self):
        p = two_block_vector([0.0, 0.0, 1.0, 1.0])
        d = Direction(np.array([3.0, 4.0, 1.0, 2.0]))
        out = filter_normalize(d, p)
        assert np.all(out.values[:2] == 0.0)
        assert np.linalg.norm(out.values[2:]) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    def test_zero_direction_block_rejected(self):
        p = two_block_vector([2.0, 0.0, 1.0, 1.0])
        d = Direction(np.array([0.0, 0.0, 1.0, 2.0]))
        with pytest.raises(DegenerateDirectionError):
            filter_normalize(d, p)

    def test_norms_match_on_random_models(self):
        worst = 0.0
        for seed in range(100):
            m = random_model(seed, trainable_basis=(seed % 2 == 0))
            p = m.params
            d = filter_normalize(sample_direction(p, seed + 1), p)
            for b, sl in p.partition.slices():
                tn = np.linalg.norm(p.values[sl])
                dn = np.linalg.norm(d.values[sl])
                worst = max(worst, abs(dn - tn))
        assert worst < 1e-12

    def test_frozen_blocks_stay_zero(self):
        m = random_model(3, trainable_basis=True)
        part = m.params.partition.with_frozen(m.params.partition.blocks_in_layer(0))
        p = ParameterVector(m.params.values, part)
        d = filter_normalize(sample_direction(p, 5), p)
        k = m.descriptor.n_radial
        assert np.all(d.values[:2 * k] == 0.0)
        assert np.any(d.values[2 * k:] != 0.0)


class TestOrthogonalize:
    def test_orthogonal_inputs_unchanged_up_to_normalization(self):
        p = two_block_vector([1.0, 1.0, 1.0, 1.0])
        d1 = Direction(np.array([1.0, 1.0, 1.0, 1.0]))
        d2 = Direction(np.array([1.0, -1.0, 1.0, -1.0]))  # orthogonal to d1
        o1, o2 = orthogonalize_pair(d1, d2, p)
        # Gram-Schmidt leaves orthogonal inputs alone; only per-block scaling applies
        for out, src in ((o1, d1), (o2, d2)):
            for _, sl in p.partition.slices():
                ratio = out.values[sl] / src.values[sl]
                np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)

    def test_raw_outputs_orthogonal(self):
        rng = np.random.default_rng(0)
        n = 64
        part = FilterPartition([FilterBlock(1, 0, 0, n)], n)
        p = ParameterVector(rng.standard_normal(n), part)
        d1 = Direction(rng.standard_normal(n))
        d2 = Direction(rng.standard_normal(n))
        v1 = d1.values
        v2 = d2.values - (d2.values @ v1) / (v1 @ v1) * v1
        assert abs(v1 @ v2) < 1e-10 * np.linalg.norm(v1) * np.linalg.norm(d2.values)
        orthogonalize_pair(d1, d2, p)  # must not raise

    def test_parallel_rejected(self):
        p = two_block_vector([1.0, 1.0, 1.0, 1.0])
        d1 = Direction(np.array([1.0, 2.0, 3.0, 4.0]))
        with pytest.raises(DegenerateDirectionError):
            orthogonalize_pair(d1, Direction(d1.values.copy()), p)

    def test_normalized_inputs_rejected(self):
        p = two_block_vector([1.0, 1.0, 1.0, 1.0])
        d1 = Direction(np.array([1.0, 2.0, 3.0, 4.0]), normalized=True)
        with pytest.raises(ValueError):
            orthogonalize_pair(d1, Direction(np.array([4.0, 3.0, 2.0, 1.0])), p)


class TestLandscape1D:
    def make_setup(self, seed=0, **kwargs):
        m = random_model(seed, **kwargs)
        ds = labeled_dataset(m, 3, seed=seed + 50, energy_offset=0.02,
                             force_offset=np.array([0.03, 0.0, -0.01]))
        return m, ds

    def test_center_equals_direct_loss(self):
        m, ds = self.make_setup()
        profile = landscape_1d(m, ds, n_dirs=3, seed=1)
        direct = loss_eval(m, ds)
        i0 = np.nonzero(profile.t_grid == 0.0)[0][0]
        for n in range(3):
            assert profile.loss_E[n, i0] == direct.loss_E
            assert profile.loss_F[n, i0] == direct.loss_F

    def test_single_direction_mean_identity(self):
        m, ds = self.make_setup(1)
        profile = landscape_1d(m, ds, n_dirs=1, seed=2)
        np.testing.assert_array_equal(profile.mean_E, profile.loss_E[0])

    def test_evaluation_count(self):
        m, ds = self.make_setup(2)
        t_grid = np.linspace(-1, 1, 7)
        profile = landscape_1d(m, ds, n_dirs=4, t_grid=t_grid, seed=3)
        assert profile.metadata["n_evaluations"] == 4 * (7 - 1) + 1

    def test_requires_zero_in_grid(self):
        m, ds = self.make_setup(3)
        with pytest.raises(ValueError):
            landscape_1d(m, ds, n_dirs=1, t_grid=np.linspace(0.1, 1, 5), seed=0)

    def test_quadratic_loss_symmetric(self):
        # linear readout (no hidden layers) + self-labeled data: the combined
        # loss is exactly quadratic with its minimum at the current parameters
        spec = DescriptorSpec.default(n_radial=5)
        m = NeuralPotential.create(spec, hidden=(), seed=4)
        ds = labeled_dataset(m, 3, seed=77)
        profile = landscape_1d(m, ds, n_dirs=4, seed=5)
        for curve in (profile.mean_E, profile.mean_F):
            np.testing.assert_allclose(curve, curve[::-1], rtol=1e-10, atol=1e-12)

    def test_mean_invariant_under_direction_permutation(self):
        m, ds = self.make_setup(4)
        profile = landscape_1d(m, ds, n_dirs=5, seed=6)
        perm = np.random.default_rng(0).permutation(5)
        np.testing.assert_allclose(profile.loss_E[perm].mean(axis=0), profile.mean_E,
                                   rtol=1e-10, atol=0)

    def test_frozen_blocks_never_perturbed(self):
        m, ds = self.make_setup(5, trainable_basis=True)
        frozen = m.params.partition.blocks_in_layer(0)
        part = m.params.partition.with_frozen(frozen)
        pvec = ParameterVector(m.params.values, part)
        d = filter_normalize(sample_direction(pvec, 9), pvec)
        k = m.descriptor.n_radial
        for t in (-1.0, 0.5, 1.0):
            perturbed = m.params.values + t * d.values
            np.testing.assert_array_equal(perturbed[:2 * k], m.params.values[:2 * k])

    @pytest.mark.parametrize("trainable_basis,freeze_basis",
                             [(False, False), (True, True), (True, False)])
    def test_grid_points_match_fresh_evaluation(self, trainable_basis, freeze_basis):
        # the landscape reuses one table (and its cached descriptor matrix) for
        # every point; each point must equal a standalone evaluation exactly
        m, ds = self.make_setup(6, trainable_basis=trainable_basis)
        frozen = m.params.partition.blocks_in_layer(0) if freeze_basis else []
        t_grid = np.linspace(-1.0, 1.0, 5)
        profile = landscape_1d(m, ds, n_dirs=3, t_grid=t_grid, frozen=frozen, seed=7)
        pvec = ParameterVector(m.params.values, m.params.partition.with_frozen(frozen))
        for n in range(3):
            raw = sample_direction(pvec, substream(7, "direction", n).integers(2**31))
            d = filter_normalize(raw, pvec).values
            for i, t in enumerate(t_grid):
                direct = loss_eval(m.with_values(m.params.values + t * d), ds)
                assert profile.loss_E[n, i] == direct.loss_E
                assert profile.loss_F[n, i] == direct.loss_F

    def test_nonfinite_sentinel(self):
        m, ds = self.make_setup(7)
        # gigantic displacement overflows the energy into inf, not an exception
        t_grid = np.array([-1e200, 0.0, 1e200])
        profile = landscape_1d(m, ds, n_dirs=1, t_grid=t_grid, seed=8)
        assert np.isfinite(profile.loss_E[0, 1])
        assert profile.metadata["nonfinite_points"] or np.all(np.isfinite(profile.loss_E))


class TestLandscape2D:
    def test_center_and_axis_consistency(self):
        m = random_model(8)
        ds = labeled_dataset(m, 3, seed=123, energy_offset=0.02)
        grid = np.linspace(-0.5, 0.5, 3)
        surface = landscape_2d(m, ds, t1_grid=grid, t2_grid=grid, seed=11)
        direct = loss_eval(m, ds)
        assert surface.loss_E[1, 1] == direct.loss_E
        profile = landscape_1d(m, ds, n_dirs=1, t_grid=grid, seed=11)
        np.testing.assert_allclose(surface.loss_E[:, 1], profile.loss_E[0], rtol=1e-12)
        assert surface.metadata["n_evaluations"] == 9

    def test_reweight(self):
        m = random_model(9)
        ds = labeled_dataset(m, 2, seed=321, energy_offset=0.01,
                             force_offset=np.array([0.02, 0.0, 0.0]))
        grid = np.linspace(-0.5, 0.5, 3)
        s = landscape_2d(m, ds, t1_grid=grid, t2_grid=grid, seed=13)
        np.testing.assert_array_equal(reweight_surface(s, 1.0, 0.0), s.loss_E)
        before_E = s.loss_E.copy()
        c1 = reweight_surface(s, 1.0, 10.0)
        c2 = reweight_surface(s, 1.0, 10.0)
        np.testing.assert_array_equal(c1, c2)
        np.testing.assert_array_equal(s.loss_E, before_E)  # pure function
        np.testing.assert_allclose(reweight_surface(s, 1.0, 2.0),
                                   reweight_surface(s, 1.0, 0.0)
                                   + 2.0 * reweight_surface(s, 0.0, 1.0), rtol=1e-15)
        with pytest.raises(ValueError):
            reweight_surface(s, -1.0, 1.0)


class TestInterpolation:
    def test_identical_models_constant_curve(self):
        m = random_model(10)
        ds = labeled_dataset(m, 2, seed=55, energy_offset=0.01)
        profile = interpolate_models(m, m, ds, np.linspace(0, 1, 5))
        assert len(set(profile.loss_E[0])) == 1

    def test_endpoints_match_each_model(self):
        mA = random_model(11)
        mB = random_model(12)
        ds = labeled_dataset(mA, 3, seed=66, energy_offset=0.02)
        profile = interpolate_models(mA, mB, ds, np.linspace(0, 1, 11))
        assert profile.loss_E[0, 0] == pytest.approx(loss_eval(mA, ds).loss_E, abs=1e-12)
        assert profile.loss_E[0, -1] == pytest.approx(loss_eval(mB, ds).loss_E, abs=1e-12)

    def test_midpoint_is_coordinate_mean(self):
        mA = random_model(13)
        mB = random_model(14)
        ds = labeled_dataset(mA, 2, seed=88, energy_offset=0.01)
        profile = interpolate_models(mA, mB, ds, np.array([0.0, 0.5, 1.0]))
        mid = mA.with_values(0.5 * (mA.params.values + mB.params.values))
        assert profile.loss_E[0, 1] == loss_eval(mid, ds).loss_E

    def test_nonfinite_points_reported(self):
        mA = random_model(17)
        mB = mA.with_values(mA.params.values * 1e300)
        ds = labeled_dataset(mA, 2, seed=77, energy_offset=0.01)
        profile = interpolate_models(mA, mB, ds, np.array([0.0, 1.0]))
        assert np.isfinite(profile.loss_E[0, 0]) and profile.loss_E[0, 1] == np.inf
        assert profile.metadata["nonfinite_points"] == [[0, 1]]
        grid = np.array([-1e200, 0.0, 1e200])
        surface = landscape_2d(mA, ds, t1_grid=grid, t2_grid=grid, seed=8)
        bad = ~(np.isfinite(surface.loss_E) & np.isfinite(surface.loss_F))
        assert bad.any() and not bad[1, 1]
        assert surface.metadata["nonfinite_points"] == [list(ij) for ij in np.argwhere(bad)]

    def test_shape_mismatch_rejected(self):
        mA = random_model(15)
        mB = random_model(16, hidden=(8, 8))
        ds = labeled_dataset(mA, 2, seed=99, energy_offset=0.01)
        with pytest.raises(ValueError):
            interpolate_models(mA, mB, ds)


class TestPersistence:
    def test_profile_roundtrip_with_inf(self, tmp_path):
        t = np.linspace(-1, 1, 5)
        loss_E = np.array([[1.0, 2.0, 0.5, np.inf, 3.0], [1.5, 2.5, 0.5, 4.0, 5.0]])
        loss_F = loss_E * 10.0
        profile = LandscapeProfile(t, loss_E, loss_F, {"kind": "landscape1d", "seed": 3})
        path = tmp_path / "profile.csv"
        write_profile_csv(profile, path)
        again = read_profile_csv(path)
        np.testing.assert_array_equal(again.t_grid, t)
        np.testing.assert_array_equal(again.loss_E, loss_E)
        np.testing.assert_array_equal(again.loss_F, loss_F)
        assert again.metadata["seed"] == 3

    def test_surface_csv_written(self, tmp_path):
        m = random_model(17)
        ds = labeled_dataset(m, 2, seed=44, energy_offset=0.01)
        grid = np.linspace(-0.5, 0.5, 3)
        s = landscape_2d(m, ds, t1_grid=grid, t2_grid=grid, seed=3)
        path = tmp_path / "surface.csv"
        write_surface_csv(s, path, combined=reweight_surface(s, 1.0, 10.0))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t1,t2,loss_energy,loss_force,combined"
        assert len(lines) == 10
