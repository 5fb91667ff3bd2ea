"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavier criteria
(denoising, entropy vs. MD stability) train small models on synthetic Morse
data and take a few minutes total.
"""

import functools
import json
import math

import numpy as np
import pytest

from potscape.analysis import (extrapolation_slope, learning_curve_slope, ols,
                               toy_regression_experiment)
from potscape.cli import EXIT_OK, run_command
from potscape.data import Configuration, NoiseSpec, corrupt_labels, generate_reference_dataset
from potscape.descriptors import DescriptorSpec
from potscape.entropy import loss_entropy, temperature_sweep, weighted_entropy
from potscape.landscape import (LandscapeProfile, filter_normalize, free_blocks,
                                interpolate_models, landscape_1d, sample_direction)
from potscape.md import (MDConfig, _check_bonds, init_velocities, instantaneous_temperature,
                         kinetic_energy, masses_for, md_step)
from potscape.model import (DatasetTables, NeuralPotential, loss_eval,
                            tables_loss, tables_loss_grad, fit_rescale)
from potscape.potentials import LennardJones, Morse, build_cluster
from potscape.training import TrainConfig, train
from tests.conftest import ROOT, flatness, labeled_dataset, md_state, random_cluster, random_model


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL  {desc}")
                raise
            print(f"ACCEPTANCE {num:02d} PASS  {desc}")
        return wrapper
    return deco


# Published NNIP ablation entropies (S_energy, S_force, weighted S at alpha=0.2).
REFERENCE_ENTROPY_ROWS_A = [  # 13 rows, message-passing-depth study
    (-1.53, -0.67, -0.84), (0.33, 1.78, 1.49), (0.26, 1.90, 1.57),
    (0.13, 1.98, 1.61), (0.35, 1.78, 1.50), (-0.13, 1.87, 1.47),
    (2.02, 2.13, 2.11), (2.29, 2.35, 2.34), (1.41, 2.16, 2.01),
    (0.33, 1.80, 1.51), (0.09, 2.34, 1.89), (0.19, 2.48, 2.02),
    (2.14, 2.31, 2.28),
]
REFERENCE_ENTROPY_ROWS_B = [  # 15 rows, body-order/symmetry study
    (-0.31, -0.05, -0.11), (0.63, 2.48, 2.11), (0.28, 2.45, 2.02),
    (0.52, 2.53, 2.13), (0.28, 2.45, 2.02), (0.55, 2.56, 2.16),
    (0.08, 2.45, 1.97), (0.48, 2.48, 2.08), (0.92, 1.93, 1.73),
    (1.15, 2.74, 2.42), (0.42, 2.47, 2.06), (0.47, 2.44, 2.04),
    (2.04, 2.17, 2.14), (0.47, 2.44, 2.04), (0.63, 2.64, 2.24),
]


@criterion(1, "weighted entropy reproduces 13+15 published rows within 0.01")
def test_01_weighted_entropy_reference_rows():
    assert len(REFERENCE_ENTROPY_ROWS_A) == 13
    assert len(REFERENCE_ENTROPY_ROWS_B) == 15
    for s_e, s_f, s in REFERENCE_ENTROPY_ROWS_A + REFERENCE_ENTROPY_ROWS_B:
        assert abs(weighted_entropy(s_e, s_f, 0.2) - s) <= 0.01


@criterion(2, "entropy of an all-zero 21-point curve equals ln 21 to 1e-12")
def test_02_flat_landscape_identity():
    assert abs(loss_entropy(np.zeros(21), 4.0) - math.log(21)) < 1e-12


@criterion(3, "constant-shift rule S(l+c) = S(l) - c/kT to 1e-12, 1000 cases")
def test_03_entropy_shift_rule():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        n = int(rng.integers(2, 50))
        kT = float(rng.uniform(0.5, 80.0))
        curve = rng.uniform(0.0, 40.0, n) * kT / 4.0
        c = float(rng.uniform(0.0, 12.0)) * kT
        assert abs(loss_entropy(curve + c, kT) - (loss_entropy(curve, kT) - c / kT)) < 1e-12


@criterion(4, "per-block norm of normalized directions matches weights to 1e-12; frozen zero")
def test_04_filter_normalization():
    for seed in range(100):
        m = random_model(seed, trainable_basis=(seed % 3 == 0))
        frozen = [k for k, b in enumerate(m.blocks) if b.layer == 0]   # none on a fixed basis
        free = free_blocks(m, frozen)
        d = filter_normalize(sample_direction(m.params, free, seed + 7), m.params, free)
        for k, b in enumerate(m.blocks):
            sl = slice(b.offset, b.offset + b.length)
            if k in frozen:
                assert np.all(d.values[sl] == 0.0)
            else:
                assert abs(np.linalg.norm(d.values[sl]) - np.linalg.norm(m.params[sl])) < 1e-12


@criterion(5, "landscape center and interpolation endpoints match direct loss to 1e-12")
def test_05_landscape_endpoints():
    m_a = random_model(31)
    m_b = random_model(32)
    ds = labeled_dataset(m_a, 4, seed=33, energy_offset=0.01,
                         force_offset=np.array([0.02, -0.01, 0.0]))
    direct = loss_eval(m_a, ds)
    profile = landscape_1d(m_a, ds, n_dirs=3, seed=1)
    i0 = int(np.nonzero(profile.t_grid == 0.0)[0][0])
    assert np.all(np.abs(profile.loss_E[:, i0] - direct.loss_E) < 1e-12)
    assert np.all(np.abs(profile.loss_F[:, i0] - direct.loss_F) < 1e-12)
    interp = interpolate_models(m_a, m_b, ds, np.linspace(0, 1, 7))
    assert abs(interp.loss_E[0, 0] - direct.loss_E) < 1e-12
    assert abs(interp.loss_E[0, -1] - loss_eval(m_b, ds).loss_E) < 1e-12


@criterion(6, "forces and training-loss gradient match finite differences, rel < 1e-5")
def test_06_force_and_gradient_correctness():
    h = 1e-5
    lj = LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0)
    mo = Morse(cutoff=6.0)
    for seed in range(50):
        pos = random_cluster(5, seed, box=3.0, min_dist=1.7)
        pot = lj if seed % 2 == 0 else mo
        nn = random_model(seed)
        for model in (pot, nn):
            out = model.energy_forces(pos)
            f = out[1]
            fd = np.zeros_like(f)
            for a in range(5):
                for k in range(3):
                    pp, pm = pos.copy(), pos.copy()
                    pp[a, k] += h
                    pm[a, k] -= h
                    fd[a, k] = -(model.energy_forces(pp)[0]
                                 - model.energy_forces(pm)[0]) / (2 * h)
            assert np.max(np.abs(f - fd)) / np.max(np.abs(f)) < 1e-5
    # parameter gradient of the combined training objective
    for seed in range(6):
        m = random_model(seed, trainable_basis=(seed % 2 == 0))
        ds = labeled_dataset(m, 3, seed=seed + 60, energy_offset=0.05,
                             force_offset=np.array([0.04, -0.02, 0.01]))
        tables = DatasetTables(m, ds)
        v0 = m.params.copy()
        _, grad = tables_loss_grad(m, tables, v0, 1.0, 10.0)
        fd = np.zeros_like(grad)
        hp = 1e-6
        for i in range(len(v0)):
            vp, vm = v0.copy(), v0.copy()
            vp[i] += hp
            vm[i] -= hp
            fd[i] = (tables_loss(m, tables, vp, 1.0, 10.0).combined
                     - tables_loss(m, tables, vm, 1.0, 10.0).combined) / (2 * hp)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5


@criterion(7, "NVE drift < 1e-5 over 1000 steps; Berendsen within 5% of target after 5 tau")
def test_07_md_physics():
    lj = LennardJones(epsilon=0.0104, sigma=3.4, cutoff=9.0)
    pos = np.array([[0.0, 0.0, 0.0], [1.05 * lj.r_min, 0.0, 0.0]])
    masses = masses_for(["Ar", "Ar"])
    state = md_state(pos, np.zeros((1, 2, 3)), [300.0], *lj.energy_forces(pos))
    cfg = MDConfig(temperature=300.0, timestep_fs=1.0, tau_fs=math.inf, total_time_ps=1.0)
    total0 = state[5][0] + kinetic_energy(state[3][0], masses)
    for _ in range(1000):
        state, _ = md_step(lj, state, masses, cfg)
        total = state[5][0] + kinetic_energy(state[3][0], masses)
        assert abs(total - total0) / abs(total0) < 1e-5

    mo = Morse()
    pos = build_cluster(mo, 13, seed=2)
    c = Configuration(pos, ["Cu"] * 13)
    T0, tau = 300.0, 100.0
    cfg = MDConfig(temperature=T0, timestep_fs=1.0, tau_fs=tau, total_time_ps=1.0)
    masses = masses_for(c.species)
    v = np.stack([init_velocities(c, 2.0 * T0, seed=k) for k in range(10)])
    state = md_state(pos, v, [T0] * 10, *mo.energy_forces(pos))
    for _ in range(int(5 * tau)):
        state, _ = md_step(mo, state, masses, cfg)
    window = [instantaneous_temperature((state := md_step(mo, state, masses, cfg)[0])[3], masses)
              for _ in range(500)]
    means = np.mean(window, axis=0)
    assert len(means) == 10 and abs(np.mean(means) - T0) / T0 < 0.05


@criterion(8, "bond at 2.01 A flags exactly that pair; 2.00 A does not")
def test_08_failure_detection():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    bonds = np.array([(0, 1), (0, 2)])
    stretched = pos.copy()
    stretched[1, 0] = 2.01
    hit = _check_bonds(stretched, bonds, 2.0)
    assert hit is not None and hit[0] == (0, 1)
    boundary = pos.copy()
    boundary[1, 0] = 2.00
    assert _check_bonds(boundary, bonds, 2.0) is None


@criterion(9, "toy regression: zero at sigma=0; data redundancy suppresses noise")
def test_09_toy_regression():
    # exact recovery at zero noise (float-exact: fitted line equals 2x + 1)
    zero = toy_regression_experiment([2, 3, 5, 10, 100, 1000, 10000], [0.0],
                                     repeats=3, seed=0)
    assert np.all(zero.mean_rmse <= 1e-12)
    for n in (2, 5, 17, 333):
        x = np.linspace(0, 1, n)
        a, b, _ = ols(x, 2.0 * x + 1.0)
        assert abs(a - 2.0) < 1e-12 and abs(b - 1.0) < 1e-12
    # sigma=2: mean RMSE at N=10000 under 10% of N=2 (100 repeats each)
    big = toy_regression_experiment([2, 10000], [2.0], repeats=100, seed=1)
    assert big.mean_rmse[1, 0] < 0.1 * big.mean_rmse[0, 0]
    # nonincreasing in N within 3 standard errors
    sweep = toy_regression_experiment([2, 8, 32, 128, 512], [2.0], repeats=100, seed=2)
    rmse = sweep.mean_rmse[:, 0]
    se = sweep.stderr_rmse[:, 0]
    for k in range(len(rmse) - 1):
        assert rmse[k + 1] <= rmse[k] + 3 * np.hypot(se[k], se[k + 1])


@pytest.fixture(scope="module")
def denoising_run():
    mo = Morse()
    ds = generate_reference_dataset(mo, 6, [300.0], 500, seed=0, species="Cu",
                                    burn_in_steps=1000, stride=20, name="denoise")
    noisy = corrupt_labels(ds, NoiseSpec(sigma=0.1, target="forces", seed=7))
    spec = DescriptorSpec.default(cutoff=5.0, n_radial=8)
    m = fit_rescale(NeuralPotential.create(spec, hidden=(16, 16), seed=0), noisy)
    cfg = TrainConfig(max_epochs=600, batch_size=50, lr0=0.01, amsgrad=True,
                      weight_schedule=((0, 1.0, 25.0),))
    report = train(m, noisy, cfg)
    model = m.with_values(report.best_params)
    return ds, noisy, model


@criterion(10, "denoising: RMSE vs original below noise baseline; vs noisy >= 80% of it")
def test_10_denoising_trend(denoising_run):
    ds, noisy, model = denoising_run
    baseline = 0.1 * ds.sigma_dft_force * 1000.0  # meV/A
    rmse_orig = loss_eval(model, ds).loss_F
    rmse_noisy = loss_eval(model, noisy).loss_F
    assert rmse_orig < baseline
    assert rmse_noisy >= 0.8 * baseline


@pytest.fixture(scope="module")
def ordering_run():
    """The flatness-vs-stability protocol's (name, profile, report, summary) rows:
    converged+rescaled model, then its undertrained+unrescaled twin."""
    return flatness.flatness_vs_stability()


@criterion(11, "converged+rescaled model has larger weighted entropy and larger mean "
               "time-to-failure than undertrained twin (30 trajectories)")
def test_11_entropy_stability_ordering(ordering_run):
    (_, _, ent_conv, sum_conv), (_, _, ent_under, sum_under) = ordering_run
    assert ent_conv.S > ent_under.S
    assert sum_conv.n_trajectories == 30 and sum_under.n_trajectories == 30
    assert sum_conv.mean_ttf > sum_under.mean_ttf


def test_flatness_script_writes_the_rows(ordering_run, tmp_path, monkeypatch):
    # main() only writes and prints what flatness_vs_stability() returns
    monkeypatch.setattr(flatness, "flatness_vs_stability", lambda: ordering_run)
    monkeypatch.setattr(flatness, "OUT", tmp_path)
    assert flatness.main() == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert len(written) == 7
    assert written == sorted(p.name for p in (ROOT / "runs" / "flatness").iterdir())
    for name, _, report, _ in ordering_run:
        assert json.loads((tmp_path / f"entropy_{name}.json").read_text())["S"] == report.S


@criterion(12, "slope fits: m=-2 on inverse-sqrt curve; exact collinear slope; OLS oracle")
def test_12_slope_fits():
    fit = learning_curve_slope([(n, 4.2 * n ** -0.5) for n in (25, 125, 250, 500)])
    assert abs(fit.m - (-2.0)) < 1e-10
    fit = extrapolation_slope([(300.0, 30.0), (600.0, 60.0), (1200.0, 120.0)])
    assert abs(fit.m - 0.1) < 1e-12
    rng = np.random.default_rng(5)
    for _ in range(25):
        x = rng.uniform(1.0, 100.0, 4)
        y = rng.uniform(1.0, 100.0, 4)
        m, b, _ = ols(x, y)
        a_mat = np.vstack([x, np.ones_like(x)]).T
        m_ref, b_ref = np.linalg.solve(a_mat.T @ a_mat, a_mat.T @ y)
        assert abs(m - m_ref) < 1e-12 * max(1.0, abs(m_ref))
        assert abs(b - b_ref) < 1e-12 * max(1.0, abs(b_ref))


@criterion(13, "identical config+seed reruns are byte-identical; a repeated landscape "
               "is identical")
def test_13_determinism(tmp_path):
    config = {"potential.kind": "morse", "data.n_atoms": 5, "data.species": "Cu",
              "data.temperatures": [300.0], "data.frames_per_t": 10,
              "data.burn_in_steps": 200, "data.stride": 10, "seed": 4}
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run_command("gen-data", config, out1) == EXIT_OK
    assert run_command("gen-data", config, out2) == EXIT_OK
    assert (out1 / "dataset.extxyz").read_bytes() == (out2 / "dataset.extxyz").read_bytes()
    assert (out1 / "stats.json").read_bytes() == (out2 / "stats.json").read_bytes()

    toy_cfg = {"toy.n_list": [3, 9], "toy.sigma_list": [0.5], "toy.repeats": 4, "seed": 2}
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    assert run_command("toy-regression", toy_cfg, t1) == EXIT_OK
    assert run_command("toy-regression", toy_cfg, t2) == EXIT_OK
    assert (t1 / "toy.csv").read_bytes() == (t2 / "toy.csv").read_bytes()

    m = random_model(40)
    ds = labeled_dataset(m, 3, seed=41, energy_offset=0.02)
    first = landscape_1d(m, ds, n_dirs=4, seed=3)
    again = landscape_1d(m, ds, n_dirs=4, seed=3)
    np.testing.assert_array_equal(again.loss_E, first.loss_E)
    np.testing.assert_array_equal(again.loss_F, first.loss_F)


@criterion(14, "S(T) nondecreasing for every stored profile; nested ranking stable "
               "across [T/2, 2T]")
def test_14_temperature_sweep_monotonicity(ordering_run):
    t = np.linspace(-1, 1, 21)
    nested_flat = LandscapeProfile(t, (5.0 * t**2)[None, :], (50.0 * t**2)[None, :], {})
    nested_sharp = LandscapeProfile(t, (20.0 * t**2)[None, :], (200.0 * t**2)[None, :], {})
    for profile in [row[1] for row in ordering_run] + [nested_flat, nested_sharp]:
        reports, _ = temperature_sweep(profile, (0.4, 400.0), (4.0, 4000.0), points=15)
        s = [r.S for r in reports]
        assert all(b >= a - 1e-12 for a, b in zip(s, s[1:]))
    r_flat, _ = temperature_sweep(nested_flat, (2.0, 8.0), (20.0, 80.0), points=9)
    r_sharp, _ = temperature_sweep(nested_sharp, (2.0, 8.0), (20.0, 80.0), points=9)
    assert all(a.S > b.S for a, b in zip(r_flat, r_sharp))
