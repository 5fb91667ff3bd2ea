import math

import numpy as np
import pytest

from potscape.data import Configuration
from potscape.geometry import NonFiniteGeometryError, SingularGeometryError
from potscape.md import (MDConfig, _check_bonds, berendsen_lambda, infer_bond_list,
                         init_velocities, instantaneous_temperature, kinetic_energy, masses_for,
                         md_step, run_ensemble, run_trajectory, write_ensemble_json,
                         write_summary_csv)
from potscape.model import NumericEvalError
from potscape.potentials import LennardJones, Morse, build_cluster
from potscape.seeding import substream
from tests.conftest import md_state, random_model


class TestInitVelocities:
    def setup_config(self):
        return Configuration(build_cluster(Morse(), 6, seed=0), ["Cu"] * 6)

    def test_zero_total_momentum(self):
        c = self.setup_config()
        v = init_velocities(c, 500.0, seed=1)
        p = (masses_for(c.species)[:, None] * v).sum(axis=0)
        assert np.abs(p).max() < 1e-12

    def test_exact_instantaneous_temperature(self):
        c = self.setup_config()
        for T in (10.0, 300.0, 1600.0):
            v = init_velocities(c, T, seed=2)
            t = instantaneous_temperature(v, masses_for(c.species))
            assert abs(t - T) / T < 1e-10

    def test_seed_sensitivity(self):
        c = self.setup_config()
        v1 = init_velocities(c, 300.0, seed=3)
        v2 = init_velocities(c, 300.0, seed=4)
        assert np.any(v1 != v2)
        np.testing.assert_array_equal(v1, init_velocities(c, 300.0, seed=3))

    def test_single_atom_rejected(self):
        c = Configuration(np.zeros((1, 3)), ["Ar"])
        with pytest.raises(ValueError):
            init_velocities(c, 300.0, seed=0)


def scalar_lambda(dt, tau, target_T, inst_T):
    """The Berendsen factor of one state in float arithmetic."""
    if not inst_T > 0.0:
        return 1.0
    return min(max(math.sqrt(max(1.0 + (dt / tau) * (target_T / inst_T - 1.0), 0.0)), 0.9), 1.1)


class TestBerendsen:
    def test_lambda_formula(self):
        lam = berendsen_lambda(1.0, 250.0, 1600.0, 800.0)
        assert lam == pytest.approx(math.sqrt(1.004), rel=1e-12)
        assert lam == pytest.approx(1.0019980, abs=1e-7)

    def test_on_target_identity(self):
        assert berendsen_lambda(1.0, 250.0, 1600.0, 1600.0) == 1.0

    def test_clamped(self):
        assert berendsen_lambda(100.0, 1.0, 1600.0, 1.0) == 1.1
        assert berendsen_lambda(100.0, 1.0, 1.0, 1e6) == 0.9

    def test_disabled_thermostat(self):
        assert berendsen_lambda(1.0, math.inf, 1600.0, 5.0) == 1.0

    @pytest.mark.parametrize("dt,tau", [(1.0, 250.0), (0.5, 10.0), (100.0, 1.0)])
    def test_array_matches_scalar(self, dt, tau):
        temps = np.concatenate([[0.0, -1.0, 1e-300, 1.0, 1e6, math.inf],
                                np.random.default_rng(0).uniform(1.0, 5000.0, 200)])
        lam = berendsen_lambda(dt, tau, 1600.0, temps)
        assert lam.shape == temps.shape
        assert lam.tolist() == [scalar_lambda(dt, tau, 1600.0, t) for t in temps.tolist()]
        targets = np.random.default_rng(1).uniform(1.0, 5000.0, temps.shape)
        assert berendsen_lambda(dt, tau, targets, temps).tolist() == \
            [scalar_lambda(dt, tau, t0, t) for t0, t in zip(targets.tolist(), temps.tolist())]


class TestIntegration:
    def test_nve_energy_conservation(self):
        # slightly stretched dimer, thermostat off: symplectic drift stays tiny
        lj =LennardJones(epsilon=0.0104, sigma=3.4, cutoff=9.0)
        pos = np.array([[0.0, 0.0, 0.0], [1.05 * lj.r_min, 0.0, 0.0]])
        masses = masses_for(["Ar", "Ar"])
        state = md_state(pos, np.zeros((1, 2, 3)), [300.0], *lj.energy_forces(pos))
        cfg = MDConfig(temperature=300.0, timestep_fs=1.0, tau_fs=math.inf,
                       total_time_ps=1.0)
        total0 = state[5][0] + kinetic_energy(state[3][0], masses)
        worst = 0.0
        for _ in range(1000):
            state, failed = md_step(lj, state, masses, cfg)
            assert failed == {}
            total = state[5][0] + kinetic_energy(state[3][0], masses)
            worst = max(worst, abs(total - total0) / abs(total0))
        assert worst < 1e-5

    def test_thermostat_relaxation_from_double_temperature(self):
        # start at 2*T0; after 5 tau the window-averaged kinetic temperature
        # must sit within 5% of target (ensemble of 10, stepped as one state)
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
        window = []
        for _ in range(500):
            state, _ = md_step(mo, state, masses, cfg)
            window.append(instantaneous_temperature(state[3], masses))
        means = np.mean(window, axis=0)
        assert means.shape == (10,)
        assert abs(np.mean(means) - T0) / T0 < 0.05

    def test_each_member_has_its_own_target(self):
        # one state of three members thermostatted toward 150, 300 and 900 K
        mo = Morse()
        pos = build_cluster(mo, 13, seed=2)
        c = Configuration(pos, ["Cu"] * 13)
        cfg = MDConfig(timestep_fs=1.0, tau_fs=50.0, total_time_ps=1.0)
        masses = masses_for(c.species)
        targets = [150.0, 300.0, 900.0]
        v = np.stack([init_velocities(c, 300.0, seed=k) for k in range(3)])
        state = md_state(pos, v, targets, *mo.energy_forces(pos))
        window = []
        for step in range(800):
            state, _ = md_step(mo, state, masses, cfg)
            if step >= 300:
                window.append(instantaneous_temperature(state[3], masses))
        means = np.mean(window, axis=0)
        assert np.all(np.abs(means - targets) / targets < 0.1)

    def test_numeric_failure_detected(self):
        class BrokenModel:
            def energy_forces(self, positions):
                return np.nan, np.full_like(positions, np.nan)

            def energy_forces_batch(self, positions):
                return np.full(len(positions), np.nan), np.full_like(positions, np.nan)

        mo = Morse()
        pos = build_cluster(mo, 4, seed=1)
        state = md_state(pos, np.zeros((1, 4, 3)), [300.0], *mo.energy_forces(pos))
        cfg = MDConfig(temperature=300.0)
        state, failed = md_step(BrokenModel(), state, masses_for(["Cu"] * 4), cfg)
        assert failed == {0: ("numeric", None)}
        assert all(len(a) == 0 for a in state)

    def test_nonfinite_positions_are_numeric(self):
        # huge finite forces overflow the position update: a numeric failure,
        # found before the model sees the positions, that ends only its trajectory
        class HugeForceModel:
            def __init__(self):
                self.finite_inputs = []

            def energy_forces(self, positions):
                self.finite_inputs.append(bool(np.all(np.isfinite(positions))))
                return 0.0, np.full_like(positions, 1e308)

            def energy_forces_batch(self, positions):
                self.finite_inputs.append(bool(np.all(np.isfinite(positions))))
                return np.zeros(len(positions)), np.full_like(positions, 1e308)

        pos = build_cluster(Morse(), 4, seed=1)
        cfg = MDConfig(temperature=300.0, timestep_fs=100.0, total_time_ps=1.0,
                       n_trajectories=2, bond_list=((0, 1),), failure_bond_length=100.0,
                       seed=3)
        model = HugeForceModel()
        state = md_state(pos, np.zeros((1, 4, 3)), [300.0], 0.0, np.full((4, 3), 1e308))
        _, failed = md_step(model, state, masses_for(["H"] * 4), cfg)
        assert failed == {0: ("numeric", None)}
        assert model.finite_inputs == []
        records, _ = run_ensemble(model, Configuration(pos, ["H"] * 4), cfg)
        assert [(r.cause, r.time_to_failure) for r in records] == [("numeric", 0.1)] * 2
        assert all(model.finite_inputs)

    def test_model_warnings_reach_the_caller(self):
        # md_step ignores overflow only in its kick and drift: a model's overflow
        # warns a direct caller, or raises under the caller's errstate
        class OverflowModel:
            def energy_forces_batch(self, positions):
                return np.full(len(positions), 1e308) * 10.0, np.zeros_like(positions)

        mo = Morse()
        pos = build_cluster(mo, 4, seed=1)
        state = md_state(pos, np.zeros((1, 4, 3)), [300.0], *mo.energy_forces(pos))
        masses, cfg = masses_for(["Cu"] * 4), MDConfig(temperature=300.0)
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, failed = md_step(OverflowModel(), state, masses, cfg)
        assert failed == {0: ("numeric", None)}
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            md_step(OverflowModel(), state, masses, cfg)


def check_bonds(positions, cfg):
    return _check_bonds(positions, np.array(cfg.bond_list), cfg.failure_bond_length)


class TestFailureDetection:
    def test_equilibrium_geometry_passes(self):
        mo = Morse()
        pos = build_cluster(mo, 5, seed=3)
        cfg = MDConfig(bond_list=infer_bond_list(pos), failure_bond_length=1.5 * mo.r0)
        assert check_bonds(pos, cfg) is None

    def test_threshold_crossing(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        cfg = MDConfig(bond_list=((0, 1), (0, 2)), failure_bond_length=2.0)
        stretched = pos.copy()
        stretched[1, 0] = 2.01
        hit = check_bonds(stretched, cfg)
        assert hit is not None
        pair, dist = hit
        assert pair == (0, 1)
        assert dist == pytest.approx(2.01)

    def test_exactly_at_threshold_passes(self):
        pos = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        cfg = MDConfig(bond_list=((0, 1),), failure_bond_length=2.0)
        assert check_bonds(pos, cfg) is None

    def test_nan_position_fails(self):
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        pos[2, 1] = np.nan
        cfg = MDConfig(bond_list=((0, 1), (0, 2)), failure_bond_length=2.0)
        hit = check_bonds(pos, cfg)
        assert hit is not None
        pair, dist = hit
        assert pair == (0, 2) and math.isnan(dist)

    def test_empty_bond_list_inferred(self):
        # no bond list: the bonds are inferred from the start geometry
        mo = Morse()
        pos = build_cluster(mo, 6, seed=8)
        start = Configuration(pos, ["Cu"] * 6)
        cfg = MDConfig(temperature=900.0, total_time_ps=0.3, n_trajectories=3,
                       failure_bond_length=1.12 * mo.r0, seed=5)
        records, _ = run_ensemble(mo, start, cfg)
        assert any(r.cause == "bond" for r in records)
        cfg.bond_list = infer_bond_list(pos)
        assert [r.to_dict() for r in records] == \
            [r.to_dict() for r in run_ensemble(mo, start, cfg)[0]]
        cfg.bond_list = ((0, 1),)
        assert [r.to_dict() for r in records] != \
            [r.to_dict() for r in run_ensemble(mo, start, cfg)[0]]

    def test_infer_bond_list(self):
        mo = Morse()
        pos = build_cluster(mo, 6, seed=4)
        bonds = infer_bond_list(pos)
        assert len(bonds) >= 5
        d = np.linalg.norm(pos[None] - pos[:, None], axis=-1)
        for i, j in bonds:
            assert i < j
            np.fill_diagonal(d, np.inf)
            assert d[i, j] <= 1.2 * d.min()

    def test_infer_bond_list_checks_the_geometry(self):
        # coincident atoms were once returned as a bond, and a NaN position as no bonds
        pos = build_cluster(Morse(), 4, seed=4)
        assert infer_bond_list(pos[:1]) == ()
        pos[3] = pos[1]
        with pytest.raises(SingularGeometryError, match="atoms 1 and 3 are coincident"):
            infer_bond_list(pos)
        pos[3, 0] = np.nan
        with pytest.raises(NonFiniteGeometryError):
            infer_bond_list(pos)

    @pytest.mark.parametrize("factor", [math.nan, 0.99, 0.0, math.inf])
    def test_infer_bond_list_checks_the_factor(self, factor):
        # NaN or a factor below 1 once gave no bond at all, and inf bonded every pair
        pos = build_cluster(Morse(), 4, seed=4)
        with pytest.raises(ValueError, match=r"bond factor must lie in \[1, inf\)"):
            infer_bond_list(pos, factor)
        assert len(infer_bond_list(pos, 1.0)) >= 1   # the nearest pair, at least
        assert infer_bond_list(pos[:1], 1.0) == ()


class TestEnsemble:
    def test_reference_control_zero_failures(self):
        mo = Morse()
        pos = build_cluster(mo, 6, seed=5)
        start = Configuration(pos, ["Cu"] * 6)
        cfg = MDConfig(temperature=200.0, total_time_ps=0.5, n_trajectories=5,
                       failure_bond_length=1.5 * mo.r0,
                       bond_list=infer_bond_list(pos), seed=1)
        records, summary = run_ensemble(mo, start, cfg)
        assert summary.n_failed == 0
        assert all(r.time_to_failure == cfg.total_time_ps for r in records)
        assert summary.mean_ttf == cfg.total_time_ps

    def test_single_trajectory_std_zero(self):
        mo = Morse()
        pos = build_cluster(mo, 5, seed=6)
        cfg = MDConfig(temperature=200.0, total_time_ps=0.1, n_trajectories=1,
                       failure_bond_length=1.5 * mo.r0,
                       bond_list=infer_bond_list(pos), seed=2)
        _, summary = run_ensemble(mo, Configuration(pos, ["Cu"] * 5), cfg)
        assert summary.std_ttf == 0.0

    def test_trajectories_independent_of_order(self):
        mo = Morse()
        pos = build_cluster(mo, 5, seed=7)
        start = Configuration(pos, ["Cu"] * 5)
        cfg = MDConfig(temperature=400.0, total_time_ps=0.2, n_trajectories=3,
                       failure_bond_length=1.5 * mo.r0,
                       bond_list=infer_bond_list(pos), seed=9)
        records, _ = run_ensemble(mo, start, cfg)
        # re-running any member standalone with its seed reproduces it exactly
        for k in (2, 0, 1):
            seed_k = int(substream(cfg.seed, "velocities", k).integers(2**31))
            solo = run_trajectory(mo, start, cfg, seed_k)
            assert solo.time_to_failure == records[k].time_to_failure
            assert solo.temperature_trace == records[k].temperature_trace

    def test_first_crossing_is_reported(self):
        # log every integrated geometry, then re-scan: no earlier crossing exists
        mo = Morse()

        class LoggingModel:
            def __init__(self):
                self.positions = []

            def energy_forces(self, positions):
                self.positions.append(positions.copy())
                return mo.energy_forces(positions)

            def energy_forces_batch(self, positions):
                self.positions.extend(positions.copy())
                return mo.energy_forces_batch(positions)

        pos = build_cluster(mo, 6, seed=8)
        start = Configuration(pos, ["Cu"] * 6)
        bond_list = infer_bond_list(pos)
        threshold = 1.12 * mo.r0  # tight threshold so a crossing happens quickly
        cfg = MDConfig(temperature=900.0, total_time_ps=0.5, n_trajectories=1,
                       failure_bond_length=threshold, bond_list=bond_list, seed=5)
        model = LoggingModel()
        seed0 = int(substream(cfg.seed, "velocities", 0).integers(2**31))
        record = run_trajectory(model, start, cfg, seed0)
        assert record.failed and record.cause == "bond"
        failure_step = int(round(record.time_to_failure * 1000 / cfg.timestep_fs))
        # model.positions[0] is the start geometry; entries 1..k are steps 1..k
        for step in range(1, failure_step):
            geo = model.positions[step]
            for i, j in bond_list:
                assert np.linalg.norm(geo[j] - geo[i]) <= threshold

    def test_numeric_cause_recorded(self):
        class ExplodingModel:
            def __init__(self):
                self.calls = 0

            def energy_forces(self, positions):
                self.calls += 1
                if self.calls > 3:
                    return np.nan, np.full_like(positions, np.nan)
                return 0.0, np.zeros_like(positions)

            def energy_forces_batch(self, positions):
                energy, forces = zip(*map(self.energy_forces, positions))
                return np.array(energy), np.array(forces)

        pos = build_cluster(Morse(), 4, seed=9)
        cfg = MDConfig(temperature=300.0, total_time_ps=0.1, n_trajectories=1,
                       bond_list=((0, 1),), failure_bond_length=100.0, seed=3)
        record = run_trajectory(ExplodingModel(), Configuration(pos, ["Cu"] * 4), cfg, 7)
        assert record.failed and record.cause == "numeric"
        assert 0.0 < record.time_to_failure <= cfg.total_time_ps

    def test_trajectory_dump(self, tmp_path):
        from potscape.data import read_extxyz_file
        mo = Morse()
        pos = build_cluster(mo, 4, seed=11)
        cfg = MDConfig(temperature=200.0, total_time_ps=0.05, n_trajectories=2,
                       failure_bond_length=1.5 * mo.r0, bond_list=infer_bond_list(pos),
                       seed=6, dump_interval=10)
        run_ensemble(mo, Configuration(pos, ["Cu"] * 4), cfg, dump_dir=tmp_path)
        dumped = sorted(tmp_path.glob("trajectory_*.extxyz"))
        assert len(dumped) == 2
        ds = read_extxyz_file(dumped[0])
        assert len(ds) == 5  # 50 steps / every 10
        assert ds[0].forces is not None and ds[0].energy is not None

    def test_persistence(self, tmp_path):
        mo = Morse()
        pos = build_cluster(mo, 4, seed=10)
        cfg = MDConfig(temperature=200.0, total_time_ps=0.05, n_trajectories=2,
                       failure_bond_length=1.5 * mo.r0,
                       bond_list=infer_bond_list(pos), seed=4)
        records, summary = run_ensemble(mo, Configuration(pos, ["Cu"] * 4), cfg)
        write_ensemble_json(records, summary, cfg, tmp_path / "e.json", model_name="ref")
        write_summary_csv([("ref", summary)], tmp_path / "s.csv")
        import json
        doc = json.loads((tmp_path / "e.json").read_text())
        assert doc["summary"]["n_failed"] == summary.n_failed
        assert len(doc["records"]) == 2
        header = (tmp_path / "s.csv").read_text().splitlines()[0]
        assert header == "model,mean_ttf_ps,std_ttf_ps,median,q1,q3,n_failed"


def velocity_seed(cfg, k):
    return int(substream(cfg.seed, "velocities", k).integers(2**31))


class TestBatchedEnsemble:
    """run_ensemble integrates its members as one state; each equals its standalone run."""

    @staticmethod
    def ensemble():
        mo = Morse()
        pos = build_cluster(mo, 6, seed=8)
        cfg = MDConfig(temperature=600.0, total_time_ps=0.2, n_trajectories=6,
                       failure_bond_length=1.2 * mo.r0, bond_list=infer_bond_list(pos), seed=5)
        return random_model(4, n_radial=8, hidden=(16, 16)), Configuration(pos, ["Cu"] * 6), cfg

    def test_members_equal_standalone_runs(self):
        model, start, cfg = self.ensemble()
        records, _ = run_ensemble(model, start, cfg)
        assert [r.cause for r in records] == ["bond"] * 3 + [None] * 3
        for k, record in enumerate(records):
            solo = run_trajectory(model, start, cfg, velocity_seed(cfg, k))
            assert solo.to_dict() == record.to_dict()

    def test_dump_files_unchanged(self, tmp_path):
        model, start, cfg = self.ensemble()
        cfg.dump_interval = 15
        run_ensemble(model, start, cfg, dump_dir=tmp_path)
        # one file per member; the exactness corpus pins their bytes (cases md-dump/*)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"trajectory_{k:03d}.extxyz" for k in range(6)]

    @pytest.mark.parametrize("kind,cause", [("batched", "collapse"),
                                            ("nan-on-contact", "numeric")])
    def test_one_member_fails_alone(self, kind, cause):
        # zero weights and no thermostat: no forces, so atoms move in straight
        # lines.  Atom 1 starts where member 1 carries it onto atom 0 at step 5.
        zero = random_model(0)
        zero = zero.with_values(np.zeros(len(zero.params)))
        cfg = MDConfig(temperature=300.0, tau_fs=math.inf, total_time_ps=0.02,
                       n_trajectories=3, bond_list=((0, 1),), failure_bond_length=100.0,
                       seed=2)
        species = ["Cu"] * 4
        v = init_velocities(Configuration(np.zeros((4, 3)), species), cfg.temperature,
                            seed=velocity_seed(cfg, 1))
        pos = np.array([[0.0, 0.0, 0.0], 5 * cfg.timestep_fs * (v[0] - v[1]),
                        [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        start = Configuration(pos, species)

        class NaNOnContact:
            def energy_forces(self, positions):
                return zero.energy_forces(positions)

            def energy_forces_batch(self, positions):
                try:
                    return zero.energy_forces_batch(positions)
                except SingularGeometryError as exc:
                    raise NumericEvalError("non-finite site energy", exc.frames) from None

        model = {"batched": zero, "nan-on-contact": NaNOnContact()}[kind]
        records, summary = run_ensemble(model, start, cfg)
        assert [(r.cause, r.time_to_failure) for r in records] == \
            [(None, 0.02), (cause, 0.005), (None, 0.02)]
        assert summary.n_failed == 1
        for k in (0, 2):
            solo = run_trajectory(model, start, cfg, velocity_seed(cfg, k))
            assert solo.to_dict() == records[k].to_dict()


def test_collapse_and_numeric_dropped_in_one_step():
    # no hidden layer and a weight of 1e308 on a narrow basis function at 1 A:
    # member 2's atoms sit 1 A apart and overflow its site energies; member 1's
    # atoms 0 and 2 coincide.  The others evaluate, as a batch of two, to the
    # bits of their own one-member steps.
    from potscape.descriptors import DescriptorSpec
    from potscape.model import NeuralPotential
    spec = DescriptorSpec(2, [1.0, 3.0], [1000.0, 0.5], 5.0)
    model = NeuralPotential.create(spec, hidden=()).with_values([1e308, 0.3, 0.1])
    wide = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 3.0, 0.0]])
    tight = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.75 ** 0.5, 0.0]])
    collapsed = wide.copy()
    collapsed[2] = collapsed[0]
    pos = np.stack([wide, collapsed, tight, 1.3 * wide])
    rng = np.random.default_rng(1)
    vel, forces = 1e-3 * rng.standard_normal(pos.shape), 1e-2 * rng.standard_normal(pos.shape)
    state = (np.arange(4), np.array([300.0, 400.0, 500.0, 600.0]), pos, vel, forces,
             np.zeros(4))
    masses, cfg = masses_for(["Cu"] * 3), MDConfig(temperature=300.0, timestep_fs=1e-9)
    new, failed = md_step(model, state, masses, cfg)
    assert failed == {1: ("collapse", None), 2: ("numeric", None)}
    assert new[0].tolist() == [0, 3]
    for row, k in enumerate(new[0]):
        solo, none = md_step(model, tuple(a[k:k + 1] for a in state), masses, cfg)
        assert none == {}
        assert all(a[0].tobytes() == b[row].tobytes() for a, b in zip(solo, new))


def test_masses_unknown_species():
    with pytest.raises(ValueError):
        masses_for(["Xx"])
