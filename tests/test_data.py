import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape import potentials
from potscape.data import (Configuration, Dataset, ExtxyzError, NoiseSpec, corrupt_labels,
                           dataset_stats, generate_reference_dataset, parse_extxyz,
                           split_by_temperature, write_extxyz)
from potscape.geometry import SingularGeometryError
from potscape.md import MDNumericError, init_velocities
from potscape.potentials import LennardJones, Morse
from potscape.seeding import substream
from tests.conftest import random_model


def make_dataset(energies, n_atoms=1, forces=None, tags=None):
    frames = []
    for k, e in enumerate(energies):
        f = None if forces is None else forces[k]
        tag = None if tags is None else tags[k]
        frames.append(Configuration(np.arange(3 * n_atoms, dtype=float).reshape(-1, 3) * 2.0,
                                    ["Ar"] * n_atoms, energy=e, forces=f,
                                    temperature_tag=tag))
    return Dataset(frames)


class TestParse:
    def test_minimal_frame(self):
        ds = parse_extxyz("1\nenergy=-1.0\nH 0 0 0")
        assert len(ds) == 1
        c = ds[0]
        assert c.n_atoms == 1
        assert c.energy == -1.0
        assert c.forces is None
        assert c.species == ["H"]

    def test_properties_with_forces_27_atoms(self):
        # hand-built 27-atom frame on a 3x3x3 grid; forces = position index pattern
        lines = ["27", "Properties=species:S:1:pos:R:3:forces:R:3 energy=-3.5"]
        expected_f = []
        n = 0
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    f = (0.1 * n, -0.2 * n, 0.01)
                    expected_f.append(f)
                    lines.append(f"C {i} {j} {k} {f[0]} {f[1]} {f[2]}")
                    n += 1
        ds = parse_extxyz("\n".join(lines))
        c = ds[0]
        assert c.forces.shape == (27, 3)
        np.testing.assert_allclose(c.forces, expected_f, rtol=0, atol=0)
        assert c.energy == -3.5

    def test_lattice_and_pbc(self):
        text = '2\nLattice="10 0 0 0 10 0 0 0 10" pbc="T T F" energy=1.0\nAr 0 0 0\nAr 2 0 0'
        c = parse_extxyz(text)[0]
        np.testing.assert_array_equal(c.cell, np.diag([10.0, 10.0, 10.0]))
        assert list(c.pbc) == [True, True, False]

    def test_malformed_header(self):
        with pytest.raises(ExtxyzError, match="frame 0"):
            parse_extxyz("notanumber\ncomment\nH 0 0 0")

    def test_atom_count_mismatch(self):
        with pytest.raises(ExtxyzError, match="frame 0"):
            parse_extxyz("3\nenergy=0\nH 0 0 0\nH 1 0 0")

    def test_non_numeric_field_reports_frame(self):
        good = "1\nenergy=0\nH 0 0 0\n"
        bad = "1\nenergy=0\nH 0 zero 0"
        with pytest.raises(ExtxyzError, match="frame 1"):
            parse_extxyz(good + bad)

    def test_skips_unknown_columns(self):
        text = "1\nProperties=species:S:1:pos:R:3:charge:R:1:forces:R:3 energy=0\nO 1 2 3 0.4 9 8 7"
        c = parse_extxyz(text)[0]
        np.testing.assert_array_equal(c.positions[0], [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(c.forces[0], [9.0, 8.0, 7.0])

    CUBE = [[10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]]

    # each case: the text, then the exact ExtxyzError message or the fields of frame 0
    # (fields not given are None)
    @pytest.mark.parametrize("text,expected", [
        pytest.param("1\nis_relaxed energy=1.5\nH 1 2 3",
                     {"species": ["H"], "positions": [[1, 2, 3]], "energy": 1.5},
                     id="bare-flag"),
        pytest.param('1\nenergy=2 Lattice="10 0 0 0 10 0 0 0 10\nH 0 0 0',
                     {"species": ["H"], "positions": [[0, 0, 0]], "energy": 2.0,
                      "cell": CUBE, "pbc": [True, True, True]},
                     id="unterminated-quote-runs-to-line-end"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10 energy=1\nH 0 0 0',
                     "frame 0: non-numeric Lattice", id="unterminated-quote-takes-the-rest"),
        pytest.param("1\nenergy=\nH 0 0 0", "frame 0: non-numeric energy", id="empty-energy"),
        pytest.param('1\nenergy="1 2"\nH 0 0 0', "frame 0: non-numeric energy",
                     id="two-number-energy"),
        pytest.param("2\nProperties=id:I:1:species:S:1:pos:R:3:forces:R:3 energy=-2\n"
                     "7 Cu 1 2 3 0.5 0.25 -1\n8 Cu 4 5 6 -0.5 -0.25 1",
                     {"species": ["Cu", "Cu"], "positions": [[1, 2, 3], [4, 5, 6]],
                      "energy": -2.0, "forces": [[0.5, 0.25, -1], [-0.5, -0.25, 1]]},
                     id="id-column-skipped-by-width"),
        pytest.param("1\nProperties=species:S:1:pos:R:2\nH 0 0",
                     "frame 0: positions must be (N, 3)", id="two-column-pos"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0"\nH 0 0 0',
                     "frame 0: Lattice needs 9 numbers", id="lattice-of-8"),
        pytest.param('1\nLattice="10 0 0 0 x 0 0 0 10"\nH 0 0 0',
                     "frame 0: non-numeric Lattice", id="non-numeric-lattice"),
        pytest.param("1\ntemperature=hot\nH 0 0 0", "frame 0: non-numeric temperature",
                     id="non-numeric-temperature"),
        pytest.param("2\nenergy=0\nH 0 0 0\nH 1 0", "frame 0: atom line 1 has too few columns",
                     id="short-atom-line"),
        pytest.param("1\nProperties=species:S:1:pos:R:three\nH 0 0 0",
                     "frame 0: bad column count in Properties", id="width-not-a-number"),
        pytest.param("1\nProperties=species:S:1:pos:R\nH 0 0 0",
                     "frame 0: malformed Properties string 'species:S:1:pos:R'",
                     id="fields-not-a-multiple-of-3"),
        pytest.param("1\nProperties=pos:R:3\n0 0 0",
                     "frame 0: species count does not match positions", id="no-species"),
        pytest.param("1\nProperties=species:S:1:species:S:1:pos:R:3\nH He 0 0 0",
                     "frame 0: species count does not match positions", id="two-species"),
        pytest.param("1\nProperties=species:S:1 energy=1\nH",
                     "frame 0: Properties has no pos column", id="no-pos-column"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10" pbc="True 1 F"\nH 0 0 0',
                     {"species": ["H"], "positions": [[0, 0, 0]], "cell": CUBE,
                      "pbc": [True, True, False]},
                     id="pbc-tokens"),
        pytest.param('1\npbc="T T T" energy=0\nH 0 0 0', "frame 0: pbc needs a Lattice",
                     id="pbc-without-lattice"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10" pbc="T T"\nH 0 0 0',
                     "frame 0: pbc needs 3 flags", id="pbc-of-2"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10" pbc="T"\nH 0 0 0',
                     "frame 0: pbc needs 3 flags", id="pbc-of-1"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10" pbc="T T T T"\nH 0 0 0',
                     "frame 0: pbc needs 3 flags", id="pbc-of-4"),
        pytest.param('1\nLattice="10 0 0 0 10 0 0 0 10" pbc="T yes F"\nH 0 0 0',
                     "frame 0: pbc takes only T, True, 1, F, False and 0, got 'T yes F'",
                     id="pbc-unknown-token"),
        pytest.param("1\nenergy=2.5\tProperties=species:S:1:pos:R:3\tfoo\nH\t1\t2\t3",
                     {"species": ["H"], "positions": [[1, 2, 3]], "energy": 2.5},
                     id="tabs"),
        pytest.param("2\nenergy=0\nH 0 x 0\nH 1 0", "frame 0: non-numeric pos on atom line 0",
                     id="first-fault-in-atom-order"),
        pytest.param("1\nenergy=0\nH 0 nan 0", "frame 0: non-finite position component",
                     id="nan-position"),
        pytest.param("1\n\nH 0 0 0\n2\n\nH 0 0 0\nH -inf 0 0",
                     "frame 1: non-finite position component", id="infinite-position-in-frame-1"),
        pytest.param("1\n\nH 0 0 0\n1\n\nH 0 0 0\n1\nProperties=species:S:1:pos:R:x\nH 0 0 0",
                     "frame 2: bad column count in Properties", id="fault-in-frame-2"),
    ])
    def test_reader_cases(self, text, expected):
        if isinstance(expected, str):
            with pytest.raises(ExtxyzError) as exc:
                parse_extxyz(text)
            assert str(exc.value) == expected
            return
        c = parse_extxyz(text)[0]
        assert c.species == expected["species"]
        np.testing.assert_array_equal(c.positions, expected["positions"])
        assert c.energy == expected.get("energy") and c.temperature_tag is None
        for name in ("forces", "cell", "pbc"):
            if name in expected:
                np.testing.assert_array_equal(getattr(c, name), expected[name])
            else:
                assert getattr(c, name) is None

    @pytest.mark.parametrize("properties", ["species:S:1:pos:R:3:x:R:-1:forces:R:3",
                                            "species:S:0:pos:R:3:x:R:1:forces:R:3"])
    def test_column_narrower_than_one_rejected(self, properties):
        # the -1 once read these forces as [3, 4, 5]; the species of width 0 raised IndexError
        with pytest.raises(ExtxyzError) as exc:
            parse_extxyz(f"1\nProperties={properties}\nH 1 2 3 4 5 6")
        assert str(exc.value) == "frame 0: bad column count in Properties"


class TestWrite:
    def test_frame_without_forces_omits_columns(self):
        ds = make_dataset([1.0])
        text = write_extxyz(ds)
        assert "forces" not in text
        assert len(text.strip().splitlines()[2].split()) == 4  # species + xyz

    def test_two_frames_two_headers(self):
        ds = make_dataset([1.0, 2.0], n_atoms=2)
        lines = write_extxyz(ds).strip().splitlines()
        assert lines[0] == "2" and lines[4] == "2"
        assert len(lines) == 8

    def test_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        frames = [Configuration(rng.normal(0, 3, (4, 3)), ["C", "H", "H", "O"],
                                energy=rng.normal(), forces=rng.normal(0, 1, (4, 3)),
                                temperature_tag=300.0)
                  for _ in range(3)]
        ds = Dataset(frames)
        again = parse_extxyz(write_extxyz(ds))
        for a, b in zip(ds, again):
            np.testing.assert_array_equal(a.positions, b.positions)
            np.testing.assert_array_equal(a.forces, b.forces)
            assert a.energy == b.energy
            assert a.temperature_tag == b.temperature_tag

    def test_write_parse_write_identity(self):
        rng = np.random.default_rng(1)
        ds = Dataset([Configuration(rng.normal(0, 2, (3, 3)), ["Ar"] * 3,
                                    energy=-1.2345678901234567,
                                    forces=rng.normal(0, 1, (3, 3)))])
        once = write_extxyz(ds)
        assert write_extxyz(parse_extxyz(once)) == once

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=3),
           st.floats(-1e3, 1e3, allow_nan=False))
    def test_roundtrip_property(self, pos, energy):
        ds = Dataset([Configuration(np.array([pos]), ["N"], energy=energy)])
        c = parse_extxyz(write_extxyz(ds))[0]
        np.testing.assert_allclose(c.positions[0], pos, rtol=1e-12, atol=0)
        np.testing.assert_allclose(c.energy, energy, rtol=1e-12, atol=0)


class TestCorrupt:
    def field_dataset(self, n_frames=50, n_atoms=4, seed=0):
        rng = np.random.default_rng(seed)
        frames = [Configuration(rng.uniform(-3, 3, (n_atoms, 3)), ["Ar"] * n_atoms,
                                energy=rng.normal(-10, 1.0),
                                forces=rng.normal(0, 0.8, (n_atoms, 3)))
                  for _ in range(n_frames)]
        return Dataset(frames)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -0.5])
    def test_bad_sigma_rejected(self, sigma):
        # NaN once passed, and corrupt_labels added no noise
        with pytest.raises(ValueError, match="noise levels must be finite and >= 0"):
            NoiseSpec(sigma=sigma)

    def test_zero_sigma_bitwise_equal(self):
        ds = self.field_dataset()
        out = corrupt_labels(ds, NoiseSpec(sigma=0.0, target="both", seed=1))
        for a, b in zip(ds, out):
            assert a.energy == b.energy
            np.testing.assert_array_equal(a.forces, b.forces)

    def test_monte_carlo_force_std(self):
        # >= 1e5 force components: 4000 frames x 30 components
        ds = self.field_dataset(n_frames=4000, n_atoms=10, seed=3)
        out = corrupt_labels(ds, NoiseSpec(sigma=0.1, target="forces", seed=5))
        deltas = np.concatenate([(b.forces - a.forces).ravel() for a, b in zip(ds, out)])
        assert len(deltas) >= 1e5
        expected = 0.1 * ds.sigma_dft_force
        assert abs(np.std(deltas) - expected) / expected < 0.02

    def test_determinism_and_seed_sensitivity(self):
        ds = self.field_dataset()
        a = corrupt_labels(ds, NoiseSpec(sigma=0.05, target="both", seed=9))
        b = corrupt_labels(ds, NoiseSpec(sigma=0.05, target="both", seed=9))
        c = corrupt_labels(ds, NoiseSpec(sigma=0.05, target="both", seed=10))
        for x, y, z in zip(a, b, c):
            assert x.energy == y.energy
            np.testing.assert_array_equal(x.forces, y.forces)
            assert x.energy != z.energy

    def test_input_not_mutated(self):
        ds = self.field_dataset()
        before = [(c.energy, c.forces.copy()) for c in ds]
        corrupt_labels(ds, NoiseSpec(sigma=0.3, target="both", seed=2))
        for c, (e, f) in zip(ds, before):
            assert c.energy == e
            np.testing.assert_array_equal(c.forces, f)

    def test_expectation_matches_original(self):
        ds = self.field_dataset(n_frames=5, n_atoms=3)
        n_seeds = 400
        acc = np.zeros((5,))
        for s in range(n_seeds):
            out = corrupt_labels(ds, NoiseSpec(sigma=0.2, target="energies", seed=s))
            acc += np.array([c.energy for c in out])
        mean = acc / n_seeds
        scale = 0.2 * ds.sigma_dft_energy / 1000.0 * 3  # per-frame noise std, eV
        se = scale / np.sqrt(n_seeds)
        orig = np.array([c.energy for c in ds])
        assert np.all(np.abs(mean - orig) < 3 * se + 1e-12)

    def test_missing_forces_error(self):
        ds = make_dataset([1.0, 2.0])
        with pytest.raises(ValueError):
            corrupt_labels(ds, NoiseSpec(sigma=0.1, target="forces", seed=0))

    def test_sigma_stats_recomputed_on_output(self):
        ds = self.field_dataset(n_frames=2000, n_atoms=5, seed=11)
        out = corrupt_labels(ds, NoiseSpec(sigma=1.0, target="forces", seed=1))
        expected = ds.sigma_dft_force * np.sqrt(2.0)  # independent noise adds in quadrature
        assert abs(out.sigma_dft_force - expected) / expected < 0.05


class TestStats:
    def test_equal_energies_zero_std(self):
        stats = dataset_stats(make_dataset([2.0, 2.0, 2.0]))
        assert stats.energy_std_mev_per_atom == 0.0

    def test_two_single_atom_frames(self):
        stats = dataset_stats(make_dataset([0.0, 2.0]))
        assert stats.energy_std_mev_per_atom == pytest.approx(1000.0)
        assert stats.energy_mean_mev_per_atom == pytest.approx(1000.0)

    def test_gaussian_std_recovered(self):
        rng = np.random.default_rng(4)
        energies = rng.normal(-3.0, 0.5, 20000)
        stats = dataset_stats(make_dataset(energies))
        assert abs(stats.energy_std_mev_per_atom - 500.0) / 500.0 < 0.02

    def test_counts_per_temperature(self):
        ds = make_dataset([1.0, 2.0, 3.0], tags=[300.0, 300.0, 600.0])
        stats = dataset_stats(ds)
        assert stats.counts_per_temperature == {300.0: 2, 600.0: 1}


class TestGenerate:
    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError):
            generate_reference_dataset(LennardJones(), 3, [50.0], 0)

    def test_labels_match_analytic_reference(self):
        lj = LennardJones()
        ds = generate_reference_dataset(lj, 3, [50.0], 100, seed=1,
                                        burn_in_steps=200, stride=5)
        assert len(ds) == 100
        for c in ds:
            e, f = lj.energy_forces(c.positions, species=c.species, cell=c.cell, pbc=c.pbc)
            assert abs(e - c.energy) <= 1e-10 * max(1.0, abs(e))
            np.testing.assert_allclose(c.forces, f, rtol=1e-10, atol=1e-12)

    def test_higher_temperature_wider_forces(self, morse_pot):
        ds = generate_reference_dataset(morse_pot, 6, [200.0, 800.0], 60, seed=2,
                                        species="Cu", burn_in_steps=500, stride=10)
        lo = np.concatenate([c.forces.ravel() for c in ds if c.temperature_tag == 200.0])
        hi = np.concatenate([c.forces.ravel() for c in ds if c.temperature_tag == 800.0])
        assert np.std(hi) > np.std(lo)


class NaNForcesAt(Morse):
    """Morse, except that chain 1 of a three-chain state gets NaN forces at one step."""

    step = 40

    def energy_forces_batch(self, positions, cell=None, pbc=None):
        energy, forces = super().energy_forces_batch(positions, cell=cell, pbc=pbc)
        if len(positions) == 3:
            self.steps = getattr(self, "steps", 0) + 1
            if self.steps == self.step:
                forces[1, 2, 0] = np.nan
        return energy, forces


class TestGenerateIntegrator:
    """The temperature chains are integrated as one batched state."""

    @pytest.mark.parametrize("temperatures,frames", [((300.0,), 300),
                                                     ((300.0, 600.0, 1200.0), 100)])
    def test_bytes_pinned(self, temperatures, frames):
        # the exactness corpus pins the text of these datasets with a burn-in of 1000
        # steps and a stride of 20 (cases gen-data/morse-cu/*); short chains check the tags
        ds = generate_reference_dataset(Morse(), 6, temperatures, frames, seed=0, species="Cu",
                                        burn_in_steps=0, stride=1)
        assert [c.temperature_tag for c in ds] == [t for t in temperatures for _ in range(frames)]

    def test_nonfinite_forces_raise(self):
        with pytest.raises(MDNumericError, match=r"600 K chain .* step 40$"):
            generate_reference_dataset(NaNForcesAt(), 6, [300.0, 600.0, 1200.0], 10, seed=0,
                                       species="Cu", burn_in_steps=20, stride=5)

    def test_collapse_raises(self, monkeypatch):
        # zero forces and no thermostat: atoms move in straight lines, and atom 1
        # starts where the 600 K chain's velocities carry it onto atom 0 at step 5
        zero = random_model(0)
        zero = zero.with_values(np.zeros(len(zero.params)))
        species = ["Cu"] * 4
        v = init_velocities(Configuration(np.zeros((4, 3)), species), 600.0,
                            seed=substream(0, "velocities", 1).integers(2**31))
        pos = np.array([[0.0, 0.0, 0.0], 5 * (v[0] - v[1]), [3.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
        monkeypatch.setattr(potentials, "build_cluster", lambda pot, n, seed: pos)
        with pytest.raises(SingularGeometryError, match=r"600 K chain .* step 5$"):
            generate_reference_dataset(zero, 4, [300.0, 600.0, 1200.0], 4, seed=0,
                                       species="Cu", tau_fs=math.inf, burn_in_steps=0,
                                       stride=2)


class TestSplit:
    def tagged_dataset(self):
        tags = [300.0] * 20 + [600.0] * 7 + [1200.0] * 5
        return make_dataset(np.arange(len(tags), dtype=float), tags=tags)

    def test_keys_and_holdout(self):
        ds = self.tagged_dataset()
        train, tests = split_by_temperature(ds, 300.0, holdout_fraction=0.1, seed=0)
        assert set(tests) == {300.0, 600.0, 1200.0}
        assert len(tests[300.0]) == 2
        assert len(train) == 18
        assert all(c.temperature_tag == 300.0 for c in train)

    def test_single_temperature_empty_high_t_map(self):
        ds = make_dataset([1.0, 2.0, 3.0, 4.0], tags=[300.0] * 4)
        train, tests = split_by_temperature(ds, 300.0, holdout_fraction=0.25, seed=0)
        assert set(tests) == {300.0}

    def test_partition_is_exhaustive_multiset(self):
        ds = self.tagged_dataset()
        train, tests = split_by_temperature(ds, 300.0, holdout_fraction=0.3, seed=5)
        n = len(train) + sum(len(t) for t in tests.values())
        assert n == len(ds)
        all_energies = sorted([c.energy for c in train]
                              + [c.energy for t in tests.values() for c in t])
        assert all_energies == sorted(c.energy for c in ds)

    def test_missing_train_temperature(self):
        ds = self.tagged_dataset()
        with pytest.raises(ValueError):
            split_by_temperature(ds, 450.0)

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, math.nan])
    def test_holdout_fraction_out_of_range(self, fraction):
        with pytest.raises(ValueError, match="holdout_fraction"):
            split_by_temperature(self.tagged_dataset(), 300.0, holdout_fraction=fraction)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 30), st.integers(0, 2**31 - 1))
    def test_partition_property(self, n300, seed):
        tags = [300.0] * n300 + [600.0] * 3
        ds = make_dataset(np.arange(len(tags), dtype=float), tags=tags)
        train, tests = split_by_temperature(ds, 300.0, holdout_fraction=0.2, seed=seed)
        assert len(train) + sum(len(t) for t in tests.values()) == len(ds)
