import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape.geometry import NonFiniteGeometryError, SingularGeometryError, pair_table
from potscape.potentials import LennardJones, Morse, build_cluster, potential_class
from tests.conftest import (differing_cases, pin_frames, random_cluster, random_model,
                            random_rotation)


def dimer(r):
    return np.array([[0.0, 0.0, 0.0], [r, 0.0, 0.0]])


class TestLennardJones:
    def test_zero_crossing_at_sigma(self):
        lj = LennardJones(epsilon=0.0104, sigma=3.4, cutoff=9.0)
        e, _ = lj.energy_forces(dimer(lj.sigma))
        assert e == pytest.approx(0.0, abs=1e-15)

    def test_minimum_depth_and_zero_force(self):
        lj = LennardJones(epsilon=0.0104, sigma=3.4, cutoff=9.0)
        e, f = lj.energy_forces(dimer(lj.r_min))
        assert e == pytest.approx(-lj.epsilon, rel=1e-12)
        assert np.abs(f).max() < 1e-14

    def test_coincident_atoms(self):
        lj = LennardJones()
        with pytest.raises(SingularGeometryError):
            lj.energy_forces(np.zeros((2, 3)))


@pytest.mark.parametrize("cls,field", [(LennardJones, "epsilon"), (LennardJones, "sigma"),
                                       (Morse, "well_depth"), (Morse, "stiffness"),
                                       (Morse, "r0")])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_parameter_rejected(cls, field, bad):
    # NaN passed the <= 0 checks and failed only later, as a non-finite atom position
    with pytest.raises(ValueError, match="must be positive and finite"):
        cls(**{field: bad})


@pytest.mark.parametrize("pot", [Morse(), random_model(0)], ids=["morse", "neural"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_position_rejected(pot, bad):
    # the pair table would drop the atom's pairs and give a finite answer
    pos = random_cluster(4, 3)
    pos[2, 1] = bad
    with pytest.raises(NonFiniteGeometryError):
        pot.energy_forces(pos)
    assert issubclass(NonFiniteGeometryError, ArithmeticError)  # numeric, CLI exit 3


class TestMorse:
    def test_zero_force_at_r0(self):
        mo = Morse()
        e, f = mo.energy_forces(dimer(mo.r0))
        assert e == pytest.approx(-mo.well_depth, rel=1e-12)
        assert np.abs(f).max() == 0.0

    def test_well_shape(self):
        mo = Morse()
        e_in, _ = mo.energy_forces(dimer(mo.r0 * 0.8))
        e_min, _ = mo.energy_forces(dimer(mo.r0))
        e_out, _ = mo.energy_forces(dimer(mo.r0 * 1.4))
        assert e_in > e_min and e_out > e_min


class TestCutoffSwitching:
    @pytest.mark.parametrize("pot", [LennardJones(cutoff=6.0), Morse(cutoff=6.0)])
    def test_energy_and_force_vanish_at_cutoff(self, pot):
        e, f = pot.energy_forces(dimer(pot.cutoff))
        assert e == 0.0 and np.abs(f).max() == 0.0
        e, f = pot.energy_forces(dimer(pot.cutoff - 1e-7))
        assert abs(e) < 1e-12
        assert np.abs(f).max() < 1e-5  # derivative also switched to ~0

    @pytest.mark.parametrize("pot", [LennardJones(cutoff=6.0), Morse(cutoff=6.0)])
    def test_untouched_before_switch_start(self, pot):
        r = 0.5 * pot.switch_start
        v_raw, _ = pot._raw(np.array([r]))
        e, _ = pot.energy_forces(dimer(r))
        assert e == pytest.approx(v_raw[0], rel=0, abs=0)

    @pytest.mark.parametrize("pot", [LennardJones(cutoff=6.0), Morse(cutoff=6.0)])
    def test_switch_region_continuity(self, pot):
        # numeric derivative of the switched pair energy stays close to the
        # analytic one across the switching window
        rs = np.linspace(pot.switch_start - 0.2, pot.cutoff + 0.1, 80)
        v, dv = pot.pair_energy_deriv(rs)
        h = 1e-6
        vp = pot.pair_energy_deriv(rs + h)[0]
        vm = pot.pair_energy_deriv(rs - h)[0]
        np.testing.assert_allclose((vp - vm) / (2 * h), dv, atol=1e-6)


class TestForces:
    @pytest.mark.parametrize("pot", [LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0),
                                     Morse(cutoff=6.0)])
    def test_forces_match_finite_differences(self, pot):
        h = 1e-5
        for seed in range(6):
            pos = random_cluster(5, seed, box=3.0, min_dist=1.8)
            _, f = pot.energy_forces(pos)
            fd = np.zeros_like(f)
            for a in range(5):
                for k in range(3):
                    pp, pm = pos.copy(), pos.copy()
                    pp[a, k] += h
                    pm[a, k] -= h
                    fd[a, k] = -(pot.energy_forces(pp)[0] - pot.energy_forces(pm)[0]) / (2 * h)
            assert np.max(np.abs(f - fd)) / np.max(np.abs(f)) < 1e-5

    def test_translation_rotation_invariance(self):
        mo = Morse()
        pos = random_cluster(6, 3, box=2.8, min_dist=1.8)
        e0, f0 = mo.energy_forces(pos)
        e1, f1 = mo.energy_forces(pos + np.array([3.7, -1.2, 0.4]))
        assert e1 == pytest.approx(e0, abs=1e-12)
        np.testing.assert_allclose(f1, f0, atol=1e-12)
        rot = random_rotation(np.random.default_rng(5))
        e2, f2 = mo.energy_forces(pos @ rot.T)
        assert e2 == pytest.approx(e0, abs=1e-8)
        np.testing.assert_allclose(f2, f0 @ rot.T, atol=1e-8)

    def test_net_force_zero(self):
        lj = LennardJones(epsilon=0.2, sigma=2.2, cutoff=7.0)
        _, f = lj.energy_forces(random_cluster(7, 9, box=3.0, min_dist=1.7))
        assert np.abs(f.sum(axis=0)).max() < 1e-8

    def test_single_atom_zero_interaction(self):
        e, f = Morse().energy_forces(np.zeros((1, 3)))
        assert e == 0.0 and f.shape == (1, 3)


class TestBatchEvaluation:
    @pytest.mark.parametrize("pot", [LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0), Morse()])
    @settings(max_examples=40, deadline=None)
    @given(n_frames=st.integers(1, 5), n_atoms=st.integers(3, 7),
           seed=st.integers(0, 2**31 - 1))
    def test_batch_equals_frames(self, pot, n_frames, n_atoms, seed):
        """Every frame of a batch evaluates exactly (==) as it does alone."""
        pos = np.random.default_rng(seed).uniform(-5.0, 5.0, (n_frames, n_atoms, 3))
        # frame 0: atoms 0 and 1 exactly one cutoff apart, the last atom far from all
        pos[0, 0], pos[0, 1] = 0.0, [pot.cutoff, 0.0, 0.0]
        pos[0, -1] = [40.0, 0.0, 0.0]
        E, F = pot.energy_forces_batch(pos)
        assert E.shape == (n_frames,) and F.shape == pos.shape
        for b in range(n_frames):
            e, f = pot.energy_forces(pos[b])
            assert E[b] == e and np.array_equal(F[b], f)
        assert np.array_equal(F[0, -1], np.zeros(3))

    @pytest.mark.parametrize("pot", [LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0), Morse()])
    @settings(max_examples=40, deadline=None)
    @given(n_atoms=st.integers(1, 9), seed=st.integers(0, 2**31 - 1),
           far=st.lists(st.booleans(), min_size=1, max_size=5))
    def test_full_and_partial_frames(self, pot, n_atoms, seed, far):
        """Frames with every pair inside the cutoff take the row sums; a batch where
        some or all frames lose a pair takes the per-frame sums.  Each frame evaluates
        exactly (==) as it does alone, and as in a batch of its own kind."""
        rng = np.random.default_rng(seed)
        pos = np.stack([random_cluster(n_atoms, rng, box=1.7, min_dist=1.0) for _ in far])
        pos[far, -1] += [pot.cutoff + 4.0, 0.0, 0.0]   # beyond the cutoff of the others
        E, F = pot.energy_forces_batch(pos)
        for b in range(len(far)):
            e, f = pot.energy_forces(pos[b])
            assert E[b] == e and np.array_equal(F[b], f)
        whole = ~np.array(far) if n_atoms > 1 else np.ones(len(far), dtype=bool)
        if whole.any():
            E1, F1 = pot.energy_forces_batch(pos[whole])
            assert np.array_equal(E1, E[whole]) and np.array_equal(F1, F[whole])


class TestPeriodic:
    def test_minimum_image_matches_shifted_copy(self):
        lj = LennardJones(epsilon=0.2, sigma=2.2, cutoff=5.0)
        cell = np.diag([20.0, 20.0, 20.0])
        pos = np.array([[1.0, 1.0, 1.0], [19.5, 1.0, 1.0]])  # close across boundary
        e_pbc, _ = lj.energy_forces(pos, cell=cell, pbc=[True] * 3)
        e_direct, _ = lj.energy_forces(np.array([[1.0, 1.0, 1.0], [-0.5, 1.0, 1.0]]))
        assert e_pbc == pytest.approx(e_direct, rel=1e-12)

    def test_cell_narrower_than_twice_the_cutoff_rejected(self):
        # an LJ pair 4 A apart: across an 8 A periodic axis both images, at +4 and
        # -4 A, are in range, and one minimum image would count only one of them
        lj = LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0)
        pos = dimer(4.0)
        e_wide, _ = lj.energy_forces(pos, cell=np.diag([40.0] * 3), pbc=[True] * 3)
        assert e_wide == pytest.approx(-0.02153, abs=1e-5)
        narrow = np.diag([8.0, 40.0, 40.0])
        with pytest.raises(ValueError, match="8 A wide across axis 0"):
            lj.energy_forces(pos, cell=narrow, pbc=[True] * 3)
        with pytest.raises(ValueError, match="twice the cutoff"):
            lj.energy_forces_batch(np.stack([pos, pos]), cell=narrow, pbc=[True] * 3)
        with pytest.raises(ValueError, match="twice the cutoff"):
            pair_table(pos, lj.cutoff, cell=narrow, pbc=[True] * 3)
        # a narrow axis that is not periodic, and a width of exactly twice the cutoff
        assert lj.energy_forces(pos, cell=narrow, pbc=[False, True, True])[0] == e_wide
        assert lj.energy_forces(pos, cell=np.diag([12.0] * 3), pbc=[True] * 3)[0] == e_wide

    def test_sheared_cell_width_is_perpendicular(self):
        # b is 12.8 A long, but the cell is only 8 A wide across it (12.5 A across a)
        cell = np.array([[20.0, 0.0, 0.0], [10.0, 8.0, 0.0], [0.0, 0.0, 20.0]])
        pos = dimer(3.0)
        with pytest.raises(ValueError, match="8 A wide across axis 1"):
            pair_table(pos, 5.0, cell=cell, pbc=[True] * 3)
        assert len(pair_table(pos, 5.0, cell=cell, pbc=[True, False, True])) == 2
        # a flat cell is no cell at all
        with pytest.raises(ValueError, match="twice the cutoff"):
            pair_table(pos, 5.0, cell=np.zeros((3, 3)), pbc=[True] * 3)


class TestBuildCluster:
    def test_near_equilibrium_and_deterministic(self):
        mo = Morse()
        pos1 = build_cluster(mo, 6, seed=1)
        pos2 = build_cluster(mo, 6, seed=1)
        np.testing.assert_array_equal(pos1, pos2)
        _, f = mo.energy_forces(pos1)
        assert np.max(np.abs(f)) < 0.05
        d = np.linalg.norm(pos1[None] - pos1[:, None], axis=-1)
        np.fill_diagonal(d, np.inf)
        assert abs(d.min() - mo.r0) / mo.r0 < 0.15


def test_make_potential_factory():
    assert isinstance(potential_class("lj")(epsilon=0.1, sigma=3.0, cutoff=8.0), LennardJones)
    assert isinstance(potential_class("morse")(), Morse)
    with pytest.raises(ValueError):
        potential_class("buckingham")


PIN_POTENTIALS = {"lj": LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0),
                  "morse": Morse(cutoff=6.0)}


@pytest.mark.parametrize("periodic", [False, True], ids=["cluster", "periodic"])
@pytest.mark.parametrize("n_frames", [1, 3])
@pytest.mark.parametrize("kind", ["lj", "morse"])
def test_pair_bytes_pinned(kind, n_frames, periodic):
    """pin_frames reach every branch of the pair kernel; the exactness corpus pins
    the bytes of these evaluations (cases ``pair/<kind>/B<n_frames>[-periodic]``)."""
    pot, (pos, cell, pbc) = PIN_POTENTIALS[kind], pin_frames(n_frames, periodic)
    _, forces = pot.energy_forces_batch(pos, cell=cell, pbc=pbc)
    d = pos[:, :5, None] - pos[:, None, :5]
    if periodic:
        d -= 16.0 * np.round(d / 16.0)
        assert np.abs(pos[:, :5] - pos[:, :5].min(axis=1, keepdims=True)).max() > 6.0
    r = np.linalg.norm(d, axis=-1)
    assert ((r > pot.switch_start) & (r < pot.cutoff)).any() and (r > pot.cutoff).any()
    assert np.array_equal(forces[:, 5], np.zeros((n_frames, 3)))
    assert not np.signbit(forces[:, 5]).any()   # +0.0: no pair reached the isolated atom


@pytest.mark.parametrize("kind", ["lj", "morse"])
def test_dense_pair_bytes_pinned(corpus, kind):
    """Two frames of 12 atoms with 49 and 46 pairs in range: numpy sums 8 or more terms
    pairwise, so their energy bytes also fix each frame's summation order."""
    assert differing_cases(corpus, f"pair/{kind}/B2-12-atoms") == []


@pytest.mark.parametrize("pot", [LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0), Morse()])
def test_coincidence_named_as_by_pair_table(pot):
    pos = np.stack([random_cluster(5, seed, box=3.0, min_dist=1.8) for seed in range(3)])
    pos[1, 3] = pos[1, 1]
    with pytest.raises(SingularGeometryError) as from_table:
        pair_table(pos, pot.cutoff)
    with pytest.raises(SingularGeometryError) as from_potential:
        pot.energy_forces_batch(pos)
    assert "atoms 1 and 3 are coincident" in str(from_potential.value)
    assert str(from_potential.value).endswith(" in frame 1")
    assert str(from_potential.value) == str(from_table.value)


# (potential, its cutoff, the closest approach of a random cluster's atoms)
PROPERTY_POTENTIALS = {
    "lj": (PIN_POTENTIALS["lj"], 6.0, 1.9),
    "morse": (PIN_POTENTIALS["morse"], 6.0, 1.8),
    "neural": (random_model(0), 5.0, 1.6),
}


def property_cluster(n_atoms, seed, cutoff, min_dist):
    """A random cluster, one atom exactly one cutoff from the cluster's rightmost
    atom (and further from all others), and a last atom with no neighbor."""
    pos = random_cluster(n_atoms, seed, box=2.5, min_dist=min_dist)
    pos = pos - pos[np.argmax(pos[:, 0])]   # the rightmost atom at the origin, exactly
    return np.vstack([pos, [[cutoff, 0.0, 0.0], [-40.0, 0.0, 0.0]]])


@pytest.mark.parametrize("kind", list(PROPERTY_POTENTIALS))
class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(n_atoms=st.integers(2, 5), seed=st.integers(0, 2**31 - 1), data=st.data())
    def test_permutation_invariance(self, kind, n_atoms, seed, data):
        pot, cutoff, min_dist = PROPERTY_POTENTIALS[kind]
        pos = property_cluster(n_atoms, seed, cutoff, min_dist)
        perm = np.array(data.draw(st.permutations(range(len(pos)))))
        e, f = pot.energy_forces(pos)[:2]
        e_perm, f_perm = pot.energy_forces(pos[perm])[:2]
        assert e_perm == pytest.approx(e, rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(f_perm, f[perm], rtol=0, atol=1e-12 * max(1.0, np.abs(f).max()))

    @settings(max_examples=15, deadline=None)
    @given(n_atoms=st.integers(2, 5), seed=st.integers(0, 2**31 - 1))
    def test_forces_are_minus_energy_gradient(self, kind, n_atoms, seed):
        pot, cutoff, min_dist = PROPERTY_POTENTIALS[kind]
        pos = property_cluster(n_atoms, seed, cutoff, min_dist)
        f = pot.energy_forces(pos)[1]
        h = 1e-5
        fd = np.zeros_like(f)
        for a, k in np.ndindex(*f.shape):
            pp, pm = pos.copy(), pos.copy()
            pp[a, k] += h
            pm[a, k] -= h
            fd[a, k] = -(pot.energy_forces(pp)[0] - pot.energy_forces(pm)[0]) / (2 * h)
        assert np.abs(f - fd).max() <= 1e-5 * max(np.abs(f).max(), 1e-3)
        assert np.array_equal(f[-1], np.zeros(3))

    @settings(max_examples=20, deadline=None)
    @given(n_atoms=st.integers(2, 5), seed=st.integers(0, 2**31 - 1),
           shift=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3))
    def test_rigid_motion(self, kind, n_atoms, seed, shift):
        """E is invariant under rotation and translation, and F rotates with the frame."""
        pot, cutoff, min_dist = PROPERTY_POTENTIALS[kind]
        pos = property_cluster(n_atoms, seed, cutoff, min_dist)
        rot = random_rotation(np.random.default_rng(seed))
        e, f = pot.energy_forces(pos)[:2]
        atol = 1e-9 * max(1.0, np.abs(f).max())
        for moved, f_moved in ((pos + shift, f), (pos @ rot.T, f @ rot.T),
                               (pos @ rot.T + shift, f @ rot.T)):
            e2, f2 = pot.energy_forces(moved)[:2]
            assert e2 == pytest.approx(e, rel=1e-10, abs=1e-12)
            np.testing.assert_allclose(f2, f_moved, rtol=0, atol=atol)
