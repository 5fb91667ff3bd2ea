import numpy as np
import pytest

from potscape.data import Configuration
from potscape.descriptors import DescriptorSpec, basis_values, envelope
from potscape.geometry import pair_table
from tests.conftest import random_cluster


def descriptors(spec: DescriptorSpec, c, atom_index: int):
    """Descriptor vector of one atom and its Jacobian w.r.t. all positions.

    A per-pair loop, kept as an oracle independent of the model's scatters.
    Returns (g, jac) with g of shape (K,) and jac of shape (K, N, 3) where
    jac[k, a, :] = d g_k / d position_a.
    """
    n = c.n_atoms
    g = np.zeros(spec.n_radial)
    jac = np.zeros((spec.n_radial, n, 3))
    pt = pair_table(c.positions, spec.cutoff, cell=c.cell, pbc=c.pbc)
    mine = pt.i == atom_index
    if not np.any(mine):
        return g, jac
    r = pt.r[mine]
    unit = pt.unit[mine]
    nbr = pt.j[mine]
    e, de_dr, _ = basis_values(r, spec.centers, spec.widths, spec.cutoff)
    g = e.sum(axis=0)
    # d r_ij / d pos_j = +unit, d r_ij / d pos_i = -unit
    for p in range(len(r)):
        jac[:, nbr[p], :] += de_dr[p][:, None] * unit[p][None, :]
        jac[:, atom_index, :] -= de_dr[p][:, None] * unit[p][None, :]
    return g, jac


def test_spec_validation():
    with pytest.raises(ValueError):
        DescriptorSpec(2, [0.0, 3.0], [1.0, 1.0], 5.0)   # center at 0
    with pytest.raises(ValueError):
        DescriptorSpec(2, [1.0, 6.0], [1.0, 1.0], 5.0)   # center beyond cutoff
    with pytest.raises(ValueError):
        DescriptorSpec(2, [1.0, 3.0], [1.0, -1.0], 5.0)  # negative width
    spec = DescriptorSpec.default(cutoff=5.0, n_radial=8)
    assert spec.n_radial == 8
    assert spec.centers[-1] == 5.0


@pytest.mark.parametrize("cutoff,centers,widths,message", [
    (np.nan, [1.0, 3.0], [1.0, 1.0], "cutoff"),
    (np.inf, [1.0, 3.0], [1.0, 1.0], "cutoff"),
    (5.0, [1.0, np.nan], [1.0, 1.0], "centers"),
    (5.0, [1.0, 3.0], [np.nan, 1.0], "widths"),
    (5.0, [1.0, 3.0], [1.0, np.inf], "widths"),
])
def test_nonfinite_spec_rejected(cutoff, centers, widths, message):
    # NaN passed the <= and > checks
    with pytest.raises(ValueError, match=message):
        DescriptorSpec(2, centers, widths, cutoff)


@pytest.mark.parametrize("cutoff", [np.nan, np.inf])
def test_default_rejects_a_nonfinite_cutoff(cutoff):
    # NaN once built NaN centers, so training ran on all-zero descriptors
    with pytest.raises(ValueError, match="cutoff must be positive and finite"):
        DescriptorSpec.default(cutoff=cutoff)


def test_isolated_atom_zero_vector():
    spec = DescriptorSpec.default()
    c = Configuration(np.array([[0.0, 0.0, 0.0], [100.0, 0.0, 0.0]]), ["Ar", "Ar"])
    g, jac = descriptors(spec, c, 0)
    assert np.all(g == 0.0)
    assert np.all(jac == 0.0)


def test_neighbor_exactly_at_cutoff():
    spec = DescriptorSpec.default(cutoff=4.0)
    c = Configuration(np.array([[0.0, 0.0, 0.0], [4.0, 0.0, 0.0]]), ["Ar", "Ar"])
    g, jac = descriptors(spec, c, 0)
    assert np.all(g == 0.0)
    assert np.all(jac == 0.0)


def test_envelope_vanishes_smoothly():
    fc, dfc = envelope(np.array([0.0, 2.0, 4.0]), 4.0)
    assert fc[0] == 1.0 and fc[2] == 0.0 and dfc[2] == 0.0
    # derivative matches finite differences inside the support
    r = np.linspace(0.1, 3.9, 50)
    fc, dfc = envelope(r, 4.0)
    h = 1e-7
    num = (envelope(r + h, 4.0)[0] - envelope(r - h, 4.0)[0]) / (2 * h)
    np.testing.assert_allclose(num, dfc, atol=1e-6)


def test_envelope_inside_the_cutoff_skips_nothing():
    # pairs inside the cutoff take the unclipped path; one pair at the cutoff sends
    # the same distances through the clip and the masks, with the same bits
    r = np.random.default_rng(0).uniform(0.5, 5.0, 200)
    for inside, general in zip(envelope(r, 5.0), envelope(np.append(r, 5.0), 5.0)):
        assert inside.tobytes() == general[:-1].tobytes()


def test_jacobian_matches_finite_differences():
    spec = DescriptorSpec.default(cutoff=5.0, n_radial=6)
    h = 1e-5
    worst = 0.0
    for seed in range(5):
        pos = random_cluster(5, seed, box=2.5, min_dist=1.6)
        c = Configuration(pos, ["Ar"] * 5)
        g, jac = descriptors(spec, c, 0)
        fd = np.zeros_like(jac)
        for a in range(5):
            for k in range(3):
                pp, pm = pos.copy(), pos.copy()
                pp[a, k] += h
                pm[a, k] -= h
                gp, _ = descriptors(spec, Configuration(pp, ["Ar"] * 5), 0)
                gm, _ = descriptors(spec, Configuration(pm, ["Ar"] * 5), 0)
                fd[:, a, k] = (gp - gm) / (2 * h)
        worst = max(worst, np.max(np.abs(jac - fd)) / np.max(np.abs(jac)))
    assert worst < 1e-6


def test_basis_parameter_derivatives_match_fd():
    centers = np.array([1.5, 2.5, 3.5])
    widths = np.array([0.8, 1.1, 0.5])
    r = np.linspace(0.8, 4.8, 37)
    e, de_dr, (de_dc, de_dw, d2_rc, d2_rw) = basis_values(r, centers, widths, 5.0,
                                                          with_param_grads=True)
    h = 1e-6
    for k in range(3):
        cp, cm = centers.copy(), centers.copy()
        cp[k] += h
        cm[k] -= h
        ep = basis_values(r, cp, widths, 5.0)
        em = basis_values(r, cm, widths, 5.0)
        np.testing.assert_allclose((ep[0][:, k] - em[0][:, k]) / (2 * h), de_dc[:, k], atol=1e-7)
        np.testing.assert_allclose((ep[1][:, k] - em[1][:, k]) / (2 * h), d2_rc[:, k], atol=1e-6)
        wp, wm = widths.copy(), widths.copy()
        wp[k] += h
        wm[k] -= h
        ep = basis_values(r, centers, wp, 5.0)
        em = basis_values(r, centers, wm, 5.0)
        np.testing.assert_allclose((ep[0][:, k] - em[0][:, k]) / (2 * h), de_dw[:, k], atol=1e-7)
        np.testing.assert_allclose((ep[1][:, k] - em[1][:, k]) / (2 * h), d2_rw[:, k], atol=1e-6)
