"""Symmetry oracles: a sign flip or a permutation of hidden neurons leaves a tanh
network unchanged.

tanh is odd, so negating a hidden neuron's incoming row and bias and its outgoing
column maps every pre-activation of that neuron to its negative and every product
that reads it to itself, with the same rounding.  So a model at D * theta, for a
+-1 pattern D built through ``unpack`` views, must give the same energies, forces,
losses and checkpoints as the model at theta, bit for bit, and its parameter
gradient and filter-normalized directions must be D times the original ones; so
training must write the same history and parameters D times the original ones,
and MD the same trajectories.  A layout that pairs the wrong entries with a
neuron, or a product that reads a transposed weight, breaks these equalities.

Permuting each hidden layer's neurons independently (and a trainable basis's
radial functions with the first layer's columns) reorders the sums that read
them, so the model at theta[P] must give the same results only to rounding, and
gradients and directions mapped by P.  Unlike a sign flip, it sees a 1 - h**2
taken from the wrong layer (1 - h**2 is even in h) and a filter block that
straddles two neurons (a block's norm is sign-blind).
"""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape.data import Configuration
from potscape.landscape import Direction, filter_normalize, free_blocks
from potscape.md import MDConfig, infer_bond_list, run_ensemble
from potscape.model import (DatasetTables, load_checkpoint, save_checkpoint, tables_loss,
                            tables_loss_grad)
from potscape.training import TrainConfig, train
from tests.conftest import labeled_dataset, random_cluster, random_model

HIDDEN = ((16, 16), (5, 4, 3), (3,))


def flat(m):
    return m.params


def normalized(m, values, direction, frozen):
    """filter_normalize of ``direction`` against ``values`` with the ``frozen`` blocks of m."""
    return filter_normalize(Direction(direction), values, free_blocks(m, frozen)).values


def sign_pattern(m, rng):
    """A +-1 vector over m's parameters: a random sign per hidden neuron, at least one
    of them -1 in each layer, on the neuron's incoming row, bias and outgoing column."""
    D = np.ones(len(flat(m)))
    _, _, Ws, bs = m.unpack(D)   # views of D
    for W, b, W_next in zip(Ws[:-1], bs[:-1], Ws[1:]):
        s = rng.choice([-1.0, 1.0], size=len(b))
        s[rng.integers(len(b))] = -1.0
        W *= s[:, None]
        b *= s
        W_next *= s
    return D


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HIDDEN), st.booleans(), st.integers(0, 2**31 - 1))
def test_sign_flip_is_exact(tmp_path_factory, hidden, trainable, seed):
    rng = np.random.default_rng(seed)
    m = random_model(seed % 97, hidden=hidden, trainable_basis=trainable)
    ds = labeled_dataset(random_model(seed % 89 + 1, hidden=hidden), 3, seed=seed % 1000,
                         energy_offset=0.02)
    D = sign_pattern(m, rng)
    theta = flat(m)
    flipped = m.with_values(D * theta)

    pos = np.stack([random_cluster(5, rng) for _ in range(2)])
    for a, b in zip(m.energy_forces_batch(pos), flipped.energy_forces_batch(pos)):
        assert np.array_equal(a, b)

    loss, grad = tables_loss_grad(m, DatasetTables(m, ds), theta, 1.0, 25.0)
    loss_f, grad_f = tables_loss_grad(flipped, DatasetTables(flipped, ds), D * theta, 1.0, 25.0)
    assert astuple(loss_f) == astuple(loss)
    assert np.array_equal(grad_f, D * grad)

    raw = rng.standard_normal(len(theta))
    tables = DatasetTables(m, ds)
    for frozen in ([], [0, 1] if trainable else []):
        d = normalized(m, theta, raw, frozen)
        d_f = normalized(flipped, D * theta, D * raw, frozen)
        assert np.array_equal(d_f, D * d)
        for alpha in (-1.0, -0.25, 0.5, 1.0):
            assert (astuple(tables_loss(flipped, tables, D * theta + alpha * d_f, 1.0, 25.0))
                    == astuple(tables_loss(m, tables, theta + alpha * d, 1.0, 25.0)))

    path = tmp_path_factory.mktemp("ckpt") / "model.json"
    save_checkpoint(flipped, path)
    again = load_checkpoint(path)
    assert np.array_equal(flat(again), D * theta)
    for a, b in zip(m.energy_forces_batch(pos), again.energy_forces_batch(pos)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("hidden", HIDDEN, ids=lambda h: "-".join(map(str, h)))
@pytest.mark.parametrize("trainable", [False, True])
def test_sign_flip_trains_and_integrates_alike(hidden, trainable):
    # minibatches, AMSGrad and an EMA; then MD of the best parameters
    m = random_model(5, hidden=hidden, trainable_basis=trainable)
    ds = labeled_dataset(random_model(6, hidden=hidden), 5, seed=11, energy_offset=0.02)
    D = sign_pattern(m, np.random.default_rng(len(hidden) + 10 * trainable))
    flipped = m.with_values(D * flat(m))
    cfg = TrainConfig(max_epochs=40, batch_size=2, lr0=0.01, amsgrad=True, ema_decay=0.9,
                      plateau_patience=5)
    report, report_f = train(m, ds, cfg, d_val=ds[3:]), train(flipped, ds, cfg, d_val=ds[3:])
    assert report_f.history == report.history and report_f.best_epoch == report.best_epoch
    for name in ("final_params", "best_params", "ema_params"):
        assert np.array_equal(getattr(report_f, name), D * getattr(report, name)), name

    pos = random_cluster(5, 12)
    md = MDConfig(temperature=600.0, total_time_ps=0.04, n_trajectories=4,
                  failure_bond_length=3.2, bond_list=infer_bond_list(pos), seed=3)
    records = [[r.to_dict() for r in run_ensemble(model, Configuration(pos, ["Ar"] * 5), md)[0]]
               for model in (m.with_values(report.best_params),
                             flipped.with_values(report_f.best_params))]
    assert records[1] == records[0]


def neuron_permutation(m, rng):
    """Indices P with theta[P] the parameters of m with each hidden layer's neurons
    permuted (rows of W_l and b_l, columns of W_l+1) and, for a trainable basis, its
    radial functions with the first layer's columns; each permutation moves some entry."""
    def shuffled(n):
        p = rng.permutation(n)
        return np.roll(p, 1) if np.array_equal(p, np.arange(n)) else p

    P = np.arange(len(flat(m)), dtype=float)
    centers, widths, Ws, bs = m.unpack(P)   # views of P
    if m.descriptor.trainable_basis:
        q = shuffled(len(centers))
        centers[:], widths[:] = centers[q], widths[q]
        Ws[0][:] = Ws[0][:, q]
    for W, b, W_next in zip(Ws[:-1], bs[:-1], Ws[1:]):
        p = shuffled(len(b))
        W[:], b[:] = W[p], b[p]
        W_next[:] = W_next[:, p]
    return P.astype(int)


def assert_close(actual, desired):
    """Equal but for the rounding of sums taken in another order."""
    desired = np.asarray(desired)
    np.testing.assert_allclose(actual, desired, rtol=1e-10,
                               atol=1e-12 * np.abs(desired).max(initial=0.0))


@pytest.mark.parametrize("hidden", HIDDEN, ids=lambda h: "-".join(map(str, h)))
@pytest.mark.parametrize("trainable", [False, True])
def test_neuron_permutation_maps_results(hidden, trainable):
    rng = np.random.default_rng(len(hidden) + 10 * trainable)
    m = random_model(7, hidden=hidden, trainable_basis=trainable)
    ds = labeled_dataset(random_model(8, hidden=hidden), 3, seed=21, energy_offset=0.02)
    P = neuron_permutation(m, rng)
    theta = flat(m)
    permuted = m.with_values(theta[P])

    pos = np.stack([random_cluster(5, rng) for _ in range(2)])
    for a, b in zip(m.energy_forces_batch(pos), permuted.energy_forces_batch(pos)):
        assert_close(b, a)

    loss, grad = tables_loss_grad(m, DatasetTables(m, ds), theta, 1.0, 25.0)
    loss_p, grad_p = tables_loss_grad(permuted, DatasetTables(permuted, ds), theta[P], 1.0, 25.0)
    assert_close(astuple(loss_p), astuple(loss))
    assert_close(grad_p, grad[P])

    raw = rng.standard_normal(len(theta))
    tables = DatasetTables(m, ds)
    for frozen in ([], [0, 1]) if trainable else ([],):
        d = normalized(m, theta, raw, frozen)
        d_p = normalized(permuted, theta[P], raw[P], frozen)
        assert_close(d_p, d[P])
        for alpha in (-1.0, 0.5):
            assert_close(astuple(tables_loss(permuted, tables, theta[P] + alpha * d_p, 1.0, 25.0)),
                         astuple(tables_loss(m, tables, theta + alpha * d, 1.0, 25.0)))
