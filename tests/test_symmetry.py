"""Exact symmetry oracle: a sign flip of hidden neurons leaves a tanh network unchanged.

tanh is odd, so negating a hidden neuron's incoming row and bias and its outgoing
column maps every pre-activation of that neuron to its negative and every product
that reads it to itself, with the same rounding.  So a model at D * theta, for a
+-1 pattern D built through ``unpack`` views, must give the same energies, forces,
losses and checkpoints as the model at theta, bit for bit, and its parameter
gradient and filter-normalized directions must be D times the original ones.  A
layout that pairs the wrong entries with a neuron, or a product that reads a
transposed weight, breaks these equalities.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import given, settings, strategies as st

from potscape.landscape import Direction, filter_normalize, free_blocks
from potscape.model import (DatasetTables, load_checkpoint, save_checkpoint, tables_loss,
                            tables_loss_grad)
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
