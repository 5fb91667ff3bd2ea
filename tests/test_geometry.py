import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape.geometry import SingularGeometryError, pair_table, scatter_add
from tests.conftest import random_cluster


def sequential_sum(index, values, n):
    """The oracle: one running sum per atom and column, in index order."""
    out = [[0.0] * values.shape[1] for _ in range(n)]
    for p, a in enumerate(index):
        for c in range(values.shape[1]):
            out[a][c] += float(values[p, c])
    return out


def assert_exact(index, values, n):
    out = scatter_add(index, values, n)
    assert out.dtype == np.float64 and out.shape == (n, values.shape[1])
    assert out.tolist() == sequential_sum(index, values, n)
    unreached = np.setdiff1d(np.arange(n), index)
    assert np.all(out[unreached] == 0.0) and not np.any(np.signbit(out[unreached]))


class TestScatterAdd:
    # magnitudes up to 1e17 make the sums depend on their order (1e17 + 1 - 1e17)
    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(1, 12), st.sampled_from([1, 3, 8]), st.integers(0, 40))
    def test_equals_sequential_sum(self, data, n, k, n_pairs):
        index = np.array(data.draw(st.lists(st.integers(0, n - 1), min_size=n_pairs,
                                            max_size=n_pairs)), dtype=int)
        values = np.array(data.draw(st.lists(
            st.floats(-1e17, 1e17, allow_nan=False), min_size=n_pairs * k,
            max_size=n_pairs * k)), dtype=float).reshape(n_pairs, k)
        assert_exact(index, values, n)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_zero_pairs(self, k):
        assert_exact(np.zeros(0, dtype=int), np.zeros((0, k)), 4)

    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_force_index_order(self, k):
        # the force scatter's [gi, gj] index runs through the atoms twice
        pt = pair_table(np.vstack([random_cluster(6, 3), [[40.0, 0.0, 0.0]]]), 5.0)
        index = np.concatenate([pt.i, pt.j])
        assert not np.all(np.diff(index) >= 0)
        values = np.random.default_rng(k).standard_normal((len(index), k)) * 1e8
        assert_exact(index, values, 7)


@settings(max_examples=60, deadline=None)
@given(n_atoms=st.integers(1, 8), n_frames=st.integers(1, 4), seed=st.integers(0, 2**31 - 1),
       periodic=st.booleans())
def test_batch_table_equals_frames(n_atoms, n_frames, seed, periodic):
    """A batch's table holds each frame's own table (i, j, r, unit) bit for bit, in
    order, with atoms numbered b*N + i: frames with every pair in range (the whole
    pair index) and frames with pairs beyond the cutoff or nearer through the cell."""
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-4.0, 4.0, (n_frames, n_atoms, 3))
    cell, pbc = (np.diag([12.0, 13.0, 14.0]), [True, False, True]) if periodic else (None, None)
    tables = [pair_table(p, 5.0, cell, pbc) for p in pos]
    batch = pair_table(pos, 5.0, cell, pbc)
    frame = batch.i // n_atoms
    assert np.array_equal(frame, batch.j // n_atoms) and np.all(np.diff(frame) >= 0)
    for b, pt in enumerate(tables):
        rows = frame == b
        assert np.array_equal(batch.i[rows] - b * n_atoms, pt.i)
        assert np.array_equal(batch.j[rows] - b * n_atoms, pt.j)
        assert batch.r[rows].tobytes() == pt.r.tobytes()
        assert batch.unit[rows].tobytes() == pt.unit.tobytes()
        assert len(pt) <= n_atoms * (n_atoms - 1) and np.all(pt.r < 5.0)


def test_distance_matrix_names_every_collapsed_frame():
    pos = np.stack([random_cluster(4, seed) for seed in range(5)])
    pos[1, 2] = pos[1, 0]
    pos[3, 3] = pos[3, 1]
    pos[3, 2] = pos[3, 0]
    match = r"^atoms 0 and 2 are coincident .* in frame 1$"
    with pytest.raises(SingularGeometryError, match=match) as err:
        pair_table(pos, 5.0)
    assert err.value.frames == (1, 3)
    with pytest.raises(SingularGeometryError) as one:
        pair_table(pos[3], 5.0)
    assert str(one.value).startswith("atoms 0 and 2 are coincident") and one.value.frames == ()
