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
