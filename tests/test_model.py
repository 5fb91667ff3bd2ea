import json
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from potscape.data import Configuration, Dataset
from potscape import model as model_module
from potscape.descriptors import DescriptorSpec
from potscape.geometry import SingularGeometryError, pair_table
from potscape.landscape import free_blocks, sample_direction
from potscape.model import (DatasetTables, NeuralPotential, NumericEvalError, Rescale,
                            fit_rescale, load_checkpoint, loss_eval, save_checkpoint,
                            tables_loss, tables_loss_grad)
from tests.conftest import (TAMPERED_PARTITIONS, differing_cases, exactness,
                            isolated_atom_dataset, labeled_dataset, labeled_tables_case,
                            random_cluster, random_model, random_rotation)


def tiling(m):
    """How often each entry of m's parameter vector lies in one of its filter blocks."""
    covered = np.zeros(len(m.params), dtype=int)
    for b in m.blocks:
        covered[b.offset:b.offset + b.length] += 1
    return covered


class TestPartition:
    @pytest.mark.parametrize("trainable", [False, True])
    def test_blocks_tile_vector(self, trainable):
        spec = DescriptorSpec.default(n_radial=8, trainable_basis=trainable)
        m = NeuralPotential.create(spec, (16, 16))
        assert np.all(tiling(m) == 1)   # disjoint and exhaustive
        n_net = 16 * 9 + 16 * 17 + 1 * 17
        expected = n_net + (16 if trainable else 0)
        assert len(m.params) == expected
        layers = {b.layer for b in m.blocks}
        assert layers == ({0, 1, 2, 3} if trainable else {1, 2, 3})

    def test_dense_filter_is_row_plus_bias(self):
        spec = DescriptorSpec.default(n_radial=4)
        blocks = NeuralPotential.create(spec, (5,)).blocks
        first_hidden = [b for b in blocks if b.layer == 1]
        assert len(first_hidden) == 5
        assert all(b.length == 5 for b in first_hidden)  # 4 weights + bias
        out = [b for b in blocks if b.layer == 2]
        assert len(out) == 1 and out[0].length == 6

    def test_overlap_and_gap_rejected(self, tmp_path):
        # a partition table enters only with a checkpoint, which must tile the vector
        path = tmp_path / "model.json"
        save_checkpoint(NeuralPotential.create(DescriptorSpec.default(n_radial=2), (1,)), path)
        doc = json.loads(path.read_text())
        assert doc["partition"] == [[1, 0, 0, 3, False], [2, 0, 3, 2, False]]
        for table in ([[1, 0, 0, 3, False], [2, 0, 2, 3, False]],   # overlapping
                      [[1, 0, 0, 3, False]]):                       # a gap
            path.write_text(json.dumps({**doc, "partition": table}))
            with pytest.raises(ValueError, match="partition table"):
                load_checkpoint(path)

    def test_with_frozen(self):
        spec = DescriptorSpec.default(n_radial=4, trainable_basis=True)
        m = NeuralPotential.create(spec, (5,))
        d = sample_direction(m.params, free_blocks(m, [0, 1]), 3).values
        assert np.all(d[:8] == 0.0) and np.all(d[8:] != 0.0)

    @pytest.mark.parametrize("hidden", [(0,), (16, 0), (-1, 4)], ids=["0", "16-0", "minus-1-4"])
    def test_create_rejects_an_empty_layer(self, hidden, tmp_path):
        # a width of 0 once made a model whose forces were identically zero
        with pytest.raises(ValueError, match="hidden layer width must be >= 1"):
            NeuralPotential.create(DescriptorSpec.default(), hidden)
        path = tmp_path / "model.json"   # nor does a checkpoint that lists one load
        save_checkpoint(NeuralPotential.create(DescriptorSpec.default(), (4,)), path)
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "hidden_layers": list(hidden)}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: each hidden layer width")):
            load_checkpoint(path)

    @pytest.mark.parametrize("index", [-1, 8, 999])
    def test_with_frozen_rejects_a_stray_index(self, index):
        # such an index once froze nothing, while landscape metadata listed it as frozen
        m = NeuralPotential.create(DescriptorSpec.default(n_radial=4, trainable_basis=True), (5,))
        assert len(m.blocks) == 8
        with pytest.raises(ValueError, match=f"block index {index} is not in 0..7"):
            free_blocks(m, [0, index])


@pytest.mark.parametrize("trainable", [False, True])
@pytest.mark.parametrize("hidden", exactness.HIDDEN)
def test_blocks_are_the_unpack_rows(trainable, hidden):
    """Each filter block is the row of ``unpack`` that it names, and the blocks tile the
    vector: one per neuron, and one each for a trainable basis's centers and widths."""
    m = random_model(0, hidden=hidden, trainable_basis=trainable)
    assert np.all(tiling(m) == 1)
    assert len(m.blocks) == sum(hidden) + 1 + 2 * trainable
    values = np.arange(len(m.params), dtype=float)   # every entry its own index
    centers, widths, Ws, bs = m.unpack(values)
    for b in m.blocks:
        row = (((centers, widths)[b.filter]) if b.layer == 0
               else np.append(Ws[b.layer - 1][b.filter], bs[b.layer - 1][b.filter]))
        assert np.array_equal(values[b.offset:b.offset + b.length], row)


class TestEvaluation:
    def test_all_weights_zero_constant_energy(self):
        m = random_model(0, rescaled=False)
        values = np.zeros_like(m.params)
        _, _, Ws, bs = m.unpack(values)
        m = m.with_values(values)
        v = m.params.copy()
        # set only the output bias: constant site energy
        _, _, Ws, bs = m.unpack(v)
        bs[-1][0] = 0.7  # view write-through
        m = m.with_values(v)
        m.rescale = Rescale(scale=2.0, shift=-1.0, enabled=True)
        pos = random_cluster(5, 1)
        e, f, per = m.energy_forces(pos)
        assert e == pytest.approx(2.0 * 5 * 0.7 + (-1.0) * 5, rel=1e-12)
        assert np.abs(f).max() == 0.0
        np.testing.assert_allclose(per, 2.0 * 0.7 - 1.0)

    def test_translation_invariance(self):
        m = random_model(2)
        pos = random_cluster(5, 3)
        e0, f0, _ = m.energy_forces(pos)
        e1, f1, _ = m.energy_forces(pos + np.array([11.0, -4.0, 2.5]))
        assert e1 == pytest.approx(e0, abs=1e-12)
        np.testing.assert_allclose(f1, f0, atol=1e-12)

    def test_rotation_covariance(self):
        m = random_model(4)
        pos = random_cluster(6, 5)
        e0, f0, _ = m.energy_forces(pos)
        rot = random_rotation(np.random.default_rng(8))
        e1, f1, _ = m.energy_forces(pos @ rot.T)
        assert e1 == pytest.approx(e0, abs=1e-8)
        np.testing.assert_allclose(f1, f0 @ rot.T, atol=1e-8)

    def test_net_force_zero(self):
        m = random_model(6)
        _, f, _ = m.energy_forces(random_cluster(7, 7))
        assert np.abs(f.sum(axis=0)).max() < 1e-8

    @pytest.mark.parametrize("trainable", [False, True])
    def test_forces_match_finite_differences(self, trainable):
        h = 1e-5
        worst = 0.0
        for seed in range(5):
            m = random_model(seed, trainable_basis=trainable)
            pos = random_cluster(5, 100 + seed)
            _, f, _ = m.energy_forces(pos)
            fd = np.zeros_like(f)
            for a in range(5):
                for k in range(3):
                    pp, pm = pos.copy(), pos.copy()
                    pp[a, k] += h
                    pm[a, k] -= h
                    fd[a, k] = -(m.energy_forces(pp)[0] - m.energy_forces(pm)[0]) / (2 * h)
            worst = max(worst, np.max(np.abs(f - fd)) / np.max(np.abs(f)))
        assert worst < 1e-5


class TestBatchEvaluation:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 5), st.integers(3, 7), st.integers(0, 2**31 - 1), st.booleans())
    def test_batch_equals_frames(self, n_frames, n_atoms, seed, trainable):
        """Every frame of a batch evaluates exactly (==) as it does alone."""
        m = random_model(seed % 97, trainable_basis=trainable)
        pos = np.random.default_rng(seed).uniform(-2.5, 2.5, (n_frames, n_atoms, 3))
        # frame 0: atoms 0 and 1 exactly one cutoff apart, the last atom far from all
        pos[0, 0], pos[0, 1] = 0.0, [m.descriptor.cutoff, 0.0, 0.0]
        pos[0, -1] = [40.0, 0.0, 0.0]
        E, F, per_atom = m.energy_forces_batch(pos)
        assert E.shape == (n_frames,) and F.shape == pos.shape
        for b in range(n_frames):
            e, f, p = m.energy_forces(pos[b])
            assert E[b] == e
            assert np.array_equal(F[b], f) and np.array_equal(per_atom[b], p)
        assert np.array_equal(F[0, -1], np.zeros(3))

    @pytest.mark.parametrize("trainable", [False, True])
    def test_views_follow_the_parameter_array(self, trainable):
        """An evaluation reads the model's parameter array as it is now: after a new
        array is assigned, and after in-place writes to it."""
        m = random_model(2, trainable_basis=trainable)
        pos = np.random.default_rng(3).uniform(-2.5, 2.5, (2, 5, 3))
        base = m.params.copy()
        before = m.energy_forces_batch(pos)
        m.params = 1.01 * base
        after = m.energy_forces_batch(pos)
        fresh = m.with_values(1.01 * base).energy_forces_batch(pos)
        m.params[:] = base
        again = m.energy_forces_batch(pos)
        assert not np.array_equal(before[0], after[0])
        for a, b in zip(after + again, fresh + before):
            assert np.array_equal(a, b)

    def test_numeric_error_names_every_frame(self):
        # no hidden layer and a weight of 1e308 on a narrow basis function at 1 A:
        # two neighbours at 1 A overflow the site energy, atoms 2 A or more apart
        # leave that basis function exactly zero
        spec = DescriptorSpec(2, [1.0, 3.0], [1000.0, 0.5], 5.0)
        m = NeuralPotential.create(spec, hidden=())
        m = m.with_values([1e308, 0.3, 0.1])
        wide = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 3.0, 0.0]])
        tight = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.75 ** 0.5, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isfinite(m.energy_forces_batch(np.stack([wide, 1.2 * wide]))[1]).all()
            with pytest.raises(NumericEvalError, match="at atom 0 of frame 1$") as err:
                m.energy_forces_batch(np.stack([wide, tight, 1.2 * wide, tight]))
        assert err.value.frames == (1, 3)


class TestLoss:
    def test_perfect_model_zero_loss(self):
        # a table's matrix multiplies may round differently from one frame's (OpenBLAS's
        # Haswell kernels do); the exactness corpus pins these losses on each kernel
        m = random_model(1)
        for ds in (labeled_dataset(m, 4, seed=2), isolated_atom_dataset(m)):
            lv = loss_eval(m, ds)
            assert lv.loss_E == pytest.approx(0.0, abs=1e-12)
            assert lv.loss_F == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_frame(self):
        # per-atom energy error 4 meV, force error (3, 0, 0) meV/A on one atom
        m = random_model(3)
        pos = random_cluster(1, 0, min_dist=0.0)
        e, f, _ = m.energy_forces(pos)
        ds = Dataset([Configuration(pos, ["Ar"], energy=e - 0.004,
                                    forces=f - np.array([[0.003, 0.0, 0.0]]))])
        lv = loss_eval(m, ds)
        assert lv.loss_E == pytest.approx(4.0, rel=1e-12)
        assert lv.loss_F == pytest.approx(3.0 / np.sqrt(3.0), rel=1e-12)

    def test_weight_linearity(self):
        m = random_model(5)
        ds = labeled_dataset(m, 3, seed=9, energy_offset=0.01,
                             force_offset=np.array([0.02, -0.01, 0.0]))
        a = loss_eval(m, ds, w_E=1.0, w_F=10.0)
        b = loss_eval(m, ds, w_E=1.0, w_F=20.0)
        assert a.loss_E == b.loss_E and a.loss_F == b.loss_F
        assert b.combined - a.combined == pytest.approx(10.0 * a.mse_F, rel=1e-12)

    def test_empty_dataset_rejected(self):
        m = random_model(0)
        with pytest.raises(ValueError):
            Dataset([])
        pos = random_cluster(3, 0)
        with pytest.raises(ValueError):
            loss_eval(m, Dataset([Configuration(pos, ["Ar"] * 3)]))  # no labels


class TestParameterGradient:
    @pytest.mark.parametrize("trainable,rescaled", [(False, False), (False, True),
                                                    (True, False), (True, True)])
    def test_gradient_matches_finite_differences(self, trainable, rescaled):
        m = random_model(11, trainable_basis=trainable, rescaled=rescaled)
        rng = np.random.default_rng(13)
        frames = []
        for k in range(3):
            pos = random_cluster(5, 50 + k)
            frames.append(Configuration(pos, ["Ar"] * 5, energy=rng.normal(-8, 1),
                                        forces=rng.normal(0, 0.4, (5, 3))))
        tables = DatasetTables(m, Dataset(frames))
        v0 = m.params.copy()
        _, grad = tables_loss_grad(m, tables, v0, 1.0, 10.0)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(len(v0)):
            vp, vm = v0.copy(), v0.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (tables_loss(m, tables, vp, 1.0, 10.0).combined
                     - tables_loss(m, tables, vm, 1.0, 10.0).combined) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_gradient_with_linear_net(self):
        # no hidden layers: loss is exactly quadratic in the parameters
        spec = DescriptorSpec.default(n_radial=5)
        m = NeuralPotential.create(spec, hidden=(), seed=0)
        rng = np.random.default_rng(3)
        frames = [Configuration(random_cluster(4, 60 + k), ["Ar"] * 4,
                                energy=rng.normal(-4, 1), forces=rng.normal(0, 0.3, (4, 3)))
                  for k in range(3)]
        tables = DatasetTables(m, Dataset(frames))
        v0 = m.params.copy()
        _, grad = tables_loss_grad(m, tables, v0, 1.0, 5.0)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(len(v0)):
            vp, vm = v0.copy(), v0.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (tables_loss(m, tables, vp, 1.0, 5.0).combined
                     - tables_loss(m, tables, vm, 1.0, 5.0).combined) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-6


class TestWorkspace:
    """A table keeps the basis of its last point, and a trainable basis is rebuilt at every
    point; no point may see what another point left there."""

    @pytest.mark.parametrize("trainable", [False, True])
    def test_point_after_another_point(self, trainable):
        m, ds, b = labeled_tables_case(trainable)
        a = m.params
        tables = DatasetTables(m, ds)
        first = tables_loss(m, tables, a, 1.0, 10.0)
        _, grad_first = tables_loss_grad(m, tables, a, 1.0, 10.0)
        assert tables_loss(m, tables, b, 1.0, 10.0) != first
        tables_loss_grad(m, tables, b, 1.0, 10.0)
        assert astuple(tables_loss(m, tables, a, 1.0, 10.0)) == astuple(first)
        assert tables_loss_grad(m, tables, a, 1.0, 10.0)[1].tobytes() == grad_first.tobytes()
        assert astuple(tables_loss(m, DatasetTables(m, ds), a, 1.0, 10.0)) == astuple(first)

    @pytest.mark.parametrize("trainable", [False, True])
    def test_interleaved_tables_equal_fresh_tables(self, trainable):
        m, ds, v = labeled_tables_case(trainable)
        tables = DatasetTables(m, ds)
        sub = DatasetTables(m, ds[3:9])   # frames 3-8
        for table, fresh in ((tables, lambda: DatasetTables(m, ds)),
                             (sub, lambda: DatasetTables(m, ds[3:9])),
                             (tables, lambda: DatasetTables(m, ds)),
                             (sub, lambda: DatasetTables(m, ds[3:9]))):
            loss_g, grad = tables_loss_grad(m, table, v, 1.0, 25.0)
            loss = tables_loss(m, table, v, 1.0, 25.0)
            fresh_loss_g, fresh_grad = tables_loss_grad(m, fresh(), v, 1.0, 25.0)
            assert astuple(loss_g) == astuple(fresh_loss_g)
            assert grad.tobytes() == fresh_grad.tobytes()
            assert astuple(loss) == astuple(tables_loss(m, fresh(), v, 1.0, 25.0))

    def test_no_hidden_layers(self):
        m, ds, v = labeled_tables_case(True, hidden=())
        tables = DatasetTables(m, ds)
        _, grad = tables_loss_grad(m, tables, v, 1.0, 10.0)
        h = 1e-6
        fd = np.zeros_like(grad)
        for i in range(len(v)):
            vp, vm = v.copy(), v.copy()
            vp[i] += h
            vm[i] -= h
            fd[i] = (tables_loss(m, tables, vp, 1.0, 10.0).combined
                     - tables_loss(m, tables, vm, 1.0, 10.0).combined) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) < 1e-5
        pos = np.stack([c.positions for c in ds][:3])
        E, F, _ = m.with_values(v).energy_forces_batch(pos)
        for b in range(3):
            e, f, _ = m.with_values(v).energy_forces(pos[b])
            assert E[b] == e and np.array_equal(F[b], f)

    def test_repeated_points_accumulate_no_arrays(self):
        # a trainable basis is rebuilt at every point; the table keeps only the last
        # point's, so what it holds does not grow with the points it evaluated
        m, ds, v = labeled_tables_case(True, n_frames=300)
        tables = DatasetTables(m, ds)
        pair_array = len(tables.gi) * m.descriptor.n_radial * 8   # bytes of one (P, K)
        tracemalloc.start()
        try:
            tables_loss(m, tables, m.params, 1.0, 1.0)
            tables_loss(m, tables, v, 1.0, 1.0)
            kept = tracemalloc.get_traced_memory()[0]
            for k in range(1, 5):
                tables_loss(m, tables, v * (1.0 + 0.01 * k), 1.0, 1.0)
                assert tracemalloc.get_traced_memory()[0] - kept < pair_array / 2
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("trainable,hidden", [(trainable, hidden) for trainable in (False, True)
                                              for hidden in ((), (16, 16), (5, 4, 3))])
def test_layout_bytes_pinned(corpus, trainable, hidden):
    """create fills, and tables_loss_grad writes, the vector through unpack's views: the
    bytes of labeled_tables_case(trainable, hidden, n_frames=6), as given when create and
    the gradient each wrote out the parameter layout themselves."""
    name = f"layout/{'trainable' if trainable else 'fixed'}/{'-'.join(map(str, hidden)) or 'none'}"
    assert differing_cases(corpus, f"{name}/create", f"{name}/loss_grad") == []


def mixed_dataset():
    """Frames of 4 and 5 atoms, a run of periodic frames and non-periodic ones between."""
    rng = np.random.default_rng(6)
    cell = np.diag([11.0, 12.0, 13.0])
    frames = []
    for n, periodic in ((4, False), (4, False), (5, False), (5, True), (5, True), (4, True),
                        (4, False), (5, False), (5, False), (5, False)):
        pos = random_cluster(n, int(rng.integers(1 << 30)))
        if periodic:   # some pairs closer through the cell wall than inside it
            pos = pos + np.array([4.0, 0.0, 0.0]) * (np.arange(n) % 2)[:, None]
        frames.append(Configuration(pos, ["Ar"] * n, energy=float(rng.normal()),
                                    forces=rng.normal(size=(n, 3)),
                                    cell=cell if periodic else None))
    return Dataset(frames)


def table_arrays(tables):
    """Every attribute of a table but its basis cache."""
    return {k: v for k, v in vars(tables).items() if k not in ("_cache_key", "_cache")}


class TestTablesConstructor:
    @pytest.mark.parametrize("entries", [model_module.PAIR_BATCH_ENTRIES, 40])
    def test_batched_pairs_equal_frame_pairs(self, entries, monkeypatch):
        monkeypatch.setattr(model_module, "PAIR_BATCH_ENTRIES", entries)   # 40: 2 frames a call
        m, ds = random_model(2), mixed_dataset()
        tables = DatasetTables(m, ds)
        offsets = np.cumsum([0] + [c.n_atoms for c in ds])
        pts = [pair_table(c.positions, 5.0, cell=c.cell, pbc=c.pbc) for c in ds]
        for name, field in (("gi", "i"), ("gj", "j"), ("r", "r"), ("unit", "unit")):
            expected = [getattr(pt, field) + (a0 if field in "ij" else 0)
                        for pt, a0 in zip(pts, offsets)]
            assert getattr(tables, name).tobytes() == np.concatenate(expected).tobytes()
        assert tables.atom_start.tolist() == offsets[:-1].tolist()

    def test_coincident_frames_named_by_dataset_index(self):
        frames = list(mixed_dataset())
        for k in (7, 9):
            frames[k].positions[2] = frames[k].positions[0]
        with pytest.raises(SingularGeometryError, match=r"dataset frames \[7, 9\]") as err:
            DatasetTables(random_model(2), Dataset(frames))
        assert err.value.frames == (7, 9)

    @pytest.mark.parametrize("lo,hi", [(0, 10), (0, 3), (2, 6), (3, 5), (7, 10), (9, 10)])
    def test_frame_range_equals_table_of_frames(self, lo, hi):
        # the table of frames lo..hi-1, built after the dataset's as training builds a
        # minibatch's, equals the table of those frames built alone, and its pairs are
        # those of the dataset's table
        m, ds = random_model(2, trainable_basis=True), mixed_dataset()
        own = DatasetTables(m, ds[lo:hi])
        tables = DatasetTables(m, ds)
        sub = DatasetTables(m, ds[lo:hi])
        got, expected = table_arrays(sub), table_arrays(own)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            if key == "envelope":
                assert [a.tobytes() for a in got[key]] == [a.tobytes() for a in value]
            elif isinstance(value, np.ndarray):
                assert got[key].dtype == value.dtype and got[key].tobytes() == value.tobytes()
            else:
                assert got[key] == value, key
        pair_frame = tables.atom_frame[tables.gi]
        assert sub.r.tobytes() == tables.r[(pair_frame >= lo) & (pair_frame < hi)].tobytes()
        v = m.params * 1.01
        tables_loss_grad(m, tables, v, 1.0, 9.0)   # the dataset's table evaluates first
        assert tables_loss_grad(m, sub, v, 1.0, 9.0)[1].tobytes() == \
            tables_loss_grad(m, own, v, 1.0, 9.0)[1].tobytes()


class TestRescale:
    def test_shift_is_mean_per_atom_energy(self):
        m = random_model(0, rescaled=False)
        frames = [Configuration(random_cluster(4, k), ["Ar"] * 4, energy=-3.2 * 4,
                                forces=np.zeros((4, 3))) for k in range(3)]
        fitted = fit_rescale(m, Dataset(frames))
        assert fitted.rescale.shift == pytest.approx(-3.2, rel=1e-12)
        assert fitted.rescale.enabled

    def test_disabled_rescale_identity(self):
        m = random_model(1, rescaled=False)
        m.rescale = Rescale(scale=99.0, shift=77.0, enabled=False)
        pos = random_cluster(4, 5)
        e, f, _ = m.energy_forces(pos)
        m2 = random_model(1, rescaled=False)
        e2, f2, _ = m2.energy_forces(pos)
        assert e == e2
        np.testing.assert_array_equal(f, f2)

    def test_rescale_reduces_untrained_energy_rmse(self, morse_dataset):
        m = random_model(7, n_radial=8, hidden=(16, 16), rescaled=False)
        fitted = fit_rescale(m, morse_dataset)
        raw = loss_eval(m, morse_dataset)
        cooked = loss_eval(fitted, morse_dataset)
        assert cooked.loss_E <= raw.loss_E

    def test_too_few_frames(self):
        m = random_model(0)
        ds = labeled_dataset(m, 1)
        with pytest.raises(ValueError):
            fit_rescale(m, ds)


class TestCheckpoint:
    @pytest.mark.parametrize("trainable", [False, True])
    def test_roundtrip(self, tmp_path, trainable):
        m = random_model(21, trainable_basis=trainable)
        m.rescale = Rescale(scale=0.37, shift=-1.11, enabled=True)
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        again = load_checkpoint(path)
        np.testing.assert_array_equal(again.params, m.params)
        assert again.hidden_layers == m.hidden_layers
        assert again.rescale == m.rescale
        assert again.descriptor.trainable_basis == trainable
        pos = random_cluster(5, 2)
        np.testing.assert_array_equal(m.energy_forces(pos)[1], again.energy_forces(pos)[1])

    @pytest.mark.parametrize("tamper", TAMPERED_PARTITIONS)
    def test_tampered_partition_rejected(self, tmp_path, tamper):
        # each once loaded; a frozen block then stayed still in every landscape
        # while the landscape's metadata listed no frozen block
        path = tmp_path / "model.json"
        save_checkpoint(random_model(21, trainable_basis=True), path)
        doc = json.loads(path.read_text())
        doc["partition"] = TAMPERED_PARTITIONS[tamper](doc["partition"])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=f"^{path}: the partition table is not the layout"):
            load_checkpoint(path)

    def test_rejects_other_json(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError):
            load_checkpoint(path)


def test_parameter_vector_validation():
    m = NeuralPotential.create(DescriptorSpec.default(n_radial=4), (3,))
    n = len(m.params)
    for bad in (np.zeros(n + 1), np.zeros((1, n)), np.full(n, np.nan)):
        with pytest.raises(ValueError):
            m.with_values(bad)
