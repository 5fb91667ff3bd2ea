#!/usr/bin/env python3
"""Exactness check: one sha256 per kernel case over a seeded corpus.

    PYTHONPATH=src python scripts/check_exactness.py > after.txt
    python scripts/check_exactness.py --compare before.txt after.txt

The first form prints an environment fingerprint (lines starting with ``#``:
the python and numpy versions, the SIMD extensions numpy found, and the
OpenBLAS config, which together decide the rounding) and then
``<case> <sha256>`` lines.  The cases cover the pair potentials and the neural
model (fixed and trainable basis, three layer shapes) on batches with pairs at
the cutoff, in the switching window and through a periodic cell, on frames of
one and two atoms, and on batches whose frames keep all their pairs or lose
some; loss tables, minibatch tables and gradients; 1D and 2D landscapes, also
with frozen blocks on a trainable basis;
reference datasets; MD ensembles and their dump files; training, also long
enough to fork its epoch-end worker; models scored against their own
one-frame labels; and each artifact of one run of each CLI command on tiny
inputs, with the optional keys that pick a library default left unset.  ``--compare`` lists the cases whose digests differ between
two outputs, or that only one has, and exits 1 if there are any.  The
landscapes split their points over the CPUs of the affinity mask and training
forks a worker when it has two, so a run under ``taskset -c 0`` against one
with several CPUs compares the forked paths with the one-process paths.  The output on each
known fingerprint is committed as ``tests/digests/<sha256 of the # lines>.txt``,
which ``tests/test_exactness.py`` checks.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import platform
import sys
import tempfile
from dataclasses import astuple
from pathlib import Path

import numpy as np

CELL = np.diag([15.0, 16.0, 17.0])   # wider than twice every cutoff below
HIDDEN = ((), (16, 16), (5, 4, 3))


def fingerprint() -> list[str]:
    config = np.show_config(mode="dicts")
    simd = config.get("SIMD Extensions", {})
    lines = [f"python {platform.python_version()}", f"numpy {np.__version__}",
             f"simd found {' '.join(simd.get('found', []))}",
             f"simd baseline {' '.join(simd.get('baseline', []))}",
             f"openblas {openblas_config()}"]
    return [f"# {line}" for line in lines]


def openblas_config() -> str:
    """The loaded OpenBLAS's own config string (version, kernels), if it has one."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        paths = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                     "openblas_get_config64_", "openblas_get_config"):
            get = getattr(lib, name, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name')} {blas.get('version')} (no runtime config)"


def digest(*arrays, text: str = "") -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    h.update(text.encode())
    return h.hexdigest()


def clusters(rng, b):
    """b frames of 6 atoms at least 1.6 A apart, drawn from rng."""
    from tests.conftest import random_cluster
    return np.stack([random_cluster(6, rng, box=3.0) for _ in range(b)])


def batches(rng, cutoff, switch_start):
    """(name, positions, cell, pbc): B = 1, 4, 30 frames, the first with a pair
    exactly at the cutoff and one in the switching window, and a periodic batch."""
    out = []
    for b in (1, 4, 30):
        pos = clusters(rng, b)
        pos[0, 1] = pos[0, 0] + [cutoff, 0.0, 0.0]
        pos[0, 2] = pos[0, 0] + [0.0, 0.5 * (switch_start + cutoff), 0.0]
        pos[0, 3] = pos[0, 0] + [-20.0, 0.0, 0.0]   # no partner in range
        out.append((f"B{b}", pos, None, None))
    pos = clusters(rng, 4)
    pos[:, ::2] += [6.0, 0.0, 0.0]   # some pairs are nearer through the cell wall
    out.append(("B4-periodic", pos, CELL, np.array([True, True, True])))
    return out


def cases():
    from potscape.data import Configuration, Dataset, generate_reference_dataset, write_extxyz
    from potscape.descriptors import DescriptorSpec
    from potscape.landscape import landscape_1d, landscape_2d
    from potscape.model import (DatasetTables, NeuralPotential, Rescale, tables_loss,
                                tables_loss_grad)
    from potscape.md import MDConfig, run_ensemble
    from potscape.potentials import LennardJones, Morse, build_cluster

    rng = np.random.default_rng(20260101)
    ref = Morse()
    for name, pot in (("lj", LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0)), ("morse", ref)):
        for label, pos, cell, pbc in batches(rng, pot.cutoff, pot.switch_start):
            yield f"{name}/{label}", digest(*pot.energy_forces_batch(pos, cell=cell, pbc=pbc))

    # reference data: 300 MD steps per chain, every 50th after step 100 kept
    for name, pot, temperatures in (("lj", LennardJones(), ((40.0,), (20.0, 40.0, 60.0))),
                                    ("morse", ref, ((300.0,), (300.0, 600.0, 900.0)))):
        for temps in temperatures:
            ds = generate_reference_dataset(pot, 6, temps, frames_per_T=4, seed=3,
                                            stride=50, burn_in_steps=100)
            yield f"gen-data/{name}/T{len(temps)}", digest(text=write_extxyz(ds))

    # reference MD: 30 members for 300 steps, 13 of whose bonds break
    start = Configuration(build_cluster(ref, 6, seed=8), ["Cu"] * 6)
    cfg = MDConfig(temperature=900.0, total_time_ps=0.3, n_trajectories=30,
                   failure_bond_length=1.2 * ref.r0, trace_interval=5, seed=4)
    records, summary = run_ensemble(ref, start, cfg)
    yield "md/morse/B30", digest(text=json.dumps([[r.to_dict() for r in records],
                                                  summary.to_dict()], sort_keys=True))

    # a labelled dataset: 24 free frames, then 6 periodic ones
    pos = clusters(rng, 30)
    pos[24:, ::2] += [6.0, 0.0, 0.0]
    frames = []
    for k, p in enumerate(pos):
        cell, pbc = (CELL, np.array([True] * 3)) if k >= 24 else (None, None)
        e, f = ref.energy_forces(p, cell=cell, pbc=pbc)
        frames.append(Configuration(p, ["Cu"] * 6, energy=e, forces=f, cell=cell, pbc=pbc))
    dataset = Dataset(frames)

    for trainable in (False, True):
        for hidden in HIDDEN:
            spec = DescriptorSpec.default(cutoff=5.0, n_radial=6, trainable_basis=trainable)
            m = NeuralPotential.create(spec, hidden=hidden, seed=len(hidden) + 10 * trainable)
            m.rescale = Rescale(scale=0.4, shift=-1.5, enabled=True)
            layers = "-".join(map(str, hidden)) or "none"
            name = f"nn/{'trainable' if trainable else 'fixed'}/{layers}"
            yield f"{name}/create", digest(m.params)
            for label, p, cell, pbc in batches(rng, spec.cutoff, 0.9 * spec.cutoff):
                yield f"{name}/{label}", digest(*m.energy_forces_batch(p, cell=cell, pbc=pbc))
            v = m.params + 0.05 * rng.standard_normal(len(m.params))
            tables = DatasetTables(m, dataset)
            subs = [(f"sub{lo}-{hi}", DatasetTables(m, dataset[lo:hi]))
                    for lo, hi in ((0, 10), (10, 27), (27, 30))]   # minibatch tables
            for label, table in [("table", tables)] + subs:
                loss, grad = tables_loss_grad(m, table, v, 1.0, 25.0)
                yield f"{name}/{label}/loss_grad", digest(astuple(loss), grad)
                yield f"{name}/{label}/loss", digest(astuple(tables_loss(m, table, v, 1.0, 25.0)))
            if hidden == HIDDEN[1]:
                grid = np.linspace(-1.0, 1.0, 5)
                runs = [("landscape1d", landscape_1d, {"n_dirs": 3, "t_grid": grid}),
                        ("landscape2d", landscape_2d, {"t1_grid": grid, "t2_grid": grid[1:4]})]
                if trainable:   # the basis blocks and the first neuron of layer 1 held still
                    runs += [(f"{label}-frozen", run, {**kw, "frozen": [0, 1, 2]})
                             for label, run, kw in runs]
                for label, run, kw in runs:
                    result = run(m, dataset, seed=5, **kw)
                    yield f"{name}/{label}", digest(
                        result.loss_E, result.loss_F,
                        text=json.dumps(result.metadata, sort_keys=True))

    yield from fixture_cases(ref)
    yield from small_and_mixed_cases(ref)
    yield from overlap_cases(ref)
    yield from cli_cases()


def cli_cases():
    """Every CLI command on tiny inputs, run in a temporary directory with relative
    paths so that no directory name enters an artifact.  The landscapes, entropies,
    sweep and the reference MD leave their optional keys unset, so these digests pin
    the library defaults that the CLI reads."""
    from potscape.cli import EXIT_OK, run_command

    train = {"train.max_epochs": 5, "train.batch_size": 4, "model.n_radial": 4,
             "model.hidden": [4]}
    runs = [
        ("gen-data", "gen", {"potential.kind": "morse", "data.temperatures": [300.0, 600.0],
                             "data.frames_per_t": 4, "data.burn_in_steps": 60,
                             "data.stride": 10, "seed": 2}),
        ("train", "train-a", {"data.path": "gen/dataset.extxyz", "data.train_t": 300.0,
                              "seed": 1, **train}),
        ("train", "train-b", {"data.path": "gen/dataset.extxyz", "data.train_t": 300.0,
                              "seed": 1, **train, "train.max_epochs": 10, "train.lr0": 0.02}),
        ("eval", "eval", {"model.checkpoint": "train-a/model.json",
                          "data.path": "gen/dataset.extxyz"}),
        ("landscape1d", "landscape1d", {"model.checkpoint": "train-a/model.json",
                                        "data.path": "gen/dataset.extxyz"}),
        ("landscape2d", "landscape2d", {"model.checkpoint": "train-a/model.json",
                                        "data.path": "gen/dataset.extxyz",
                                        "landscape.w_f": 10.0, "landscape.frozen_blocks": [0]}),
        ("interp", "interp", {"model.checkpoint_a": "train-a/model.json",
                              "model.checkpoint_b": "train-b/model.json",
                              "data.path": "gen/dataset.extxyz"}),
        ("entropy", "entropy", {"profile.path": "landscape1d/profile.csv"}),
        ("sweep-entropy", "sweep-entropy", {"profile.path": "landscape1d/profile.csv"}),
        ("md", "md", {"potential.kind": "morse", "md.total_time_ps": 0.1,
                      "md.n_trajectories": 3, "md.temperature": 900.0, "seed": 4}),
        ("noise-sweep", "noise-sweep", {"data.path": "gen/dataset.extxyz",
                                        "noise.sigmas": [0.0, 0.1], **train}),
        ("learning-curve", "learning-curve", {"data.path": "gen/dataset.extxyz",
                                              "data.train_t": 300.0, "curve.sizes": [2, 3],
                                              **train}),
        ("toy-regression", "toy-regression", {"toy.n_list": [2, 4], "toy.sigma_list": [0.0, 0.1],
                                              "toy.repeats": 2}),
        ("fit-slopes", "fit-slopes", {"slopes.input": "learning-curve/learning_curve.csv",
                                      "slopes.mode": "learning-curve"}),
    ]
    found = []   # yielded after the working directory is restored
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp):
        for command, out, config in runs:
            if run_command(command, config, out) != EXIT_OK:
                raise RuntimeError(f"{command} failed: {Path(out, 'manifest.json').read_text()}")
            for name in json.loads(Path(out, "manifest.json").read_text())["artifacts"]:
                found.append((f"cli/{out}/{name}",
                              digest(text=Path(out, name).read_bytes().decode())))
    yield from found


def overlap_cases(ref):
    """Training long enough on enough pairs that, with two CPUs or more, a forked
    worker evaluates each epoch's end: 120 training frames and 40 validation
    frames of about 28 pairs each, over 160 epochs, is above training.OVERLAP_FLOOR.
    Patience 3 and the schedule's change make the plateau decay the rate."""
    from potscape.data import Configuration, Dataset
    from potscape.training import HISTORY_COLUMNS, TrainConfig, train
    from tests.conftest import random_model

    rng = np.random.default_rng(20261020)
    frames = [Configuration(p, ["Cu"] * 6, *ref.energy_forces(p)) for p in clusters(rng, 160)]
    d_train, d_val = Dataset(frames[:120]), Dataset(frames[120:])
    cfg = TrainConfig(max_epochs=160, batch_size=40, lr0=0.02, amsgrad=True, plateau_patience=3,
                      weight_schedule=((0, 1.0, 25.0), (80, 25.0, 1.0)))
    for trainable in (False, True):
        report = train(random_model(23, hidden=(16, 16), trainable_basis=trainable), d_train,
                       cfg, d_val=d_val)
        history = [[row[k] for k in HISTORY_COLUMNS] for row in report.history]
        yield (f"train/{'trainable' if trainable else 'fixed'}/overlap",
               digest(report.best_params, report.final_params, [report.best_epoch], history))


def small_and_mixed_cases(ref):
    """Frames of 1 and 2 atoms, and batches whose frames have every pair inside the
    cutoff, some of them, or all: the pair tables' and pair sums' shortcuts."""
    from potscape.data import generate_reference_dataset, write_extxyz
    from potscape.potentials import LennardJones
    from tests.conftest import random_cluster, random_model

    rng = np.random.default_rng(20261019)
    lj = LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0)
    one = rng.uniform(-3.0, 3.0, (3, 1, 3))
    two = np.zeros((4, 2, 3))   # inside, in the switching window, inside, beyond
    two[:, 1] = [[2.4, 0.3, -0.2], [5.8, 0.0, 0.1], [3.1, -1.0, 0.5], [9.0, 0.0, 0.0]]
    full = np.stack([random_cluster(6, rng, box=1.7) for _ in range(6)])   # all within 6 A
    mixed = full.copy()
    mixed[[1, 4], 5] += [12.0, 0.0, 0.0]
    periodic = full.copy()
    periodic[:, :3] += [15.0, 0.0, 0.0]   # one cell over: their pairs cross the wall
    periodic[[1, 4], 5] += [0.0, 8.0, 0.0]
    cell, pbc = CELL, np.array([True, True, True])
    for name, pot in (("lj", lj), ("morse", ref)):
        for label, pos in (("N1-B3", one), ("N2-B4", two), ("full-B6", full),
                           ("mixed-B6", mixed)):
            yield f"pair/{name}/{label}", digest(*pot.energy_forces_batch(pos))
        yield f"pair/{name}/mixed-B6-periodic", digest(
            *pot.energy_forces_batch(periodic, cell=cell, pbc=pbc))
    m = random_model(12, hidden=(16, 16))
    for label, pos in (("N1-B3", one), ("N2-B4", two), ("full-B6", full), ("mixed-B6", mixed)):
        yield f"nn/small/{label}", digest(*m.energy_forces_batch(pos))
    ds = generate_reference_dataset(ref, 2, (300.0, 600.0), frames_per_T=4, seed=3,
                                    species="Cu", stride=50, burn_in_steps=100)
    yield "gen-data/morse-cu/N2-T2", digest(text=write_extxyz(ds))


def fixture_cases(ref):
    """Cases set up as in the tests (tests/conftest.py's helpers), on their own seeds."""
    from potscape.analysis import rmse_by_split
    from potscape.data import Configuration, generate_reference_dataset, write_extxyz
    from potscape.landscape import landscape_1d, write_profile_csv
    from potscape.md import MDConfig, infer_bond_list, run_ensemble
    from potscape.model import DatasetTables, loss_eval, tables_loss_grad
    from potscape.potentials import LennardJones, Morse, build_cluster
    from potscape.training import TrainConfig, train
    from tests.conftest import (isolated_atom_dataset, labeled_dataset, labeled_tables_case,
                                pin_frames, random_cluster, random_model)

    # pair potentials on frames with a switched pair, pairs beyond the cutoff and an
    # isolated atom; then two frames of 12 atoms, whose energies sum 8 or more terms
    for name, pot in (("lj", LennardJones(epsilon=0.2, sigma=2.2, cutoff=6.0)),
                      ("morse", Morse(cutoff=6.0))):
        for b in (1, 3):
            for periodic in (False, True):
                pos, cell, pbc = pin_frames(b, periodic)
                yield (f"pair/{name}/B{b}{'-periodic' if periodic else ''}",
                       digest(*pot.energy_forces_batch(pos, cell=cell, pbc=pbc)))
        pos = np.stack([random_cluster(12, seed, box=3.5, min_dist=1.9) for seed in (3, 4)])
        yield f"pair/{name}/B2-12-atoms", digest(*pot.energy_forces_batch(pos))

    for temps, frames in (((300.0,), 300), ((300.0, 600.0, 1200.0), 100)):
        ds = generate_reference_dataset(ref, 6, temps, frames, seed=0, species="Cu",
                                        burn_in_steps=1000, stride=20)
        yield f"gen-data/morse-cu/T{len(temps)}", digest(text=write_extxyz(ds))

    for trainable in (False, True):
        kind = "trainable" if trainable else "fixed"
        for hidden in HIDDEN:
            m, ds, v = labeled_tables_case(trainable, hidden=hidden, n_frames=6)
            loss, grad = tables_loss_grad(m, DatasetTables(m, ds), v, 1.0, 25.0)
            layers = "-".join(map(str, hidden)) or "none"
            yield f"layout/{kind}/{layers}/create", digest(m.params)
            yield f"layout/{kind}/{layers}/loss_grad", digest(grad, astuple(loss))

        m = random_model(3, trainable_basis=trainable)
        ds = labeled_dataset(m, 6, seed=103, energy_offset=0.05,
                             force_offset=np.array([0.05, -0.02, 0.01]))
        report = train(m, ds, TrainConfig(max_epochs=20, batch_size=2, lr0=0.01,
                                          weight_schedule=((0, 1.0, 10.0),)))
        yield f"train/{kind}/best_params", digest(report.best_params)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        pos = build_cluster(ref, 6, seed=8)
        cfg = MDConfig(temperature=600.0, total_time_ps=0.2, n_trajectories=6,
                       failure_bond_length=1.2 * ref.r0, bond_list=infer_bond_list(pos), seed=5,
                       dump_interval=15)
        run_ensemble(random_model(4, n_radial=8, hidden=(16, 16)),
                     Configuration(pos, ["Cu"] * 6), cfg, dump_dir=out)
        for path in sorted(out.iterdir()):
            yield f"md-dump/{path.name}", digest(text=path.read_bytes().decode())

        for trainable in (False, True):
            m = random_model(6, trainable_basis=trainable)
            ds = labeled_dataset(m, 3, seed=56, energy_offset=0.02,
                                 force_offset=np.array([0.03, 0.0, -0.01]))
            profile = landscape_1d(m, ds, n_dirs=3, t_grid=np.linspace(-1.0, 1.0, 5), seed=7)
            write_profile_csv(profile, out / "profile.csv")
            yield (f"profile-csv/{'trainable' if trainable else 'fixed'}",
                   digest(text=(out / "profile.csv").read_bytes().decode()))

    # labels from one-frame evaluations against a table's: exactly zero on some kernels
    m = random_model(1)
    for label, ds in (("labeled", labeled_dataset(m, 4, seed=2)),
                      ("isolated-atom", isolated_atom_dataset(m))):
        yield f"zero-loss/loss_eval/{label}", digest(astuple(loss_eval(m, ds)))
    m = random_model(0)
    rows = rmse_by_split(m, {300.0: labeled_dataset(m, 2, seed=1),
                             600.0: labeled_dataset(m, 3, seed=2)})
    yield "zero-loss/rmse_by_split", digest(
        [(r["energy_rmse_mev_per_atom"], r["force_rmse_mev_per_ang"]) for r in rows])


def read_digests(path) -> dict:
    with open(path) as fh:
        return dict(line.split() for line in fh if line.strip() and not line.startswith("#"))


def compare(a, b) -> int:
    da, db = read_digests(a), read_digests(b)
    differ = [case for case in da if case in db and da[case] != db[case]]
    missing = sorted(set(da) ^ set(db))
    for case in differ:
        print(f"differs: {case}")
    for case in missing:
        print(f"only in {a if case in da else b}: {case}")
    print(f"{len(set(da) & set(db))} cases compared, {len(differ)} differ, "
          f"{len(missing)} in one file only")
    return 1 if differ or missing else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two outputs of this script")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    print("\n".join(fingerprint()))
    for case, hexdigest in cases():
        print(case, hexdigest)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))   # for tests.conftest
    sys.exit(main())
