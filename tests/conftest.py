import hashlib
import importlib.util
import os
from pathlib import Path

import numpy as np
import pytest

from potscape.data import Configuration, Dataset
from potscape.descriptors import DescriptorSpec
from potscape.model import NeuralPotential, Rescale
from potscape.potentials import Morse

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "digests"


def load_script(name):
    """``scripts/<name>.py`` as a module (``scripts`` is not a package)."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


exactness = load_script("check_exactness")
flatness = load_script("run_flatness_vs_stability")


def random_cluster(n_atoms, seed, box=2.5, min_dist=1.6):
    """Well-separated random positions (rejection sampled; seed may be a Generator)."""
    rng = np.random.default_rng(seed)
    while True:
        pos = rng.uniform(-box, box, (n_atoms, 3))
        d = np.linalg.norm(pos[None] - pos[:, None], axis=-1)
        np.fill_diagonal(d, np.inf)
        if d.min() > min_dist:
            return pos


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_model(seed, n_radial=6, hidden=(8, 7), trainable_basis=False,
                 rescaled=True):
    spec = DescriptorSpec.default(cutoff=5.0, n_radial=n_radial,
                                  trainable_basis=trainable_basis)
    m = NeuralPotential.create(spec, hidden=hidden, seed=seed)
    if rescaled:
        m.rescale = Rescale(scale=1.3, shift=-2.1, enabled=True)
    return m


def md_state(positions, velocities, targets, energy, forces):
    """An ``md.md_step`` state: B members (velocities (B, N, 3)) at one start frame."""
    b = len(velocities)
    return (np.arange(b), np.array(targets, dtype=float),
            np.broadcast_to(positions, velocities.shape).copy(), velocities,
            np.broadcast_to(forces, velocities.shape).copy(), np.full(b, float(energy)))


def labeled_dataset(model, n_frames, n_atoms=5, seed=0, energy_offset=0.0,
                    force_offset=None):
    """Dataset labeled with the model's own predictions (optionally offset)."""
    frames = []
    for k in range(n_frames):
        pos = random_cluster(n_atoms, seed + 1000 * k)
        e, f, _ = model.energy_forces(pos)
        if force_offset is not None:
            f = f + force_offset
        frames.append(Configuration(pos, ["Ar"] * n_atoms,
                                    energy=e + energy_offset, forces=f))
    return Dataset(frames, name="self-labeled")


def isolated_atom_dataset(m):
    """Random frames plus a last frame whose atom 2 sits exactly at the cutoff
    (5 A) from atom 0 and whose last atom has no neighbor at all."""
    pos = np.array([[0.0, 0.0, 0.0], [2.5, 0.0, 0.0], [0.0, 0.0, 5.0], [40.0, 0.0, 0.0]])
    e, f, _ = m.energy_forces(pos)
    frames = list(labeled_dataset(m, 3, seed=2))
    return Dataset(frames + [Configuration(pos, ["Ar"] * 4, energy=e, forces=f)])


def labeled_tables_case(trainable, hidden=(8, 7), n_frames=12):
    """A model, a dataset labeled by another model, and a point away from the model's."""
    m = random_model(3, trainable_basis=trainable, hidden=hidden)
    ds = labeled_dataset(random_model(9, hidden=hidden), n_frames, seed=5, energy_offset=0.02)
    v = m.params + 0.05 * np.random.default_rng(4).standard_normal(len(m.params))
    return m, ds, v


def _merged(table):
    """The first two layer-1 blocks of a checkpoint's table as one."""
    k = [row[0] for row in table].index(1)
    first, second = table[k], table[k + 1]
    return table[:k] + [[1, 0, first[2], first[3] + second[3], False]] + table[k + 2:]


# a checkpoint's partition table -> one that does not match its layout
TAMPERED_PARTITIONS = {
    "merged": _merged,
    "layer": lambda table: [[2, *table[0][1:]]] + table[1:],
    "offset": lambda table: table[:-1] + [[*table[-1][:2], table[-1][2] + 1, *table[-1][3:]]],
    "frozen": lambda table: [[*table[0][:4], True]] + table[1:],
    "zero-for-false": lambda table: [[*table[0][:4], 0]] + table[1:],
}


def pin_frames(n_frames, periodic):
    """(positions, cell, pbc) of frames of 6 atoms: a pair in the switching window of
    a cutoff of 6 A, pairs beyond it and an isolated atom; in a periodic cell of 16 A,
    wrapped so that pairs cross its faces."""
    base = np.vstack([random_cluster(4, 5, box=2.0, min_dist=1.9), np.zeros((2, 3))])
    base[4] = base[0] + [5.7, 0.0, 0.0]
    base[5] = [8.0, 8.0, 8.0] if periodic else [40.0, 0.0, 0.0]
    shake = 0.05 * np.random.default_rng(11).standard_normal((n_frames, 5, 3))
    frames = np.repeat(base[None], n_frames, axis=0)
    frames[1:, :5] += shake[1:]
    if periodic:
        return frames % 16.0, np.diag([16.0, 16.0, 16.0]), [True] * 3
    return frames, None, None


def cpus(monkeypatch, n):
    """Make forked.Children see n CPUs in the affinity mask; returns the list of the
    CPU sets that the parent pins itself to (a child pins itself in its own copy)."""
    pinned = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, mask: pinned.append(sorted(mask)))
    return pinned


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def morse_pot():
    return Morse()


@pytest.fixture(scope="session")
def morse_dataset(morse_pot):
    from potscape.data import generate_reference_dataset
    return generate_reference_dataset(morse_pot, 6, [300.0, 600.0], 60, seed=0,
                                      species="Cu", burn_in_steps=500, stride=20,
                                      name="morse-fixture")


def digest_table(fingerprint):
    """The committed digests for ``fingerprint`` (check_exactness.py's ``#`` lines):
    tests/digests/<sha256 of those lines, each ending in a newline>.txt."""
    name = hashlib.sha256("".join(f"{line}\n" for line in fingerprint).encode()).hexdigest()
    path = DIGESTS / f"{name}.txt"
    if not path.exists():
        raise LookupError("no digest table for this fingerprint:\n" + "\n".join(fingerprint)
                          + f"\nrecord one as {path.relative_to(ROOT)} (see README.md)")
    return exactness.read_digests(path)


@pytest.fixture(scope="session")
def corpus():
    """(case -> digest) of the exactness corpus, run once, and the digest table of the
    running fingerprint."""
    return dict(exactness.cases()), digest_table(exactness.fingerprint())


def differing_cases(corpus, *names):
    """The corpus cases among ``names`` whose digest is not the table's."""
    got, table = corpus
    assert set(names) <= set(got)
    return [name for name in names if got[name] != table.get(name)]
