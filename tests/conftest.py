import functools
import hashlib
import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

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

# the seeded builders that the exactness corpus and the tests share
random_cluster, pin_frames, random_model = (exactness.random_cluster, exactness.pin_frames,
                                            exactness.random_model)
labeled_dataset, isolated_atom_dataset, labeled_tables_case = (
    exactness.labeled_dataset, exactness.isolated_atom_dataset, exactness.labeled_tables_case)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform-ish random proper rotation via QR of a Gaussian matrix."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def md_state(positions, velocities, targets, energy, forces):
    """An ``md.md_step`` state: B members (velocities (B, N, 3)) at one start frame."""
    b = len(velocities)
    return (np.arange(b), np.array(targets, dtype=float),
            np.broadcast_to(positions, velocities.shape).copy(), velocities,
            np.broadcast_to(forces, velocities.shape).copy(), np.full(b, float(energy)))


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


def _edited(key, *value):
    """A checkpoint's document -> its JSON text with ``value`` at the dotted ``key``, or
    without the key."""
    def edit(doc):
        doc = json.loads(json.dumps(doc))   # a deep copy
        *path, last = key.split(".")
        entries = functools.reduce(dict.__getitem__, path, doc)
        if value:
            entries[last], = value
        else:
            del entries[last]
        return json.dumps(doc)
    return edit


# a checkpoint's document -> the text of a malformed one
MALFORMED_CHECKPOINTS = {
    "not-json": lambda doc: json.dumps(doc)[:-1],
    "list": lambda doc: json.dumps([doc]),
    "no-params": _edited("params"),
    "no-rescale": _edited("rescale"),
    "no-cutoff": _edited("descriptor.cutoff"),
    "cutoff-text": _edited("descriptor.cutoff", "5"),
    "hidden-16": _edited("hidden_layers", 16),
    "scale-abc": _edited("rescale.scale", "abc"),
    "scale-nan": _edited("rescale.scale", math.nan),
    "shift-true": _edited("rescale.shift", True),
    "enabled-text": _edited("rescale.enabled", "false"),
    "relu": _edited("activation", "relu"),
}


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
