import numpy as np
import pytest

from potscape.data import Configuration, Dataset
from potscape.descriptors import DescriptorSpec
from potscape.model import NeuralPotential, Rescale
from potscape.potentials import Morse


def random_cluster(n_atoms, seed, box=2.5, min_dist=1.6):
    """Well-separated random positions (rejection sampled, seeded)."""
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


@pytest.fixture(scope="session")
def morse_pot():
    return Morse()


@pytest.fixture(scope="session")
def morse_dataset(morse_pot):
    from potscape.data import generate_reference_dataset
    return generate_reference_dataset(morse_pot, 6, [300.0, 600.0], 60, seed=0,
                                      species="Cu", burn_in_steps=500, stride=20,
                                      name="morse-fixture")
