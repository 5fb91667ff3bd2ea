"""Compact neural potential: atom-wise tanh MLP over radial descriptors.

Total energy is scale * sum_i net(G_i) + shift * N when rescaling is enabled;
forces are exact negative gradients via the chain rule through the
descriptors.  ``layout`` is the one place that knows the flat parameter
vector's order: a trainable basis's centers and widths, then each layer's rows
of weights plus bias.  ``NeuralPotential.unpack`` reads its chunks as views, and
``NeuralPotential.blocks`` splits them into the filter blocks (one per row) over
which landscape directions are normalized.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import Annotated, NamedTuple, get_args, get_origin

import numpy as np

from .artifacts import write_json
from .data import Dataset
from .descriptors import DescriptorSpec, basis_values, envelope
from .geometry import R_MIN, SingularGeometryError, pair_table, scatter_add


class NumericEvalError(ArithmeticError):
    """Non-finite intermediate during model evaluation; ``frames`` lists the
    frames of a batch at fault."""

    def __init__(self, message, frames=()):
        super().__init__(message)
        self.frames = tuple(frames)


class FilterBlock(NamedTuple):
    layer: int    # 0 = descriptor basis, 1.. = network layers
    filter: int   # neuron index within the layer (0/1 = centers/widths for layer 0)
    offset: int
    length: int


class Chunk(NamedTuple):
    layer: int        # 0 = descriptor basis, 1.. = network layers
    offset: int
    rows: int         # the layer's neurons; centers and widths for the basis
    row_length: int   # fan-in weights plus bias; n_radial for the basis

    @property
    def end(self) -> int:
        return self.offset + self.rows * self.row_length


def check_hidden(hidden):
    """Each hidden layer at least one neuron wide: a layer of none makes every force zero."""
    if bad := [n for n in hidden if n < 1]:
        raise ValueError(f"each hidden layer width must be >= 1, got {bad[0]}")


def layout(descriptor: DescriptorSpec, hidden) -> list[Chunk]:
    """The flat parameter vector, chunk by chunk: a trainable basis's centers and
    widths, then each layer's rows of weights plus bias.  The only place that
    knows the layout: ``unpack``'s views and the filter blocks both read it."""
    check_hidden(hidden)
    dims = [descriptor.n_radial, *hidden, 1]
    shapes = [(0, 2, dims[0])] if descriptor.trainable_basis else []
    shapes += [(layer, fan_out, fan_in + 1)
               for layer, (fan_in, fan_out) in enumerate(zip(dims, dims[1:]), 1)]
    chunks = []
    for layer, rows, row_length in shapes:
        chunks.append(Chunk(layer, chunks[-1].end if chunks else 0, rows, row_length))
    return chunks


@dataclass
class Rescale:
    scale: float = 1.0   # eV
    shift: float = 0.0   # eV/atom
    enabled: bool = False

    def effective(self):
        return (self.scale, self.shift) if self.enabled else (1.0, 0.0)


@dataclass
class NeuralPotential:
    descriptor: DescriptorSpec
    hidden_layers: tuple
    params: np.ndarray   # the flat parameter vector, in ``layout``'s order
    rescale: Rescale = field(default_factory=Rescale)
    name: str = "model"
    chunks: list = field(init=False, repr=False, compare=False)   # layout(descriptor, hidden)

    def __post_init__(self):
        self.chunks = layout(self.descriptor, self.hidden_layers)
        self.params = np.asarray(self.params, dtype=float)
        if self.params.shape != (self.chunks[-1].end,):
            raise ValueError(f"parameter vector of shape {self.params.shape} does not fit "
                             f"the layout's {self.chunks[-1].end} parameters")
        if not np.all(np.isfinite(self.params)):
            raise ValueError("non-finite parameter")

    @classmethod
    def create(cls, descriptor: DescriptorSpec,
               hidden: Annotated[tuple[int, ...], check_hidden] = (16, 16),
               seed: int = 0, name: str = "model") -> "NeuralPotential":
        model = cls(descriptor, tuple(hidden), np.zeros(layout(descriptor, hidden)[-1].end),
                    name=name)
        centers, widths, Ws, _ = model.unpack()   # views; the biases stay zero
        if descriptor.trainable_basis:
            centers[:], widths[:] = descriptor.centers, descriptor.widths
        rng = np.random.default_rng(seed)
        for W in Ws:
            W[:] = rng.standard_normal(W.shape) / np.sqrt(W.shape[1])
        return model

    def with_values(self, values: np.ndarray) -> "NeuralPotential":
        return replace(self, params=values)

    # -- parameter layout -------------------------------------------------

    @property
    def blocks(self) -> list[FilterBlock]:
        """The filter blocks that landscape directions are normalized over: one per
        row of the layout, a neuron's incoming weights plus its bias, or a trainable
        basis's centers or widths."""
        return [FilterBlock(c.layer, f, c.offset + f * c.row_length, c.row_length)
                for c in self.chunks for f in range(c.rows)]

    def unpack(self, values: np.ndarray | None = None):
        """(centers, widths, [W_l], [b_l]) views into the flat vector, one per chunk of
        the layout.  With a fixed basis, centers and widths are the spec's own
        arrays, not views: never write through them."""
        v = self.params if values is None else np.asarray(values, dtype=float)
        rows = [v[offset:offset + n * k].reshape(n, k) for _, offset, n, k in self.chunks]
        if self.descriptor.trainable_basis:
            basis, rows = rows[0], rows[1:]
            centers, widths = basis[0], basis[1]
        else:
            centers, widths = self.descriptor.centers, self.descriptor.widths
        return centers, widths, [r[:, :-1] for r in rows], [r[:, -1] for r in rows]

    # -- evaluation --------------------------------------------------------

    def energy_forces(self, positions, cell=None, pbc=None):
        """Energy (eV), forces (eV/A), per-atom energies for raw arrays."""
        E, F, y = self.energy_forces_batch(np.asarray(positions, dtype=float)[None],
                                           cell=cell, pbc=pbc)
        return float(E[0]), F[0], y[0]

    def energy_forces_batch(self, positions, cell=None, pbc=None):
        """Energies (B,), forces (B, N, 3) and per-atom energies (B, N) of B frames.

        Each frame's values equal ``energy_forces`` of that frame bit for bit.
        Coincident atoms raise SingularGeometryError and a non-finite site
        energy NumericEvalError; each names the first fault in its message and
        every frame at fault in its ``frames``.
        """
        positions = np.asarray(positions, dtype=float)
        B, n = positions.shape[:2]
        centers, widths, Ws, bs = self.unpack()
        pt = pair_table(positions, self.descriptor.cutoff, cell=cell, pbc=pbc)
        e, de, _ = basis_values(pt.r, centers, widths, self.descriptor.cutoff)
        G = scatter_add(pt.i, e, B * n).reshape(B, n, -1)
        with np.errstate(over="ignore", invalid="ignore"):   # reported as NumericEvalError
            out = _forward(self, Ws, bs, G, de, pt.i, pt.j, pt.unit, B * n, np.arange(B) * n, n)
            # the sum is finite when every site energy is; else they are checked
            finite = math.isfinite(np.add.reduce(out.y)) or np.isfinite(out.y).all()
        if not finite:
            bad = np.flatnonzero(~np.isfinite(out.y))
            frame, atom = divmod(int(bad[0]), n)
            raise NumericEvalError(f"non-finite site energy at atom {atom} of frame {frame}",
                                   np.unique(bad // n).tolist())
        scale, shift = self.rescale.effective()
        return out.E, out.F.reshape(B, n, 3), (scale * out.y + shift).reshape(B, n)


class _Forward(NamedTuple):
    y: np.ndarray     # (A,) network outputs (site energies before rescaling)
    hs: list          # layer inputs; hs[0] is the descriptor matrix G
    d1s: list         # tanh' = 1 - h**2 of each hidden layer, h = hs[l + 1]
    F: np.ndarray     # (A, 3) forces, eV/A
    E: np.ndarray     # (M,) frame energies, eV


def _forward(model, Ws, bs, G, de, gi, gj, unit, n_atoms, atom_start, natoms) -> _Forward:
    """Descriptors -> MLP -> input gradient -> forces and energies.

    The frames' atoms are numbered consecutively: pairs (gi, gj) with unit
    vectors gi -> gj, G the descriptor matrix, de the pairs' basis
    r-derivatives, atom_start the first atom of each frame and natoms the
    frames' atom counts.  One frame is the case atom_start = [0].  A G of
    shape (B, N, n_radial) holds B frames of N atoms; its layers are multiplied
    frame by frame, so each frame's values equal its own evaluation bit for bit
    (one matrix product over all rows may round differently).  The per-pair
    gather is ``np.take``, a row copy cheaper than fancy indexing that yields
    the same rows in pair order, and the force scatter keeps that order too.

    The layouts keep the bits: the layers are ``h @ W.T`` (``(W @ h.T).T``
    rounds differently), and de and the gathered input gradient are both
    C-ordered (P, K) in the per-pair einsum.
    """
    scale, shift = model.rescale.effective()
    hs, d1s = [G], []
    for W, b in zip(Ws[:-1], bs[:-1]):
        z = hs[-1] @ W.T
        z += b
        h = np.tanh(z, out=z)
        d1 = h * h
        hs.append(h)
        d1s.append(np.subtract(1.0, d1, out=d1))
    y = hs[-1] @ Ws[-1].T
    y += bs[-1]
    y = y.ravel()
    # d y / d G, back through the layers
    g = np.broadcast_to(Ws[-1], hs[-1].shape)
    for layer in range(len(hs) - 2, -1, -1):
        g = (d1s[layer] * g) @ Ws[layer]
    n_pairs, k = len(gi), g.shape[-1]
    # the gathered (P, K) rows are freed right after the contraction; kept to the end
    # of the call beside the 1 - h**2 arrays, they left a heap top that malloc
    # trimmed and faulted back in at every landscape point
    s = np.einsum("pd,pd->p", de, np.take(g.reshape(n_atoms, k), gi, axis=0, mode="clip"))
    s *= scale
    # columns x, y, z of [contrib, -contrib] for the pairs [gi, gj]
    contrib = np.empty((3, 2 * n_pairs))
    np.multiply(s, unit.T, out=contrib[:, :n_pairs])
    np.negative(contrib[:, :n_pairs], out=contrib[:, n_pairs:])
    F = scatter_add(np.concatenate([gi, gj]), contrib.T, n_atoms)
    # sequential per-frame sums, so one frame and a table of frames agree bit for bit
    E = scale * (np.add.reduceat(y, atom_start) if len(y) else np.zeros(0)) + shift * natoms
    return _Forward(y, hs, d1s, F, E)


# ---------------------------------------------------------------------------
# dataset-level loss with analytic parameter gradient
# ---------------------------------------------------------------------------

@dataclass
class LossValues:
    loss_E: float      # per-atom energy RMSE, meV/atom
    loss_F: float      # force-component RMSE, meV/A
    combined: float    # w_E * MSE_E + w_F * MSE_F (eV-based)
    mse_E: float
    mse_F: float


# the most B * N**2 entries of one DatasetTables pair_table call: 1.5 MB of displacements
PAIR_BATCH_ENTRIES = 1 << 16


def _geometry_kind(c) -> tuple:
    """Atom count, cell and periodicity: consecutive frames of one kind share a call."""
    return (c.n_atoms, None if c.cell is None else c.cell.tobytes(),
            None if c.pbc is None else np.asarray(c.pbc, dtype=bool).tobytes())


class DatasetTables:
    """Precomputed geometry, labels, and basis values for fast re-evaluation.

    The table of ``frames`` (a Dataset or a list of configurations, such as a
    minibatch's slice of one).  It makes one batched ``pair_table`` call per
    run of frames with one atom count, cell and periodicity (of at most
    ``PAIR_BATCH_ENTRIES``), whose pairs equal the frames' own, bit for bit; so
    the table of a slice of frames equals that slice of the whole table.

    Geometry (pair distances/unit vectors) and the basis envelope never change.
    The descriptor matrix G and the basis derivatives are kept per table and
    rebuilt only when the basis parameters change (a trainable basis under
    perturbation).
    """

    def __init__(self, model: NeuralPotential, frames):
        frames = list(frames)
        if any(c.energy is None or c.forces is None for c in frames):
            raise ValueError("loss evaluation requires energy and force labels")
        self.cutoff = cutoff = model.descriptor.cutoff
        self.natoms = natoms = np.array([c.n_atoms for c in frames])
        self.atom_start = atom_start = np.cumsum(natoms) - natoms
        pts = []
        for _, run in groupby(range(len(frames)), key=lambda m: _geometry_kind(frames[m])):
            run = list(run)
            size = max(1, PAIR_BATCH_ENTRIES // max(natoms[run[0]] ** 2, 1))
            for k in range(0, len(run), size):
                first, c = run[k], frames[run[k]]
                batch = np.stack([frames[m].positions for m in run[k:k + size]])
                try:
                    pt = pair_table(batch, cutoff, cell=c.cell, pbc=c.pbc)
                except SingularGeometryError as exc:
                    bad = [first + f for f in exc.frames]
                    raise SingularGeometryError(
                        f"coincident atoms (r < {R_MIN} A) in dataset frames {bad}", bad) from exc
                pts.append((pt, atom_start[first]))
        # pairs with atoms numbered over all frames, and their basis envelope
        self.gi = np.concatenate([pt.i + a0 for pt, a0 in pts])
        self.gj = np.concatenate([pt.j + a0 for pt, a0 in pts])
        self.r = np.concatenate([pt.r for pt, _ in pts])
        self.unit = np.concatenate([pt.unit for pt, _ in pts])
        self.envelope = envelope(self.r, cutoff)
        self.e_ref = np.array([c.energy for c in frames])
        self.f_ref = np.vstack([c.forces for c in frames])
        self.n_frames, self.n_atoms = len(frames), len(self.f_ref)
        self.atom_frame = np.repeat(np.arange(self.n_frames), natoms)
        self._cache_key = self._cache = None

    def basis(self, centers, widths, with_param_grads=False):
        """(G, de, param_grads): descriptor matrix and basis_values' derivatives.

        G is C-ordered (A, K) and de C-ordered (P, K), as the forward pass needs
        them to keep its bits; the parameter derivatives are (P, K) views of
        pair-contiguous (K, P) arrays (see ``basis_values``).  They are kept
        until a call with other parameters replaces them.
        """
        key = (centers.tobytes(), widths.tobytes(), bool(with_param_grads))
        if self._cache_key != key:
            e, de, extra = basis_values(self.r, centers, widths, self.cutoff,
                                        with_param_grads=with_param_grads, env=self.envelope)
            self._cache = (scatter_add(self.gi, e, self.n_atoms), de, extra)
            self._cache_key = key
        return self._cache


def _table_forward(model, tables, Ws, bs, G, de) -> _Forward:
    return _forward(model, Ws, bs, G, de, tables.gi, tables.gj, tables.unit,
                    tables.n_atoms, tables.atom_start, tables.natoms)


def _residuals(tables, fw: _Forward, w_E, w_F):
    """Per-atom energy and force residuals against the labels, and their loss.

    The force residuals overwrite ``fw.F``.
    """
    eres = (fw.E - tables.e_ref) / tables.natoms
    fres = np.subtract(fw.F, tables.f_ref, out=fw.F)
    mse_E = float(np.mean(eres**2))
    mse_F = float(np.sum(np.square(fres)) / (3.0 * tables.n_atoms))
    combined = w_E * mse_E + w_F * mse_F
    loss = LossValues(np.sqrt(mse_E) * 1000.0, np.sqrt(mse_F) * 1000.0,
                      combined, mse_E, mse_F)
    return eres, fres, loss


def tables_loss(model: NeuralPotential, tables: DatasetTables, values, w_E, w_F) -> LossValues:
    """Loss of the model with the given flat parameters over the tables."""
    centers, widths, Ws, bs = model.unpack(values)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        G, de, _ = tables.basis(np.asarray(centers), np.asarray(widths))
        _, _, loss = _residuals(tables, _table_forward(model, tables, Ws, bs, G, de), w_E, w_F)
    return loss


def tables_loss_grad(model: NeuralPotential, tables: DatasetTables, values, w_E, w_F):
    """Loss plus the analytic gradient of `combined` w.r.t. the flat parameters.

    The force-loss term needs the derivative of the descriptor-space input
    gradient, which is propagated with a forward tangent pass followed by a
    reverse pass through both the primal and tangent variables.
    """
    centers, widths, Ws, bs = model.unpack(values)
    scale = model.rescale.effective()[0]
    trainable = model.descriptor.trainable_basis

    G, de, extra = tables.basis(np.asarray(centers), np.asarray(widths),
                                with_param_grads=trainable)
    fw = _table_forward(model, tables, Ws, bs, G, de)
    hs, p1s = fw.hs, fw.d1s
    eres, fres, loss = _residuals(tables, fw, w_E, w_F)
    M = tables.n_frames
    A = tables.n_atoms
    P, K = de.shape

    # seeds: d combined / d y_a (energy path) and tangent V (force path)
    c_atom = np.take(eres / tables.natoms, tables.atom_frame, mode="clip")
    c_atom *= scale * w_E * (2.0 / M)
    rho = fres * (2.0 * w_F / (3.0 * A))
    rho_i = np.take(rho, tables.gi, axis=0, mode="clip")
    rho_i -= np.take(rho, tables.gj, axis=0, mode="clip")
    beta = np.einsum("pk,pk->p", tables.unit, rho_i)
    beta *= scale
    beta_de = np.empty((K, P))   # C-ordered, so that the scatter reads contiguous columns
    np.multiply(beta, de.T, out=beta_de)
    V = scatter_add(tables.gi, beta_de.T, A)

    # combined reverse pass: Phi = sum_a c_a * y_a + g_a . V_a
    qs, ts = [], [V]
    for W, p1 in zip(Ws[:-1], p1s):
        qs.append(ts[-1] @ W.T)
        ts.append(p1 * qs[-1])
    grad = np.zeros(len(model.params))
    g_centers, g_widths, gWs, gbs = model.unpack(grad)   # views of grad
    gW_rows = c_atom[:, None] * hs[-1]
    gW_rows += ts[-1]
    gWs[-1][:] = gW_rows.sum(axis=0, keepdims=True)
    gbs[-1][:] = c_atom.sum()
    hbar = c_atom[:, None] * Ws[-1]
    tbar = np.broadcast_to(Ws[-1], hbar.shape)
    for idx in range(len(Ws) - 2, -1, -1):
        p1 = p1s[idx]
        p2 = hs[idx + 1] * -2.0 * p1   # tanh''(z) = -2 h tanh'(z)
        p2 *= qs[idx]
        p2 *= tbar
        zbar = p1 * hbar
        zbar += p2
        qbar = p1 * tbar
        np.add(zbar.T @ hs[idx], qbar.T @ ts[idx], out=gWs[idx])
        gbs[idx][:] = zbar.sum(axis=0)
        hbar = zbar @ Ws[idx]
        tbar = qbar @ Ws[idx]
    Xbar, Vbar = hbar, tbar

    if trainable:
        de_dc, de_dw, d2_rc, d2_rw = extra
        xb = np.take(Xbar, tables.gi, axis=0, mode="clip")
        vb = np.take(Vbar, tables.gi, axis=0, mode="clip")
        vb *= beta[:, None]
        np.add(np.einsum("pd,pd->d", xb, de_dc), np.einsum("pd,pd->d", vb, d2_rc), out=g_centers)
        np.add(np.einsum("pd,pd->d", xb, de_dw), np.einsum("pd,pd->d", vb, d2_rw), out=g_widths)
    return loss, grad


def loss_eval(m: NeuralPotential, d: Dataset, w_E: float = 1.0, w_F: float = 1000.0) -> LossValues:
    """Energy RMSE (meV/atom), force RMSE (meV/A), and the weighted MSE objective."""
    if len(d) == 0:
        raise ValueError("empty dataset")
    tables = DatasetTables(m, d)
    return tables_loss(m, tables, m.params, w_E, w_F)


def fit_rescale(m: NeuralPotential, d: Dataset) -> NeuralPotential:
    """Set shift to the mean per-atom energy and scale to ``d.sigma_dft_force``."""
    if len(d) < 2:
        raise ValueError("rescale fit needs at least 2 frames")
    e = [c.energy / c.n_atoms for c in d if c.energy is not None]
    if not e or d.sigma_dft_force is None:
        raise ValueError("rescale fit needs energy and force labels")
    return replace(m, rescale=Rescale(scale=d.sigma_dft_force, shift=float(np.mean(e)),
                                      enabled=True))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = "potscape-checkpoint-1"


def _partition_table(m: NeuralPotential) -> list:
    """The filter blocks as checkpoints list them: layer, filter, offset, length and a
    frozen flag, always false (the flag is kept so that the files keep their bytes)."""
    return [[*b, False] for b in m.blocks]


def save_checkpoint(m: NeuralPotential, path) -> None:
    doc = {
        "format": CHECKPOINT_FORMAT,
        "name": m.name,
        "descriptor": {
            "n_radial": m.descriptor.n_radial,
            "centers": m.descriptor.centers.tolist(),
            "widths": m.descriptor.widths.tolist(),
            "cutoff": m.descriptor.cutoff,
            "trainable_basis": m.descriptor.trainable_basis,
        },
        "hidden_layers": list(m.hidden_layers),
        "activation": "tanh",
        "rescale": {"scale": m.rescale.scale, "shift": m.rescale.shift,
                    "enabled": m.rescale.enabled},
        "params": m.params.tolist(),
        "partition": _partition_table(m),
    }
    write_json(doc, path)


def _is_json(value, kind) -> bool:
    """Whether ``value`` is a JSON ``kind``: for ``int`` an integer and for ``float`` a
    finite number, neither a boolean; for ``list[X]`` a list of X."""
    if kind in (int, float):
        return (isinstance(value, int) and not isinstance(value, bool) or
                kind is float and isinstance(value, float) and math.isfinite(value))
    if get_origin(kind) is list:
        return isinstance(value, list) and all(_is_json(v, *get_args(kind)) for v in value)
    return isinstance(value, kind)


def _entry(doc, key, kind):
    """The value at the dotted ``key`` of the JSON document ``doc``; ValueError naming
    the key unless it is there and a JSON ``kind`` (see ``_is_json``)."""
    value = doc
    for part in key.split("."):
        if not isinstance(value, dict) or part not in value:
            raise ValueError(f"no {key} entry")
        value = value[part]
    if not _is_json(value, kind):
        raise ValueError(f"{key} must be {kind.__name__ if isinstance(kind, type) else kind}, "
                         f"got {reprlib.repr(value)}")
    return value


def load_checkpoint(path) -> NeuralPotential:
    """The model that ``save_checkpoint`` wrote; ValueError, naming the path, for a file
    that is not JSON, an entry that is missing or of the wrong JSON type, an activation
    other than tanh, or a partition table other than the one rebuilt from its
    descriptor and hidden layers."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a model checkpoint")
        if (activation := _entry(doc, "activation", str)) != "tanh":
            raise ValueError(f"activation {activation!r} is not tanh")
        spec = DescriptorSpec(*(_entry(doc, f"descriptor.{key}", kind) for key, kind in (
            ("n_radial", int), ("centers", list[float]), ("widths", list[float]),
            ("cutoff", float), ("trainable_basis", bool))))
        m = NeuralPotential(spec, tuple(_entry(doc, "hidden_layers", list[int])),
                            np.array(_entry(doc, "params", list[float]), dtype=float),
                            Rescale(*(_entry(doc, f"rescale.{key}", kind) for key, kind in (
                                ("scale", float), ("shift", float), ("enabled", bool)))),
                            name=_entry(doc, "name", str) if "name" in doc else "model")
        # json, so that 0 does not pass for false nor 1.0 for 1
        if json.dumps(doc.get("partition")) != json.dumps(_partition_table(m)):
            raise ValueError(f"the partition table is not the layout of hidden layers "
                             f"{list(m.hidden_layers)} on {spec.n_radial} radial functions "
                             f"({'trainable' if spec.trainable_basis else 'fixed'} basis)")
    except ValueError as exc:   # json's decoding errors too
        raise ValueError(f"{path}: {exc}") from None
    return m
