"""The benchmark pipelines, driven through the public potscape API and CLI.

Each pipeline is a closed loop: one stage starts when the previous one
returns.  ``build_inputs`` makes everything that is not part of the pipeline
(config objects, the MD start cluster); the ``run_*`` functions execute the
stages under a ``Clock`` and return the outputs that the checks compare.  Sizes keep the
per-call shapes of the paper's workloads (frames per table, grid, ensemble
size B) and cut repetitions (epochs, picoseconds) so that one pipeline fits a
few times into a run; see README.md in this directory.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import math
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

from potscape import analysis, cli, data, entropy, landscape, md, model, potentials, training
from potscape.descriptors import DescriptorSpec

STAGES = ("gen_data", "train", "landscape", "md", "analysis")

# flatness: scripts/run_flatness_vs_stability.py with 150 instead of 600 epochs
# and 0.3 instead of 2 ps; 300 frames (270 in training), 20x21 grids and
# B = 30 stay.  Like the script, it compares one fixed pair of models on one
# fixed MD ensemble: data seed, split, initial weights, start cluster and
# velocities are the script's.  The benchmark seed draws the landscape
# directions.  Seeding the MD velocities as well moved the integrated steps by
# 10% between seeds (failures end trajectories early), so md_s would measure
# the seed as much as the code.
FLAT_DATA_SEED = 0
FLAT_CLUSTER_SEED = 1
FLAT_MD_SEED = 11
FLAT_FRAMES = 300
FLAT_EPOCHS = 150
FLAT_N_DIRS = 20
FLAT_T_POINTS = 21
FLAT_N_TRAJ = 30
FLAT_MD_PS = 0.3
FLAT_WORKERS = 2

# probe_trainable: the README CLI pipeline with a trainable basis.
PROBE_FRAMES_PER_T = 100
PROBE_EPOCHS = 200
PROBE_T_POINTS = 15
PROBE_MD_PS = 1.0

BATCH = 50
MD_TIMESTEP_FS = 1.0
# reference frames: every 20th step after 1000, as in the scripts
GEN_BURN_IN = 1000
GEN_STRIDE = 20


class StageError(RuntimeError):
    """A stage call returned a non-zero exit code."""


class Clock:
    """Accumulates wall time per stage and, when tracing, opens stage spans."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = {name: 0.0 for name in STAGES}
        self.ops = []            # one label per stage call
        self.end = None          # when the last stage returned

    @contextmanager
    def stage(self, name, op):
        self.ops.append(op)
        with self.tracer.stage(name) if self.tracer else nullcontext():
            t0 = time.perf_counter()
            try:
                yield
            finally:
                self.end = time.perf_counter()
                self.times[name] += self.end - t0


def accepts_workers(fn) -> bool:
    return "n_workers" in inspect.signature(fn).parameters


def _train_keys(epochs, trainable):
    return {
        "model.n_radial": 8,
        "model.hidden": [16, 16],
        "model.trainable_basis": trainable,
        "train.max_epochs": epochs,
        "train.batch_size": BATCH,
        "train.lr0": 0.01,
        "train.amsgrad": True,
        "train.weight_schedule": [[0, 1.0, 25.0]],
    }


def _cluster_keys():
    return {"potential.kind": "morse", "data.n_atoms": 6, "data.species": "Cu"}


# ---------------------------------------------------------------------------
# inputs (built outside the pipeline: this is the set-up)
# ---------------------------------------------------------------------------

def build_inputs(workload: str, seed: int) -> dict:
    if workload == "flatness":
        pot = potentials.Morse()
        start = data.Configuration(potentials.build_cluster(pot, 6, seed=FLAT_CLUSTER_SEED),
                                   ["Cu"] * 6)
        train_cfg = dict(batch_size=BATCH, lr0=0.01, amsgrad=True,
                         weight_schedule=((0, 1.0, 25.0),))
        return {
            "seed": seed,
            "pot": pot,
            "spec": DescriptorSpec.default(cutoff=5.0, n_radial=8),
            "cfg_converged": training.TrainConfig(max_epochs=FLAT_EPOCHS, **train_cfg),
            "cfg_undertrained": training.TrainConfig(max_epochs=1, **train_cfg),
            "start": start,
            "md_cfg": md.MDConfig(temperature=700.0, timestep_fs=MD_TIMESTEP_FS,
                                  total_time_ps=FLAT_MD_PS, n_trajectories=FLAT_N_TRAJ,
                                  failure_bond_length=1.5 * pot.r0,
                                  bond_list=md.infer_bond_list(start.positions),
                                  seed=FLAT_MD_SEED),
            "landscape_kwargs": ({"n_workers": FLAT_WORKERS}
                                 if accepts_workers(landscape.landscape_1d) else {}),
        }
    if workload == "probe_trainable":
        gen = {**_cluster_keys(), "data.temperatures": [300.0, 600.0, 1200.0],
               "data.frames_per_t": PROBE_FRAMES_PER_T, "data.burn_in_steps": GEN_BURN_IN,
               "data.stride": GEN_STRIDE, "seed": seed}
        split = {"data.train_t": 300.0, "data.holdout_fraction": 0.1, "seed": seed}
        return {
            "seed": seed,
            "gen": gen,
            "train": {**_train_keys(PROBE_EPOCHS, True), **split, "model.name": "trained"},
            "init": {**_train_keys(0, True), **split, "model.name": "init"},
            "eval": split,
            "landscape": {"landscape.points": PROBE_T_POINTS, "seed": seed},
            "md": {**_cluster_keys(), "md.temperature": 300.0, "md.total_time_ps": PROBE_MD_PS,
                   "md.n_trajectories": 4, "md.failure_bond_length": 3.75, "seed": seed},
        }
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# pipelines
# ---------------------------------------------------------------------------

def _steps(records, dt=MD_TIMESTEP_FS):
    return sum(int(round(r["time_to_failure_ps"] * 1000.0 / dt)) for r in records)


def _md_counts(records):
    causes = [r["cause"] for r in records if r["failed"]]
    return {"traj_steps": _steps(records), "trajectories": len(records),
            "failed_bond": causes.count("bond"), "failed_numeric": causes.count("numeric")}


def _n_batches(n_frames):
    return math.ceil(n_frames / BATCH)


def run_flatness(inp, work: Path, clock: Clock) -> dict:
    seed = inp["seed"]
    with clock.stage("gen_data", "generate_reference_dataset"):
        ds = data.generate_reference_dataset(inp["pot"], 6, [300.0], FLAT_FRAMES,
                                             seed=FLAT_DATA_SEED, species="Cu",
                                             burn_in_steps=GEN_BURN_IN, stride=GEN_STRIDE)
        d_train, tests = data.split_by_temperature(ds, 300.0, holdout_fraction=0.1,
                                                   seed=FLAT_DATA_SEED)
    with clock.stage("train", "train converged"):
        conv = model.fit_rescale(model.NeuralPotential.create(
            inp["spec"], hidden=(16, 16), seed=0, name="converged"), d_train)
        conv = conv.with_values(training.train(conv, d_train, inp["cfg_converged"]).best_params)
    with clock.stage("train", "train undertrained"):
        under = model.NeuralPotential.create(inp["spec"], hidden=(16, 16), seed=0,
                                             name="undertrained")
        under = under.with_values(
            training.train(under, d_train, inp["cfg_undertrained"]).final_params)
    out = {"models": {}, "train_steps": _n_batches(len(d_train)) * (FLAT_EPOCHS + 1),
           "landscape_points": 0, "md": {}}
    summaries = []
    for m in (conv, under):
        with clock.stage("landscape", f"landscape_1d {m.name}"):
            profile = landscape.landscape_1d(m, d_train, n_dirs=FLAT_N_DIRS,
                                             t_grid=np.linspace(-1.0, 1.0, FLAT_T_POINTS),
                                             seed=seed + 1, **inp["landscape_kwargs"])
        with clock.stage("analysis", f"entropy and rmse {m.name}"):
            landscape.write_profile_csv(profile, work / f"profile_{m.name}.csv")
            report = entropy.entropy_from_profile(profile, profile_ref=f"profile_{m.name}.csv")
            entropy.write_report_json(report, work / f"entropy_{m.name}.json")
            rows = analysis.rmse_by_split(m, tests)
        with clock.stage("md", f"run_ensemble {m.name}"):
            records, summary = md.run_ensemble(m, inp["start"], inp["md_cfg"])
        summaries.append((m.name, summary))
        recs = [r.to_dict() for r in records]
        out["landscape_points"] += profile.metadata["n_evaluations"]
        out["md"][m.name] = _md_counts(recs)
        out["models"][m.name] = {
            "model": m, "profile": profile,
            "entropy": {"S_E": report.S_E, "S_F": report.S_F, "S": report.S},
            "mean_ttf_ps": summary.mean_ttf,
            "rmse": [{k: (float(v) if k != "T" else v) for k, v in r.items()} for r in rows],
        }
    with clock.stage("analysis", "write_summary_csv"):
        md.write_summary_csv(summaries, work / "md_summary.csv")
    out["dataset"] = d_train
    return out


def _cli(clock, stage, command, config, out_dir: Path):
    with clock.stage(stage, f"{command} {out_dir.name}"):
        code = cli.run_command(command, config, out_dir)
    if code != 0:
        raise StageError(f"{command} exited with code {code}")
    manifest = json.loads((out_dir / "manifest.json").read_text())
    for name, digest in manifest["artifacts"].items():
        if hashlib.sha256((out_dir / name).read_bytes()).hexdigest() != digest:
            raise StageError(f"{command}: sha256 of {name} does not match its manifest")
    return out_dir


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _ensemble(path):
    doc = json.loads(Path(path).read_text())
    return doc["records"], doc["summary"]


def run_probe_trainable(inp, work: Path, clock: Clock) -> dict:
    dpath = _cli(clock, "gen_data", "gen-data", inp["gen"], work / "data") / "dataset.extxyz"
    ckpt = _cli(clock, "train", "train", {**inp["train"], "data.path": str(dpath)},
                work / "model") / "model.json"
    init = _cli(clock, "train", "train", {**inp["init"], "data.path": str(dpath)},
                work / "init") / "model.json"
    common = {"model.checkpoint": str(ckpt), "data.path": str(dpath)}
    ev = _cli(clock, "analysis", "eval", {**inp["eval"], **common}, work / "eval")
    surf = _cli(clock, "landscape", "landscape2d", {**inp["landscape"], **common},
                work / "landscape2d")
    interp = _cli(clock, "landscape", "interp",
                  {"model.checkpoint_a": str(init), "model.checkpoint_b": str(ckpt),
                   "data.path": str(dpath), "landscape.points": PROBE_T_POINTS},
                  work / "interp")
    ent = _cli(clock, "analysis", "entropy", {"profile.path": str(interp / "profile.csv")},
               work / "entropy")
    mdd = _cli(clock, "md", "md", {**inp["md"], "model.checkpoint": str(ckpt)}, work / "md")
    n_train = PROBE_FRAMES_PER_T - round(0.1 * PROBE_FRAMES_PER_T)
    return _collect_cli(dpath,
                        {"trained": (ckpt, surf / "surface.csv", "2d"),
                         "init->trained": ((init, ckpt), interp / "profile.csv", "interp")},
                        ev, ent, mdd, train_steps=_n_batches(n_train) * PROBE_EPOCHS,
                        extra={"entropy_profile": interp / "profile.csv",
                               "eval_frames": 3 * PROBE_FRAMES_PER_T - n_train})


def _collect_cli(dpath, landscapes, ev, ent, mdd, extra, train_steps):
    """Read a CLI pipeline's artifacts after its last stage (outside the timing)."""
    records, summary = _ensemble(mdd / "ensemble.json")
    out = {"dataset_path": dpath, "train_steps": train_steps, "landscape_points": 0,
           "models": {}, "md": {"md": _md_counts(records)},
           "rmse": _read_csv(ev / "rmse.csv"),
           "entropy": json.loads((ent / "entropy.json").read_text()), **extra}
    out["md"]["md"]["mean_ttf_ps"] = summary["mean_ttf_ps"]
    for name, (ckpt, path, kind) in landscapes.items():
        meta = json.loads(Path(str(path) + ".meta.json").read_text())
        out["landscape_points"] += meta["n_evaluations"]
        if kind == "2d":
            rows = _read_csv(path)
            n = int(round(math.sqrt(len(rows))))
            arr = np.array([[float(r["loss_energy"]), float(r["loss_force"])] for r in rows])
            profile = {"loss_E": arr[:, 0].reshape(n, n), "loss_F": arr[:, 1].reshape(n, n)}
        else:
            prof = landscape.read_profile_csv(path)
            profile = {"t": prof.t_grid, "loss_E": prof.loss_E, "loss_F": prof.loss_F}
        out["models"][name] = {"checkpoint": ckpt, "profile": profile}
    return out


PIPELINES = {
    "flatness": run_flatness,
    "probe_trainable": run_probe_trainable,
}
