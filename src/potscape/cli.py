"""Command-line front end: reproducible experiment runs with manifests.

Every run reads an optional ``key = value`` config file (dotted keys, values
parsed as JSON fragments when possible), applies ``--set key=value``
overrides, writes its artifacts into one output directory, and always leaves
a ``manifest.json`` there (config echo, seed, wall time, sha256 of each
artifact) even on failure.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis, entropy as entropy_mod, landscape as landscape_mod
from .data import (Configuration, Dataset, NoiseSpec, corrupt_labels, dataset_stats,
                   generate_reference_dataset, read_extxyz_file, split_by_temperature,
                   write_extxyz_file)
from .descriptors import DescriptorSpec
from .md import MDConfig, infer_bond_list, run_ensemble, write_ensemble_json, write_summary_csv
from .model import NeuralPotential, fit_rescale, load_checkpoint, loss_eval, save_checkpoint
from .potentials import build_cluster, make_potential
from .seeding import substream
from .training import TrainConfig, train, write_history_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def load_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            out[key.strip()] = _parse_value(value.strip())
    return out


def _get(config, key, default=None, required=False):
    if key in config:
        return config[key]
    if required:
        raise ConfigError(f"missing required config key {key!r}")
    return default


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# shared builders
# ---------------------------------------------------------------------------

def _load_dataset(config, key="data.path") -> Dataset:
    path = _get(config, key, required=True)
    if not os.path.exists(path):
        raise ConfigError(f"dataset file not found: {path}")
    return read_extxyz_file(path)

def _potential(config):
    kind = _get(config, "potential.kind", required=True)
    params = {k.split(".", 1)[1]: v for k, v in config.items()
              if k.startswith("potential.") and k != "potential.kind"}
    try:
        return make_potential(kind, **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad potential spec: {exc}") from None


def _fresh_model(config, seed) -> NeuralPotential:
    spec = DescriptorSpec.default(
        cutoff=float(_get(config, "model.cutoff", 5.0)),
        n_radial=int(_get(config, "model.n_radial", 8)),
        first_center=float(_get(config, "model.first_center", 1.0)),
        trainable_basis=bool(_get(config, "model.trainable_basis", False)),
    )
    hidden = tuple(int(h) for h in _get(config, "model.hidden", [16, 16]))
    init_seed = int(substream(seed, "init").integers(2**31))
    return NeuralPotential.create(spec, hidden=hidden,
                                  activation=_get(config, "model.activation", "tanh"),
                                  seed=init_seed)


def _cast(default, value):
    """``value`` as the type of a field's ``default``; tuple rows for a tuple, as is for None."""
    if default is None:
        return value
    if isinstance(default, tuple):
        return tuple(tuple(row) for row in value)
    return type(default)(value)


def _build(cls, config, prefix, **fixed):
    """``cls`` from the ``<prefix>.<field>`` keys given; other fields keep their defaults."""
    for f in fields(cls):
        key = f"{prefix}.{f.name}"
        if key in config and f.name not in fixed:
            try:
                fixed[f.name] = _cast(f.default, config[key])
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {key}: {config[key]!r}") from None
    return cls(**fixed)


def _train_on(config, seed, dataset, d_val=None):
    """Train a fresh model; it keeps the tail average with ``train.swa_tail``, the
    weight EMA with ``train.ema_decay``, and the best epoch's weights otherwise."""
    cfg = _build(TrainConfig, config, "train")
    if cfg.ema_decay is not None and cfg.swa_tail is not None:
        raise ConfigError("train.ema_decay and train.swa_tail exclude each other")
    if cfg.swa_tail is not None and not cfg.swa_tail < cfg.max_epochs:
        raise ConfigError(f"train.swa_tail={cfg.swa_tail} leaves no epoch to average")
    model = _fresh_model(config, seed)
    if bool(_get(config, "model.rescale", True)):
        model = fit_rescale(model, dataset)
    report = train(model, dataset, cfg, d_val=d_val)
    params = (report.swa_params if cfg.swa_tail is not None else
              report.ema_params if cfg.ema_decay is not None else report.best_params)
    return model.with_values(params), report


def _split(config, ds, train_t, seed):
    return split_by_temperature(
        ds, float(train_t),
        holdout_fraction=float(_get(config, "data.holdout_fraction", 0.1)), seed=seed)


def _landscape_grid(config, t_min=-1.0):
    return np.linspace(float(_get(config, "landscape.t_min", t_min)),
                       float(_get(config, "landscape.t_max", 1.0)),
                       int(_get(config, "landscape.points", 21)))


def _load_profile(config):
    path = _get(config, "profile.path", required=True)
    if not os.path.exists(path):
        raise ConfigError(f"profile not found: {path}")
    return landscape_mod.read_profile_csv(path), str(path)


def _frozen_blocks(config, model):
    frozen = list(_get(config, "landscape.frozen_blocks", []))
    if bool(_get(config, "landscape.freeze_basis", False)):
        frozen += model.params.partition.blocks_in_layer(0)
    return sorted(set(int(i) for i in frozen))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen_data(config, out: Path, seed: int):
    pot = _potential(config)
    ds = generate_reference_dataset(
        pot,
        n_atoms=int(_get(config, "data.n_atoms", 6)),
        temperatures=_get(config, "data.temperatures", [300.0, 600.0, 1200.0]),
        frames_per_T=int(_get(config, "data.frames_per_t", 100)),
        seed=seed,
        species=_get(config, "data.species", "Ar"),
        timestep_fs=float(_get(config, "data.timestep_fs", 1.0)),
        tau_fs=float(_get(config, "data.tau_fs", 250.0)),
        stride=int(_get(config, "data.stride", 50)),
        burn_in_steps=int(_get(config, "data.burn_in_steps", 2000)),
    )
    write_extxyz_file(ds, out / "dataset.extxyz")
    with open(out / "stats.json", "w") as fh:
        json.dump(dataset_stats(ds).to_dict(), fh, sort_keys=True)
        fh.write("\n")
    return ["dataset.extxyz", "stats.json"]


def cmd_train(config, out: Path, seed: int):
    ds = _load_dataset(config)
    train_t = _get(config, "data.train_t", None)
    d_val = None
    if train_t is not None:
        d_train, tests = _split(config, ds, train_t, seed)
        d_val = tests.get(float(train_t))
    else:
        d_train = ds
    model, report = _train_on(config, seed, d_train, d_val=d_val)
    model.name = _get(config, "model.name", "model")
    save_checkpoint(model, out / "model.json")
    write_history_csv(report, out / "history.csv")
    return ["model.json", "history.csv"]


def cmd_eval(config, out: Path, seed: int):
    model = load_checkpoint(_get(config, "model.checkpoint", required=True))
    ds = _load_dataset(config)
    train_t = _get(config, "data.train_t", None)
    if train_t is not None:
        _, tests = _split(config, ds, train_t, seed)
    else:
        tags = {c.temperature_tag for c in ds}
        if None not in tags and len(tags) > 1:
            tests = {t: Dataset([c for c in ds if c.temperature_tag == t], name=f"{t}K")
                     for t in sorted(tags)}
        else:
            tests = {"all_frames": ds}
    rows = analysis.rmse_by_split(model, tests)
    analysis.write_rmse_csv(rows, out / "rmse.csv")
    return ["rmse.csv"]


def cmd_landscape1d(config, out: Path, seed: int):
    model = load_checkpoint(_get(config, "model.checkpoint", required=True))
    ds = _load_dataset(config)
    profile = landscape_mod.landscape_1d(
        model, ds,
        n_dirs=int(_get(config, "landscape.n_directions", 20)),
        t_grid=_landscape_grid(config),
        frozen=_frozen_blocks(config, model),
        seed=seed)
    landscape_mod.write_profile_csv(profile, out / "profile.csv")
    return ["profile.csv", "profile.csv.meta.json"]


def cmd_landscape2d(config, out: Path, seed: int):
    model = load_checkpoint(_get(config, "model.checkpoint", required=True))
    ds = _load_dataset(config)
    surface = landscape_mod.landscape_2d(
        model, ds, t1_grid=_landscape_grid(config), t2_grid=_landscape_grid(config),
        seed=seed, frozen=_frozen_blocks(config, model))
    combined = None
    if "landscape.w_e" in config or "landscape.w_f" in config:
        combined = landscape_mod.reweight_surface(
            surface, float(_get(config, "landscape.w_e", 1.0)),
            float(_get(config, "landscape.w_f", 0.0)))
    landscape_mod.write_surface_csv(surface, out / "surface.csv", combined=combined)
    return ["surface.csv", "surface.csv.meta.json"]


def cmd_interp(config, out: Path, seed: int):
    m_a = load_checkpoint(_get(config, "model.checkpoint_a", required=True))
    m_b = load_checkpoint(_get(config, "model.checkpoint_b", required=True))
    ds = _load_dataset(config)
    profile = landscape_mod.interpolate_models(m_a, m_b, ds, _landscape_grid(config, t_min=0.0))
    landscape_mod.write_profile_csv(profile, out / "profile.csv")
    return ["profile.csv", "profile.csv.meta.json"]


def cmd_entropy(config, out: Path, seed: int):
    profile, ppath = _load_profile(config)
    report = entropy_mod.entropy_from_profile(
        profile,
        T_E=float(_get(config, "entropy.t_e", entropy_mod.DEFAULT_T_E)),
        T_F=float(_get(config, "entropy.t_f", entropy_mod.DEFAULT_T_F)),
        alpha=float(_get(config, "entropy.alpha", entropy_mod.DEFAULT_ALPHA)),
        profile_ref=ppath)
    entropy_mod.write_report_json(report, out / "entropy.json")
    return ["entropy.json"]


def cmd_sweep_entropy(config, out: Path, seed: int):
    profile, ppath = _load_profile(config)
    reports, info = entropy_mod.temperature_sweep(
        profile,
        T_E_range=tuple(_get(config, "sweep.t_e_range", [0.4, 400.0])),
        T_F_range=tuple(_get(config, "sweep.t_f_range", [4.0, 4000.0])),
        alpha=float(_get(config, "entropy.alpha", entropy_mod.DEFAULT_ALPHA)),
        n_points=int(_get(config, "sweep.points", 25)),
        profile_ref=ppath)
    entropy_mod.write_sweep_csv(reports, out / "sweep.csv", info=info)
    return ["sweep.csv", "sweep.csv.meta.json"]


def cmd_md(config, out: Path, seed: int):
    if "model.checkpoint" in config:
        model = load_checkpoint(config["model.checkpoint"])
        name = model.name
    else:
        model = _potential(config)
        name = "reference"
    if "data.path" in config:
        start = _load_dataset(config)[0]
        start = Configuration(start.positions.copy(), list(start.species))
    else:
        pot = _potential(config)
        n_atoms = int(_get(config, "data.n_atoms", 6))
        positions = build_cluster(pot, n_atoms, seed=substream(seed, "cluster").integers(2**31))
        start = Configuration(positions, [_get(config, "data.species", "Ar")] * n_atoms)
    cfg = _build(MDConfig, config, "md", seed=seed)
    if not cfg.bond_list:
        cfg.bond_list = infer_bond_list(start.positions,
                                        factor=float(_get(config, "md.bond_factor", 1.2)))
    dump = cfg.dump_interval is not None
    records, summary = run_ensemble(model, start, cfg, dump_dir=out if dump else None)
    write_ensemble_json(records, summary, cfg, out / "ensemble.json", model_name=name)
    write_summary_csv([(name, summary)], out / "summary.csv")
    artifacts = ["ensemble.json", "summary.csv"]
    if dump:
        artifacts += sorted(p.name for p in out.glob("trajectory_*.extxyz"))
    return artifacts


def cmd_noise_sweep(config, out: Path, seed: int):
    base = _load_dataset(config)
    sigmas = [float(s) for s in _get(config, "noise.sigmas", [0.0, 0.02, 0.05, 0.1])]
    target = _get(config, "noise.target", "forces")
    rows = []
    for k, sigma in enumerate(sigmas):
        noise_seed = int(substream(seed, "noise", k).integers(2**31))
        noisy = corrupt_labels(base, NoiseSpec(sigma=sigma, target=target, seed=noise_seed))
        model, _ = _train_on(config, seed, noisy)
        rmse_noisy = loss_eval(model, noisy).loss_F
        rmse_orig = loss_eval(model, base).loss_F
        baseline = sigma * (base.sigma_dft_force or 0.0) * 1000.0
        rows.append((sigma, rmse_noisy, rmse_orig, baseline))
    with open(out / "noise_sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("sigma", "force_rmse_vs_noisy_mev_per_ang",
                         "force_rmse_vs_original_mev_per_ang", "noise_baseline_mev_per_ang"))
        for row in rows:
            writer.writerow([repr(float(x)) for x in row])
    return ["noise_sweep.csv"]


def cmd_learning_curve(config, out: Path, seed: int):
    ds = _load_dataset(config)
    d_train, tests = _split(config, ds, _get(config, "data.train_t", required=True), seed)
    sizes = [int(n) for n in _get(config, "curve.sizes", [25, 50, 100, 200])]
    points = []
    for n in sizes:
        if n > len(d_train):
            raise ConfigError(f"curve size {n} exceeds training split ({len(d_train)})")
        idx = substream(seed, "curve", n).permutation(len(d_train))[:n]
        subset = Dataset([d_train[i] for i in sorted(idx)], name=f"{d_train.name}-n{n}")
        model, _ = _train_on(config, seed, subset)
        pooled = analysis.rmse_by_split(model, tests)[-1]
        points.append((n, pooled["force_rmse_mev_per_ang"]))
    with open(out / "learning_curve.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("n", "force_rmse_mev_per_ang"))
        for n, eps in points:
            writer.writerow([n, repr(float(eps))])
    fit = analysis.learning_curve_slope(points)
    analysis.write_slope_json(fit, out / "slope.json")
    return ["learning_curve.csv", "slope.json"]


def cmd_toy_regression(config, out: Path, seed: int):
    result = analysis.toy_regression_experiment(
        _get(config, "toy.n_list", [2, 10, 100, 1000, 10000]),
        _get(config, "toy.sigma_list", [0.0, 0.5, 1.0, 2.0]),
        repeats=int(_get(config, "toy.repeats", 100)),
        seed=seed)
    analysis.write_toy_csv(result, out / "toy.csv")
    return ["toy.csv"]


def cmd_fit_slopes(config, out: Path, seed: int):
    path = _get(config, "slopes.input", required=True)
    if not os.path.exists(path):
        raise ConfigError(f"input table not found: {path}")
    mode = _get(config, "slopes.mode", "extrapolation")
    points = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        cols = reader.fieldnames or []
        for row in reader:
            first = row[cols[0]]
            if first == "all":
                continue
            y_col = cols[1] if len(cols) > 1 else None
            if "force_rmse_mev_per_ang" in row:
                y_col = "force_rmse_mev_per_ang"
            points.append((float(first), float(row[y_col])))
    if mode == "extrapolation":
        fit = analysis.extrapolation_slope(points)
    elif mode == "learning-curve":
        fit = analysis.learning_curve_slope(points)
    else:
        raise ConfigError(f"unknown slopes.mode {mode!r}")
    analysis.write_slope_json(fit, out / "slope.json")
    return ["slope.json"]


# The config keys each command reads besides ``seed`` and ``out``; any other key
# is an error.  An entry ending in "." admits every key under it (make_potential
# rejects a parameter it does not know).
_DATA = ("data.path",)
_SPLIT = ("data.train_t", "data.holdout_fraction")
_CLUSTER = ("potential.", "data.n_atoms", "data.species")
_MODEL = ("model.cutoff", "model.n_radial", "model.first_center", "model.trainable_basis",
          "model.hidden", "model.activation", "model.rescale")
_TRAIN = tuple(f"train.{f.name}" for f in fields(TrainConfig))
_MD = tuple(f"md.{f.name}" for f in fields(MDConfig) if f.name != "seed") + ("md.bond_factor",)
_GRID = ("landscape.t_min", "landscape.t_max", "landscape.points")
_LANDSCAPE = _DATA + _GRID + ("model.checkpoint", "landscape.frozen_blocks",
                              "landscape.freeze_basis")
_GEN = ("data.temperatures", "data.frames_per_t", "data.timestep_fs", "data.tau_fs",
        "data.stride", "data.burn_in_steps")

COMMANDS = {
    "gen-data": (cmd_gen_data, _CLUSTER + _GEN),
    "train": (cmd_train, _DATA + _SPLIT + _MODEL + _TRAIN + ("model.name",)),
    "eval": (cmd_eval, _DATA + _SPLIT + ("model.checkpoint",)),
    "landscape1d": (cmd_landscape1d, _LANDSCAPE + ("landscape.n_directions",)),
    "landscape2d": (cmd_landscape2d, _LANDSCAPE + ("landscape.w_e", "landscape.w_f")),
    "interp": (cmd_interp, _DATA + _GRID + ("model.checkpoint_a", "model.checkpoint_b")),
    "entropy": (cmd_entropy, ("profile.path", "entropy.t_e", "entropy.t_f", "entropy.alpha")),
    "sweep-entropy": (cmd_sweep_entropy, ("profile.path", "entropy.alpha", "sweep.t_e_range",
                                          "sweep.t_f_range", "sweep.points")),
    "md": (cmd_md, _DATA + _CLUSTER + _MD + ("model.checkpoint",)),
    "noise-sweep": (cmd_noise_sweep, _DATA + _MODEL + _TRAIN + ("noise.sigmas", "noise.target")),
    "learning-curve": (cmd_learning_curve, _DATA + _SPLIT + _MODEL + _TRAIN + ("curve.sizes",)),
    "toy-regression": (cmd_toy_regression, ("toy.n_list", "toy.sigma_list", "toy.repeats")),
    "fit-slopes": (cmd_fit_slopes, ("slopes.input", "slopes.mode")),
}


def _check_keys(command, config):
    """Reject every key the command does not read, naming the keys it does."""
    keys = ("seed", "out") + COMMANDS[command][1]
    prefixes = tuple(k for k in keys if k.endswith("."))
    unread = sorted(k for k in config if k not in keys and not k.startswith(prefixes))
    if unread:
        reads = ", ".join(k + "*" if k.endswith(".") else k for k in keys)
        raise ConfigError(f"{command} does not read config key(s) {', '.join(unread)}; "
                          f"it reads {reads}")


def run_command(command: str, config: dict, out_dir) -> int:
    """Execute one command; returns the process exit code."""
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_CONFIG
    out = Path(out_dir)
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": int(config.get("seed", 0)),
        "status": "failed",
        "error": None,
        "artifacts": {},
        "duration_s": None,
    }
    started = time.monotonic()
    code = EXIT_OK
    try:
        out.mkdir(parents=True, exist_ok=True)
        _check_keys(command, config)
        artifacts = COMMANDS[command][0](config, out, seed=int(config.get("seed", 0)))
        manifest["artifacts"] = {name: _sha256(out / name) for name in artifacts}
        manifest["status"] = "ok"
    except (ValueError, ArithmeticError, OSError) as exc:
        # ConfigError is a ValueError; TrainingDiverged, MDNumericError and
        # NumericEvalError are ArithmeticErrors.
        manifest["error"] = {"type": type(exc).__name__, "message": str(exc)}
        code = (EXIT_CONFIG if isinstance(exc, ValueError) else
                EXIT_NUMERIC if isinstance(exc, ArithmeticError) else EXIT_IO)
    manifest["duration_s"] = time.monotonic() - started
    try:
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "manifest.json", "w") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
    except OSError:
        code = code or EXIT_IO
    if manifest["error"]:
        print(f"error: {manifest['error']['message']}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="potscape",
        description="Train compact neural interatomic potentials and probe their "
                    "generalization via loss landscapes, entropy, MD stability, "
                    "noise robustness, and slope fits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", help="output directory (default $POTSCAPE_OUT/<command>)")
        p.add_argument("--seed", type=int, help="global seed")
    args = parser.parse_args(argv)

    config: dict = {}
    if args.config:
        try:
            config.update(load_config_file(args.config))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    for item in args.set:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return EXIT_CONFIG
        key, value = item.split("=", 1)
        config[key.strip()] = _parse_value(value.strip())
    if args.seed is not None:
        config["seed"] = args.seed
    out_dir = args.out or config.get("out") or \
        os.path.join(os.environ.get("POTSCAPE_OUT", "runs"), args.command)
    return run_command(args.command, config, out_dir)


if __name__ == "__main__":
    sys.exit(main())
