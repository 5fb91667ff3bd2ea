"""Command-line front end: reproducible experiment runs with manifests.

Every run reads an optional ``key = value`` config file (dotted keys, values
parsed as JSON fragments when possible), applies ``--set key=value``
overrides, writes its artifacts into one output directory, and always leaves
a ``manifest.json`` there (config echo, seed, wall time, sha256 of each
artifact) even on failure.  A key is declared where a command reads it; a key
the run does not read exits 2 before any work.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import inspect
import json
import math
import os
import sys
import time
import types
import typing
from functools import partial
from pathlib import Path

import numpy as np

from . import analysis, entropy as entropy_mod, landscape as landscape_mod
from .artifacts import write_csv, write_json
from .data import (Configuration, Dataset, NoiseSpec, check_sigmas, corrupt_labels,
                   dataset_stats, generate_reference_dataset, read_extxyz_file,
                   split_by_temperature, write_extxyz_file)
from .descriptors import DescriptorSpec
from .md import MDConfig, infer_bond_list, run_ensemble, write_ensemble_json, write_summary_csv
from .model import NeuralPotential, fit_rescale, load_checkpoint, loss_eval, save_checkpoint
from .potentials import build_cluster, potential_class
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


class _Config(dict):
    """One run's config; ``_get`` records the keys the run reads, in order."""

    def __init__(self, command, items):
        super().__init__(items)
        self.command = command
        self.read = dict.fromkeys(("seed", "out"))   # an ordered set

    def check(self):
        """Reject each key not read so far, naming those read, and each missing input file."""
        unread = sorted(k for k in self if k not in self.read)
        if unread:
            raise ConfigError(f"{self.command} does not read config key(s) {', '.join(unread)}; "
                              f"it reads {', '.join(self.read)}")
        for key in _INPUTS:
            if self.get(key) is not None and not os.path.exists(path := str(self[key])):
                raise ConfigError(f"{key} not found: {path}")


def _get(config, key, default=None, tp=str, required=False):
    """``config[key]``, else ``default``, cast to type ``tp`` (see ``_cast``) and passed to
    each check that ``Annotated[tp, check, ...]`` carries, unless it is None; records
    ``key`` as read, and a value that does not fit or fails a check exits 2 naming the key."""
    config.read.setdefault(key)
    if required and key not in config:
        raise ConfigError(f"missing required config key {key!r}")
    value = config.get(key, default)
    tp, *checks = typing.get_args(tp) if typing.get_origin(tp) is typing.Annotated else (tp,)
    try:
        value = _cast(tp, value)
    except (TypeError, ValueError):
        if typing.get_origin(tp) is tuple:   # a tuple[X, ...] key is written as a JSON list
            tp = list[typing.get_args(tp)[0]]
        name = tp.__name__ if isinstance(tp, type) else tp
        raise ConfigError(f"{key} must be {name}, got {value!r}") from None
    for check in checks if value is not None else ():
        _checked(key, check, value)
    return value


def _checked(key, check, value):
    """``value``, if ``check(value)`` passes; a ValueError it raises exits 2 naming ``key``."""
    try:
        check(value)
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from None
    return value


def _sha256(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


# ---------------------------------------------------------------------------
# shared readers: each reads its keys now and returns what the command needs later
# ---------------------------------------------------------------------------

def _potential(config):
    """The pair potential that ``potential.kind`` names, its fields read as ``potential.*``."""
    return _bind(potential_class(_get(config, "potential.kind", required=True)), config,
                 "potential")()


def _cast(tp, value):
    """``value`` as type ``tp``: a str, number, bool, ``list[X]``, ``tuple[X, ...]``, tuple
    rows, or ``X | None``.  Only ``X | None`` takes null, only a JSON boolean is a bool (not
    "False"), only a list is a list or tuple, and an int rejects a fraction."""
    if isinstance(tp, types.UnionType):   # X | None; null keeps None
        if value is None:
            return None
        (tp,) = (t for t in tp.__args__ if t is not type(None))
    seq = typing.get_origin(tp)   # list or tuple for list[X] and tuple[X, ...]
    if value is None or isinstance(value, bool) != (tp is bool) or \
            isinstance(value, (list, tuple)) != (tp is tuple or seq in (list, tuple)):
        raise TypeError
    if tp is tuple:
        return tuple(tuple(row) for row in value)
    if seq in (list, tuple):
        return seq(_cast(typing.get_args(tp)[0], v) for v in value)
    if tp is int and isinstance(value, float) and not value.is_integer():
        raise ValueError
    return tp(value)


def _bind(fn, config, prefix=None, keys=None, **fixed):
    """``fn`` (a function or a dataclass) as a partial: each parameter that has a default and
    is not in ``fixed`` is read with ``_get`` as annotated, else that default, from the key
    ``keys`` maps its name to, or else (given a ``prefix``) ``<prefix>.<name in lower case>``."""
    for p in inspect.signature(fn, eval_str=True).parameters.values():
        key = (keys or {}).get(p.name) or prefix and f"{prefix}.{p.name.lower()}"
        if key and p.default is not p.empty and p.name not in fixed:
            fixed[p.name] = _get(config, key, p.default, p.annotation)
    return partial(fn, **fixed)


def _trainer(config, seed):
    """``fit(dataset, d_val=None)``: train a fresh model; keep the tail average with
    ``train.swa_tail``, the EMA with ``train.ema_decay``, else the best epoch's weights."""
    cfg = _bind(TrainConfig, config, "train")()
    if cfg.ema_decay is not None and cfg.swa_tail is not None:
        raise ConfigError("train.ema_decay and train.swa_tail exclude each other")
    if cfg.swa_tail is not None and not cfg.swa_tail < cfg.max_epochs:
        raise ConfigError(f"train.swa_tail={cfg.swa_tail} leaves no epoch to average")
    fresh = _bind(NeuralPotential.create, config, "model",
                  descriptor=_bind(DescriptorSpec.default, config, "model")(),
                  seed=int(substream(seed, "init").integers(2**31)), name="model")()
    rescale = _get(config, "model.rescale", True, bool)

    def fit(dataset, d_val=None):
        model = fit_rescale(fresh, dataset) if rescale else fresh
        report = train(model, dataset, cfg, d_val=d_val)
        params = (report.swa_params if cfg.swa_tail is not None else
                  report.ema_params if cfg.ema_decay is not None else report.best_params)
        return model.with_values(params), report
    return fit


def _splitter(config, seed, required=False):
    """``data.train_t`` and, with a training temperature, ``dataset -> (train split, test
    splits)``, which reads ``data.holdout_fraction``; else None."""
    train_t = _get(config, "data.train_t", None, float if required else float | None, required)
    return train_t, None if train_t is None else _bind(split_by_temperature, config, "data",
                                                       train_T=train_t, seed=seed)


def _landscape_grid(config, default=landscape_mod.DEFAULT_T_GRID):
    """``landscape.points`` values from ``landscape.t_min`` to ``landscape.t_max``, unset as in
    ``default``; no point, a bound that is not finite, or bounds that do not increase exit 2."""
    t_min = _get(config, "landscape.t_min", default[0], float)
    t_max = _get(config, "landscape.t_max", default[-1], float)
    points = _get(config, "landscape.points", len(default), int)
    if points < 1:
        raise ConfigError(f"landscape.points must be >= 1, got {points}")
    if not (math.isfinite(t_min) and math.isfinite(t_max)) or (points > 1 and not t_min < t_max):
        raise ConfigError(f"landscape.t_min must be finite and less than landscape.t_max, "
                          f"got {t_min:g} and {t_max:g}")
    return np.linspace(t_min, t_max, points)


def _frozen(config):
    """``model -> sorted frozen block indices``; an index that names no block exits 2."""
    blocks = _get(config, "landscape.frozen_blocks", [], list[int])
    basis = _get(config, "landscape.freeze_basis", False, bool)
    return lambda model: sorted(set(_checked(
        "landscape.frozen_blocks", lambda b: landscape_mod.free_blocks(model, b), blocks)).union(
        k for k, b in enumerate(model.blocks) if basis and b.layer == 0))


# ---------------------------------------------------------------------------
# commands: each reads all its keys, calls config.check(), then loads its inputs
# ---------------------------------------------------------------------------

def cmd_gen_data(config, out: Path, seed: int):
    generate = _bind(generate_reference_dataset, config, "data", pot=_potential(config),
                     seed=seed, name=None)
    config.check()
    ds = generate()
    write_extxyz_file(ds, out / "dataset.extxyz")
    write_json(dataset_stats(ds).to_dict(), out / "stats.json")
    return ["dataset.extxyz", "stats.json"]


def cmd_train(config, out: Path, seed: int):
    path = _get(config, "data.path", required=True)
    train_t, split = _splitter(config, seed)
    fit = _trainer(config, seed)
    name = _get(config, "model.name", "model")
    config.check()
    d_train, d_val = read_extxyz_file(path), None
    if train_t is not None:
        d_train, tests = split(d_train)
        d_val = tests.get(train_t)
    model, report = fit(d_train, d_val=d_val)
    model.name = name
    save_checkpoint(model, out / "model.json")
    write_history_csv(report, out / "history.csv")
    return ["model.json", "history.csv"]


def cmd_eval(config, out: Path, seed: int):
    ckpt = _get(config, "model.checkpoint", required=True)
    path = _get(config, "data.path", required=True)
    train_t, split = _splitter(config, seed)
    config.check()
    model, ds = load_checkpoint(ckpt), read_extxyz_file(path)
    if train_t is not None:
        _, tests = split(ds)
    else:
        tags = {c.temperature_tag for c in ds}
        if None not in tags and len(tags) > 1:
            tests = {t: Dataset([c for c in ds if c.temperature_tag == t], name=f"{t}K")
                     for t in sorted(tags)}
        else:
            tests = {"all_frames": ds}
    analysis.write_rmse_csv(analysis.rmse_by_split(model, tests), out / "rmse.csv")
    return ["rmse.csv"]


def cmd_landscape1d(config, out: Path, seed: int):
    ckpt = _get(config, "model.checkpoint", required=True)
    path = _get(config, "data.path", required=True)
    landscape = _bind(landscape_mod.landscape_1d, config, keys={"n_dirs": "landscape.n_directions"},
                      seed=seed)
    grid, frozen = _landscape_grid(config), _frozen(config)
    config.check()
    model, ds = load_checkpoint(ckpt), read_extxyz_file(path)
    profile = landscape(model, ds, t_grid=grid, frozen=frozen(model))
    landscape_mod.write_profile_csv(profile, out / "profile.csv")
    return ["profile.csv", "profile.csv.meta.json"]


def cmd_landscape2d(config, out: Path, seed: int):
    ckpt = _get(config, "model.checkpoint", required=True)
    path = _get(config, "data.path", required=True)
    grid, frozen = _landscape_grid(config), _frozen(config)
    weight = typing.Annotated[float | None, landscape_mod.check_weight]
    w_e, w_f = (_get(config, f"landscape.{w}", None, weight) for w in ("w_e", "w_f"))
    config.check()
    model, ds = load_checkpoint(ckpt), read_extxyz_file(path)
    surface = landscape_mod.landscape_2d(model, ds, t1_grid=grid, t2_grid=grid, seed=seed,
                                         frozen=frozen(model))
    combined = None
    if w_e is not None or w_f is not None:
        combined = landscape_mod.reweight_surface(surface, 1.0 if w_e is None else w_e,
                                                  0.0 if w_f is None else w_f)
    landscape_mod.write_surface_csv(surface, out / "surface.csv", combined=combined)
    return ["surface.csv", "surface.csv.meta.json"]


def cmd_interp(config, out: Path, seed: int):
    ckpt_a = _get(config, "model.checkpoint_a", required=True)
    ckpt_b = _get(config, "model.checkpoint_b", required=True)
    path = _get(config, "data.path", required=True)
    grid = _landscape_grid(config, landscape_mod.DEFAULT_INTERP_GRID)
    config.check()
    profile = landscape_mod.interpolate_models(load_checkpoint(ckpt_a), load_checkpoint(ckpt_b),
                                               read_extxyz_file(path), grid)
    landscape_mod.write_profile_csv(profile, out / "profile.csv")
    return ["profile.csv", "profile.csv.meta.json"]


def cmd_entropy(config, out: Path, seed: int):
    path = _get(config, "profile.path", required=True)
    entropy = _bind(entropy_mod.entropy_from_profile, config, "entropy", profile_ref=path)
    config.check()
    report = entropy(landscape_mod.read_profile_csv(path))
    entropy_mod.write_report_json(report, out / "entropy.json")
    return ["entropy.json"]


def cmd_sweep_entropy(config, out: Path, seed: int):
    path = _get(config, "profile.path", required=True)
    sweep = _bind(entropy_mod.temperature_sweep, config, "sweep",
                  keys={"alpha": "entropy.alpha"}, profile_ref=path)
    config.check()
    reports, info = sweep(landscape_mod.read_profile_csv(path))
    entropy_mod.write_sweep_csv(reports, out / "sweep.csv", info=info)
    return ["sweep.csv", "sweep.csv.meta.json"]


def cmd_md(config, out: Path, seed: int):
    """MD of the checkpoint's model, else the potential, from data.path's frame 0 or a cluster."""
    ckpt = _get(config, "model.checkpoint", None, str | None)
    path = _get(config, "data.path", None, str | None)
    pot = _potential(config) if ckpt is None or path is None else None
    if path is None:   # the cluster's size and species default as generated data's do
        n_atoms, species = _bind(generate_reference_dataset, config, keys={
            "n_atoms": "data.n_atoms", "species": "data.species"}).keywords.values()
    cfg = _bind(MDConfig, config, "md", seed=seed)()
    infer = None if cfg.bond_list else _bind(infer_bond_list, config, "md")
    config.check()
    model = pot if ckpt is None else load_checkpoint(ckpt)
    name = "reference" if ckpt is None else model.name
    if path is not None:
        start = read_extxyz_file(path)[0]
        if start.cell is not None and start.pbc.any():   # the integrator has no cell
            raise ConfigError("md cannot run a periodic start frame (data.path)")
        start = Configuration(start.positions.copy(), list(start.species))
    else:
        positions = build_cluster(pot, n_atoms, seed=substream(seed, "cluster").integers(2**31))
        start = Configuration(positions, [species] * n_atoms)
    if infer is not None:
        cfg.bond_list = infer(start.positions)
    dump = cfg.dump_interval is not None
    records, summary = run_ensemble(model, start, cfg, dump_dir=out if dump else None)
    write_ensemble_json(records, summary, cfg, out / "ensemble.json", model_name=name)
    write_summary_csv([(name, summary)], out / "summary.csv")
    artifacts = ["ensemble.json", "summary.csv"]
    if dump:
        artifacts += sorted(p.name for p in out.glob("trajectory_*.extxyz"))
    return artifacts


def cmd_noise_sweep(config, out: Path, seed: int):
    path = _get(config, "data.path", required=True)
    sigmas = _get(config, "noise.sigmas", [0.0, 0.02, 0.05, 0.1],
                  typing.Annotated[list[float], check_sigmas])
    noise = _bind(NoiseSpec, config, "noise", seed=None)   # each level's seed is set below
    specs = [noise(sigma=sigma, seed=int(substream(seed, "noise", k).integers(2**31)))
             for k, sigma in enumerate(sigmas)]
    fit = _trainer(config, seed)
    config.check()
    base = read_extxyz_file(path)
    rows = []
    for spec in specs:
        noisy = corrupt_labels(base, spec)
        model, _ = fit(noisy)
        rmse_noisy = loss_eval(model, noisy).loss_F
        rmse_orig = loss_eval(model, base).loss_F
        baseline = spec.sigma * (base.sigma_dft_force or 0.0) * 1000.0
        rows.append((spec.sigma, rmse_noisy, rmse_orig, baseline))
    write_csv(out / "noise_sweep.csv",
              ("sigma", "force_rmse_vs_noisy_mev_per_ang", "force_rmse_vs_original_mev_per_ang",
               "noise_baseline_mev_per_ang"), rows)
    return ["noise_sweep.csv"]


def _check_sizes(sizes):
    if bad := [n for n in sizes if n < 1]:
        raise ValueError(f"each size must be >= 1, got {bad[0]}")


def cmd_learning_curve(config, out: Path, seed: int):
    path = _get(config, "data.path", required=True)
    _, split = _splitter(config, seed, required=True)
    sizes = _get(config, "curve.sizes", [25, 50, 100, 200],
                 typing.Annotated[list[int], _check_sizes])
    fit = _trainer(config, seed)
    config.check()
    d_train, tests = split(read_extxyz_file(path))
    if max(sizes, default=0) > len(d_train):   # before any model is trained
        raise ConfigError(f"curve size {max(sizes)} exceeds training split ({len(d_train)})")
    points = []
    for n in sizes:
        idx = substream(seed, "curve", n).permutation(len(d_train))[:n]
        subset = Dataset([d_train[i] for i in sorted(idx)], name=f"{d_train.name}-n{n}")
        model, _ = fit(subset)
        pooled = analysis.rmse_by_split(model, tests)[-1]
        points.append((n, pooled["force_rmse_mev_per_ang"]))
    write_csv(out / "learning_curve.csv", ("n", "force_rmse_mev_per_ang"), points)
    analysis.write_slope_json(analysis.learning_curve_slope(points), out / "slope.json")
    return ["learning_curve.csv", "slope.json"]


def cmd_toy_regression(config, out: Path, seed: int):
    experiment = _bind(analysis.toy_regression_experiment, config, "toy", seed=seed)
    config.check()
    analysis.write_toy_csv(experiment(), out / "toy.csv")
    return ["toy.csv"]


def cmd_fit_slopes(config, out: Path, seed: int):
    path = _get(config, "slopes.input", required=True)
    mode = _get(config, "slopes.mode", "extrapolation")
    slope = {"extrapolation": analysis.extrapolation_slope,
             "learning-curve": analysis.learning_curve_slope}.get(mode)
    if slope is None:
        raise ConfigError(f"unknown slopes.mode {mode!r}")
    config.check()
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh, restval="")   # a short row fails float() below
        x_col, *rest = reader.fieldnames or [None]
        if not rest:
            raise ConfigError(f"{path}: a slope table needs an x and a y column")
        y_col = "force_rmse_mev_per_ang" if "force_rmse_mev_per_ang" in rest else rest[0]
        points = [(float(row[x_col]), float(row[y_col])) for row in reader
                  if row[x_col] != "all"]
    analysis.write_slope_json(slope(points), out / "slope.json")
    return ["slope.json"]


_INPUTS = ("data.path", "profile.path", "slopes.input", "model.checkpoint", "model.checkpoint_a",
           "model.checkpoint_b")   # the keys that name an input file

COMMANDS = {"gen-data": cmd_gen_data, "train": cmd_train, "eval": cmd_eval,
            "landscape1d": cmd_landscape1d, "landscape2d": cmd_landscape2d, "interp": cmd_interp,
            "entropy": cmd_entropy, "sweep-entropy": cmd_sweep_entropy, "md": cmd_md,
            "noise-sweep": cmd_noise_sweep, "learning-curve": cmd_learning_curve,
            "toy-regression": cmd_toy_regression, "fit-slopes": cmd_fit_slopes}


def run_command(command: str, config: dict, out_dir) -> int:
    """Execute one command; returns the process exit code."""
    if command not in COMMANDS:
        print(f"error: unknown command {command!r}", file=sys.stderr)
        return EXIT_CONFIG
    config = _Config(command, config)
    out = Path(out_dir)
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": config.get("seed", 0),
        "status": "failed",
        "error": None,
        "artifacts": {},
        "duration_s": None,
    }
    started = time.monotonic()
    code = EXIT_OK
    try:
        out.mkdir(parents=True, exist_ok=True)
        artifacts = COMMANDS[command](config, out, seed=_get(config, "seed", 0, int))
        manifest["artifacts"] = {name: _sha256(out / name) for name in artifacts}
        manifest["status"] = "ok"
    except (ValueError, ArithmeticError, OSError) as exc:
        # ConfigError is a ValueError; TrainingDiverged, MDNumericError, NumericEvalError,
        # SingularGeometryError and DegenerateDirectionError are ArithmeticErrors.
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
