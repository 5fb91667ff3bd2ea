#!/usr/bin/env python3
"""potscape benchmark: one workload per process, closed loop of whole pipelines.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload flatness --seed 0 --seconds 55 --trace 0

The program is imported from ``src/`` of the current directory; without it
the benchmark exits with code 2 and prints no result.  Pipelines repeat while
the next one is expected to finish inside ``--seconds``; end-to-end times are
the mean over the repeats, per-layer metrics the median over the traced repeats.
``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` alternates untraced and traced pipelines and
reports the per-layer metrics.  The last line of standard output is the JSON
result; progress, the environment block and the per-layer table come before
it.  ``--write-reference`` stores the outputs of the default seed as the
reference that later runs on that seed are compared with.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("flatness", "probe_trainable")
SETUP_MIN_REPEATS = 5

END_TO_END = [  # (name, unit)
    ("setup_s", "s"), ("total_s", "s"), ("gen_data_s", "s"), ("train_s", "s"),
    ("landscape_s", "s"), ("md_s", "s"), ("md_traj_steps_per_s", "1/s"),
    ("landscape_points_per_s", "1/s"), ("train_steps_per_s", "1/s"), ("peak_rss_mb", "MB"),
]

# (metric, unit, traced function or layer, statistic, stage filter)
PER_LAYER = [
    ("model.tables_loss_grad.calls", "count", "model.tables_loss_grad", "calls", None),
    ("model.tables_loss_grad.s", "s", "model.tables_loss_grad", "s", None),
    ("model.tables_loss_grad.us_per_call", "us", "model.tables_loss_grad", "us_per_call", None),
    ("model.tables_loss_grad.pairs_per_call", "count", "model.tables_loss_grad", "pairs", None),
    ("training.Adam.step.calls", "count", "training.Adam.step", "calls", None),
    ("training.Adam.step.s", "s", "training.Adam.step", "s", None),
    ("training.Adam.step.us_per_call", "us", "training.Adam.step", "us_per_call", None),
    ("training.train.calls", "count", "training.train", "calls", None),
    ("training.train.s", "s", "training.train", "s", None),
    ("training.train.self_s", "s", "training.train", "self_s", None),
    ("model.tables_loss.calls", "count", "model.tables_loss", "calls", None),
    ("model.tables_loss.s", "s", "model.tables_loss", "s", None),
    ("model.tables_loss.us_per_call", "us", "model.tables_loss", "us_per_call", None),
    ("model.tables_loss.pairs_per_call", "count", "model.tables_loss", "pairs", None),
    ("model.DatasetTables.calls", "count", "model.DatasetTables", "calls", None),
    ("model.DatasetTables.s", "s", "model.DatasetTables", "s", None),
    ("descriptors.basis_values.calls", "count", "descriptors.basis_values", "calls", None),
    ("descriptors.basis_values.s", "s", "descriptors.basis_values", "s", None),
    ("descriptors.basis_values.us_per_call", "us", "descriptors.basis_values", "us_per_call",
     None),
    ("landscape.s", "s", "landscape", "s", None),
    ("landscape.self_s", "s", "landscape", "self_s", None),
    ("landscape.points", "count", None, "landscape_points", None),
    ("landscape.nonfinite_points", "count", None, "nonfinite_points", None),
    ("landscape.landscape_1d.calls", "count", "landscape.landscape_1d", "calls", None),
    ("landscape.landscape_2d.calls", "count", "landscape.landscape_2d", "calls", None),
    ("landscape.interpolate_models.calls", "count", "landscape.interpolate_models", "calls",
     None),
    ("model.energy_forces.calls", "count", "model.energy_forces", "calls", None),
    ("model.energy_forces.s", "s", "model.energy_forces", "s", None),
    ("model.energy_forces.us_per_call", "us", "model.energy_forces", "us_per_call", None),
    ("model.energy_forces.atoms_per_call", "count", "model.energy_forces", "atoms", None),
    ("md.md_step.calls", "count", "md.md_step", "calls", "md"),
    ("md.md_step.s", "s", "md.md_step", "s", "md"),
    ("md.md_step.self_s", "s", "md.md_step", "self_s", "md"),
    ("md.md_step.us_per_call", "us", "md.md_step", "us_per_call", "md"),
    ("md.run_trajectory.calls", "count", "md.run_trajectory", "calls", None),
    ("md.run_trajectory.self_s", "s", "md.run_trajectory", "self_s", None),
    ("md.run_ensemble.calls", "count", "md.run_ensemble", "calls", None),
    ("md.run_ensemble.s", "s", "md.run_ensemble", "s", None),
    ("md.traj_steps", "count", None, "traj_steps", None),
    ("md.failed.bond", "count", None, "failed_bond", None),
    ("md.failed.numeric", "count", None, "failed_numeric", None),
    ("geometry.pair_table.calls", "count", "geometry.pair_table", "calls", None),
    ("geometry.pair_table.s", "s", "geometry.pair_table", "s", None),
    ("geometry.pair_table.us_per_call", "us", "geometry.pair_table", "us_per_call", None),
    ("geometry.pair_table.atoms_per_call", "count", "geometry.pair_table", "atoms", None),
    ("potentials.energy_forces.calls", "count", "potentials.energy_forces", "calls", None),
    ("potentials.energy_forces.s", "s", "potentials.energy_forces", "s", None),
    ("potentials.energy_forces.us_per_call", "us", "potentials.energy_forces", "us_per_call",
     None),
    ("data.generate_reference_dataset.calls", "count", "data.generate_reference_dataset",
     "calls", None),
    ("data.generate_reference_dataset.s", "s", "data.generate_reference_dataset", "s", None),
    ("data.generate_reference_dataset.self_s", "s", "data.generate_reference_dataset",
     "self_s", None),
    ("md.md_step.gen_data_calls", "count", "md.md_step", "calls", "gen_data"),
    ("md.md_step.gen_data_s", "s", "md.md_step", "s", "gen_data"),
    ("data.read_extxyz_file.calls", "count", "data.read_extxyz_file", "calls", None),
    ("data.read_extxyz_file.bytes", "B", "data.read_extxyz_file", "bytes", None),
    ("data.write_extxyz_file.calls", "count", "data.write_extxyz_file", "calls", None),
    ("data.write_extxyz_file.bytes", "B", "data.write_extxyz_file", "bytes", None),
    ("model.save_checkpoint.calls", "count", "model.save_checkpoint", "calls", None),
    ("model.load_checkpoint.calls", "count", "model.load_checkpoint", "calls", None),
    ("cli.run_command.calls", "count", "cli.run_command", "calls", None),
    ("analysis.rmse_by_split.calls", "count", "analysis.rmse_by_split", "calls", None),
    ("analysis.rmse_by_split.s", "s", "analysis.rmse_by_split", "s", None),
    ("analysis.rmse_by_split.frames", "count", "analysis.rmse_by_split", "frames", None),
    ("entropy.entropy_from_profile.calls", "count", "entropy.entropy_from_profile", "calls",
     None),
    ("entropy.entropy_from_profile.s", "s", "entropy.entropy_from_profile", "s", None),
    ("trace.spans", "count", None, "spans", None),
    ("trace.overhead_s", "s", None, "overhead_s", None),
]


def log(msg):
    print(msg, flush=True)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=55.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the reference (default seed only)")
    p.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def find_program(root: Path) -> Path:
    src = root / "src"
    if not (src / "potscape" / "__init__.py").is_file():
        print(f"error: no potscape source under {src}; run from the root of a checkout",
              file=sys.stderr)
        sys.exit(2)
    return src


# ---------------------------------------------------------------------------
# set-up: import potscape and build the inputs, in fresh processes
# ---------------------------------------------------------------------------

def setup_child(args, src):
    t0 = time.perf_counter()
    sys.path[:0] = [str(src), str(HERE)]
    import pipelines
    pipelines.build_inputs(args.workload, args.seed)
    print(repr(time.perf_counter() - t0))


def measure_setup(args, root):
    """One set-up in a fresh interpreter; returns its time in seconds."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--setup-child",
                           "--workload", args.workload, "--seed", str(args.seed)],
                          cwd=root, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas():
    import ctypes
    import numpy as np

    info = {"config": None, "threads": None, "max_threads": None,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["build"] = f"{blas.get('name')} {blas.get('version')}"
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
        lib = ctypes.CDLL(paths[0])
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and cfg is not None:
                    get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                    info["threads"] = get()
                    info["config"] = cfg().decode()
                    break
            if info["config"]:
                break
    except (OSError, IndexError):
        pass
    config = info["config"] or blas.get("openblas configuration", "")
    for word in config.split():
        if word.startswith("MAX_THREADS="):
            info["max_threads"] = int(word.split("=", 1)[1])
    return info


def _caches():
    out = []
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level, kind, size = ((idx / n).read_text().strip() for n in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _git_sha(root):
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment(root, workload, landscape_workers):
    import numpy as np
    blas = _openblas()
    pool = blas["threads"] or 1
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "openblas": blas,
        "git_sha": _git_sha(root),
        # OpenBLAS's pool includes the calling thread
        "threads": {"main": 1, "landscape_workers": landscape_workers, "openblas_pool": pool,
                    "total": 1 + landscape_workers + pool - 1},
        "workload": workload,
    }


# ---------------------------------------------------------------------------
# one pipeline
# ---------------------------------------------------------------------------

class Pipeline:
    """Result of one pipeline: stage times, counts, checks and compared outputs."""

    def __init__(self, clock, out, total_s, checks, view, stats=None, n_spans=0):
        self.times = dict(clock.times)
        self.total_s = total_s
        self.ops = list(clock.ops)
        self.checks = checks
        self.view = view
        self.stats = stats
        self.n_spans = n_spans
        self.counts = {
            "train_steps": out["train_steps"],
            "landscape_points": out["landscape_points"],
            "nonfinite_points": _nonfinite(out),
            "md": out["md"],
            "traj_steps": sum(m["traj_steps"] for m in out["md"].values()),
            "failed_bond": sum(m["failed_bond"] for m in out["md"].values()),
            "failed_numeric": sum(m["failed_numeric"] for m in out["md"].values()),
        }


def _nonfinite(out):
    import numpy as np
    total = 0
    for m in out["models"].values():
        p = m["profile"]
        loss_E = p.loss_E if hasattr(p, "loss_E") else np.asarray(p["loss_E"])
        loss_F = p.loss_F if hasattr(p, "loss_F") else np.asarray(p["loss_F"])
        total += int(np.count_nonzero(~np.isfinite(loss_E) | ~np.isfinite(loss_F)))
    return total


def run_pipeline(workload, inputs, work: Path, traced: bool):
    import checks as checks_mod
    import pipelines
    from tracing import Tracer

    work.mkdir(parents=True)
    tracer = Tracer() if traced else None
    clock = pipelines.Clock(tracer)
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out = pipelines.PIPELINES[workload](inputs, work, clock)
    finally:
        if tracer:
            tracer.uninstall()
    total_s = clock.end - t0   # to the last artifact; reading results back is not timed
    checks = checks_mod.CHECKS[workload](out)
    view = checks_mod.reference_view(workload, out)
    stats = tracer.stats() if tracer else None
    result = Pipeline(clock, out, total_s, checks, view, stats,
                      len(tracer.spans) if tracer else 0)
    return result, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(pipes):
    """Mean stage times of the repeats; throughputs from the same means."""
    def mean(stage):
        return statistics.fmean(p.times[stage] for p in pipes)

    c = pipes[0].counts    # the same in every repeat
    return {
        "total_s": statistics.fmean(p.total_s for p in pipes), "gen_data_s": mean("gen_data"),
        "train_s": mean("train"), "landscape_s": mean("landscape"), "md_s": mean("md"),
        "md_traj_steps_per_s": c["traj_steps"] / mean("md"),
        "landscape_points_per_s": c["landscape_points"] / mean("landscape"),
        "train_steps_per_s": c["train_steps"] / mean("train"),
    }


def _stat(p: Pipeline, fn, stat, stage):
    if fn is None:
        return p.counts.get(stat, p.n_spans if stat == "spans" else None)
    if "." not in fn:   # whole module
        return p.stats["modules"].get(fn, {}).get(stat, 0.0)
    entry = p.stats["functions"].get(fn)
    if entry is None:
        return 0.0 if stat in ("s", "self_s", "us_per_call") else 0
    if stat in ("pairs", "atoms"):      # per call
        return entry["work"].get(stat, 0) / entry["calls"]
    if stat in ("frames", "bytes"):     # totals
        return entry["work"].get(stat, 0)
    row = entry["by_stage"].get(stage, {"calls": 0, "s": 0.0, "self_s": 0.0}) if stage \
        else entry
    if stat == "us_per_call":
        return 1e6 * row["s"] / row["calls"] if row["calls"] else 0.0
    return row[stat]


def per_layer(p: Pipeline):
    return {name: _stat(p, fn, stat, stage) for name, _, fn, stat, stage in PER_LAYER
            if name != "trace.overhead_s"}


def consistency(pipes, traced):
    """Counts and outputs must repeat exactly; traced counts must match."""
    errors = []
    first = pipes[0]
    for p in pipes[1:]:
        if p.counts != first.counts:
            errors.append(f"counts differ between repeats: {first.counts} vs {p.counts}")
        if p.view != first.view:
            errors.append("outputs differ between repeats of the same seed")
    count_names = [n for n, u, *_ in PER_LAYER if u in ("count", "B") and n != "trace.spans"]
    for p in traced[1:]:
        a, b = per_layer(traced[0]), per_layer(p)
        diff = [n for n in count_names if a[n] != b[n]]
        if diff:
            errors.append(f"traced counts differ between repeats: {diff}")
    return errors


def print_layer_table(p: Pipeline):
    log("per-layer (last traced pipeline): name calls s self_s [work]")
    for name, e in sorted(p.stats["functions"].items(), key=lambda kv: -kv[1]["s"]):
        work = " ".join(f"{k}={v}" for k, v in e.get("work", {}).items())
        stages = ",".join(f"{k}:{v['calls']}" for k, v in e["by_stage"].items())
        log(f"  {name:36s} {e['calls']:8d} {e['s']:10.4f} {e['self_s']:10.4f} "
            f"[{stages}] {work}")
    for name, e in sorted(p.stats["modules"].items()):
        log(f"  module {name:29s} {e['calls']:8d} {e['s']:10.4f} {e['self_s']:10.4f}")


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = find_program(root)
    if args.setup_child:
        setup_child(args, src)
        return 0

    setup_all = [measure_setup(args, root)]
    sys.path[:0] = [str(src), str(HERE)]
    import checks as checks_mod
    import pipelines
    import potscape
    if Path(potscape.__file__).resolve().parent != (src / "potscape").resolve():
        print(f"error: potscape imported from {potscape.__file__}, not {src}", file=sys.stderr)
        return 2

    inputs = pipelines.build_inputs(args.workload, args.seed)
    workers = inputs.get("landscape_kwargs", {}).get("n_workers", 0)
    log("environment: " + json.dumps(environment(root, args.workload, workers)))

    work = root / ".bench_build" / f"run-{args.workload}-{os.getpid()}"
    pipes, traced, last_tracer = [], [], None
    attempted = failed = 0
    problems = []
    try:
        t_loop = time.perf_counter()
        k = 0
        while True:
            is_traced = bool(args.trace) and k % 2 == 1
            if not args.trace and k > 0:
                # set-ups are spread over the run, like the pipelines
                setup_all.append(measure_setup(args, root))
            try:
                p, tracer = run_pipeline(args.workload, inputs, work / f"p{k}", is_traced)
            except Exception as exc:   # a stage raised: that operation failed
                traceback.print_exc()
                attempted += 1
                failed += 1
                problems.append(f"pipeline {k}: {type(exc).__name__}: {exc}")
                break
            shutil.rmtree(work / f"p{k}", ignore_errors=True)
            (traced if is_traced else pipes).append(p)
            if tracer is not None:
                last_tracer = tracer
            bad_ops = p.checks.failed_ops()
            if args.seed == checks_mod.REFERENCE_SEED and not args.write_reference:
                ref = checks_mod.Checks()
                checks_mod.check_reference(ref, args.workload, p.view)
                bad_ops |= ref.failed_ops()
                problems += ref.messages()
            problems += p.checks.messages()
            attempted += len(p.ops)
            failed += len(bad_ops)
            log(f"pipeline {k}{' traced' if is_traced else ''}: total {p.total_s:.3f} s "
                + " ".join(f"{s} {v:.3f}" for s, v in p.times.items()))
            k += 1
            elapsed = time.perf_counter() - t_loop
            # with --trace 1, two traced pipelines so that their counts can be compared
            enough = pipes and (len(traced) >= 2 or not args.trace)
            if enough and elapsed + p.total_s > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not pipes or (args.trace and len(traced) < 2):
        for msg in problems:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    errors = consistency(pipes + traced, traced)
    if errors:
        for msg in errors:
            print(f"error: {msg}", file=sys.stderr)
        return 1
    for msg in problems:
        log(f"check failed: {msg}")

    if args.write_reference:
        if args.seed != checks_mod.REFERENCE_SEED:
            print("error: references are stored for the default seed only", file=sys.stderr)
            return 2
        checks_mod.write_reference(args.workload, pipes[0].view)
        log(f"wrote {checks_mod.reference_path(args.workload)}")

    if args.trace:
        units = {n: u for n, u, *_ in PER_LAYER}
        rows = [per_layer(p) for p in traced]
        # counts repeat exactly (checked by consistency()); times are medians
        values = {n: rows[0][n] if units[n] in ("count", "B")
                  else statistics.median(r[n] for r in rows) for n in rows[0]}
        values["trace.overhead_s"] = (statistics.fmean(p.total_s for p in traced)
                                      - statistics.fmean(p.total_s for p in pipes))
        print_layer_table(traced[-1])
        spans_path = root / ".bench_build" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        last_tracer.dump(spans_path)
        log(f"spans of the last traced pipeline: {spans_path}")
    else:
        # Times are means over the repeats, throughputs the work of all repeats
        # over their time: every repeat does the same work (checked by
        # consistency()), and the mean averages over the host's changes of speed.
        values = end_to_end(pipes)
        while len(setup_all) < SETUP_MIN_REPEATS:
            setup_all.append(measure_setup(args, root))
        log(f"setup_s repeats: {[round(t, 4) for t in setup_all]}")
        values["setup_s"] = statistics.median(setup_all)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = dict(END_TO_END)
    metrics = {n: {"value": values[n], "unit": u} for n, u in units.items()}
    log(f"pipelines: {len(pipes)} untraced, {len(traced)} traced")
    result = {"correct": not problems and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
