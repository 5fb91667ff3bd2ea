"""Output checks: invariants that hold for any seed, and reference outputs.

Every check is attached to the stage call (operation) that produced the
output, so a failed check fails that operation.  MD bond or numeric failures
are physics results that are compared, not operation failures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from potscape import data, entropy, landscape, model

CENTER_TOL = 1e-12     # landscape centre against loss_eval
PATH_TOL = 1e-9        # the same loss through two evaluation paths
REFERENCE_RTOL = 1e-8  # floats against the stored default-seed outputs
REFERENCE_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Checks:
    def __init__(self):
        self.results = []    # (op, ok, message)

    def add(self, op, ok, message):
        self.results.append((op, bool(ok), message))

    def failed_ops(self):
        return {op for op, ok, _ in self.results if not ok}

    def messages(self):
        return [f"{op}: {msg}" for op, ok, msg in self.results if not ok]


def _center_checks(checks, op, profile, kind, loss_a, loss_b=None):
    """The t = 0 point of every landscape equals loss_eval of the model."""
    lE, lF = np.asarray(profile["loss_E"]), np.asarray(profile["loss_F"])
    if kind == "1d":
        i0 = int(np.nonzero(np.asarray(profile["t"]) == 0.0)[0][0])
        pairs = [(lE[n, i0], loss_a.loss_E) for n in range(lE.shape[0])] + \
                [(lF[n, i0], loss_a.loss_F) for n in range(lF.shape[0])]
    elif kind == "2d":
        i0 = lE.shape[0] // 2
        pairs = [(lE[i0, i0], loss_a.loss_E), (lF[i0, i0], loss_a.loss_F)]
    else:  # interpolation: t = 0 is model A, t = 1 is model B
        pairs = [(lE[0, 0], loss_a.loss_E), (lF[0, 0], loss_a.loss_F),
                 (lE[0, -1], loss_b.loss_E), (lF[0, -1], loss_b.loss_F)]
    bad = [(float(a), float(b)) for a, b in pairs if not _close(a, b, CENTER_TOL)]
    checks.add(op, not bad, f"landscape centre differs from loss_eval: {bad[:2]}")


def check_flatness(out) -> Checks:
    checks = Checks()
    conv, under = out["models"]["converged"], out["models"]["undertrained"]
    for name, m in out["models"].items():
        p = m["profile"]
        _center_checks(checks, f"landscape_1d {name}",
                       {"t": p.t_grid, "loss_E": p.loss_E, "loss_F": p.loss_F}, "1d",
                       model.loss_eval(m["model"], out["dataset"]))
    checks.add("landscape_1d undertrained", conv["entropy"]["S"] > under["entropy"]["S"],
               f"entropy ordering: S converged {conv['entropy']['S']} <= "
               f"undertrained {under['entropy']['S']}")
    checks.add("run_ensemble undertrained", conv["mean_ttf_ps"] > under["mean_ttf_ps"],
               f"stability ordering: mean ttf converged {conv['mean_ttf_ps']} <= "
               f"undertrained {under['mean_ttf_ps']}")
    f_conv = conv["rmse"][-1]["force_rmse_mev_per_ang"]
    f_under = under["rmse"][-1]["force_rmse_mev_per_ang"]
    checks.add("entropy and rmse undertrained", f_conv < f_under,
               f"held-out force RMSE converged {f_conv} >= undertrained {f_under}")
    return checks


def _load(ckpt_path, dataset):
    return model.loss_eval(model.load_checkpoint(ckpt_path), dataset)


def _entropy_check(checks, op, out):
    report = entropy.entropy_from_profile(landscape.read_profile_csv(out["entropy_profile"]))
    checks.add(op, _close(report.S, out["entropy"]["S"], CENTER_TOL),
               f"entropy.json S {out['entropy']['S']} != recomputed {report.S}")


def check_probe_trainable(out) -> Checks:
    checks = Checks()
    ds = data.read_extxyz_file(out["dataset_path"])
    trained = out["models"]["trained"]
    loss_trained = _load(trained["checkpoint"], ds)
    _center_checks(checks, "landscape2d landscape2d", trained["profile"], "2d", loss_trained)
    interp = out["models"]["init->trained"]
    loss_init = _load(interp["checkpoint"][0], ds)
    _center_checks(checks, "interp interp", interp["profile"], "interp", loss_init, loss_trained)
    checks.add("train model", loss_trained.loss_F < loss_init.loss_F,
               f"training did not lower the force RMSE: {loss_init.loss_F} -> "
               f"{loss_trained.loss_F}")
    _entropy_check(checks, "entropy entropy", out)
    n_eval = int(out["rmse"][-1]["n_frames"])
    checks.add("eval eval", n_eval == out["eval_frames"],
               f"eval pooled {n_eval} frames, expected {out['eval_frames']}")
    return checks


CHECKS = {
    "flatness": check_flatness,
    "probe_trainable": check_probe_trainable,
}


# ---------------------------------------------------------------------------
# reference outputs for the default seed
# ---------------------------------------------------------------------------

def _arrays(profile):
    return {"loss_E": np.asarray(profile["loss_E"]).tolist(),
            "loss_F": np.asarray(profile["loss_F"]).tolist()}


def reference_view(workload, out) -> dict:
    """The compared outputs, keyed by the operation that produced them."""
    view = {}
    if workload == "flatness":
        for name, m in out["models"].items():
            p = m["profile"]
            view[f"landscape_1d {name}"] = _arrays({"loss_E": p.loss_E, "loss_F": p.loss_F})
            view[f"entropy and rmse {name}"] = {"entropy": m["entropy"], "rmse": m["rmse"]}
            view[f"run_ensemble {name}"] = {**out["md"][name], "mean_ttf_ps": m["mean_ttf_ps"]}
        return json.loads(json.dumps(view, default=float))
    view["md md"] = out["md"]["md"]
    view["eval eval"] = out["rmse"]
    # profile_ref names the run's own directory
    view["entropy entropy"] = {k: v for k, v in out["entropy"].items() if k != "profile_ref"}
    view["landscape2d landscape2d"] = _arrays(out["models"]["trained"]["profile"])
    view["interp interp"] = _arrays(out["models"]["init->trained"]["profile"])
    return json.loads(json.dumps(view, default=float))


def _same(a, b, path=""):
    """First difference between two JSON values, or None."""
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a) != set(b):
            return f"{path}: keys {sorted(set(a) ^ set(b))}"
        for k in a:
            diff = _same(a[k], b[k], f"{path}.{k}")
            if diff:
                return diff
        return None
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return f"{path}: length {len(a)} != {len(b)}"
        for i, (x, y) in enumerate(zip(a, b)):
            diff = _same(x, y, f"{path}[{i}]")
            if diff:
                return diff
        return None
    if isinstance(a, str) and isinstance(b, str):
        try:
            a, b = float(a), float(b)
        except ValueError:
            return None if a == b else f"{path}: {a!r} != {b!r}"
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, int) and isinstance(b, int):
        return None if a == b else f"{path}: {a} != {b}"
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
            return None if str(a) == str(b) else f"{path}: {a} != {b}"
        return None if abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b), 1e-12) \
            else f"{path}: {a!r} != {b!r}"
    return f"{path}: {a!r} != {b!r}"


def reference_path(workload):
    return REFERENCE_DIR / f"{workload}.json"


def check_reference(checks, workload, view):
    ref = json.loads(reference_path(workload).read_text())
    for op in sorted(set(ref) | set(view)):
        diff = _same(view.get(op), ref.get(op), op)
        checks.add(op, diff is None, f"differs from the seed-{REFERENCE_SEED} reference: {diff}")


def write_reference(workload, view):
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(reference_path(workload), "w") as fh:
        json.dump(view, fh, sort_keys=True, indent=1)
        fh.write("\n")
