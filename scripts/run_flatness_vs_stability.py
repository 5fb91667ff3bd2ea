#!/usr/bin/env python3
"""Landscape flatness vs. MD stability for a pair of training regimes.

Trains a rescaled, converged model and an undertrained, unrescaled twin on
the same synthetic data, then compares their direction-averaged landscape
entropies against mean time-to-failure over 30 high-temperature trajectories.
Prints a two-row summary; CSV/JSON artifacts land in runs/flatness/.
"""

import sys
from dataclasses import replace
from pathlib import Path

from potscape.data import Configuration, generate_reference_dataset, split_by_temperature
from potscape.descriptors import DescriptorSpec
from potscape.entropy import entropy_from_profile, write_report_json
from potscape.landscape import landscape_1d, write_profile_csv
from potscape.md import MDConfig, infer_bond_list, run_ensemble, write_summary_csv
from potscape.model import NeuralPotential, fit_rescale
from potscape.potentials import Morse, build_cluster
from potscape.training import TrainConfig, train

OUT = Path("runs/flatness")


def flatness_vs_stability():
    """The protocol's (name, profile, entropy report, MD summary) rows, converged
    model first; writes no file."""
    pot = Morse()
    data = generate_reference_dataset(pot, 6, [300.0], 300, seed=0, species="Cu",
                                      burn_in_steps=1000, stride=20)
    d_train, _ = split_by_temperature(data, 300.0, holdout_fraction=0.1, seed=0)
    spec = DescriptorSpec.default(cutoff=5.0, n_radial=8)
    cfg = TrainConfig(max_epochs=600, batch_size=50, lr0=0.01, amsgrad=True,
                      weight_schedule=((0, 1.0, 25.0),))

    converged = fit_rescale(NeuralPotential.create(spec, hidden=(16, 16), seed=0,
                                                   name="converged"), d_train)
    converged = converged.with_values(train(converged, d_train, cfg).best_params)
    undertrained = NeuralPotential.create(spec, hidden=(16, 16), seed=0, name="undertrained")
    undertrained = undertrained.with_values(
        train(undertrained, d_train, replace(cfg, max_epochs=1)).final_params)

    start = Configuration(build_cluster(pot, 6, seed=1), ["Cu"] * 6)
    md_cfg = MDConfig(temperature=700.0, total_time_ps=2.0, n_trajectories=30,
                      failure_bond_length=1.5 * pot.r0,
                      bond_list=infer_bond_list(start.positions), seed=11)
    rows = []
    for model in (converged, undertrained):
        profile = landscape_1d(model, d_train, n_dirs=20, seed=1)
        report = entropy_from_profile(profile, profile_ref=f"profile_{model.name}.csv")
        rows.append((model.name, profile, report, run_ensemble(model, start, md_cfg)[1]))
    return rows


def main() -> int:
    rows = flatness_vs_stability()
    OUT.mkdir(parents=True, exist_ok=True)
    print(f"{'model':14s} {'S_E':>8s} {'S_F':>8s} {'S':>8s} {'mean ttf (ps)':>14s} {'failed':>7s}")
    for name, profile, report, summary in rows:
        write_profile_csv(profile, OUT / f"profile_{name}.csv")
        write_report_json(report, OUT / f"entropy_{name}.json")
        print(f"{name:14s} {report.S_E:8.3f} {report.S_F:8.3f} {report.S:8.3f} "
              f"{summary.mean_ttf:14.3f} {summary.n_failed:4d}/{summary.n_trajectories}")
    write_summary_csv([(name, summary) for name, _, _, summary in rows], OUT / "md_summary.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
