"""Exact text of every artifact writer, from literal inputs.

The inputs are plain numbers (0.1, 1/3, -inf, ints, an "all" row), so the
expected text does not depend on any numeric kernel or on the host.
"""

import numpy as np
import pytest

from potscape import analysis, entropy, landscape, md, training
from potscape.descriptors import DescriptorSpec
from potscape.model import NeuralPotential, Rescale, save_checkpoint

THIRD = 1 / 3
INF = float("inf")


def _rmse(d):
    analysis.write_rmse_csv([
        {"T": 300.0, "energy_rmse_mev_per_atom": 0.1, "force_rmse_mev_per_ang": THIRD,
         "n_frames": 4},
        {"T": "all", "energy_rmse_mev_per_atom": 2, "force_rmse_mev_per_ang": np.float64(0.5),
         "n_frames": 7},
    ], d / "rmse.csv")


def _slope(d):
    analysis.write_slope_json(analysis.SlopeFit(0.1, THIRD, -INF, "log n", "log eps", 3),
                              d / "slope.json")


def _toy(d):
    analysis.write_toy_csv(analysis.ToyRegressionResult(
        [2, 10], [0, 0.1], np.array([[0.1, THIRD], [0.0, 2.5]]),
        np.array([[0.0, 0.1], [THIRD, 1.0]]), 3), d / "toy.csv")


REPORTS = [entropy.EntropyReport(-INF, THIRD, 0.1, 1, 10.0, 0.5, 1.0, 21, "p.csv"),
           entropy.EntropyReport(0.0, 2.0, THIRD, 0.1, 100.0, 0.5, 1.0, 21)]


def _report(d):
    entropy.write_report_json(REPORTS[0], d / "entropy.json")


def _sweep(d):
    entropy.write_sweep_csv(REPORTS, d / "sweep.csv",
                            info={"alpha": 0.5, "flat_zero_entropy": THIRD, "n_points": 2})


def _sweep_no_info(d):
    entropy.write_sweep_csv(REPORTS[1:], d / "sweep.csv")


def _profile(d):
    landscape.write_profile_csv(landscape.LandscapeProfile(
        [-0.5, 0.0, 0.1], [[THIRD, 0.1, INF], [2.0, 0.1, 0.25]],
        [[1.0, 0.5, INF], [3, 0.5, THIRD]],
        {"kind": "landscape1d", "n_evaluations": 5, "nonfinite_points": [[0, 2]]}),
        d / "profile.csv")


SURFACE = landscape.Surface2D([0.0, 0.1], [-1.0, 0.5], np.array([[0.1, THIRD], [INF, 1.0]]),
                              np.array([[1.0, 2.0], [INF, 0.25]]),
                              {"kind": "landscape2d", "n_evaluations": 4})


def _surface(d):
    landscape.write_surface_csv(SURFACE, d / "surface.csv")


def _surface_combined(d):
    landscape.write_surface_csv(SURFACE, d / "surface.csv",
                                combined=np.array([[0.1, THIRD], [INF, 0.5]]))


def _ensemble(d):
    cfg = md.MDConfig(temperature=300.0, timestep_fs=0.5, tau_fs=INF, total_time_ps=0.1,
                      n_trajectories=2, failure_bond_length=2.0, bond_list=((0, 1), (1, 2)),
                      seed=7, trace_interval=5)
    records = [md.TrajectoryRecord(0.1, False, None, [300.0, THIRD], 11),
               md.TrajectoryRecord(0.025, True, (1, 2), [0.1], 12, "bond")]
    summary = md.EnsembleSummary(0.0625, 0.0375, 0.0625, THIRD, 0.1, 1, 2)
    md.write_ensemble_json(records, summary, cfg, d / "ensemble.json", model_name="m")
    md.write_summary_csv([("m", summary), ("ref", md.EnsembleSummary(1, 0.0, 1, 1, 1, 0, 3))],
                         d / "summary.csv")


def _checkpoint(d):
    spec = DescriptorSpec(2, np.array([1.0, 2.5]), np.array([0.5, THIRD]), 5.0)
    model = NeuralPotential.create(spec, hidden=(), name="lit").with_values([0.1, THIRD, -2.0])
    model.rescale = Rescale(1.5, -0.25, True)
    save_checkpoint(model, d / "model.json")


def _history(d):
    rows = [{"epoch": 0, "loss_E": 0.1, "loss_F": THIRD, "combined": 2, "lr": 0.01,
             "w_E": 1, "w_F": 25.0},
            {"epoch": 1, "loss_E": INF, "loss_F": 0.5, "combined": INF, "lr": 0.005,
             "w_E": 1.0, "w_F": 25.0}]
    training.write_history_csv(training.TrainReport(rows, np.zeros(1), np.zeros(1), 0),
                               d / "history.csv")


CASES = [
    pytest.param(_rmse, {"rmse.csv": (
        "T,energy_rmse_mev_per_atom,force_rmse_mev_per_ang,n_frames\r\n"
        "300.0,0.1,0.3333333333333333,4\r\n"
        "all,2.0,0.5,7\r\n")}, id="rmse"),
    pytest.param(_slope, {"slope.json": (
        '{"b": 0.3333333333333333, "m": 0.1, "n_points": 3, "r2": -Infinity, '
        '"x_def": "log n", "y_def": "log eps"}\n')}, id="slope"),
    pytest.param(_toy, {"toy.csv": (
        "n,sigma,mean_rmse,stderr_rmse,repeats\r\n"
        "2,0.0,0.1,0.0,3\r\n"
        "2,0.1,0.3333333333333333,0.1,3\r\n"
        "10,0.0,0.0,0.3333333333333333,3\r\n"
        "10,0.1,2.5,1.0,3\r\n")}, id="toy"),
    pytest.param(_report, {"entropy.json": (
        '{"S": 0.1, "S_E": -Infinity, "S_F": 0.3333333333333333, "T_E_mev_per_atom": 1, '
        '"T_F_mev_per_ang": 10.0, "alpha": 0.5, "grid_points": 21, "k": 1.0, '
        '"profile_ref": "p.csv"}\n')}, id="entropy-report"),
    pytest.param(_sweep, {
        "sweep.csv": ("T_E,T_F,S_E,S_F,S\r\n"
                      "1.0,10.0,-inf,0.3333333333333333,0.1\r\n"
                      "0.1,100.0,0.0,2.0,0.3333333333333333\r\n"),
        "sweep.csv.meta.json": (
            '{"alpha": 0.5, "flat_zero_entropy": 0.3333333333333333, "n_points": 2}\n'),
    }, id="sweep"),
    pytest.param(_sweep_no_info, {"sweep.csv": (
        "T_E,T_F,S_E,S_F,S\r\n"
        "0.1,100.0,0.0,2.0,0.3333333333333333\r\n")}, id="sweep-no-info"),
    pytest.param(_profile, {
        "profile.csv": ("direction,t,loss_energy_mev_per_atom,loss_force_mev_per_ang\r\n"
                        "0,-0.5,0.3333333333333333,1.0\r\n"
                        "0,0.0,0.1,0.5\r\n"
                        "0,0.1,inf,inf\r\n"
                        "1,-0.5,2.0,3.0\r\n"
                        "1,0.0,0.1,0.5\r\n"
                        "1,0.1,0.25,0.3333333333333333\r\n"),
        "profile.csv.meta.json": (
            '{"kind": "landscape1d", "n_evaluations": 5, "nonfinite_points": [[0, 2]]}\n'),
    }, id="profile"),
    pytest.param(_surface, {
        "surface.csv": ("t1,t2,loss_energy,loss_force\r\n"
                        "0.0,-1.0,0.1,1.0\r\n"
                        "0.0,0.5,0.3333333333333333,2.0\r\n"
                        "0.1,-1.0,inf,inf\r\n"
                        "0.1,0.5,1.0,0.25\r\n"),
        "surface.csv.meta.json": '{"kind": "landscape2d", "n_evaluations": 4}\n',
    }, id="surface"),
    pytest.param(_surface_combined, {
        "surface.csv": ("t1,t2,loss_energy,loss_force,combined\r\n"
                        "0.0,-1.0,0.1,1.0,0.1\r\n"
                        "0.0,0.5,0.3333333333333333,2.0,0.3333333333333333\r\n"
                        "0.1,-1.0,inf,inf,inf\r\n"
                        "0.1,0.5,1.0,0.25,0.5\r\n"),
        "surface.csv.meta.json": '{"kind": "landscape2d", "n_evaluations": 4}\n',
    }, id="surface-combined"),
    pytest.param(_ensemble, {
        "ensemble.json": (
            '{"config": {"bond_list": [[0, 1], [1, 2]], "failure_bond_length_ang": 2.0, '
            '"n_trajectories": 2, "seed": 7, "tau_fs": Infinity, "temperature_K": 300.0, '
            '"timestep_fs": 0.5, "total_time_ps": 0.1, "trace_interval": 5}, "model": "m", '
            '"records": [{"cause": null, "failed": false, "failure_pair": null, "seed": 11, '
            '"temperature_trace": [300.0, 0.3333333333333333], "time_to_failure_ps": 0.1}, '
            '{"cause": "bond", "failed": true, "failure_pair": [1, 2], "seed": 12, '
            '"temperature_trace": [0.1], "time_to_failure_ps": 0.025}], '
            '"summary": {"mean_ttf_ps": 0.0625, "median_ttf_ps": 0.0625, "n_failed": 1, '
            '"n_trajectories": 2, "q1_ttf_ps": 0.3333333333333333, "q3_ttf_ps": 0.1, '
            '"std_ttf_ps": 0.0375}}\n'),
        "summary.csv": ("model,mean_ttf_ps,std_ttf_ps,median,q1,q3,n_failed\r\n"
                        "m,0.0625,0.0375,0.0625,0.3333333333333333,0.1,1\r\n"
                        "ref,1.0,0.0,1.0,1.0,1.0,0\r\n"),
    }, id="ensemble"),
    pytest.param(_checkpoint, {"model.json": (
        '{"activation": "tanh", "descriptor": {"centers": [1.0, 2.5], "cutoff": 5.0, '
        '"n_radial": 2, "trainable_basis": false, "widths": [0.5, 0.3333333333333333]}, '
        '"format": "potscape-checkpoint-1", "hidden_layers": [], "name": "lit", '
        '"params": [0.1, 0.3333333333333333, -2.0], "partition": [[1, 0, 0, 3, false]], '
        '"rescale": {"enabled": true, "scale": 1.5, "shift": -0.25}}\n')}, id="checkpoint"),
    pytest.param(_history, {"history.csv": (
        "epoch,loss_E,loss_F,combined,lr,w_E,w_F\r\n"
        "0,0.1,0.3333333333333333,2.0,0.01,1.0,25.0\r\n"
        "1,inf,0.5,inf,0.005,1.0,25.0\r\n")}, id="history"),
]


@pytest.mark.parametrize("write,expected", CASES)
def test_exact_text(tmp_path, write, expected):
    write(tmp_path)
    written = {p.name: p.read_bytes().decode() for p in tmp_path.iterdir()}
    assert written == expected
