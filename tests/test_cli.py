import csv
import json
import math

import numpy as np
import pytest

from potscape import analysis, cli, landscape
from potscape.cli import (COMMANDS, EXIT_CONFIG, EXIT_IO, EXIT_NUMERIC, EXIT_OK, load_config_file,
                          main, run_command)
from potscape.data import read_extxyz_file, split_by_temperature
from potscape.descriptors import DescriptorSpec
from potscape.model import NeuralPotential, fit_rescale, load_checkpoint
from potscape.seeding import substream
from potscape.training import TrainConfig, train
from tests.conftest import MALFORMED_CHECKPOINTS, TAMPERED_PARTITIONS


PROFILE_HEADER = ",".join(landscape.PROFILE_COLUMNS)


def read_manifest(out):
    return json.loads((out / "manifest.json").read_text())


GEN_ARGS = {
    "potential.kind": "morse",
    "data.n_atoms": 5,
    "data.species": "Cu",
    "data.temperatures": [300.0],
    "data.frames_per_t": 12,
    "data.burn_in_steps": 200,
    "data.stride": 10,
    "seed": 3,
}

FAST_TRAIN = {
    "train.max_epochs": 30,
    "train.batch_size": 6,
    "train.lr0": 0.01,
    "train.amsgrad": True,
    "train.weight_schedule": [[0, 1.0, 25.0]],
    "model.n_radial": 6,
    "model.hidden": [8, 8],
}


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    assert run_command("gen-data", dict(GEN_ARGS), out) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory, gen_dir):
    out = tmp_path_factory.mktemp("train")
    config = {"data.path": str(gen_dir / "dataset.extxyz"), "seed": 3, **FAST_TRAIN}
    assert run_command("train", config, out) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def profile_dir(tmp_path_factory, gen_dir, model_dir):
    out = tmp_path_factory.mktemp("profile")
    config = {"model.checkpoint": str(model_dir / "model.json"),
              "data.path": str(gen_dir / "dataset.extxyz"), "landscape.n_directions": 1,
              "landscape.points": 3}
    assert run_command("landscape1d", config, out) == EXIT_OK
    return out


class TestErrors:
    def test_unknown_command(self, tmp_path):
        assert run_command("frobnicate", {}, tmp_path) == EXIT_CONFIG

    @pytest.mark.parametrize("command", COMMANDS)
    def test_invalid_config_key(self, gen_dir, model_dir, profile_dir, tmp_path, command):
        # a command that worked before checking its keys would leave an artifact
        config = {**TestKeyTable.base(command, gen_dir, model_dir, profile_dir), "bogus.key": 1}
        code = run_command(command, config, tmp_path)
        assert code == EXIT_CONFIG
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "failed"
        assert "bogus.key" in manifest["error"]["message"]
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command,key", [
        ("entropy", "profile.path"),
        ("sweep-entropy", "profile.path"),
        ("fit-slopes", "slopes.input"),
        ("train", "data.path"),
        ("eval", "model.checkpoint"),
        ("eval", "data.path"),
        ("landscape2d", "model.checkpoint"),
        ("interp", "model.checkpoint_a"),
        ("interp", "model.checkpoint_b"),
        ("md", "model.checkpoint"),
        ("md", "data.path"),
    ])
    def test_missing_input(self, gen_dir, model_dir, tmp_path, command, key):
        # a missing checkpoint once exited 4 (I/O) with FileNotFoundError
        data, ckpt = str(gen_dir / "dataset.extxyz"), str(model_dir / "model.json")
        config = {
            "eval": {"model.checkpoint": ckpt, "data.path": data},
            "landscape2d": {"model.checkpoint": ckpt, "data.path": data},
            "interp": {"model.checkpoint_a": ckpt, "model.checkpoint_b": ckpt, "data.path": data},
            "md": {"model.checkpoint": ckpt, "data.path": data},
        }.get(command, {})
        config[key] = "/nonexistent.csv"
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        manifest = read_manifest(tmp_path)
        assert manifest["error"]["message"] == f"{key} not found: /nonexistent.csv"
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command", ["eval", "landscape1d"])
    @pytest.mark.parametrize("tamper", ["untouched", "merged", "layer", "frozen",
                                        *MALFORMED_CHECKPOINTS])
    def test_tampered_checkpoint_rejected(self, gen_dir, model_dir, tmp_path, command, tamper):
        # each tampered table once loaded; a frozen block then stayed still in every
        # landscape while the landscape's metadata listed no frozen block; each malformed
        # checkpoint once died with a traceback and no manifest, exited 2 as another error
        # type, exited 3 or, given "false" for false, exited 0 with rescaled energies
        doc = json.loads((model_dir / "model.json").read_text())
        if tamper in TAMPERED_PARTITIONS:
            doc["partition"] = TAMPERED_PARTITIONS[tamper](doc["partition"])
        ckpt = tmp_path / "model.json"
        ckpt.write_text(MALFORMED_CHECKPOINTS[tamper](doc) if tamper in MALFORMED_CHECKPOINTS
                        else json.dumps(doc))
        config = {**TestKeyTable.base(command, gen_dir, model_dir), "model.checkpoint": str(ckpt)}
        out = tmp_path / "out"
        if tamper == "untouched":
            assert run_command(command, config, out) == EXIT_OK
            return
        assert run_command(command, config, out) == EXIT_CONFIG
        error = read_manifest(out)["error"]
        assert error["type"] == "ValueError"
        assert error["message"].startswith(f"{ckpt}: " if tamper in MALFORMED_CHECKPOINTS else
                                           f"{ckpt}: the partition table is not the layout")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_unwritable_output(self):
        assert run_command("toy-regression",
                           {"toy.n_list": [2], "toy.sigma_list": [0.0], "toy.repeats": 1},
                           "/proc/definitely/not/writable") == EXIT_IO

    def test_cli_rejects_malformed_set(self):
        assert main(["toy-regression", "--set", "novalue"]) == EXIT_CONFIG

    def test_no_threads_option(self, tmp_path):
        toy = {"toy.n_list": [2], "toy.sigma_list": [0.0], "toy.repeats": 1}
        assert run_command("toy-regression", {**toy, "threads": 2}, tmp_path) == EXIT_CONFIG
        assert "threads" in read_manifest(tmp_path)["error"]["message"]
        with pytest.raises(SystemExit) as exc:
            main(["toy-regression", "--threads", "2", "--out", str(tmp_path / "o")])
        assert exc.value.code == EXIT_CONFIG


    @pytest.mark.parametrize("key,value", [("data.holdout_fraction", -0.1),
                                           ("train.batch_size", -50)])
    def test_out_of_range_split_or_batch_is_config_error(self, gen_dir, tmp_path, key, value):
        config = {"data.path": str(gen_dir / "dataset.extxyz"), "data.train_t": 300.0,
                  "seed": 3, **FAST_TRAIN, key: value}
        assert run_command("train", config, tmp_path) == EXIT_CONFIG
        assert key.split(".")[1] in read_manifest(tmp_path)["error"]["message"]

    def test_coincident_atoms_are_numeric(self, model_dir, tmp_path):
        # a geometry fault, not a config error
        (tmp_path / "bad.extxyz").write_text(
            "3\nProperties=species:S:1:pos:R:3:forces:R:3 energy=-1.0\n"
            "Cu 0 0 0 0 0 0\nCu 1.5 0 0 0 0 0\nCu 1.5 0 0 0 0 0\n")
        config = {"model.checkpoint": str(model_dir / "model.json"),
                  "data.path": str(tmp_path / "bad.extxyz")}
        assert run_command("eval", config, tmp_path / "out") == EXIT_NUMERIC
        error = read_manifest(tmp_path / "out")["error"]
        assert error["type"] == "SingularGeometryError" and "coincident" in error["message"]

    @pytest.mark.parametrize("atom_line,message", [
        ("Cu 1.5 nan 0 0 0 0", "frame 1: non-finite position component"),
        ("Cu 1.5 0 0 0 inf 0", "frame 1: non-finite force component"),
    ], ids=["nan-position", "infinite-force"])
    def test_nonfinite_data_is_config_error(self, tmp_path, monkeypatch, atom_line, message):
        # a NaN position once passed the reader, and training exited 3 with
        # "non-finite atom position" and no frame number
        def work(*args, **kwargs):
            raise AssertionError("the run trained on a non-finite frame")
        monkeypatch.setattr(cli, "train", work)
        header = "2\nProperties=species:S:1:pos:R:3:forces:R:3 energy=-1.0\nCu 0 0 0 0 0 0\n"
        (tmp_path / "bad.extxyz").write_text(f"{header}Cu 1.5 0 0 0 0 0\n{header}{atom_line}\n")
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), "--set",
                     f"data.path={tmp_path / 'bad.extxyz'}"]) == EXIT_CONFIG
        error = read_manifest(out)["error"]
        assert error == {"type": "ExtxyzError", "message": message}
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_narrow_periodic_cell_is_config_error(self, model_dir, tmp_path):
        # 8 A across x: less than twice the model's 5 A cutoff
        (tmp_path / "narrow.extxyz").write_text(
            '2\nLattice="8 0 0 0 40 0 0 0 40" pbc="T T T" '
            "Properties=species:S:1:pos:R:3:forces:R:3 energy=-1.0\n"
            "Cu 0 0 0 0 0 0\nCu 4 0 0 0 0 0\n")
        config = {"model.checkpoint": str(model_dir / "model.json"),
                  "data.path": str(tmp_path / "narrow.extxyz")}
        assert run_command("eval", config, tmp_path / "out") == EXIT_CONFIG
        error = read_manifest(tmp_path / "out")["error"]
        assert error["type"] == "ValueError" and "twice the cutoff" in error["message"]

    @pytest.mark.parametrize("pbc", ["T T T", "F F T"])
    def test_periodic_md_start_frame_is_config_error(self, tmp_path, pbc):
        # 2.5 A apart through the boundary; run without the cell, both trajectories
        # were once recorded as bond failures
        (tmp_path / "pbc.extxyz").write_text(
            f'2\nLattice="20 0 0 0 20 0 0 0 20" pbc="{pbc}"\nCu 1 0 0\nCu 18.5 0 0\n')
        config = {"data.path": str(tmp_path / "pbc.extxyz"), "potential.kind": "morse",
                  "md.total_time_ps": 0.01, "md.n_trajectories": 2}
        out = tmp_path / "out"
        assert run_command("md", config, out) == EXIT_CONFIG
        assert "periodic" in read_manifest(out)["error"]["message"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("key,value", [("data.burn_in_steps", -40), ("data.stride", 0),
                                           ("data.stride", -10)])
    def test_negative_frame_schedule_rejected(self, tmp_path, key, value):
        # a negative burn-in would return fewer frames than data.frames_per_t asks for
        config = {**GEN_ARGS, "data.frames_per_t": 5, "data.burn_in_steps": 40,
                  "data.stride": 10, key: value}
        assert run_command("gen-data", config, tmp_path) == EXIT_CONFIG
        assert not (tmp_path / "dataset.extxyz").exists()
        assert key.split(".")[1] in read_manifest(tmp_path)["error"]["message"]

    @pytest.mark.parametrize("command,key,text,code", [
        ("md", "md.temperature", "NaN", EXIT_CONFIG),
        ("md", "md.failure_bond_length", "NaN", EXIT_CONFIG),
        ("md", "md.tau_fs", "NaN", EXIT_CONFIG),
        ("md", "md.total_time_ps", "Infinity", EXIT_CONFIG),
        ("md", "md.timestep_fs", "Infinity", EXIT_CONFIG),
        ("md", "md.tau_fs", "Infinity", EXIT_OK),
        ("gen-data", "data.tau_fs", "NaN", EXIT_CONFIG),
        ("gen-data", "data.temperatures", "[NaN]", EXIT_CONFIG),
        ("gen-data", "data.temperatures", "[300.0, Infinity]", EXIT_CONFIG),
        ("gen-data", "data.tau_fs", "Infinity", EXIT_OK),
    ])
    def test_nonfinite_parameter_rejected(self, tmp_path, command, key, text, code):
        # NaN once failed every trajectory or switched the thermostat off; inf overflowed
        config = {"md": {"potential.kind": "morse", "data.species": "Cu", "data.n_atoms": 4,
                         "md.total_time_ps": 0.01, "md.n_trajectories": 2},
                  "gen-data": {**GEN_ARGS, "data.frames_per_t": 2, "data.burn_in_steps": 10}
                  }[command]
        args = [arg for k, v in config.items() if k != "seed"
                for arg in ("--set", f"{k}={json.dumps(v)}")]
        assert main([command, "--out", str(tmp_path)] + args + ["--set", f"{key}={text}"]) == code
        if code == EXIT_CONFIG:
            assert key.split(".")[1] in read_manifest(tmp_path)["error"]["message"]
            assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command,key,text,message", [
        ("train", "model.cutoff", "NaN", "cutoff must be positive and finite"),
        ("train", "train.lr0", "NaN", "lr0 must be >= 0 and finite"),
        ("md", "potential.well_depth", "NaN", "well_depth, stiffness and r0 must be positive"),
        ("md", "potential.epsilon", "NaN", "epsilon and sigma must be positive"),
        ("md", "md.bond_factor", "NaN", "bond factor must lie in [1, inf)"),
        ("md", "md.bond_factor", "0.9", "bond factor must lie in [1, inf)"),
        ("entropy", "entropy.t_e", "NaN", "kT must be positive and finite"),
        ("sweep-entropy", "sweep.t_e_range", "[400.0, NaN]", "ranges must be pairs of positive"),
        ("sweep-entropy", "sweep.t_f_range", "[4.0]", "ranges must be pairs of positive"),
    ])
    def test_bad_value_is_config_error(self, gen_dir, profile_dir, tmp_path, command, key, text,
                                       message):
        # these once exited 0 (training on all-zero descriptors, an empty bond list in
        # ensemble.json, NaN entropies), 3 (a non-finite atom position or loss) or 1 (an
        # IndexError from a one-bound range, with no manifest)
        profile = {"profile.path": str(profile_dir / "profile.csv")}
        config = {"train": {"data.path": str(gen_dir / "dataset.extxyz"), **FAST_TRAIN},
                  "md": {"potential.kind": "lj" if key == "potential.epsilon" else "morse",
                         "data.n_atoms": 4, "md.total_time_ps": 0.01, "md.n_trajectories": 2},
                  "entropy": profile, "sweep-entropy": profile}[command]
        args = [arg for k, v in config.items() for arg in ("--set", f"{k}={json.dumps(v)}")]
        out = tmp_path / "out"
        assert main([command, "--out", str(out)] + args + ["--set", f"{key}={text}"]) == EXIT_CONFIG
        assert message in read_manifest(out)["error"]["message"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_degenerate_direction_is_numeric(self, gen_dir, model_dir, tmp_path, monkeypatch):
        # a zero random direction is a numeric fault, not a config error
        monkeypatch.setattr(landscape, "sample_direction",
                            lambda theta, free, seed: landscape.Direction(np.zeros(len(theta))))
        config = {"model.checkpoint": str(model_dir / "model.json"),
                  "data.path": str(gen_dir / "dataset.extxyz"), "landscape.points": 3}
        assert run_command("landscape2d", config, tmp_path) == EXIT_NUMERIC
        error = read_manifest(tmp_path)["error"]
        assert error["type"] == "DegenerateDirectionError" and "zero" in error["message"]

    @pytest.mark.parametrize("command", ["entropy", "sweep-entropy"])
    @pytest.mark.parametrize("lines,message", [
        ([], "unexpected profile header"),
        ([PROFILE_HEADER, "0,0.0,1.0,2.0", "0,1.0,1.5"], "line 3: 3 fields, expected 4"),
        ([PROFILE_HEADER, "0,0.0,1.0,2.0", "3,0.0,1.0,2.0"], "directions [0, 3] are not 0..1"),
        ([PROFILE_HEADER, "0,0.0,1.0,2.0", "0,1.0,1.5,2.5", "0,0.0,1.2,2.2"],
         "line 4: second row for direction 0 at t = 0.0"),
        ([PROFILE_HEADER, "0,0.0,1.0,2.0", "0,1.0,1.5,2.5", "1,0.0,1.2,2.2"],
         "profile.csv: no row for direction 1 at t = 1.0"),
    ], ids=["empty", "short-row", "direction-gap", "duplicate-cell", "missing-cell"])
    def test_malformed_profile_is_config_error(self, tmp_path, command, lines, message):
        # an empty file, a short row or a gap in the directions once crashed with a
        # traceback (exit 1, no manifest), a second row for a cell replaced the first,
        # and a missing cell was read as NaN
        path = tmp_path / "profile.csv"
        path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "out"
        assert main([command, "--out", str(out), "--set", f"profile.path={path}"]) == EXIT_CONFIG
        assert message in read_manifest(out)["error"]["message"]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("bonds", ["[[0,99]]", "[[0]]", "[[-1,0]]", "[[2,2]]"])
    def test_bad_bond_list_is_config_error(self, tmp_path, bonds):
        # the first two once crashed with an IndexError (exit 1, no manifest), and
        # [[-1,0]] ran, watching the bond (5, 0)
        out = tmp_path / "out"
        assert main(["md", "--out", str(out), "--set", "potential.kind=morse",
                     "--set", f"md.bond_list={bonds}"]) == EXIT_CONFIG
        message = read_manifest(out)["error"]["message"]
        assert message.startswith("bond_list entry ") and message.endswith(" in 0..5")
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("schedule,message", [
        ("[[3,1.0,10.0]]", "weight_schedule must start at epoch 0, not 3"),
        ("[[0,1.0]]", "weight_schedule entries must be (epoch, w_E, w_F) triples"),
        ("[[0,-1.0,10.0]]", "weight_schedule weights must be finite and >= 0"),
        ("[[0,1,25],[2.0,1,1],[2.5,1,1]]", "weight_schedule epochs must be whole numbers, not 2.5"),
    ], ids=["late-start", "pair", "negative", "fractional-epoch"])
    def test_bad_weight_schedule_fails_before_any_work(self, gen_dir, tmp_path, monkeypatch,
                                                       schedule, message):
        # these once failed after the data were read, failed without naming the key,
        # or trained with a negative weight
        def work(*args, **kwargs):
            raise AssertionError("the run worked before checking its schedule")
        monkeypatch.setattr(cli, "read_extxyz_file", work)
        out = tmp_path / "out"
        assert main(["train", "--out", str(out), "--set", f"data.path={gen_dir}/dataset.extxyz",
                     "--set", f"train.weight_schedule={schedule}"]) == EXIT_CONFIG
        assert read_manifest(out)["error"]["message"].startswith(message)


class TestKeyTable:
    """Each command accepts only the keys it reads, cast like the dataclass defaults."""

    @staticmethod
    def base(command, gen_dir, model_dir, profile_dir=None):
        data, ckpt = str(gen_dir / "dataset.extxyz"), str(model_dir / "model.json")
        profile = str(profile_dir / "profile.csv") if profile_dir else None
        return {
            "train": {"data.path": data, "seed": 3, **FAST_TRAIN},
            "eval": {"model.checkpoint": ckpt, "data.path": data},
            "landscape2d": {"model.checkpoint": ckpt, "data.path": data, "landscape.points": 3},
            "interp": {"model.checkpoint_a": ckpt, "model.checkpoint_b": ckpt, "data.path": data,
                       "landscape.points": 3},
            "entropy": {"profile.path": profile},
            "sweep-entropy": {"profile.path": profile, "sweep.points": 3},
            "fit-slopes": {"slopes.input": str(model_dir / "history.csv")},
            "md": {"model.checkpoint": ckpt, "potential.kind": "morse", "data.n_atoms": 5,
                   "data.species": "Cu", "md.temperature": 300, "md.total_time_ps": 0.02,
                   "md.n_trajectories": 1, "md.failure_bond_length": 3.75, "seed": 3},
            "toy-regression": {"toy.n_list": [2], "toy.sigma_list": [0.0], "toy.repeats": 1},
            "landscape1d": {"model.checkpoint": ckpt, "data.path": data,
                            "landscape.n_directions": 1, "landscape.points": 3},
            "gen-data": dict(GEN_ARGS),
            "noise-sweep": {"data.path": data, "seed": 3, **FAST_TRAIN},
            "learning-curve": {"data.path": data, "data.train_t": 300.0, "seed": 3,
                               **FAST_TRAIN},
        }[command]

    @staticmethod
    def assert_rejected(out, key):
        manifest = read_manifest(out)
        assert manifest["status"] == "failed"
        assert key in manifest["error"]["message"].split(";")[0]
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    @pytest.mark.parametrize("command,key", [
        ("train", "train.plateau_patince"),
        ("md", "md.temprature"),
        ("toy-regression", "toy.repeat"),
        ("landscape1d", "data.train_t"),
        ("train", "landscape.points"),
        ("md", "md.seed"),
        # keys that act only together with another key, or only without it
        ("train", "data.holdout_fraction"),
        ("eval", "data.holdout_fraction"),
        ("md", "data.n_atoms"),
        ("md", "potential.kind"),
        ("md", "data.species"),
        ("md", "md.bond_factor"),
        ("train", "model.activation"),   # the network is tanh
    ])
    def test_unread_key_rejected(self, gen_dir, model_dir, tmp_path, command, key):
        # each of the last six once exited 0 with the key silently ignored
        config = {**self.base(command, gen_dir, model_dir), key: 1}
        if key in ("data.n_atoms", "potential.kind", "data.species"):   # no cluster to build
            config["data.path"] = str(gen_dir / "dataset.extxyz")
        if key == "md.bond_factor":   # no bonds to infer
            config["md.bond_list"] = [[0, 1]]
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, key)

    @pytest.mark.parametrize("command,key,value", [
        ("train", "model.name", ["x"]),
        ("landscape2d", "landscape.w_e", "abc"),
        ("interp", "landscape.points", 0),
        ("interp", "landscape.t_max", 0.0),
        ("landscape1d", "landscape.t_min", 2.0),
        ("md", "md.bond_factor", 0.9),
        ("md", "md.bond_factor", math.nan),
        ("entropy", "entropy.t_e", -1.0),
        ("entropy", "entropy.t_f", math.inf),
        ("sweep-entropy", "sweep.t_e_range", [400.0, math.nan]),
        ("sweep-entropy", "sweep.t_f_range", [4.0]),
        ("landscape2d", "landscape.w_e", -1.0),
        ("landscape2d", "landscape.w_e", math.nan),
        ("landscape2d", "landscape.w_f", math.inf),
        ("entropy", "entropy.alpha", 2.0),
        ("entropy", "entropy.alpha", math.nan),
        ("sweep-entropy", "entropy.alpha", -0.5),
        ("sweep-entropy", "sweep.points", 1),
        ("noise-sweep", "noise.sigmas", [0.0, math.nan]),
        ("noise-sweep", "noise.sigmas", [-0.1]),
        ("toy-regression", "toy.sigma_list", [math.nan]),
        ("toy-regression", "toy.sigma_list", [-1.0]),
        ("toy-regression", "toy.sigma_list", [0.0, math.inf]),
        ("learning-curve", "curve.sizes", [10, 0]),
        ("learning-curve", "curve.sizes", [-5, 10]),
        ("train", "model.hidden", [0]),
        ("train", "model.hidden", [16, 0]),
        ("landscape1d", "landscape.n_directions", 0),
        ("landscape1d", "landscape.n_directions", -2),
    ], ids=["train-model.name", "landscape2d-landscape.w_e", "interp-no-points",
            "interp-empty-range", "landscape1d-decreasing", "md-bond-factor-below-1",
            "md-bond-factor-nan", "entropy-negative-t_e", "entropy-infinite-t_f",
            "sweep-nan-bound", "sweep-one-bound", "landscape2d-negative-w_e",
            "landscape2d-nan-w_e", "landscape2d-infinite-w_f", "entropy-alpha-above-1",
            "entropy-alpha-nan", "sweep-negative-alpha", "sweep-one-point", "noise-sigma-nan",
            "noise-sigma-negative", "toy-sigma-nan", "toy-sigma-negative", "toy-sigma-inf",
            "curve-size-zero", "curve-size-negative", "hidden-zero", "hidden-16-0",
            "n-directions-zero", "n-directions-negative"])
    def test_bad_value_fails_before_any_work(self, gen_dir, model_dir, profile_dir, tmp_path,
                                             monkeypatch, command, key, value):
        # these values were once cast or checked only after training or after the whole
        # scan; an interp grid of no points died with an IndexError (exit 1, no manifest);
        # a bad bond factor was checked after the start cluster was built, and a bad
        # entropy temperature, sweep bound, alpha or sweep point count after the profile
        # was read (a patched read_profile_csv fails on any call); a negative surface
        # weight was rejected after the scan, and NaN or inf was written; a NaN noise
        # level wrote a NaN row, and a negative toy noise level was accepted; a curve
        # size of 0 failed after the models before it were trained, naming no key; a
        # hidden layer of width 0 trained a model whose forces were identically zero; a
        # landscape of no directions wrote a header-only profile
        def work(*args, **kwargs):
            raise AssertionError("the run worked before casting its values")
        for module, name in ((cli, "train"), (landscape, "landscape_2d"),
                             (cli, "read_extxyz_file"), (cli, "load_checkpoint"),
                             (cli, "build_cluster"), (landscape, "read_profile_csv"),
                             (analysis, "ols")):
            monkeypatch.setattr(module, name, work)
        config = {**self.base(command, gen_dir, model_dir, profile_dir), key: value}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, key)

    @pytest.mark.parametrize("command", ["landscape1d", "landscape2d"])
    @pytest.mark.parametrize("blocks", [[999], [-1], [0, 999]], ids=["999", "minus-1", "0-and-999"])
    def test_stray_frozen_block_rejected(self, gen_dir, model_dir, tmp_path, command, blocks):
        # such an index once froze nothing, while the metadata listed it as frozen
        config = {**self.base(command, gen_dir, model_dir), "landscape.frozen_blocks": blocks}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        message = read_manifest(tmp_path)["error"]["message"]
        assert message.startswith(f"landscape.frozen_blocks: block index {blocks[-1]} is not ")
        assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]

    def test_message_lists_the_keys_read(self, gen_dir, model_dir, profile_dir, tmp_path):
        # each command's keys in the order it reads them, so a key that reading a
        # signature adds (data.name, model.seed, entropy.profile_ref) or drops shows
        potential = ("potential.kind, potential.well_depth, potential.stiffness, potential.r0, "
                     "potential.cutoff, potential.switch_start")
        fit = ("train.max_epochs, train.batch_size, train.lr0, train.amsgrad, train.ema_decay, "
               "train.plateau_patience, train.plateau_factor, train.weight_schedule, "
               "train.swa_tail, model.cutoff, model.n_radial, model.first_center, "
               "model.trainable_basis, model.hidden, model.rescale")
        grid = "landscape.t_min, landscape.t_max, landscape.points"
        frozen = "landscape.frozen_blocks, landscape.freeze_basis"
        reads = {
            "gen-data": f"{potential}, data.n_atoms, data.temperatures, data.frames_per_t, "
                        "data.species, data.timestep_fs, data.tau_fs, data.stride, "
                        "data.burn_in_steps",
            "train": f"data.path, data.train_t, {fit}, model.name",
            "eval": "model.checkpoint, data.path, data.train_t",
            "landscape1d": f"model.checkpoint, data.path, landscape.n_directions, {grid}, "
                           f"{frozen}",
            "landscape2d": f"model.checkpoint, data.path, {grid}, {frozen}, landscape.w_e, "
                           "landscape.w_f",
            "interp": f"model.checkpoint_a, model.checkpoint_b, data.path, {grid}",
            "entropy": "profile.path, entropy.t_e, entropy.t_f, entropy.alpha",
            "sweep-entropy": "profile.path, sweep.t_e_range, sweep.t_f_range, entropy.alpha, "
                             "sweep.points",
            "md": f"model.checkpoint, data.path, {potential}, data.n_atoms, data.species, "
                  "md.temperature, md.timestep_fs, md.tau_fs, md.total_time_ps, "
                  "md.n_trajectories, md.failure_bond_length, md.bond_list, md.trace_interval, "
                  "md.dump_interval, md.bond_factor",
            "noise-sweep": f"data.path, noise.sigmas, noise.target, {fit}",
            "learning-curve": f"data.path, data.train_t, data.holdout_fraction, curve.sizes, "
                              f"{fit}",
            "toy-regression": "toy.n_list, toy.sigma_list, toy.repeats",
            "fit-slopes": "slopes.input, slopes.mode",
        }
        assert set(reads) == set(COMMANDS)
        for command, keys in reads.items():
            out = tmp_path / command
            config = {**self.base(command, gen_dir, model_dir, profile_dir), "x.unread": 1}
            assert run_command(command, config, out) == EXIT_CONFIG
            message = read_manifest(out)["error"]["message"]
            assert (command, message.split("; ")[1]) == (command, f"it reads seed, out, {keys}")

    def test_plateau_keys_reach_the_scheduler(self, gen_dir, model_dir, tmp_path):
        config = {**self.base("train", gen_dir, model_dir), "train.lr0": 0.1,
                  "train.plateau_patience": 1, "train.plateau_factor": 0.25}
        assert run_command("train", config, tmp_path / "ok") == EXIT_OK
        with open(tmp_path / "ok" / "history.csv", newline="") as fh:
            lrs = [float(row["lr"]) for row in csv.DictReader(fh)]
        drops = [b / a for a, b in zip(lrs, lrs[1:]) if b != a]
        assert drops and all(r == 0.25 for r in drops)
        for key, bad in (("train.plateau_factor", 1.5), ("train.plateau_patience", 0)):
            out = tmp_path / key
            assert run_command("train", {**config, key: bad}, out) == EXIT_CONFIG
            assert key.split(".")[1] in read_manifest(out)["error"]["message"]

    def test_values_cast_like_the_defaults(self, gen_dir, model_dir, tmp_path):
        config = self.base("md", gen_dir, model_dir)   # md.temperature given as int 300
        assert run_command("md", config, tmp_path / "ok") == EXIT_OK
        echo = json.loads((tmp_path / "ok" / "ensemble.json").read_text())["config"]
        assert echo["temperature_K"] == 300.0 and isinstance(echo["temperature_K"], float)
        out = tmp_path / "bad"
        assert run_command("md", {**config, "md.temperature": "hot"}, out) == EXIT_CONFIG
        assert "md.temperature" in read_manifest(out)["error"]["message"]

    @pytest.mark.parametrize("key,value,kept", [("train.ema_decay", 0.9, "ema_params"),
                                                ("train.swa_tail", 5, "swa_params")])
    def test_averaged_weights_are_saved(self, gen_dir, model_dir, tmp_path, key, value, kept):
        config = {**self.base("train", gen_dir, model_dir), key: value}
        assert run_command("train", config, tmp_path) == EXIT_OK
        saved = load_checkpoint(tmp_path / "model.json").params
        ds = read_extxyz_file(gen_dir / "dataset.extxyz")
        model = NeuralPotential.create(DescriptorSpec.default(cutoff=5.0, n_radial=6),
                                       hidden=(8, 8),
                                       seed=int(substream(3, "init").integers(2**31)))
        cfg = TrainConfig(max_epochs=30, batch_size=6, lr0=0.01, amsgrad=True,
                          weight_schedule=((0, 1.0, 25.0),), **{key.split(".")[1]: value})
        report = train(fit_rescale(model, ds), ds, cfg)
        np.testing.assert_array_equal(saved, getattr(report, kept))
        plain = load_checkpoint(model_dir / "model.json").params
        np.testing.assert_array_equal(plain, report.best_params)
        assert not np.array_equal(saved, plain)

    @pytest.mark.parametrize("extra", [{"train.ema_decay": 0.9, "train.swa_tail": 5},
                                       {"train.swa_tail": 30}])
    def test_unusable_averaging_rejected(self, gen_dir, model_dir, tmp_path, extra):
        config = {**self.base("train", gen_dir, model_dir), **extra}
        assert run_command("train", config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, "train.swa_tail")

    @pytest.mark.parametrize("command,key", [
        ("train", "train.amsgrad"),
        ("train", "model.trainable_basis"),
        ("train", "model.rescale"),
        ("landscape1d", "landscape.freeze_basis"),
    ])
    def test_boolean_only_from_json(self, gen_dir, model_dir, tmp_path, command, key):
        config = self.base(command, gen_dir, model_dir)
        assert run_command(command, {**config, key: "False"}, tmp_path / "bad") == EXIT_CONFIG
        self.assert_rejected(tmp_path / "bad", key)
        assert main([command, "--out", str(tmp_path / "ok"), "--set", f"{key}=false"] +
                    [arg for k, v in config.items() if k != "seed"
                     for arg in ("--set", f"{k}={json.dumps(v)}")]) == EXIT_OK

    @pytest.mark.parametrize("command,key", [
        ("train", "train.swa_tail"),
        ("train", "train.ema_decay"),
        ("md", "md.dump_interval"),
    ])
    def test_optional_fields_cast(self, gen_dir, model_dir, tmp_path, command, key):
        config = {**self.base(command, gen_dir, model_dir), key: "abc"}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, key)

    @pytest.mark.parametrize("value", [0, -5])
    def test_dump_interval_must_be_positive(self, gen_dir, model_dir, tmp_path, value):
        config = {**self.base("md", gen_dir, model_dir), "md.dump_interval": value}
        assert run_command("md", config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, "dump_interval")

    @pytest.mark.parametrize("command,key,value", [
        ("gen-data", "data.temperatures", 300),
        ("gen-data", "data.n_atoms", 4.7),
        ("train", "model.hidden", 16),
        ("train", "train.max_epochs", 2.5),
        ("md", "md.n_trajectories", 1.5),
        ("noise-sweep", "noise.sigmas", 0.1),
        ("learning-curve", "curve.sizes", 50),
        ("landscape1d", "landscape.frozen_blocks", 3),
        ("landscape1d", "landscape.points", True),
        ("toy-regression", "seed", 2.5),
        ("toy-regression", "seed", "abc"),
        ("md", "data.species", ["Cu"]),
        ("md", "data.species", None),
    ])
    def test_value_of_wrong_type_rejected(self, gen_dir, model_dir, tmp_path, command, key,
                                          value):
        # a scalar for a list, or a seed that is no number, once raised with no
        # manifest; a fraction for an int was truncated
        config = {**self.base(command, gen_dir, model_dir), key: value}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, key)

    @pytest.mark.parametrize("command,key,value,tp", [
        ("gen-data", "data.temperatures", 300, "list[float]"),
        ("train", "model.hidden", [16.5], "list[int]"),
        ("toy-regression", "toy.n_list", "2", "list[int]"),
        ("toy-regression", "toy.sigma_list", [True], "list[float]"),
    ])
    def test_list_keys_name_a_list(self, gen_dir, model_dir, tmp_path, command, key, value, tp):
        # these keys are read from tuple[X, ...] parameters; a value is written as a list
        config = {**self.base(command, gen_dir, model_dir), key: value}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        assert read_manifest(tmp_path)["error"]["message"] == f"{key} must be {tp}, got {value!r}"

    def test_numeric_path_is_a_file_name(self, gen_dir, model_dir, tmp_path, monkeypatch):
        # a JSON number once reached open() as a file descriptor
        (tmp_path / "987654").write_bytes((model_dir / "model.json").read_bytes())
        monkeypatch.chdir(tmp_path)
        config = {"model.checkpoint": 987654, "data.path": str(gen_dir / "dataset.extxyz")}
        assert run_command("eval", config, tmp_path / "out") == EXIT_OK

    @pytest.mark.parametrize("value,code", [("true", EXIT_CONFIG), ('"0.4"', EXIT_OK)])
    def test_potential_keys_cast(self, tmp_path, value, code):
        # potential.* values once reached the potential uncast: true ran as a well
        # depth of 1.0, and "0.4" exited 2 from a comparison inside Morse
        sets = {"potential.kind": "morse", "data.n_atoms": 4, "data.species": "Cu",
                "md.temperature": 300, "md.total_time_ps": 0.02, "md.n_trajectories": 1,
                "md.failure_bond_length": 3.75}
        args = [arg for k, v in sets.items() for arg in ("--set", f"{k}={json.dumps(v)}")]
        assert main(["md", "--out", str(tmp_path / "number"), *args,
                     "--set", "potential.well_depth=0.4"]) == EXIT_OK
        out = tmp_path / "given"
        assert main(["md", "--out", str(out), *args,
                     "--set", f"potential.well_depth={value}"]) == code
        if code == EXIT_CONFIG:
            self.assert_rejected(out, "potential.well_depth")
        else:
            assert ((out / "ensemble.json").read_bytes()
                    == (tmp_path / "number" / "ensemble.json").read_bytes())

    def test_curve_sizes_checked_before_training(self, gen_dir, model_dir, tmp_path,
                                                 monkeypatch):
        # the sizes below the split's were once trained before the run exited 2
        fits = []
        monkeypatch.setattr(cli, "train", lambda *args, **kwargs: fits.append(args))
        config = {**self.base("learning-curve", gen_dir, model_dir), "curve.sizes": [4, 8, 100]}
        assert run_command("learning-curve", config, tmp_path) == EXIT_CONFIG
        assert fits == []
        assert (read_manifest(tmp_path)["error"]["message"]
                == "curve size 100 exceeds training split (11)")

    def test_dump_interval_cast_to_int(self, gen_dir, model_dir, tmp_path):
        config = {**self.base("md", gen_dir, model_dir), "md.dump_interval": "10"}
        assert run_command("md", config, tmp_path) == EXIT_OK
        assert "trajectory_000.extxyz" in read_manifest(tmp_path)["artifacts"]


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "toy.n_list = [2, 4]\n"
            "toy.sigma_list = [0.0]\n"
            "toy.repeats = 2  # trailing comment\n"
            "seed = 9\n")
        parsed = load_config_file(cfg)
        assert parsed == {"toy.n_list": [2, 4], "toy.sigma_list": [0.0],
                          "toy.repeats": 2, "seed": 9}
        out = tmp_path / "out"
        code = main(["toy-regression", "--config", str(cfg), "--out", str(out),
                     "--set", "toy.repeats=3"])
        assert code == EXIT_OK
        manifest = read_manifest(out)
        assert manifest["config"]["toy.repeats"] == 3  # --set wins over file
        assert manifest["config"]["seed"] == 9

    def test_malformed_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("this is not a key value pair\n")
        assert main(["toy-regression", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestPipeline:
    def test_gen_data_artifacts(self, gen_dir):
        manifest = read_manifest(gen_dir)
        assert manifest["status"] == "ok"
        assert set(manifest["artifacts"]) == {"dataset.extxyz", "stats.json"}
        stats = json.loads((gen_dir / "stats.json").read_text())
        assert stats["n_configurations"] == 12

    def test_train_eval_landscape_entropy(self, gen_dir, model_dir, tmp_path):
        data = str(gen_dir / "dataset.extxyz")
        ckpt = str(model_dir / "model.json")

        ev = tmp_path / "eval"
        assert run_command("eval", {"model.checkpoint": ckpt, "data.path": data,
                                    "seed": 3}, ev) == EXIT_OK
        rmse_lines = (ev / "rmse.csv").read_text().strip().splitlines()
        assert rmse_lines[0].startswith("T,energy_rmse")

        # eval holds out the frames that train held out
        split = {"data.train_t": 300.0, "data.holdout_fraction": 0.25}
        ev_split = tmp_path / "eval_split"
        assert run_command("eval", {"model.checkpoint": ckpt, "data.path": data,
                                    "seed": 3, **split}, ev_split) == EXIT_OK
        _, tests = split_by_temperature(read_extxyz_file(data), 300.0,
                                        holdout_fraction=0.25, seed=3)
        held = (ev_split / "rmse.csv").read_text().strip().splitlines()[1].split(",")
        assert float(held[0]) == 300.0 and int(held[-1]) == len(tests[300.0]) == 3

        ls = tmp_path / "ls"
        assert run_command("landscape1d",
                           {"model.checkpoint": ckpt, "data.path": data,
                            "landscape.n_directions": 2, "landscape.points": 5,
                            "seed": 3}, ls) == EXIT_OK

        en = tmp_path / "en"
        assert run_command("entropy", {"profile.path": str(ls / "profile.csv")},
                           en) == EXIT_OK
        report = json.loads((en / "entropy.json").read_text())
        # defaults echo into the report
        assert report["T_E_mev_per_atom"] == 4.0
        assert report["T_F_mev_per_ang"] == 40.0
        assert report["alpha"] == 0.2
        assert report["k"] == 1.0

        sw = tmp_path / "sw"
        assert run_command("sweep-entropy", {"profile.path": str(ls / "profile.csv"),
                                             "sweep.points": 5}, sw) == EXIT_OK
        s_vals = [float(line.split(",")[-1]) for line in
                  (sw / "sweep.csv").read_text().strip().splitlines()[1:]]
        assert all(b >= a - 1e-12 for a, b in zip(s_vals, s_vals[1:]))

    def test_interp_and_surface(self, gen_dir, model_dir, tmp_path):
        data = str(gen_dir / "dataset.extxyz")
        ckpt = str(model_dir / "model.json")
        ip = tmp_path / "ip"
        assert run_command("interp", {"model.checkpoint_a": ckpt,
                                      "model.checkpoint_b": ckpt,
                                      "data.path": data, "landscape.points": 3},
                           ip) == EXIT_OK
        l2 = tmp_path / "l2"
        assert run_command("landscape2d", {"model.checkpoint": ckpt, "data.path": data,
                                           "landscape.points": 3, "landscape.w_e": 1.0,
                                           "landscape.w_f": 10.0, "seed": 3},
                           l2) == EXIT_OK
        header = (l2 / "surface.csv").read_text().splitlines()[0]
        assert header == "t1,t2,loss_energy,loss_force,combined"

    def test_md_command(self, gen_dir, model_dir, tmp_path):
        out = tmp_path / "md"
        code = run_command("md", {"model.checkpoint": str(model_dir / "model.json"),
                                  "potential.kind": "morse",
                                  "data.n_atoms": 5, "data.species": "Cu",
                                  "md.temperature": 300.0, "md.total_time_ps": 0.05,
                                  "md.n_trajectories": 2,
                                  "md.failure_bond_length": 3.75, "seed": 3}, out)
        assert code == EXIT_OK
        doc = json.loads((out / "ensemble.json").read_text())
        assert doc["summary"]["n_trajectories"] == 2

    def test_fit_slopes_from_eval_table(self, tmp_path):
        table = tmp_path / "rmse.csv"
        table.write_text("T,energy_rmse_mev_per_atom,force_rmse_mev_per_ang,n_frames\n"
                         "300.0,1.0,30.0,5\n600.0,1.0,60.0,5\n1200.0,1.0,120.0,5\n"
                         "all,1.0,80.0,15\n")
        out = tmp_path / "fs"
        assert run_command("fit-slopes", {"slopes.input": str(table),
                                          "slopes.mode": "extrapolation"}, out) == EXIT_OK
        fit = json.loads((out / "slope.json").read_text())
        assert fit["m"] == pytest.approx(0.1, abs=1e-12)


    @pytest.mark.parametrize("text", ["x\n1\n2\n3\n", "", "x,y\n1,2\n3\n"])
    def test_fit_slopes_rejects_unusable_table(self, tmp_path, text):
        table = tmp_path / "table.csv"
        table.write_text(text)
        out = tmp_path / "fs"
        assert run_command("fit-slopes", {"slopes.input": str(table)}, out) == EXIT_CONFIG
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        if text.count(",") == 0:
            assert str(table) in read_manifest(out)["error"]["message"]


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        config = dict(GEN_ARGS)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_command("gen-data", config, out1) == EXIT_OK
        assert run_command("gen-data", config, out2) == EXIT_OK
        assert (out1 / "dataset.extxyz").read_bytes() == (out2 / "dataset.extxyz").read_bytes()
        assert read_manifest(out1)["artifacts"] == read_manifest(out2)["artifacts"]

    def test_toy_sigma_zero_table(self, tmp_path):
        out = tmp_path / "toy"
        assert run_command("toy-regression",
                           {"toy.n_list": [2, 5, 20], "toy.sigma_list": [0.0],
                            "toy.repeats": 3, "seed": 1}, out) == EXIT_OK
        lines = (out / "toy.csv").read_text().strip().splitlines()[1:]
        for line in lines:
            assert float(line.split(",")[2]) <= 1e-12

    def test_noise_sweep_sigma_zero_row(self, gen_dir, tmp_path):
        out = tmp_path / "ns"
        config = {"data.path": str(gen_dir / "dataset.extxyz"),
                  "noise.sigmas": [0.0], "seed": 3,
                  **{k: v for k, v in FAST_TRAIN.items()}}
        config["train.max_epochs"] = 10
        assert run_command("noise-sweep", config, out) == EXIT_OK
        row = (out / "noise_sweep.csv").read_text().strip().splitlines()[1].split(",")
        assert float(row[1]) == float(row[2])  # noisy == original at sigma 0
        assert float(row[3]) == 0.0

    def test_learning_curve_command(self, gen_dir, tmp_path):
        out = tmp_path / "lc"
        config = {"data.path": str(gen_dir / "dataset.extxyz"), "data.train_t": 300.0,
                  "curve.sizes": [4, 8], "seed": 3, **FAST_TRAIN}
        config["train.max_epochs"] = 10
        assert run_command("learning-curve", config, out) == EXIT_OK
        fit = json.loads((out / "slope.json").read_text())
        assert fit["n_points"] == 2
        assert math.isfinite(fit["m"])
