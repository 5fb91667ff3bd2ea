import csv
import json
import math

import numpy as np
import pytest

from potscape.cli import (EXIT_CONFIG, EXIT_IO, EXIT_OK, load_config_file, main,
                          run_command)
from potscape.data import read_extxyz_file, split_by_temperature
from potscape.descriptors import DescriptorSpec
from potscape.model import NeuralPotential, fit_rescale, load_checkpoint
from potscape.seeding import substream
from potscape.training import TrainConfig, train


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


class TestErrors:
    def test_unknown_command(self, tmp_path):
        assert run_command("frobnicate", {}, tmp_path) == EXIT_CONFIG

    def test_invalid_config_key(self, tmp_path):
        code = run_command("toy-regression", {"bogus.key": 1}, tmp_path)
        assert code == EXIT_CONFIG
        manifest = read_manifest(tmp_path)
        assert manifest["status"] == "failed"
        assert "bogus.key" in manifest["error"]["message"]

    def test_missing_input(self, tmp_path):
        code = run_command("entropy", {"profile.path": "/nonexistent.csv"}, tmp_path)
        assert code == EXIT_CONFIG
        assert read_manifest(tmp_path)["error"] is not None

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


class TestKeyTable:
    """Each command accepts only the keys it reads, cast like the dataclass defaults."""

    @staticmethod
    def base(command, gen_dir, model_dir):
        data, ckpt = str(gen_dir / "dataset.extxyz"), str(model_dir / "model.json")
        return {
            "train": {"data.path": data, "seed": 3, **FAST_TRAIN},
            "md": {"model.checkpoint": ckpt, "potential.kind": "morse", "data.n_atoms": 5,
                   "data.species": "Cu", "md.temperature": 300, "md.total_time_ps": 0.02,
                   "md.n_trajectories": 1, "md.failure_bond_length": 3.75, "seed": 3},
            "toy-regression": {"toy.n_list": [2], "toy.sigma_list": [0.0], "toy.repeats": 1},
            "landscape1d": {"model.checkpoint": ckpt, "data.path": data,
                            "landscape.n_directions": 1, "landscape.points": 3},
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
    ])
    def test_unread_key_rejected(self, gen_dir, model_dir, tmp_path, command, key):
        config = {**self.base(command, gen_dir, model_dir), key: 1}
        assert run_command(command, config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, key)

    def test_message_lists_the_keys_read(self, tmp_path):
        assert run_command("toy-regression", {"toy.repeat": 1}, tmp_path) == EXIT_CONFIG
        reads = read_manifest(tmp_path)["error"]["message"].split(";")[1]
        assert reads == " it reads seed, out, toy.n_list, toy.sigma_list, toy.repeats"

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
        saved = load_checkpoint(tmp_path / "model.json").params.values
        ds = read_extxyz_file(gen_dir / "dataset.extxyz")
        model = NeuralPotential.create(DescriptorSpec.default(cutoff=5.0, n_radial=6),
                                       hidden=(8, 8),
                                       seed=int(substream(3, "init").integers(2**31)))
        cfg = TrainConfig(max_epochs=30, batch_size=6, lr0=0.01, amsgrad=True,
                          weight_schedule=((0, 1.0, 25.0),), **{key.split(".")[1]: value})
        report = train(fit_rescale(model, ds), ds, cfg)
        np.testing.assert_array_equal(saved, getattr(report, kept))
        plain = load_checkpoint(model_dir / "model.json").params.values
        np.testing.assert_array_equal(plain, report.best_params)
        assert not np.array_equal(saved, plain)

    @pytest.mark.parametrize("extra", [{"train.ema_decay": 0.9, "train.swa_tail": 5},
                                       {"train.swa_tail": 30}])
    def test_unusable_averaging_rejected(self, gen_dir, model_dir, tmp_path, extra):
        config = {**self.base("train", gen_dir, model_dir), **extra}
        assert run_command("train", config, tmp_path) == EXIT_CONFIG
        self.assert_rejected(tmp_path, "train.swa_tail")


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
