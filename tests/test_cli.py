"""CLI surface tests: config resolution and precedence, exit-code contract,
JSON stdout, and equivalence between run-all and the staged commands."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from zbcae.cli import dispatch
from zbcae.config import CliConfig, parse_config_file, resolve_config
from zbcae.errors import ConfigError
from test_dataset import MALFORMED_MANIFESTS, write_manifest

SYNTH_SPEC = """\
# desk-scale dataset
n_classes = 2
samples_per_class = 10
channels = 4
height = 4
width = 4
mu = 2.0
sigma = 1.0
seed = 3
"""

PIPE_CONFIG = """\
filters = 4
epochs = 30
batch_size = 4
learning_rate = 2e-4
seed = 0
"""


FLOAT_KEYS = sorted(k for k, v in CliConfig().echo().items() if isinstance(v, float))


def _cell_value(text):
    """A README table cell as the Python value it spells."""
    if text in ("true", "false"):
        return text == "true"
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_synth")
    spec_file = out / "spec.cfg"
    spec_file.write_text(SYNTH_SPEC)
    code = dispatch(["gen-synthetic", "--spec", str(spec_file), "--out", str(out / "data")])
    assert code == 0
    return out / "data"


class TestConfigFile:
    def test_parse_key_values_with_comments(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("a = 1  # trailing\n# full line\n\nb=two\n")
        assert parse_config_file(f) == {"a": "1", "b": "two"}

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("just words\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(f)

    def test_defaults_match_reference_table(self):
        config = resolve_config(None, {})
        assert config.kernel == 3
        assert config.stride == 1
        assert config.pad == 1
        assert config.pool == 2
        assert config.filters == 4096
        assert config.cae.epochs == 100
        assert config.cae.batch_size == 512
        assert config.cae.learning_rate == 1e-5
        assert config.cae.anneal_factor == 0.1
        assert config.svm.lam == 1.0
        assert config.svm.lbfgs.initial_step == 0.1

    def test_flag_beats_file_beats_default(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epochs = 7\nbatch_size = 9\n")
        config = resolve_config(f, {"epochs": 3})
        assert config.cae.epochs == 3  # flag wins
        assert config.cae.batch_size == 9  # file wins
        assert config.filters == 4096  # default

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("banana = 12\n")
        with pytest.raises(ConfigError, match="banana"):
            resolve_config(f, {})

    def test_bad_value_type(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("epochs = soon\n")
        with pytest.raises(ConfigError, match="epochs"):
            resolve_config(f, {})

    def test_lambda_key_maps_to_regularization(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("lambda = 0.5\n")
        config = resolve_config(f, {})
        assert config.svm.lam == 0.5
        assert config.echo()["lambda"] == 0.5

    def test_pool_other_than_two_rejected(self):
        with pytest.raises(ConfigError, match="pool"):
            CliConfig(pool=3)

    @pytest.mark.parametrize("line, match", [
        ("epochs = -1\n", "epochs"),
        ("bias_mode = sometimes\n", "bias_mode"),
        ("lambda = -1\n", "regularization"),
        ("lbfgs_memory = 0\n", "memory"),
        ("epochs = \u0661\u0662\n", "'epochs' expects int in ASCII"),  # Arabic-Indic 12
        ("lambda = \uff11.\uff15\n", "'lambda' expects float in ASCII"),  # fullwidth 1.5
    ])
    def test_component_rejection_is_config_error(self, tmp_path, line, match):
        f = tmp_path / "c.cfg"
        f.write_text(line, encoding="utf-8")
        with pytest.raises(ConfigError, match=match):
            resolve_config(f, {})

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_rejected(self, tmp_path, key):
        f = tmp_path / "c.cfg"
        for value in ("nan", "inf", "-inf"):
            f.write_text(f"{key} = {value}\n")
            with pytest.raises(ConfigError, match=key):
                resolve_config(f, {})
            with pytest.raises(ConfigError, match=key):
                resolve_config(None, {key: float(value)})

    def test_negative_seed_rejected(self, tmp_path):
        f = tmp_path / "c.cfg"
        f.write_text("seed = -1\n")
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(f, {})
        with pytest.raises(ConfigError, match="seed"):
            resolve_config(None, {"seed": -1})

    def test_readme_defaults_table_matches_resolved_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
        table = {}
        for row in section.splitlines():
            if row.startswith("| `"):  # skips the header, the rule and the prose
                cells = [c.strip().strip("`") for c in row.strip("|").split("|")]
                table.update((k, _cell_value(v)) for k, v in zip(cells[0::2], cells[1::2]) if k)
        echo = resolve_config(None, {}).echo()
        assert sorted(table) == sorted(echo)
        for key, value in echo.items():
            assert (type(table[key]), table[key]) == (type(value), value), key


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert dispatch(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_is_usage_error(self, capsys):
        assert dispatch(["gradcheck", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_no_command_is_usage_error(self, capsys):
        assert dispatch([]) == 1

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = dispatch(["train-cae", "--train", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m.zten")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS) + ["non-utf8"])
    def test_malformed_manifest_is_data_error(self, tmp_path, capsys, case):
        manifest, out = tmp_path / "bad.json", tmp_path / "m.zten"
        if case == "non-utf8":
            manifest.write_bytes(b'{"classes": ["\xff"], "items": []}')
        else:
            write_manifest(manifest, case)
        assert dispatch(["train-cae", "--train", str(manifest), "--out", str(out), "--epochs", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {manifest}: ") and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("line", ["mu = nan", "mu = inf", "sigma = nan", "sigma = -inf"])
    def test_non_finite_synthetic_spec_is_data_error(self, tmp_path, capsys, line):
        spec, out = tmp_path / "spec.cfg", tmp_path / "data"
        spec.write_text(SYNTH_SPEC + line + "\n")
        assert dispatch(["gen-synthetic", "--spec", str(spec), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_tensor_file_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.zten"
        bad.write_bytes(b"XXXXgarbage")
        code = dispatch(["encode", "--model", str(bad), "--manifest", str(bad), "--out", str(tmp_path / "f.zten")])
        assert code == 2

    @pytest.mark.parametrize("command, label", [
        ("train-svm", 1.5), ("train-svm", float("nan")), ("train-svm", -1.0), ("evaluate", 5.0),
    ])
    def test_bad_label_in_features_file_is_data_error(self, tmp_path, capsys, command, label):
        import numpy as np

        from zbcae.pipeline import save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        features, out = tmp_path / "features.zten", tmp_path / "out"
        save_features_file(features, np.eye(3), [0.0, label, 1.0], ["a", "b"], {})
        if command == "train-svm":
            argv = ["train-svm", "--features", str(features), "--out", str(out)]
        else:
            model = tmp_path / "svm.zten"
            save_svm_checkpoint(model, SvmModel(np.eye(2, 3), np.zeros(2), ["a", "b"]), {})
            argv = ["evaluate", "--svm", str(model), "--features", str(features), "--report", str(out)]
        assert dispatch(argv) == 2
        assert "is not a class index" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("svm_classes", [list("abcd"), list("cba")], ids=["more-classes", "reordered"])
    def test_classifier_class_table_must_match_features_file(self, tmp_path, capsys, svm_classes):
        # a 4-class classifier on a 3-class file used to die with an IndexError
        # traceback, and a reordered table to report under the wrong names
        from zbcae.pipeline import save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        features, model, out = tmp_path / "features.zten", tmp_path / "svm.zten", tmp_path / "out"
        save_features_file(features, np.eye(3), [0.0, 1.0, 2.0], list("abc"), {})
        n = len(svm_classes)
        save_svm_checkpoint(model, SvmModel(np.eye(n, 3), np.arange(n, dtype=float), svm_classes), {})
        assert dispatch(["evaluate", "--svm", str(model), "--features", str(features), "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        for part in (str(model), str(features), str(svm_classes), str(list("abc"))):
            assert part in captured.err
        assert captured.out == "" and not out.exists()

    def test_evaluate_without_meta_reads_null_config(self, tmp_path, capsys):
        # the classifier's meta_json is the only record of its settings: with
        # no svm_config_echo in it, config.svm reads null like every other key
        from zbcae.pipeline import save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        features, model = tmp_path / "features.zten", tmp_path / "svm.zten"
        save_features_file(features, np.eye(3), [0.0, 1.0, 2.0], list("abc"), {})
        save_svm_checkpoint(model, SvmModel(np.eye(3), np.zeros(3), list("abc")), {})
        assert dispatch(["evaluate", "--svm", str(model), "--features", str(features)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cae"] is None
        assert report["config"] == {"filters": None, "kernel": None, "stride": None, "pad": None, "pool": None,
                                    "l2_normalize": False, "cae": None, "svm": None}
        assert list(report["config"]) == ["filters", "kernel", "stride", "pad", "pool", "l2_normalize", "cae",
                                          "svm"]
        assert report["results"]["top1_accuracy"] == 1.0

    @pytest.mark.parametrize("command", ["train-svm", "evaluate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_features_file_is_data_error(self, tmp_path, capsys, command, value):
        # evaluate used to score a NaN row as NaN and predict class 0 for it
        from zbcae.pipeline import save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        features, out = tmp_path / "features.zten", tmp_path / "out"
        x = np.eye(3)
        x[1, 2] = value
        save_features_file(features, x, [0.0, 1.0, 1.0], ["a", "b"], {})
        if command == "train-svm":
            argv = ["train-svm", "--features", str(features), "--out", str(out)]
        else:
            model = tmp_path / "svm.zten"
            save_svm_checkpoint(model, SvmModel(np.eye(2, 3), np.zeros(2), ["a", "b"]), {})
            argv = ["evaluate", "--svm", str(model), "--features", str(features), "--report", str(out)]
        assert dispatch(argv) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_loss_is_numerical_error(self, synth_dir, tmp_path, capsys, monkeypatch):
        # a diverging CLI run with the ReLU decoder collapses to a finite
        # dead fixed point rather than overflowing, so exercise the exit
        # mapping on the trainer's abort directly
        from zbcae.errors import NonFiniteLossError

        def exploding_stage(*args, **kwargs):
            raise NonFiniteLossError("non-finite reconstruction loss at epoch 3, batch 0")

        monkeypatch.setattr("zbcae.cli.train_cae_stage", exploding_stage)
        code = dispatch([
            "train-cae", "--train", str(synth_dir / "train.json"), "--out", str(tmp_path / "m.zten"),
        ])
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, geometry", [
        pytest.param("train-cae", "stride = 2\n", id="stride = 2\n"),
        pytest.param("train-cae", "pad = 0\n", id="pad = 0\n"),
        pytest.param("sweep", "stride = 2\n", id="sweep-stride = 2\n"),
    ])
    def test_untrainable_geometry_is_data_error(self, synth_dir, tmp_path, capsys, command, geometry):
        config = tmp_path / "geometry.cfg"
        config.write_text(PIPE_CONFIG + geometry)
        out = tmp_path / "out"
        if command == "train-cae":
            argv = ["train-cae", "--train", str(synth_dir / "train.json"), "--out", str(out)]
        else:
            argv = ["sweep", "--filters", "2,4", "--train", str(synth_dir / "train.json"),
                    "--test", str(synth_dir / "test.json"), "--report", str(out)]
        code = dispatch(argv + ["--config", str(config)])
        assert code == 2
        captured = capsys.readouterr()
        assert "stride 1 and pad" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("geometry", [
        "stride = 2\n", "pad = 0\n", "pad = 2\n", "kernel = 4\n", "kernel = 2\npad = 0\n",
    ])
    def test_geometry_rejected_before_manifests_are_read(self, tmp_path, capsys, geometry):
        config = tmp_path / "geometry.cfg"
        config.write_text(PIPE_CONFIG + geometry)
        missing = str(tmp_path / "missing.json")
        code = dispatch(["run-all", "--train", missing, "--test", missing, "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        assert "stride 1 and pad" in err and "missing.json" not in err

    @pytest.mark.parametrize("argv", [["--lr", "nan"], ["--lr", "inf"], ["--seed", "-1"]],
                             ids=["lr-nan", "lr-inf", "seed-negative"])
    def test_bad_flag_value_is_config_error(self, tmp_path, capsys, argv):
        missing = str(tmp_path / "missing.json")
        code = dispatch(["train-cae", "--train", missing, "--out", str(tmp_path / "m.zten"), *argv])
        assert code == 2
        err = capsys.readouterr().err
        assert ("learning_rate" if argv[0] == "--lr" else "seed") in err and "missing.json" not in err

    @pytest.mark.parametrize("record, value", [
        ("encoder_weights", "nan"),
        ("encoder_weights", "3-d"),
        ("encoder_bias", "short"),
        ("weights", "inf"),
        ("biases", "short"),
        ("class_names_json", "short"),
        ("class_names_json", "not-strings"),
    ], ids=["encoder_weights-nan", "encoder_weights-3d", "encoder_bias-short", "weights-inf", "biases-short",
            "class_names_json-short", "class_names_json-not-strings"])
    def test_bad_model_array_in_checkpoint_is_data_error(self, synth_dir, tmp_path, capsys, record, value):
        # arrays that make no model used to fail in the model's constructor,
        # with a message that did not name the file
        from zbcae.cae import init_model
        from zbcae.pipeline import _json_record, save_cae_checkpoint, save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel
        from zbcae.tensorfile import load_tensors, save_tensors

        model, out = tmp_path / "model.zten", tmp_path / "out"
        if record in ("encoder_weights", "encoder_bias"):
            save_cae_checkpoint(model, init_model(2, 4, 3, seed=0), {})
            argv = ["encode", "--model", str(model), "--manifest", str(synth_dir / "test.json"), "--out", str(out)]
        else:
            features = tmp_path / "features.zten"
            save_features_file(features, np.eye(2, 3), [0.0, 1.0], ["a", "b"], {})
            save_svm_checkpoint(model, SvmModel(np.eye(2, 3), np.zeros(2), ["a", "b"]), {})
            argv = ["evaluate", "--svm", str(model), "--features", str(features), "--report", str(out)]
        records = load_tensors(model)
        if value in ("nan", "inf"):
            records[record] = records[record].copy()
            records[record].flat[1] = float(value)
        elif value == "3-d":
            records[record] = records[record][0]
        elif record == "class_names_json":
            records[record] = _json_record(["a"] if value == "short" else [1, None])
        else:
            records[record] = records[record][:-1]
        save_tensors(model, records)
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {model}: ") and "Traceback" not in captured.err
        assert captured.out == "" and not out.exists()

    def test_encode_channel_mismatch_names_both_files(self, synth_dir, tmp_path, capsys):
        # used to fail inside the convolution as "input has 4 channels but
        # weights expect 5", naming neither file
        from zbcae.cae import init_model
        from zbcae.pipeline import save_cae_checkpoint

        model, out, manifest = tmp_path / "model.zten", tmp_path / "out", synth_dir / "test.json"
        save_cae_checkpoint(model, init_model(2, 5, 3, seed=0), {})
        assert dispatch(["encode", "--model", str(model), "--manifest", str(manifest), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        for part in (str(model), str(manifest), "5-channel", "4-channel"):
            assert part in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("command", ["train-cae", "encode", "run-all"])
    def test_zero_extent_maps_are_data_error(self, tmp_path, capsys, command):
        # maps of shape (2, 0, 3) used to die in cae.chunk_size with a
        # ZeroDivisionError traceback
        from zbcae.cae import init_model
        from zbcae.dataset import DatasetManifest, ManifestItem, save_manifest
        from zbcae.pipeline import save_cae_checkpoint
        from zbcae.tensorfile import save_tensors

        data, manifest, model, out = (tmp_path / name for name in ("maps.zten", "maps.json", "model.zten", "out"))
        save_tensors(data, {"r": np.zeros((2, 0, 3))})
        items = [ManifestItem("maps.zten", "r", 0), ManifestItem("maps.zten", "r", 1)]
        save_manifest(DatasetManifest(["a", "b"], items, tmp_path), manifest)
        save_cae_checkpoint(model, init_model(2, 2, 3, seed=0), {})
        argv = {
            "train-cae": ["train-cae", "--train", str(manifest), "--out", str(out), "--epochs", "1"],
            "encode": ["encode", "--model", str(model), "--manifest", str(manifest), "--out", str(out)],
            "run-all": ["run-all", "--train", str(manifest), "--test", str(manifest), "--report", str(out)],
        }[command]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {data}: ") and "Traceback" not in captured.err
        assert "'r'" in captured.err
        assert captured.out == "" and not out.exists()

    def test_evaluate_dimension_mismatch_names_both_files(self, tmp_path, capsys):
        from zbcae.pipeline import save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        features, model, out = tmp_path / "features.zten", tmp_path / "svm.zten", tmp_path / "out"
        save_features_file(features, np.eye(2, 4), [0.0, 1.0], ["a", "b"], {})
        save_svm_checkpoint(model, SvmModel(np.eye(2, 3), np.zeros(2), ["a", "b"]), {})
        assert dispatch(["evaluate", "--svm", str(model), "--features", str(features), "--report", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        for part in (str(model), str(features), "takes 3 features", "has 4"):
            assert part in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("kind", ["model", "features", "classifier"])
    def test_meta_record_that_is_not_an_object_is_data_error(self, synth_dir, tmp_path, capsys, kind):
        # valid JSON that is not an object used to reach {**meta, ...} as a
        # TypeError traceback (exit 1)
        from zbcae.cae import init_model
        from zbcae.pipeline import save_cae_checkpoint, save_features_file, save_svm_checkpoint
        from zbcae.svm import SvmModel

        bad, out = tmp_path / f"{kind}.zten", tmp_path / "out"
        if kind == "model":
            save_cae_checkpoint(bad, init_model(2, 4, 3, seed=0), [1, 2])
            argv = ["encode", "--model", str(bad), "--manifest", str(synth_dir / "test.json"), "--out", str(out)]
        elif kind == "features":
            save_features_file(bad, np.eye(2, 3), [0.0, 1.0], ["a", "b"], [1, 2])
            argv = ["train-svm", "--features", str(bad), "--out", str(out)]
        else:
            features = tmp_path / "features.zten"
            save_features_file(features, np.eye(2, 3), [0.0, 1.0], ["a", "b"], {})
            save_svm_checkpoint(bad, SvmModel(np.eye(2, 3), np.zeros(2), ["a", "b"]), [1, 2])
            argv = ["evaluate", "--svm", str(bad), "--features", str(features), "--report", str(out)]
        assert dispatch(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert str(bad) in captured.err and "record 'meta_json' is not a JSON object" in captured.err
        assert captured.out == "" and not out.exists()

    def test_unset_pad_follows_kernel(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "kernel.cfg"
        config.write_text(PIPE_CONFIG.replace("epochs = 30", "epochs = 2") + "kernel = 5\n")
        report = tmp_path / "report.json"
        code = dispatch(["run-all", "--train", str(synth_dir / "train.json"),
                         "--test", str(synth_dir / "test.json"),
                         "--config", str(config), "--report", str(report)])
        assert code == 0
        capsys.readouterr()
        echo = json.loads(report.read_text())["config"]
        assert (echo["kernel"], echo["stride"], echo["pad"]) == (5, 1, 2)
        assert resolve_config(config, {}).echo()["pad"] == 2

    def test_solver_warning_keeps_stderr_json(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "pipe.cfg"
        config.write_text(PIPE_CONFIG.replace("epochs = 30", "epochs = 2") + "lbfgs_max_iters = 1\n")
        code = dispatch(["run-all", "--train", str(synth_dir / "train.json"),
                         "--test", str(synth_dir / "test.json"), "--config", str(config)])
        assert code == 0
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        warnings = [line for line in lines if "warning" in line]
        assert len(warnings) == 1 and warnings[0]["category"] == "UserWarning"
        assert "max_iters after 1 iterations" in warnings[0]["warning"]

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        assert "COMMAND" in capsys.readouterr().out


class TestCommands:
    def test_gen_synthetic_emits_json(self, synth_dir, capsys):
        spec_file = synth_dir.parent / "spec.cfg"
        code = dispatch(["gen-synthetic", "--spec", str(spec_file), "--out", str(synth_dir.parent / "again")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_train"] == 16
        assert doc["n_test"] == 4
        assert doc["classes"] == ["class_0", "class_1"]

    def test_gradcheck_emits_four_errors(self, capsys):
        assert dispatch(["gradcheck", "--seed", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"cae_weights", "cae_biases", "svm_weights", "svm_biases"}
        assert doc["cae_weights"] < 1e-4
        assert doc["svm_weights"] < 1e-6

    def test_staged_pipeline_and_progress_lines(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "pipe.cfg"
        config.write_text(PIPE_CONFIG)
        model = tmp_path / "cae.zten"
        code = dispatch(["train-cae", "--train", str(synth_dir / "train.json"),
                         "--out", str(model), "--config", str(config)])
        assert code == 0
        captured = capsys.readouterr()
        summary = json.loads(captured.out)
        assert summary["epochs_run"] == 30
        assert summary["final_mean_loss"] < summary["initial_mean_loss"]
        progress = [json.loads(line) for line in captured.err.splitlines() if line.strip()]
        assert len(progress) == 30
        assert {"epoch", "mean_loss", "lr"} <= set(progress[0])

        train_feats = tmp_path / "train_feats.zten"
        test_feats = tmp_path / "test_feats.zten"
        for manifest, out in (("train.json", train_feats), ("test.json", test_feats)):
            code = dispatch(["encode", "--model", str(model),
                             "--manifest", str(synth_dir / manifest), "--out", str(out)])
            assert code == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["feature_dim"] == 4 * 2 * 2

        svm = tmp_path / "svm.zten"
        code = dispatch(["train-svm", "--features", str(train_feats),
                         "--out", str(svm), "--config", str(config)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["lambda"] == 1.0

        report_path = tmp_path / "report.json"
        code = dispatch(["evaluate", "--svm", str(svm), "--features", str(test_feats),
                         "--report", str(report_path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["results"]["top1_accuracy"] >= 0.75
        assert report_path.read_text() == json.dumps(report, indent=2) + "\n"

    def test_run_all_matches_staged_chain(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "pipe.cfg"
        config.write_text(PIPE_CONFIG)

        model, train_feats, test_feats, svm = (
            tmp_path / n for n in ("cae.zten", "trf.zten", "tef.zten", "svm.zten")
        )
        staged_report = tmp_path / "staged.json"
        for argv in (
            ["train-cae", "--train", str(synth_dir / "train.json"), "--out", str(model), "--config", str(config)],
            ["encode", "--model", str(model), "--manifest", str(synth_dir / "train.json"), "--out", str(train_feats)],
            ["encode", "--model", str(model), "--manifest", str(synth_dir / "test.json"), "--out", str(test_feats)],
            ["train-svm", "--features", str(train_feats), "--out", str(svm), "--config", str(config)],
            ["evaluate", "--svm", str(svm), "--features", str(test_feats), "--report", str(staged_report)],
        ):
            assert dispatch(argv) == 0
        capsys.readouterr()

        all_report = tmp_path / "all.json"
        code = dispatch(["run-all", "--train", str(synth_dir / "train.json"),
                         "--test", str(synth_dir / "test.json"),
                         "--config", str(config), "--report", str(all_report)])
        assert code == 0
        capsys.readouterr()
        assert staged_report.read_bytes() == all_report.read_bytes()

    def test_checkpoints_in_the_older_layout_give_the_same_bytes(self, synth_dir, tmp_path, capsys):
        # checkpoints once also held the records conv_stride, conv_pad,
        # bias_mode and decoder_relu (CAE) and lambda (classifier); the
        # loaders ignore records they do not read
        from zbcae.tensorfile import load_tensors, save_tensors

        config = tmp_path / "pipe.cfg"
        config.write_text(PIPE_CONFIG.replace("epochs = 30", "epochs = 2"))
        model, old_model, svm, old_svm = (tmp_path / n for n in ("cae.zten", "cae_old.zten", "svm.zten",
                                                                  "svm_old.zten"))
        assert dispatch(["train-cae", "--train", str(synth_dir / "train.json"), "--out", str(model),
                         "--config", str(config)]) == 0
        r = load_tensors(model)
        save_tensors(old_model, {
            "encoder_weights": r["encoder_weights"], "encoder_bias": r["encoder_bias"],
            "decoder_bias": r["decoder_bias"], "conv_stride": np.array([1.0]), "conv_pad": np.array([1.0]),
            "bias_mode": np.array([0.0]), "decoder_relu": np.array([1.0]), "meta_json": r["meta_json"],
        })
        capsys.readouterr()

        features = {}
        for layout, path in (("new", model), ("old", old_model)):
            for split in ("train", "test"):
                out = tmp_path / f"{split}_{layout}.zten"
                assert dispatch(["encode", "--model", str(path), "--manifest", str(synth_dir / f"{split}.json"),
                                 "--out", str(out)]) == 0
                features[layout, split] = out.read_bytes(), capsys.readouterr().out.replace(str(out), "OUT")
        for split in ("train", "test"):
            assert features["old", split] == features["new", split]

        assert dispatch(["train-svm", "--features", str(tmp_path / "train_new.zten"), "--out", str(svm),
                         "--config", str(config)]) == 0
        r = load_tensors(svm)
        save_tensors(old_svm, {
            "weights": r["weights"], "biases": r["biases"], "lambda": np.array([1.0]),
            "class_names_json": r["class_names_json"], "meta_json": r["meta_json"],
        })
        capsys.readouterr()
        reports = []
        for path in (svm, old_svm):
            assert dispatch(["evaluate", "--svm", str(path), "--features", str(tmp_path / "test_new.zten")]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["config"]["svm"]["lambda"] == 1.0

    def test_sweep_structure(self, synth_dir, tmp_path, capsys):
        config = tmp_path / "pipe.cfg"
        config.write_text(PIPE_CONFIG.replace("epochs = 30", "epochs = 10"))
        code = dispatch(["sweep", "--filters", "2,4",
                         "--train", str(synth_dir / "train.json"),
                         "--test", str(synth_dir / "test.json"),
                         "--config", str(config)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["filters"] for row in doc["rows"]] == [2, 4]
        assert all("top1_accuracy" in row for row in doc["rows"])

    def test_sweep_rejects_bad_filter_list(self, synth_dir, capsys):
        code = dispatch(["sweep", "--filters", "a,b",
                         "--train", str(synth_dir / "train.json"),
                         "--test", str(synth_dir / "test.json")])
        assert code == 1

    @pytest.mark.parametrize("filters", ["4,0", "-2", "4,-1,8"])
    def test_sweep_rejects_non_positive_filter_count(self, tmp_path, capsys, filters):
        # rejected as usage before the (missing) manifests are read and K=4 trains
        missing = str(tmp_path / "missing.json")
        assert dispatch(["sweep", "--filters", filters, "--train", missing, "--test", missing]) == 1
        captured = capsys.readouterr()
        assert "--filters" in captured.err and "missing.json" not in captured.err
        assert '"epoch"' not in captured.err and captured.out == ""

    def test_sweep_accepts_reference_filter_list(self, tmp_path, capsys):
        # 512,1024,2048,4096 parses as a K list; the missing manifest then
        # fails as a data error (2), past the usage stage (1)
        code = dispatch(["sweep", "--filters", "512,1024,2048,4096",
                         "--train", str(tmp_path / "none.json"),
                         "--test", str(tmp_path / "none.json")])
        assert code == 2


class TestConsoleEntry:
    def test_module_invocation_with_thread_cap(self, tmp_path):
        import subprocess
        import sys

        env = dict(os.environ, ZBCAE_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "zbcae.cli", "gradcheck", "--seed", "1"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["cae_weights"] < 1e-4

    @pytest.mark.parametrize("threads", ["abc", "-1", "2.5"])
    def test_malformed_thread_cap_is_config_error(self, threads):
        # such values used to be copied into the BLAS variables, and the command ran
        import subprocess
        import sys

        blas_vars = ["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"]
        env = {k: v for k, v in os.environ.items() if k not in blas_vars}
        env["ZBCAE_THREADS"] = threads
        script = ("import json, os, sys\n"
                  "from zbcae.cli import dispatch\n"
                  f"print(json.dumps([os.environ.get(v) for v in {blas_vars!r}]))\n"
                  "sys.exit(dispatch(['gradcheck', '--seed', '0']))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 2
        assert json.loads(proc.stdout) == [None] * 4
        assert proc.stderr == f"error: ZBCAE_THREADS must be unset or a non-negative integer, got {threads!r}\n"

    def test_staged_svm_reports_identical_across_thread_counts(self, tmp_path):
        # eigh and GEMM bits may depend on the BLAS thread count, so the
        # model may too; the report must not
        import subprocess
        import sys

        import zbcae
        from zbcae.pipeline import save_features_file

        rng = np.random.default_rng(80)
        classes = [f"class_{c}" for c in range(10)]
        for split, n in (("train", 300), ("test", 100)):
            labels = np.arange(n) % 10
            x = rng.normal(size=(n, 1024))
            for c in range(10):
                x[labels == c, 102 * c:102 * (c + 1)] += 0.5
            save_features_file(tmp_path / f"{split}.zten", np.maximum(x, 0.0), labels, classes, {})
        src = str(Path(zbcae.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, ZBCAE_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            model, report = tmp_path / f"svm{threads}.zten", tmp_path / f"report{threads}.json"
            for argv in (["train-svm", "--features", str(tmp_path / "train.zten"), "--out", str(model)],
                         ["evaluate", "--svm", str(model), "--features", str(tmp_path / "test.zten"),
                          "--report", str(report)]):
                proc = subprocess.run([sys.executable, "-m", "zbcae.cli", *argv],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 0, proc.stderr
                assert proc.stderr == ""  # converged: no solver warning line
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["results"]["n_test"] == 100
