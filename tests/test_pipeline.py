"""Pipeline tests: checkpoint round trips, report construction, end-to-end
runs on a small synthetic set, sweep structure, gradient-check harness."""

import numpy as np
import numpy.testing as npt
import pytest

from zbcae import cae
from zbcae.cae import CaeTrainConfig, extract_features, init_model
from zbcae.dataset import SyntheticSpec, gen_synthetic, load_dataset
from zbcae.errors import ShapeError, TensorFileError
from zbcae.gradcheck import _max_rel, gradcheck_report
from zbcae.pipeline import (
    _json_record,
    evaluate_features,
    extract_stage,
    filter_size_sweep,
    l2_normalize_rows,
    load_cae_checkpoint,
    load_features_file,
    load_svm_checkpoint,
    run_pipeline,
    save_cae_checkpoint,
    save_features_file,
    save_svm_checkpoint,
    train_cae_stage,
)
from zbcae.svm import SvmModel, SvmTrainConfig
from zbcae.tensorfile import load_tensors, save_tensors


@pytest.fixture(scope="module")
def small_synthetic(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    spec = SyntheticSpec(
        n_classes=2, samples_per_class=10, channels=4, height=4, width=4, mu=2.0, sigma=1.0, seed=3
    )
    return gen_synthetic(spec, out)


def small_cae_config(**overrides):
    base = dict(epochs=30, batch_size=4, learning_rate=2e-4, seed=0)
    base.update(overrides)
    return CaeTrainConfig(**base)


class TestCheckpoints:
    def test_cae_checkpoint_round_trip(self, tmp_path):
        model = init_model(3, 2, 3, seed=5)
        model.b_e[:] = [0.1, -0.2, 0.3]
        meta = {"filters": 3, "note": "round trip"}
        path = tmp_path / "model.zten"
        save_cae_checkpoint(path, model, meta)
        loaded, loaded_meta = load_cae_checkpoint(path)
        npt.assert_array_equal(loaded.w_e, model.w_e)
        npt.assert_array_equal(loaded.b_e, model.b_e)
        assert loaded.kernel == model.kernel
        assert loaded_meta == meta
        assert list(load_tensors(path)) == ["encoder_weights", "encoder_bias", "decoder_bias", "meta_json"]

    def test_cae_checkpoint_missing_record(self, tmp_path):
        from zbcae.tensorfile import save_tensors

        save_tensors(tmp_path / "bad.zten", {"encoder_weights": np.zeros((1, 1, 3, 3))})
        with pytest.raises(TensorFileError, match="missing record"):
            load_cae_checkpoint(tmp_path / "bad.zten")

    def test_svm_checkpoint_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        model = SvmModel(weights=rng.normal(size=(3, 5)), biases=rng.normal(size=3), class_names=["a", "b", "c"])
        path = tmp_path / "svm.zten"
        save_svm_checkpoint(path, model, meta={"stage": "svm"})
        loaded, meta = load_svm_checkpoint(path)
        npt.assert_array_equal(loaded.weights, model.weights)
        npt.assert_array_equal(loaded.biases, model.biases)
        assert loaded.class_names == ["a", "b", "c"]
        assert meta == {"stage": "svm"}
        assert list(load_tensors(path)) == ["weights", "biases", "class_names_json", "meta_json"]

    def test_features_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        feats = rng.normal(size=(6, 9))
        labels = np.array([0, 1, 2, 0, 1, 2])
        path = tmp_path / "features.zten"
        save_features_file(path, feats, labels, ["x", "y", "z"], {"l2": False})
        f2, l2, classes, meta = load_features_file(path)
        npt.assert_array_equal(f2, feats)
        npt.assert_array_equal(l2, labels)
        assert classes == ["x", "y", "z"]
        assert meta == {"l2": False}

    @staticmethod
    def features_file(path, **records):
        """A features file whose records are the valid ones overridden by
        ``records`` (raw float64 values, written without validation)."""
        base = {
            "features": np.zeros((3, 2)),
            "labels": np.array([0.0, 1.0, 1.0]),
            "class_names_json": _json_record(["a", "b"]),
            "meta_json": _json_record({}),
        }
        save_tensors(path, {**base, **records})
        return path

    @pytest.mark.parametrize("name", ["class_names_json", "meta_json"])
    @pytest.mark.parametrize("values, message", [
        pytest.param([123.0, 300.0, 125.0], "not a byte", id="above-255"),
        pytest.param([123.0, -1.0, 125.0], "not a byte", id="negative"),
        pytest.param([123.0, 44.5, 125.0], "not a byte", id="non-integral"),
        pytest.param([123.0, np.nan, 125.0], "not a byte", id="nan"),
        pytest.param([123.0, np.inf, 125.0], "not a byte", id="inf"),
        pytest.param([91.0, 255.0, 93.0], "not UTF-8 JSON", id="bad-utf8"),
        pytest.param([123.0, 44.0, 125.0], "not UTF-8 JSON", id="bad-json"),
    ])
    def test_malformed_json_record_is_typed_error(self, tmp_path, name, values, message):
        path = self.features_file(tmp_path / "f.zten", **{name: np.array(values)})
        with pytest.raises(TensorFileError, match=f"'{name}' .*{message}"):
            load_features_file(path)

    @pytest.mark.parametrize("label", [1.5, np.nan, np.inf, -1.0, 2.0])
    def test_label_that_is_not_a_class_index_is_typed_error(self, tmp_path, label):
        path = self.features_file(tmp_path / "f.zten", labels=np.array([0.0, label, 1.0]))
        with pytest.raises(TensorFileError, match="label .* is not a class index"):
            load_features_file(path)

    @staticmethod
    def svm_checkpoint(path, **records):
        """A classifier checkpoint with ``records`` overwritten after saving."""
        save_svm_checkpoint(path, SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["a", "b"]), {})
        save_tensors(path, {**load_tensors(path), **records})
        return path

    def test_non_list_class_table_is_typed_error(self, tmp_path):
        with pytest.raises(TensorFileError, match="not a list"):
            load_features_file(self.features_file(tmp_path / "f.zten", class_names_json=_json_record(2)))
        with pytest.raises(TensorFileError, match="not a list"):
            load_svm_checkpoint(self.svm_checkpoint(tmp_path / "svm.zten", class_names_json=_json_record(2)))

    def test_non_string_class_name_is_typed_error(self, tmp_path):
        # the manifest's rule: a class table is a list of strings
        features = self.features_file(tmp_path / "f.zten", class_names_json=_json_record([1, None]))
        with pytest.raises(TensorFileError, match=f"{features}: .*list of strings"):
            load_features_file(features)
        classifier = self.svm_checkpoint(tmp_path / "svm.zten", class_names_json=_json_record([1, None]))
        with pytest.raises(TensorFileError, match=f"{classifier}: .*list of strings"):
            load_svm_checkpoint(classifier)

    def test_checkpoint_json_records_are_validated(self, tmp_path):
        path = self.svm_checkpoint(tmp_path / "svm.zten", meta_json=_json_record({}) + 256.0)
        with pytest.raises(TensorFileError, match="'meta_json' .*not a byte"):
            load_svm_checkpoint(path)

    def test_unicode_class_names_survive(self, tmp_path):
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=["naïve", "클래스"])
        save_svm_checkpoint(tmp_path / "svm.zten", model, {})
        loaded, _ = load_svm_checkpoint(tmp_path / "svm.zten")
        assert loaded.class_names == ["naïve", "클래스"]


class TestNormalization:
    def test_rows_become_unit_norm(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 7))
        normed = l2_normalize_rows(x)
        npt.assert_allclose(np.linalg.norm(normed, axis=1), np.ones(5), rtol=1e-12)

    def test_zero_rows_stay_zero(self):
        x = np.zeros((2, 4))
        x[1, 0] = 3.0
        normed = l2_normalize_rows(x)
        npt.assert_array_equal(normed[0], np.zeros(4))
        npt.assert_allclose(np.linalg.norm(normed[1]), 1.0)


class TestEvaluateFeatures:
    def test_confusion_row_sums_equal_class_counts(self):
        rng = np.random.default_rng(9)
        model = SvmModel(weights=rng.normal(size=(3, 4)), biases=rng.normal(size=3), class_names=list("abc"))
        feats = rng.normal(size=(30, 4))
        labels = rng.integers(0, 3, size=30)
        report = evaluate_features(model, feats, labels, {})
        confusion = np.array(report.confusion)
        npt.assert_array_equal(confusion.sum(axis=1), np.bincount(labels, minlength=3))
        assert confusion.sum() == report.n_test == 30

    def test_perfect_predictor_fills_diagonal(self):
        # features one-hot on the true class; identity weights predict exactly
        labels = np.array([0, 1, 2, 1, 0])
        feats = np.eye(3)[labels]
        model = SvmModel(weights=np.eye(3), biases=np.zeros(3), class_names=list("abc"))
        report = evaluate_features(model, feats, labels, {})
        assert report.top1 == 1.0
        assert report.per_class_accuracy == [1.0, 1.0, 1.0]
        npt.assert_array_equal(np.array(report.confusion), np.diag([2, 2, 1]))

    @pytest.mark.parametrize("bad", [-1, 0.5, 2])
    def test_label_that_is_no_class_index_is_shape_error(self, bad):
        model = SvmModel(weights=np.eye(2), biases=np.zeros(2), class_names=list("ab"))
        with pytest.raises(ShapeError, match="not a class index"):
            evaluate_features(model, np.eye(3, 2), np.array([0, 1, bad]), {})


class TestStages:
    def test_stages_take_the_loaded_array(self, small_synthetic):
        train_m, test_m = small_synthetic
        tensors, _ = load_dataset(train_m)
        model, meta = train_cae_stage(tensors, small_cae_config(epochs=2), 4)
        assert model.w_e.shape == (4, 4, 3, 3)
        assert meta["cae_summary"]["epochs_run"] == 2
        test_tensors, _ = load_dataset(test_m)
        features = extract_stage(model, test_tensors, l2_normalize=True)
        expected = l2_normalize_rows(np.stack([extract_features(model, t) for t in test_tensors]))
        npt.assert_allclose(features, expected, rtol=1e-12)


class TestRunPipeline:
    def test_learns_synthetic_signal(self, small_synthetic):
        train_m, test_m = small_synthetic
        report = run_pipeline(train_m, test_m, small_cae_config(), SvmTrainConfig(), 4)
        assert report.top1 >= 0.75
        assert report.feature_dim == 4 * 2 * 2
        assert report.cae_summary["final_mean_loss"] < report.cae_summary["initial_mean_loss"]
        assert report.config_echo["filters"] == 4
        assert report.config_echo["l2_normalize"] is False

    def test_two_runs_are_byte_identical(self, small_synthetic):
        train_m, test_m = small_synthetic
        a = run_pipeline(train_m, test_m, small_cae_config(), SvmTrainConfig(), 4)
        b = run_pipeline(train_m, test_m, small_cae_config(), SvmTrainConfig(), 4)
        assert a.to_json() == b.to_json()

    def test_l2_normalization_is_echoed(self, small_synthetic):
        train_m, test_m = small_synthetic
        report = run_pipeline(train_m, test_m, small_cae_config(), SvmTrainConfig(), 4, l2_normalize=True)
        assert report.config_echo["l2_normalize"] is True

    def test_swapped_manifests_still_run(self, small_synthetic):
        train_m, test_m = small_synthetic
        report = run_pipeline(test_m, train_m, small_cae_config(epochs=5), SvmTrainConfig(), 4)
        assert report.n_test == len(train_m)

    def test_each_manifest_is_loaded_once(self, small_synthetic, monkeypatch):
        import zbcae.pipeline as pipeline_mod

        loaded = []
        real = pipeline_mod.load_dataset

        def counting_load(manifest):
            loaded.append(id(manifest))
            return real(manifest)

        monkeypatch.setattr(pipeline_mod, "load_dataset", counting_load)
        train_m, test_m = small_synthetic
        run_pipeline(train_m, test_m, small_cae_config(epochs=2), SvmTrainConfig(), 4)
        assert sorted(loaded) == sorted([id(train_m), id(test_m)])
        loaded.clear()  # a sweep too loads each manifest once, however many filter counts it runs
        filter_size_sweep(train_m, test_m, small_cae_config(epochs=2), SvmTrainConfig(), [2, 4, 8])
        assert sorted(loaded) == sorted([id(train_m), id(test_m)])

    def test_mismatched_class_tables_rejected(self, small_synthetic, tmp_path):
        train_m, _ = small_synthetic
        other_spec = SyntheticSpec(n_classes=3, samples_per_class=5, channels=6, height=4, width=4, seed=1)
        other_train, _ = gen_synthetic(other_spec, tmp_path)
        with pytest.raises(ShapeError, match="class tables"):
            run_pipeline(train_m, other_train, small_cae_config(epochs=1), SvmTrainConfig(), 4)

    @pytest.mark.parametrize("field", ["channels", "height"])
    def test_mismatched_sample_shapes_rejected_before_training(self, small_synthetic, tmp_path, monkeypatch,
                                                                field):
        train_m, _ = small_synthetic
        spec = SyntheticSpec(n_classes=2, samples_per_class=5, channels=4, height=4, width=4, seed=1)
        _, other_test = gen_synthetic(SyntheticSpec(**{**spec.__dict__, field: 6}), tmp_path)

        def no_training(*args, **kwargs):
            raise AssertionError("cae.train ran before the sample shapes were checked")

        monkeypatch.setattr(cae, "train", no_training)
        with pytest.raises(ShapeError, match="one sample shape"):
            run_pipeline(train_m, other_test, small_cae_config(epochs=1), SvmTrainConfig(), 4)
        with pytest.raises(ShapeError, match="one sample shape"):
            filter_size_sweep(train_m, other_test, small_cae_config(epochs=1), SvmTrainConfig(), [2, 4])


class TestFilterSizeSweep:
    def test_three_row_table(self, small_synthetic):
        train_m, test_m = small_synthetic
        reports = filter_size_sweep(train_m, test_m, small_cae_config(epochs=10), SvmTrainConfig(), [2, 4, 8])
        assert [r.config_echo["filters"] for r in reports] == [2, 4, 8]
        assert all(0.0 <= r.top1 <= 1.0 for r in reports)
        assert [r.feature_dim for r in reports] == [8, 16, 32]

    def test_singleton_sweep_matches_single_run(self, small_synthetic):
        train_m, test_m = small_synthetic
        reports = filter_size_sweep(train_m, test_m, small_cae_config(), SvmTrainConfig(), [4])
        single = run_pipeline(train_m, test_m, small_cae_config(), SvmTrainConfig(), 4)
        assert len(reports) == 1
        assert reports[0].to_json() == single.to_json()

    def test_empty_k_list_rejected(self, small_synthetic):
        train_m, test_m = small_synthetic
        with pytest.raises(ValueError, match="non-empty"):
            filter_size_sweep(train_m, test_m, small_cae_config(), SvmTrainConfig(), [])


class TestGradcheckReport:
    def test_groups_within_tolerances(self):
        report = gradcheck_report(seed=1)
        assert set(report) == {"cae_weights", "cae_biases", "svm_weights", "svm_biases"}
        assert report["cae_weights"] < 1e-4
        assert report["cae_biases"] < 1e-4
        assert report["svm_weights"] < 1e-6
        assert report["svm_biases"] < 1e-6

    def test_guarded_denominator_reports_zero_at_zero_gradient(self):
        assert _max_rel(np.zeros(4), np.zeros(4)) == 0.0
