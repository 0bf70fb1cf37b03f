"""Manifest and synthetic-generator tests."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from zbcae.dataset import (
    DatasetManifest,
    ManifestItem,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    load_manifest,
    save_manifest,
)
from zbcae.config import parse_synthetic_spec
from zbcae.errors import ConfigError, ManifestError
from zbcae.tensorfile import save_tensors

ITEM = '{"path": "a.zten", "record": "r", "label": 1}'

# (manifest text, what the error must say); each was once accepted as
# class 1 or escaped as a non-package exception
MALFORMED_MANIFESTS = {
    "label-float": (ITEM.replace('"label": 1', '"label": 1.5'), "item 0 label 1.5"),
    "label-true": (ITEM.replace('"label": 1', '"label": true'), "item 0 label True"),
    "label-string": (ITEM.replace('"label": 1', '"label": "1"'), "item 0 label '1'"),
    "label-nan": (ITEM.replace('"label": 1', '"label": NaN'), "item 0 label nan"),
    "items-number": (None, "'items' must be a list"),
    "path-number": (ITEM.replace('"a.zten"', "5"), "item 0 'path' and 'record' must be strings"),
    "path-nul": (ITEM.replace('"a.zten"', '"x\\u0000y.zten"'), "item 0 'path' 'x\\x00y.zten' contains a NUL"),
}


def write_manifest(path, case):
    item, _ = MALFORMED_MANIFESTS[case]
    items = "5" if item is None else f"[{item}]"
    path.write_text(f'{{"classes": ["a", "b"], "items": {items}}}', encoding="utf-8")
    return path


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = DatasetManifest(
            classes=["cat", "dog"],
            items=[ManifestItem("a.zten", "feature_map", 0), ManifestItem("b.zten", "feature_map", 1)],
            base_dir=tmp_path,
        )
        save_manifest(manifest, tmp_path / "m.json")
        loaded = load_manifest(tmp_path / "m.json")
        assert loaded.classes == ["cat", "dog"]
        assert loaded.items == manifest.items
        assert loaded.base_dir == tmp_path

    def test_label_out_of_range(self, tmp_path):
        doc = {"classes": ["only"], "items": [{"path": "a.zten", "record": "r", "label": 3}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="label 3"):
            load_manifest(tmp_path / "m.json")

    def test_invalid_json(self, tmp_path):
        (tmp_path / "m.json").write_text("{nope")
        with pytest.raises(ManifestError, match="JSON"):
            load_manifest(tmp_path / "m.json")

    @pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
    def test_malformed_manifest_names_file_and_item(self, tmp_path, case):
        path = write_manifest(tmp_path / "bad.json", case)
        with pytest.raises(ManifestError) as info:
            load_manifest(path)
        assert str(info.value).startswith(f"{path}: ")
        assert MALFORMED_MANIFESTS[case][1] in str(info.value)

    def test_non_utf8_manifest_names_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"classes": ["\xff"], "items": []}')
        with pytest.raises(ManifestError, match=r"bad\.json: not valid UTF-8 JSON"):
            load_manifest(path)

    def test_missing_item_field(self, tmp_path):
        doc = {"classes": ["a"], "items": [{"path": "a.zten", "label": 0}]}
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(ManifestError, match="item 0"):
            load_manifest(tmp_path / "m.json")

    def test_load_dataset_checks_record_and_shape(self, tmp_path):
        save_tensors(tmp_path / "a.zten", {"r": np.zeros((2, 3, 3))})
        save_tensors(tmp_path / "b.zten", {"r": np.zeros((2, 4, 4))})
        manifest = DatasetManifest(
            classes=["x", "y"],
            items=[ManifestItem("a.zten", "r", 0), ManifestItem("b.zten", "r", 1)],
            base_dir=tmp_path,
        )
        with pytest.raises(ManifestError, match="shape"):
            load_dataset(manifest)
        manifest.items[1] = ManifestItem("a.zten", "missing", 1)
        with pytest.raises(ManifestError, match="no record named 'missing'"):
            load_dataset(manifest)

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0), (0, 3, 3)])
    def test_load_dataset_rejects_maps_without_values(self, tmp_path, shape):
        save_tensors(tmp_path / "a.zten", {"r": np.zeros(shape)})
        manifest = DatasetManifest(classes=["x"], items=[ManifestItem("a.zten", "r", 0)], base_dir=tmp_path)
        with pytest.raises(ManifestError, match=r"a\.zten: record 'r' has shape .* no values"):
            load_dataset(manifest)

    def test_load_dataset_rejects_manifest_without_items(self, tmp_path):
        manifest = DatasetManifest(classes=["x", "y"], items=[], base_dir=tmp_path)
        with pytest.raises(ManifestError, match="no items"):
            load_dataset(manifest)

    def test_load_dataset_returns_labels_in_order(self, tmp_path):
        for name, fill in (("a", 1.0), ("b", 2.0)):
            save_tensors(tmp_path / f"{name}.zten", {"r": np.full((1, 2, 2), fill)})
        manifest = DatasetManifest(
            classes=["x", "y"],
            items=[ManifestItem("b.zten", "r", 1), ManifestItem("a.zten", "r", 0)],
            base_dir=tmp_path,
        )
        tensors, labels = load_dataset(manifest)
        npt.assert_array_equal(labels, [1, 0])
        assert tensors[0][0, 0, 0] == 2.0


class TestSyntheticSpec:
    def test_rejects_more_classes_than_channels(self):
        with pytest.raises(ManifestError, match="channel block"):
            SyntheticSpec(n_classes=5, channels=4)

    def test_zero_mu_is_allowed_for_controls(self):
        SyntheticSpec(mu=0.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ManifestError, match="sigma"):
            SyntheticSpec(sigma=0.0)

    @pytest.mark.parametrize("field", ["mu", "sigma"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, field, value):
        with pytest.raises(ManifestError, match=f"{field} must be finite"):
            SyntheticSpec(**{field: value})

    def test_rejects_negative_seed(self):
        with pytest.raises(ManifestError, match="seed"):
            SyntheticSpec(seed=-1)


class TestParseSyntheticSpec:
    def test_every_field_is_a_key_of_its_type(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("n_classes = 2\nsamples_per_class = 3\nchannels = 4\nheight = 5\nwidth = 6\n"
                        "mu = 0.5\nsigma = 1.5\nseed = 9\n")
        assert parse_synthetic_spec(path) == SyntheticSpec(2, 3, 4, 5, 6, 0.5, 1.5, 9)

    @pytest.mark.parametrize("line, error, message", [
        ("colour = 3", ConfigError, "unknown synthetic spec key 'colour'"),
        ("channels = 4.5", ConfigError, "'channels' expects int"),
        ("mu = two", ConfigError, "'mu' expects float"),
        ("channels = \u0661\u0662", ConfigError, "'channels' expects int in ASCII"),  # Arabic-Indic 12
        ("mu = \uff11.\uff15", ConfigError, "'mu' expects float in ASCII"),  # fullwidth 1.5
        ("channels = 1_0", ConfigError, "'channels' expects int in ASCII"),  # Python's int reads 10
        ("mu = 1_0.5", ConfigError, "'mu' expects float in ASCII"),
        ("mu = nan", ManifestError, "mu must be finite"),
        ("sigma = inf", ManifestError, "sigma must be finite"),
        ("mu = 1.0\nmu = 2.0", ConfigError, "key 'mu' is set on lines 1 and 2"),
    ])
    def test_bad_line_is_typed_error(self, tmp_path, line, error, message):
        path = tmp_path / "spec.cfg"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(error, match=message):
            parse_synthetic_spec(path)


class TestGenSynthetic:
    def test_counts_shapes_and_nonnegativity(self, tmp_path):
        spec = SyntheticSpec(n_classes=3, samples_per_class=40, channels=12, height=6, width=6, mu=2.0, sigma=1.0, seed=7)
        train, test = gen_synthetic(spec, tmp_path)
        assert len(train) == 96
        assert len(test) == 24
        tensors, labels = load_dataset(train)
        assert all(t.shape == (12, 6, 6) for t in tensors)
        assert all((t >= 0).all() for t in tensors)
        npt.assert_array_equal(np.bincount(labels), [32, 32, 32])
        _, test_labels = load_dataset(test)
        npt.assert_array_equal(np.bincount(test_labels), [8, 8, 8])

    def test_same_seed_is_bit_identical(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, samples_per_class=5, channels=4, height=3, width=3, seed=11)
        gen_synthetic(spec, tmp_path / "a")
        gen_synthetic(spec, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file()):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()

    def test_class_signal_lands_on_channel_block(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, samples_per_class=30, channels=4, height=5, width=5, mu=3.0, sigma=0.5, seed=3)
        train, _ = gen_synthetic(spec, tmp_path)
        tensors, labels = load_dataset(train)
        for t, label in zip(tensors, labels):
            block = t[2 * label : 2 * label + 2].mean()
            rest = np.delete(t, [2 * label, 2 * label + 1], axis=0).mean()
            assert block > rest + 1.0

    def test_mu_zero_has_no_class_signal(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, samples_per_class=30, channels=4, height=5, width=5, mu=0.0, sigma=1.0, seed=5)
        train, _ = gen_synthetic(spec, tmp_path)
        tensors, labels = load_dataset(train)
        means = np.array([t[:2].mean() - t[2:].mean() for t in tensors])
        # block difference is centered on zero regardless of label
        assert abs(means[labels == 0].mean() - means[labels == 1].mean()) < 0.2

    def test_manifests_written_and_loadable(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, samples_per_class=5, channels=2, height=3, width=3, seed=1)
        gen_synthetic(spec, tmp_path)
        train = load_manifest(tmp_path / "train.json")
        test = load_manifest(tmp_path / "test.json")
        assert train.classes == ["class_0", "class_1"]
        assert len(train) == 8 and len(test) == 2
        load_dataset(train)
        load_dataset(test)
