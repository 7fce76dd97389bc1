import numpy as np
import pytest

from _oracles import nearest_mean_accuracy
from smolora.benchmark import (
    generate_stream,
    read_stream,
    task_formats,
    write_stream,
)
from smolora.errors import ConfigError, FormatError


def _same_instances(a, b):
    """Two splits hold the same instances in the same order."""
    assert np.array_equal(a.visual, b.visual)
    assert a.texts.tolist() == b.texts.tolist()
    assert np.array_equal(a.answer_class, b.answer_class)
    assert np.array_equal(a.format_id, b.format_id)
    assert np.array_equal(a.task_id, b.task_id)


def _small_stream(seed=0, **kw):
    defaults = dict(
        task_count=3, train_per_task=12, test_per_task=8, d_v=16, class_count=4
    )
    defaults.update(kw)
    return generate_stream(seed, **defaults)


class TestGenerateStream:
    def test_same_seed_identical(self):
        a = _small_stream(seed=5)
        b = _small_stream(seed=5)
        for (spec_a, train_a, test_a), (spec_b, train_b, test_b) in zip(a, b):
            assert np.array_equal(spec_a.visual_cluster_means, spec_b.visual_cluster_means)
            _same_instances(train_a, train_b)
            _same_instances(test_a, test_b)

    def test_single_mode_uses_one_template(self):
        stream = _small_stream(task_count=2, instruction_mode="single")
        for spec, train, test in stream:
            assert len(spec.instruction_templates) == 1
            only = spec.instruction_templates[0]
            assert all(text == only for split in (train, test) for text in split.texts)

    def test_multi_mode_has_multiple_templates(self):
        stream = _small_stream(task_count=2, instruction_mode="multi")
        for spec, train, _ in stream:
            assert len(spec.instruction_templates) >= 2
            assert len(set(train.texts)) >= 2

    def test_zero_noise_is_perfectly_separable(self):
        stream = _small_stream(cluster_stddev=0.0)
        for spec, train, test in stream:
            for split in (train, test):
                assert np.array_equal(split.visual, spec.visual_cluster_means[split.answer_class].T)
            assert nearest_mean_accuracy(spec, test) == 100.0

    def test_default_separability_oracle(self):
        stream = generate_stream(seed=7)
        for spec, _, test in stream:
            assert nearest_mean_accuracy(spec, test) >= 95.0

    def test_means_on_unit_sphere_and_separated(self):
        stream = _small_stream(seed=9)
        means = np.vstack([spec.visual_cluster_means for spec, _, _ in stream])
        assert np.allclose(np.linalg.norm(means, axis=1), 1.0, atol=1e-12)
        dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() >= 0.5

    def test_impossible_packing_raises_config_error(self):
        # 2 dimensions cannot host 40 unit-sphere points pairwise >= 0.5 apart.
        with pytest.raises(ConfigError):
            generate_stream(seed=0, task_count=5, train_per_task=1, test_per_task=1,
                            d_v=2, class_count=8)

    def test_task_count_minimum(self):
        with pytest.raises(ValueError):
            generate_stream(seed=0, task_count=1)

    def test_format_assignment_has_two_families(self):
        for t in range(2, 9):
            assert len(set(task_formats(t))) >= 2

    def test_every_instance_carries_its_task_format(self):
        for spec, train, test in _small_stream():
            for split in (train, test):
                assert (split.format_id == spec.format_id).all()

class TestStreamFile:
    def test_round_trip(self, tmp_path):
        stream = _small_stream(seed=3)
        path = tmp_path / "stream.jsonl"
        manifest = {"seed": 3, "task_count": 3, "d_v": 16, "mode": "single"}
        write_stream(path, stream, manifest)
        back_manifest, back = read_stream(path)
        assert back_manifest["seed"] == 3
        assert len(back_manifest["tasks"]) == 3
        for (spec_a, train_a, test_a), (spec_b, train_b, test_b) in zip(stream, back):
            assert spec_a.format_id == spec_b.format_id
            assert spec_a.instruction_templates == spec_b.instruction_templates
            assert np.array_equal(spec_a.visual_cluster_means, spec_b.visual_cluster_means)
            assert len(train_a) == len(train_b) and len(test_a) == len(test_b)
            _same_instances(train_a, train_b)
            _same_instances(test_a, test_b)

    def test_write_is_byte_deterministic(self, tmp_path):
        manifest = {"seed": 1}
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_stream(p1, _small_stream(seed=1), manifest)
        write_stream(p2, _small_stream(seed=1), manifest)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_manifest_reports_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text("not json\n")
        with pytest.raises(FormatError, match="line 1"):
            read_stream(path)

    def test_bad_record_reports_line(self, tmp_path):
        stream = _small_stream()
        path = tmp_path / "stream.jsonl"
        write_stream(path, stream, {"seed": 0})
        lines = path.read_text().splitlines()
        lines[2] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="line 3"):
            read_stream(path)

    def test_embeddings_survive_round_trip(self, tmp_path):
        from smolora.routing import HashingEmbedder

        stream = _small_stream(seed=4)
        embedder = HashingEmbedder(8)
        for _, train, test in stream:
            for split in (train, test):
                split.embedding = np.hstack([embedder.embed(text) for text in split.texts])
        path = tmp_path / "stream.jsonl"
        write_stream(path, stream, {"seed": 4})
        _, back = read_stream(path)
        for (_, train_a, _), (_, train_b, _) in zip(stream, back):
            assert np.array_equal(train_a.embedding, train_b.embedding)
