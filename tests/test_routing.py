import hashlib

import numpy as np
import pytest
from _oracles import mask_then_softmax, per_task_fusion_stats, trace_routing

from smolora.errors import FormatError
from smolora.routing import (
    HashingEmbedder,
    LayerRouting,
    embed_text,
    fusion_stats,
    histogram_entropy,
    read_fusion_csv,
    read_routing_csv,
    route_instance,
    route_instruction,
    routing_histogram,
    token_hash,
    topk_softmax,
    write_fusion_csv,
    write_routing_csv,
)


class TestEmbedText:
    def test_deterministic(self):
        a = embed_text("Answer with one word.", 64)
        b = embed_text("Answer with one word.", 64)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for text in ("hello", "Describe the scene in one sentence.", "a b c d e f g"):
            v = embed_text(text, 32)
            assert abs(np.linalg.norm(v) - 1.0) <= 1e-9

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            embed_text("   ", 16)
        with pytest.raises(ValueError):
            embed_text("", 16)

    def test_cancelling_tokens_rejected(self):
        # The two tokens hash to opposite signs in the one bucket.
        with pytest.raises(ValueError, match="cancelled to a zero embedding"):
            embed_text("alpha beta", 1)

    def test_cosine_matches_reference_hasher(self):
        # Independent scalar re-implementation of the hashing scheme.
        def reference(text, e):
            vec = [0.0] * e
            for tok in "".join(c if c.isalnum() else " " for c in text.lower()).split():
                digest = hashlib.blake2b(
                    tok.encode("utf-8"), digest_size=8, key=(0).to_bytes(8, "little")
                ).digest()
                h = int.from_bytes(digest, "big")
                vec[h % e] += 1.0 if (h >> 63) & 1 else -1.0
            norm = sum(x * x for x in vec) ** 0.5
            return [x / norm for x in vec]

        t1 = "Answer with the option letter from the given choices directly."
        t2 = "Summarize what you see using one concise sentence instead."
        assert not set(t1.lower().split()) & set(t2.lower().split())
        e = 48
        got = float(embed_text(t1, e)[:, 0] @ embed_text(t2, e)[:, 0])
        expected = float(np.dot(reference(t1, e), reference(t2, e)))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_token_hash_is_64_bit(self):
        h = token_hash("word")
        assert 0 <= h < 2**64
        assert token_hash("word") == h

    def test_embedder_caches(self):
        emb = HashingEmbedder(16)
        assert emb.embed("same text") is emb.embed("same text")


class TestRouteInstance:
    def test_singleton_bank(self):
        gate = route_instance(np.array([[0.1, 0.2]]), np.array([[1.0], [2.0]]), 1)
        assert gate.tolist() == [[1.0]]

    def test_top1_is_one_hot(self):
        # Router times averaged input yields exactly [0.2, 1.5, -0.3, 0.9].
        R = np.array([[0.2], [1.5], [-0.3], [0.9]])
        x = np.array([[1.0, 1.0]])
        gate = route_instance(R, x, 1)
        assert gate[:, 0].tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_top2_matches_scalar_oracle(self):
        R = np.array([[0.2], [1.5], [-0.3], [0.9]])
        x = np.array([[1.0, 1.0]])
        gate = route_instance(R, x, 2)
        expected = mask_then_softmax([0.2, 1.5, -0.3, 0.9], 2)
        assert np.allclose(gate[:, 0], expected, atol=1e-12)
        assert gate[1, 0] == pytest.approx(0.6457, abs=1e-4)
        assert gate[3, 0] == pytest.approx(0.3543, abs=1e-4)

    def test_invariant_to_duplicating_columns(self):
        rng = np.random.default_rng(9)
        R = rng.normal(size=(4, 6))
        x = rng.normal(size=(6, 3))
        gate_once = route_instance(R, x, 2)
        gate_twice = route_instance(R, np.hstack([x, x]), 2)
        assert np.array_equal(gate_once, gate_twice)

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pools_as_ndarray_mean(self, s):
        rng = np.random.default_rng(40 + s)
        R = rng.normal(size=(4, 6))
        x = rng.normal(size=(6, 5 * s))
        for k in (1, 2, 4):
            want = route_instruction(R, x.reshape(6, 5, s).mean(axis=2), k)
            assert np.array_equal(route_instance(R, x, k, 5), want)

    def test_gate_simplex(self):
        rng = np.random.default_rng(2)
        for k in (1, 2, 3):
            gate = route_instance(rng.normal(size=(5, 4)), rng.normal(size=(4, 2)), k)
            col = gate[:, 0]
            assert int((col > 0).sum()) == k
            assert abs(col.sum() - 1.0) <= 1e-12


class TestRouteInstruction:
    def test_identical_rows_tie_to_lowest_index(self):
        R = np.array([[0.5, 0.5], [0.5, 0.5]])
        emb = np.array([[0.6], [0.8]])
        gate = route_instruction(R, emb, 1)
        assert gate[:, 0].tolist() == [1.0, 0.0]

    def test_seeded_straight_line_oracle(self):
        rng = np.random.default_rng(31)
        R = rng.normal(size=(2, 4))
        emb = rng.normal(size=(4, 1))
        emb /= np.linalg.norm(emb)
        gate = route_instruction(R, emb, 1)
        expected = mask_then_softmax(list((R @ emb)[:, 0]), 1)
        assert np.allclose(gate[:, 0], expected, atol=1e-12)

    def test_deterministic_function_of_inputs(self):
        R = np.random.default_rng(1).normal(size=(3, 8))
        emb = embed_text("Use a single word.", 8)
        g1 = route_instruction(R, emb, 2)
        g2 = route_instruction(R, embed_text("Use a single word.", 8), 2)
        assert np.array_equal(g1, g2)


def _gate(rows: int, columns) -> np.ndarray:
    """A rows x len(columns) gate; columns holds one {block: weight} per instance."""
    gate = np.zeros((rows, len(columns)))
    for j, weights in enumerate(columns):
        for i, w in weights.items():
            gate[i, j] = w
    return gate


def _routing(vu: np.ndarray, if_: np.ndarray) -> LayerRouting:
    """One layer record of the given gates, with fusion weights 1/2 over 2 columns each."""
    half = np.full((1, 2 * vu.shape[1]), 0.5)
    return LayerRouting(vu, if_, half, half)


class TestRoutingHistogram:
    def test_single_instance_top1(self):
        r = _routing(_gate(4, [{2: 1.0}]), _gate(4, [{0: 1.0}]))
        hist = routing_histogram([r], {5: slice(0, 1)})
        assert hist[5]["vu"].tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_identical_gates_identical_rows(self):
        r = _routing(_gate(4, [{1: 0.7, 3: 0.3}] * 2), _gate(2, [{0: 1.0}] * 2))
        hist = routing_histogram([r], {0: slice(0, 1), 1: slice(1, 2)})
        assert np.array_equal(hist[0]["vu"], hist[1]["vu"])
        assert np.array_equal(hist[0]["if"], hist[1]["if"])
        assert hist[0]["if"].shape == (2,)

    def test_rows_normalized(self):
        rng = np.random.default_rng(7)
        vu, if_ = [], []
        for _ in range(60):
            picks = rng.choice(4, size=2, replace=False)
            w = rng.uniform(0.2, 0.8)
            vu.append({int(picks[0]): w, int(picks[1]): 1 - w})
            if_.append({int(rng.integers(4)): 1.0})
        tasks = {task: slice(20 * task, 20 * (task + 1)) for task in range(3)}
        hist = routing_histogram([_routing(_gate(4, vu), _gate(4, if_))], tasks)
        for banks in hist.values():
            assert abs(banks["vu"].sum() - 1.0) <= 1e-9
            assert abs(banks["if"].sum() - 1.0) <= 1e-9

    def test_usage_adds_in_forward_order(self):
        # Top-2 weights over 3 layers of 50 instances per task: the usage is
        # the per-instance trace sum, layer by layer, then instance by
        # instance, bit for bit; numpy's pairwise sum rounds some of these
        # differently. The tasks, given out of order, come back sorted.
        rng = np.random.default_rng(8)
        layers = [_routing(topk_softmax(rng.normal(size=(6, 100)), 2),
                           topk_softmax(rng.normal(size=(5, 100)), 2))
                  for _ in range(3)]
        tasks = {4: slice(0, 50), 1: slice(50, 100)}
        want, _ = trace_routing(layers, tasks)
        got = routing_histogram(layers, tasks)
        assert list(got) == [1, 4]
        for task in got:
            for bank in ("vu", "if"):
                assert np.array_equal(got[task][bank], want[task][bank])

    def test_csv_round_trip(self, tmp_path):
        r = _routing(_gate(4, [{1: 1.0}]), _gate(4, [{2: 0.5, 3: 0.5}]))
        hist = routing_histogram([r], {0: slice(0, 1)})
        path = tmp_path / "routing.csv"
        write_routing_csv(path, hist)
        back = read_routing_csv(path)
        assert np.array_equal(back[0]["vu"], hist[0]["vu"])
        assert np.array_equal(back[0]["if"], hist[0]["if"])
        header = path.read_text().splitlines()[0]
        assert header == "task,bank,block_0,block_1,block_2,block_3"

    @pytest.mark.parametrize("rows, fault", [
        # Once read as {0: {'vu': [1.0], 'if': [1.0]}}: the second vu row
        # replaced the first, its block_1 value moved to block_0.
        ("0,vu,0.5,0.5\n0,if,1.0,\n0,vu,,1.0\n", r"appears twice.*line 4"),
        ("0,vu,,1.0\n0,if,1.0,\n", r"blank cell before a frequency.*line 2"),
        ("0,vu,0.5,0.5\n0,if,1.0,,0.0\n", r"5 cells, more than the header's 4.*line 3"),
    ])
    def test_rows_that_rewrite_frequencies_rejected(self, tmp_path, rows, fault):
        path = tmp_path / "routing.csv"
        path.write_text("task,bank,block_0,block_1\n" + rows)
        with pytest.raises(FormatError, match=fault):
            read_routing_csv(path)

    @pytest.mark.parametrize("header", ["", "garbage", "task,bank", "task,bank,block_1",
                                        "task,bank,block_0,block_2", "bank,task,block_0"])
    def test_header_other_than_task_bank_blocks_rejected(self, tmp_path, header):
        path = tmp_path / "routing.csv"
        path.write_text(header + "\n0,vu,1.0\n0,if,1.0\n")
        with pytest.raises(FormatError, match=r"header.*line 1"):
            read_routing_csv(path)


class TestFusionStats:
    def _layers(self, rng, instances, s):
        """Two layers of random fusion weights, s columns per instance."""
        layers = []
        for _ in range(2):
            alpha = rng.uniform(size=(1, s * instances))
            gate = np.ones((1, instances))
            layers.append(LayerRouting(gate, gate, alpha, 1.0 - alpha))
        return layers

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_joined_equals_per_task_cut(self, s):
        # Computing on the joined columns gives the bits of the per-task
        # means concatenated in run order.
        layers = self._layers(np.random.default_rng(s), 700, s)
        tasks = {3: slice(0, 96), 0: slice(96, 500), 7: slice(500, 700)}
        got = fusion_stats(layers)
        assert got == per_task_fusion_stats(layers, tasks)
        assert got == trace_routing(layers, tasks)[1]
        assert [row["layer"] for row in got] == [0, 1]

    def test_csv_round_trip(self, tmp_path):
        stats = fusion_stats(self._layers(np.random.default_rng(0), 9, 2))
        path = tmp_path / "fusion.csv"
        write_fusion_csv(path, stats)
        assert read_fusion_csv(path) == stats
        assert path.read_text().splitlines()[0] == "layer,mean_alpha,std_alpha,mean_beta,std_beta"

    @pytest.mark.parametrize("text, fault", [
        ("", r"header is not layer,mean_alpha,std_alpha,mean_beta,std_beta.*line 1"),
        ("layer,mean_alpha,std_alpha,mean_beta\n0,0.5,0.1,0.5\n", r"header.*line 1"),
        ("layer,mean_alpha,std_alpha,mean_beta,std_beta,extra\n0,0.5,0.1,0.5,0.1,1\n",
         r"header.*line 1"),
        ("layer,mean_alpha,std_alpha,mean_beta,std_beta\n0,0.5,0.1,0.5,0.1,99\n",
         r"6 cells, not 5.*line 2"),
        ("layer,mean_alpha,std_alpha,mean_beta,std_beta\n0,0.5,0.1,0.5,0.1\n1,0.5,0.1,0.5\n",
         r"4 cells, not 5.*line 3"),
    ])
    def test_malformed_file_rejected(self, tmp_path, text, fault):
        path = tmp_path / "fusion.csv"
        path.write_text(text)
        with pytest.raises(FormatError, match=fault):
            read_fusion_csv(path)


class TestHistogramEntropy:
    def test_one_hot_has_zero_entropy(self):
        assert histogram_entropy(np.array([0.0, 1.0, 0.0])) == 0.0

    def test_uniform_is_log_n(self):
        assert histogram_entropy(np.full(4, 0.25)) == pytest.approx(np.log(4))
