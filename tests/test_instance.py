import json

import numpy as np
import pytest

from lotus_qaoa.instance import (
    CONNECTIVITY_RETRIES,
    CutResult,
    WeightedGraph,
    brute_force_maxcut,
    cut_value,
    gen_erdos_renyi,
    index_to_bitstring,
    load_graph,
    save_graph,
)


def triangle(w=1.0):
    return WeightedGraph(n=3, edges=((0, 1, w), (0, 2, w), (1, 2, w)))


class TestWeightedGraph:
    def test_validates_edge_order(self):
        with pytest.raises(ValueError, match="violates"):
            WeightedGraph(n=3, edges=((1, 0, 1.0),))

    def test_rejects_duplicate_edges(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 1, 2.0)))

    def test_rejects_bad_weights(self):
        for w in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                WeightedGraph(n=2, edges=((0, 1, w),))

    def test_total_weight(self):
        g = WeightedGraph(n=3, edges=((0, 1, 0.25), (1, 2, 0.5)))
        assert g.total_weight == 0.75

    def test_connectivity(self):
        assert triangle().is_connected()
        assert not WeightedGraph(n=3, edges=((0, 1, 1.0),)).is_connected()
        assert WeightedGraph(n=1, edges=()).is_connected()


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        a = gen_erdos_renyi(8, 0.6, seed=42)
        b = gen_erdos_renyi(8, 0.6, seed=42)
        assert a.edges == b.edges
        assert gen_erdos_renyi(8, 0.6, seed=43).edges != a.edges

    def test_two_nodes_complete(self):
        g = gen_erdos_renyi(2, 1.0, seed=0)
        assert len(g.edges) == 1
        i, j, w = g.edges[0]
        assert (i, j) == (0, 1)
        assert 0.0 < w < 1.0

    def test_complete_graph_edge_count(self):
        assert len(gen_erdos_renyi(5, 1.0, seed=3).edges) == 10

    def test_benchmark_sizes(self):
        for n in (8, 12):
            for density in (0.5, 0.75, 1.0):
                g = gen_erdos_renyi(n, density, seed=7)
                assert g.n == n and g.is_connected()

    def test_always_connected(self):
        for seed in range(30):
            assert gen_erdos_renyi(10, 0.3, seed=seed).is_connected()

    def test_weights_open_unit_interval(self):
        g = gen_erdos_renyi(12, 0.9, seed=11)
        ws = np.array([w for _, _, w in g.edges])
        assert np.all((ws > 0.0) & (ws < 1.0))

    def test_provenance_recorded(self):
        g = gen_erdos_renyi(6, 0.8, seed=5)
        assert g.seed == 5 and g.p_graph == 0.8

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            gen_erdos_renyi(1, 0.5, seed=0)
        with pytest.raises(ValueError):
            gen_erdos_renyi(4, 0.0, seed=0)
        with pytest.raises(ValueError):
            gen_erdos_renyi(4, 1.5, seed=0)

    def test_retry_exhaustion_signals(self):
        assert CONNECTIVITY_RETRIES == 1000
        with pytest.raises(RuntimeError, match="connected"):
            gen_erdos_renyi(20, 1e-9, seed=0)


class TestCutValue:
    def test_triangle_examples(self):
        g = triangle()
        assert cut_value(g, "000") == 0.0
        assert cut_value(g, "001") == 2.0
        assert cut_value(g, [0, 0, 1]) == 2.0

    def test_bit_flip_symmetry(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            g = gen_erdos_renyi(7, 0.5, seed=seed)
            z = rng.integers(0, 2, g.n)
            assert cut_value(g, z) == pytest.approx(cut_value(g, 1 - z), abs=0)

    def test_bounds(self):
        rng = np.random.default_rng(2)
        g = gen_erdos_renyi(6, 0.7, seed=9)
        for _ in range(50):
            v = cut_value(g, rng.integers(0, 2, g.n))
            assert 0.0 <= v <= g.total_weight

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cut_value(triangle(), "0010")

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            cut_value(triangle(), "012")


class TestBruteForce:
    def test_triangle(self):
        assert brute_force_maxcut(triangle()).cut_value == 2.0

    def test_single_edge(self):
        g = WeightedGraph(n=2, edges=((0, 1, 0.731),))
        res = brute_force_maxcut(g)
        assert res.cut_value == 0.731
        assert res.bitstring == "01"  # canonical: bit 0 fixed to 0

    def test_path_canonical_tie_break(self):
        g = WeightedGraph(n=3, edges=((0, 1, 0.3), (1, 2, 0.9)))
        res = brute_force_maxcut(g)
        assert res == CutResult(bitstring="010", cut_value=pytest.approx(1.2, abs=1e-15))

    def test_dominates_random_assignments(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            g = gen_erdos_renyi(8, 0.6, seed=seed)
            best = brute_force_maxcut(g).cut_value
            for _ in range(40):
                assert best >= cut_value(g, rng.integers(0, 2, g.n))

    def test_optimum_is_attained(self):
        g = gen_erdos_renyi(6, 0.8, seed=4)
        res = brute_force_maxcut(g)
        assert cut_value(g, res.bitstring) == res.cut_value

    def test_node_cap(self):
        g = WeightedGraph(n=25, edges=tuple((i, i + 1, 1.0) for i in range(24)))
        with pytest.raises(ValueError, match="capped"):
            brute_force_maxcut(g)


class TestInstanceFiles:
    def test_round_trip_exact(self, tmp_path):
        g = gen_erdos_renyi(9, 0.55, seed=123)
        path = tmp_path / "inst.json"
        save_graph(g, str(path))
        loaded = load_graph(str(path))
        assert loaded == g  # weights bit-exact through repr serialization

    def test_file_schema(self, tmp_path):
        g = gen_erdos_renyi(4, 1.0, seed=1)
        path = tmp_path / "inst.json"
        save_graph(g, str(path))
        payload = json.loads(path.read_text())
        assert set(payload) == {"n", "edges", "seed", "p_graph"}
        assert payload["n"] == 4 and len(payload["edges"]) == 6

    def test_disconnected_warns_or_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 0.5]], "seed": 0, "p_graph": 0.1}))
        with pytest.warns(UserWarning, match="disconnected"):
            load_graph(str(path))


def test_index_to_bitstring_is_little_endian():
    assert index_to_bitstring(1, 3) == "100"
    assert index_to_bitstring(4, 3) == "001"
    assert index_to_bitstring(6, 4) == "0110"
