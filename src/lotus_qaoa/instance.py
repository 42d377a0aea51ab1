"""Weighted MaxCut problem instances.

Generates connected weighted Erdos-Renyi graphs, evaluates cut values,
and provides an exhaustive brute-force oracle for small graphs.

Bit convention used throughout the package: node ``i`` corresponds to bit
``i`` of an integer basis index (little-endian), and bitstrings are written
with node 0 first, so ``"010"`` assigns node 1 to the opposite side of
nodes 0 and 2.
"""
from __future__ import annotations

import json
import warnings
from collections import deque
from dataclasses import dataclass

import numpy as np

MAX_BRUTE_FORCE_NODES = 24
CONNECTIVITY_RETRIES = 1000


@dataclass(frozen=True)
class WeightedGraph:
    """Problem instance: ``n`` nodes plus a weighted edge list.

    Edges are ``(i, j, w)`` with ``0 <= i < j < n`` and ``w > 0``.
    ``seed`` and ``p_graph`` record generator provenance when known.
    """

    n: int
    edges: tuple[tuple[int, int, float], ...]
    seed: int | None = None
    p_graph: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one node, got n={self.n}")
        seen = set()
        for i, j, w in self.edges:
            if not (0 <= i < j < self.n):
                raise ValueError(f"edge ({i}, {j}) violates 0 <= i < j < n={self.n}")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            if not (np.isfinite(w) and w > 0):
                raise ValueError(f"edge ({i}, {j}) has non-positive weight {w}")

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.n


@dataclass(frozen=True)
class CutResult:
    """A bitstring (node 0 first) and the total weight of its cut edges."""

    bitstring: str
    cut_value: float


def _as_bits(z: str | np.ndarray | list[int] | tuple[int, ...], n: int) -> np.ndarray:
    if isinstance(z, str):
        bits = np.array([int(c) for c in z], dtype=np.int64)
    else:
        bits = np.asarray(z, dtype=np.int64)
    if bits.shape != (n,):
        raise ValueError(f"bitstring length {bits.size} does not match n={n}")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bitstring entries must be 0 or 1")
    return bits


def index_to_bitstring(index: int, n: int) -> str:
    """Basis index -> bitstring with node 0 first (bit i of index = node i)."""
    return "".join(str((index >> i) & 1) for i in range(n))


def _lower_neighbours(g: WeightedGraph) -> list[list[tuple[int, float]]]:
    """Per node m, its edges (i, w) to lower nodes i < m, in index order."""
    lower: list[list[tuple[int, float]]] = [[] for _ in range(g.n)]
    for i, j, w in g.edges:
        lower[j].append((i, w))
    return [sorted(nbrs) for nbrs in lower]


def cut_value(g: WeightedGraph, z: str | np.ndarray | list[int] | tuple[int, ...]) -> float:
    """Total weight of edges whose endpoints get different bits.

    Summed per node over its cut edges to lower nodes, in the order
    ``_cut_values_all`` adds them, so both agree to the last bit.
    """
    bits = _as_bits(z, g.n)
    total = 0.0
    for m, nbrs in enumerate(_lower_neighbours(g)):
        t = 0.0
        for i, w in nbrs:
            if bits[i] != bits[m]:
                t += w
        total += t
    return total


def gen_erdos_renyi(n: int, p_graph: float, seed: int) -> WeightedGraph:
    """Connected weighted Erdos-Renyi instance G(n, p_graph).

    Each unordered pair is included independently with probability
    ``p_graph``; included edges get a weight drawn uniformly from (0, 1).
    Disconnected samples are redrawn with an incremented sub-seed, up to
    ``CONNECTIVITY_RETRIES`` attempts. Deterministic for a fixed seed.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not (0.0 < p_graph <= 1.0):
        raise ValueError(f"need 0 < p_graph <= 1, got {p_graph}")
    for attempt in range(CONNECTIVITY_RETRIES):
        rng = np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, attempt]))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < p_graph:
                    w = rng.random()
                    while w == 0.0:  # open interval (0, 1)
                        w = rng.random()
                    edges.append((i, j, w))
        g = WeightedGraph(n=n, edges=tuple(edges), seed=seed, p_graph=p_graph)
        if g.is_connected():
            return g
    raise RuntimeError(
        f"no connected sample within {CONNECTIVITY_RETRIES} retries "
        f"(n={n}, p_graph={p_graph}; edge probability too low for this size)"
    )


def _cut_values_all(g: WeightedGraph) -> np.ndarray:
    """Cut value for every basis index 0 .. 2^n - 1, built node by node.

    After node m the first 2^(m+1) entries hold the cut of every assignment
    of nodes 0..m. Node m's edges to lower nodes add t[x] = sum of w over
    lower neighbours i with bit i of x set when node m sits at 0, and the
    mirror t[~x] = t[::-1][x] when it sits at 1. Using the exact mirror
    keeps the table exactly invariant under a global bit flip. Both arrays
    are filled in place, so a build allocates nothing else.
    """
    values = np.zeros(1 << g.n)
    t = np.zeros(1 << (g.n - 1))
    for m, nbrs in enumerate(_lower_neighbours(g)):
        size = 1 << m
        weight = dict(nbrs)
        for i in range(m):  # t[0] stays 0; each step doubles the filled range
            h = 1 << i
            w = weight.get(i)
            if w is None:
                t[h:2 * h] = t[:h]
            else:
                np.add(t[:h], w, out=t[h:2 * h])
        np.add(values[:size], t[:size][::-1], out=values[size:2 * size])
        values[:size] += t[:size]
    return values


def brute_force_maxcut(g: WeightedGraph) -> CutResult:
    """Exhaustive maximum cut for graphs with at most 24 nodes.

    Ties are broken canonically: among maximizing assignments with bit 0
    fixed to 0 (cuts are invariant under global bit flip), the lowest
    basis index wins.
    """
    if g.n > MAX_BRUTE_FORCE_NODES:
        raise ValueError(f"brute force capped at n={MAX_BRUTE_FORCE_NODES}, got {g.n}")
    values = _cut_values_all(g)
    half = values[0::2]  # indices with bit 0 == 0 cover all cuts by symmetry
    best_half = int(np.argmax(half))
    best_index = best_half * 2
    return CutResult(
        bitstring=index_to_bitstring(best_index, g.n),
        cut_value=float(half[best_half]),
    )


def save_graph(g: WeightedGraph, path: str) -> None:
    """Write an instance file (JSON; weights round-trip exactly)."""
    payload = {
        "n": g.n,
        "edges": [[i, j, w] for i, j, w in g.edges],
        "seed": g.seed,
        "p_graph": g.p_graph,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_graph(path: str, on_disconnected: str = "warn") -> WeightedGraph:
    """Load an instance file.

    ``on_disconnected`` is one of "warn", "error", "ignore" and controls the
    connectivity validation (the generator always produces connected graphs;
    hand-written files may not).
    """
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    g = WeightedGraph(
        n=int(payload["n"]),
        edges=tuple((int(i), int(j), float(w)) for i, j, w in payload["edges"]),
        seed=payload.get("seed"),
        p_graph=payload.get("p_graph"),
    )
    if on_disconnected != "ignore" and not g.is_connected():
        msg = f"instance file {path} holds a disconnected graph"
        if on_disconnected == "error":
            raise ValueError(msg)
        warnings.warn(msg)
    return g
