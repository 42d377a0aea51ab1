"""Statevector QAOA engine for diagonal cost Hamiltonians.

The cost layer is a diagonal phase and the mixer is a product of identical
single-qubit rotations exp(-i*beta*X) (the transverse-field terms commute,
so the product is exact, no splitting error). Node ``i`` of the problem
graph maps to bit ``i`` of the amplitude index (little-endian).

Cost phases are computed from the raw (unwrapped) angles handed to
``evolve``; the mixer rotation is 2*pi-periodic in beta by construction,
while the cost phase is periodic only for integer spectra.

States are held as a ``MirroredHalf``: |+>^n, the cut diagonal and the
mixer all commute with a global bit flip, so half the amplitudes determine
the rest. Every kernel and readout works on that half.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .instance import (
    CutResult,
    WeightedGraph,
    _cut_values_all,
    _double_by_node,
    _lower_neighbours,
    index_to_bitstring,
)
from .schedule import Schedule

DEFAULT_QUBIT_CAP = 20
_MIXER_BLOCK = 4  # qubits fused per mixer matmul
# Up to this many amplitudes the cost phase is one complex exp per entry;
# larger states build it by doubling (at n = 14, half 2^13, the doubling is
# the faster one; at n = 13 the exp is)
_EXP_PHASE_MAX_SIZE = 1 << 12


@dataclass(frozen=True)
class CostDiagonal:
    """Cut value of every basis state: entry z equals cut_value(g, z).

    ``lower`` holds the graph's edges per node to lower nodes, the recipe
    from which ``apply_cost_phase`` builds large phase tables.
    """

    values: np.ndarray
    lower: tuple[tuple[tuple[int, float], ...], ...] = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.values.size).bit_length() - 1


@dataclass
class MirroredHalf:
    """Kept half of a state that is invariant under a global bit flip.

    ``half`` holds the 2^(n-1) amplitudes whose top bit is clear. The
    amplitude at z ^ mask equals the one at z, and z ^ mask = mask - z, so
    the dropped half is ``half[::-1]``. It is the engine's only state form,
    since |+>^n, every cut diagonal and the X mixer all commute with the
    flip. ``amps`` forms the full 2^n vector on each access.
    """

    half: np.ndarray

    @property
    def n(self) -> int:
        return int(self.half.size).bit_length()

    @property
    def amps(self) -> np.ndarray:
        return np.concatenate((self.half, self.half[::-1]))

    def norm_sq(self) -> float:
        return 2.0 * float(np.sum(np.abs(self.half) ** 2))


def build_cost_diagonal(g: WeightedGraph) -> CostDiagonal:
    if g.n > DEFAULT_QUBIT_CAP:
        raise ValueError(f"qubit cap {DEFAULT_QUBIT_CAP} exceeded (n={g.n})")
    lower = tuple(tuple(nbrs) for nbrs in _lower_neighbours(g))
    return CostDiagonal(values=_cut_values_all(g), lower=lower)


def plus_state(n: int) -> MirroredHalf:
    """Uniform superposition |+>^n."""
    if not (1 <= n <= DEFAULT_QUBIT_CAP):
        raise ValueError(f"need 1 <= n <= {DEFAULT_QUBIT_CAP}, got {n}")
    dim = 1 << n
    return MirroredHalf(half=np.full(dim // 2, dim ** -0.5, dtype=np.complex128))


def _phase_table(lower: tuple, gamma: float, size: int) -> np.ndarray:
    """exp(-i*gamma*values) for the first ``size`` entries, by doubling.

    The cut table's node-by-node build with per-edge phases e^(-i*gamma*w)
    multiplied where the table adds weights w: a few complex multiplies per
    entry instead of one complex exp.
    """
    phases = [[(i, cmath.exp(-1j * gamma * w)) for i, w in nbrs] for nbrs in lower]
    return _double_by_node(phases, np.ones(size, dtype=np.complex128),
                           np.ones(1 << (len(lower) - 1), dtype=np.complex128), np.multiply)


def apply_cost_phase(state: MirroredHalf, diag: CostDiagonal, gamma: float) -> MirroredHalf:
    """In-place amps[z] *= exp(-i*gamma*values[z]); returns the same state.

    The kept half reads the first half of the flip-invariant diagonal.
    Above ``_EXP_PHASE_MAX_SIZE`` amplitudes the phases are built by
    doubling from the diagonal's edge lists, which agrees with the complex
    exp to round-off; smaller halves take the exp, where it is cheaper.
    """
    amps = state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    if amps.size > _EXP_PHASE_MAX_SIZE:
        amps *= _phase_table(diag.lower, gamma, amps.size)
    else:
        amps *= np.exp((-1j * gamma) * diag.values[:amps.size])
    return state


@cache
def _mixer_block_sizes(n: int) -> tuple[int, ...]:
    n_blocks = -(-n // _MIXER_BLOCK)
    base, extra = divmod(n, n_blocks)
    return tuple(base + (b < extra) for b in range(n_blocks))


@cache
def _hamming_table(k: int) -> np.ndarray:
    """hamming[x, y] = popcount(x ^ y) over k-bit indices (read-only)."""
    idx = np.arange(1 << k)
    popcount = np.array([bin(v).count("1") for v in range(1 << k)])
    table = popcount[idx[:, None] ^ idx[None, :]]
    table.flags.writeable = False
    return table


def _mixer_block(k: int, c: float, s: float) -> np.ndarray:
    """R^(x)k for R = [[c, -i s], [-i s, c]] in closed form.

    Entry (x, y) of the k-fold tensor power is c^(k-d) * (-i s)^d with
    d = popcount(x ^ y): each qubit contributes c where the bits agree and
    -i s where they differ. The block is symmetric.
    """
    powers = np.array([c ** (k - d) * (-1j * s) ** d for d in range(k + 1)])
    return powers[_hamming_table(k)]


def apply_mixer(state: MirroredHalf, beta: float) -> MirroredHalf:
    """In-place exp(-i*beta*X) on every qubit; returns the same state.

    Qubits are processed in blocks: the block rotation R^(x)k is one small
    matmul against the low k bits, then the index is bit-rotated so the
    next block lands low. The rotations sum to n bits, restoring the
    original layout. Equivalent to a per-qubit loop but with far fewer
    numpy dispatches.

    Each block is ``R @ A.T`` with A the state as a (rest, 2^k) matrix:
    BLAS reads the transposed view, and since R is symmetric the product
    (A @ R).T comes out already in the rotated layout, with no copy.

    The kept half lacks the top qubit, which belongs to the last
    block. With A0 the kept half as a (rest, w) matrix (w = 2^(k-1)), the
    inputs with that bit set are A0[::-1, ::-1], and R[~x, ~y] = R[x, y].
    So one product Y = R[:, :w] @ A0.T gives the output rows with the bit
    clear as Y[:w] + Y[w:][::-1, ::-1], and the full state is never formed.
    """
    sizes = _mixer_block_sizes(state.n)
    c, s = float(np.cos(beta)), float(np.sin(beta))
    blocks = {k: _mixer_block(k, c, s) for k in set(sizes)}
    amps = state.half
    for k in sizes[:-1]:
        # apply to the low k bits, which land on top
        amps = (blocks[k] @ amps.reshape(-1, 1 << k).T).ravel()
    w = 1 << (sizes[-1] - 1)
    y = blocks[sizes[-1]][:, :w] @ amps.reshape(-1, w).T
    state.half = (y[:w] + y[w:][::-1, ::-1]).ravel()
    return state


def evolve(g: WeightedGraph, sched: Schedule, diag: CostDiagonal | None = None) -> MirroredHalf:
    """Run the full circuit: |+>^n, then p cost-phase + mixer layers.

    Pass a prebuilt ``diag`` to skip rebuilding it in hot loops.
    """
    if diag is None:
        diag = build_cost_diagonal(g)
    state = plus_state(g.n)
    for gamma, beta in zip(sched.raw_gammas, sched.raw_betas):
        apply_cost_phase(state, diag, float(gamma))
        apply_mixer(state, float(beta))
    return state


def expectation_exact(state: MirroredHalf, diag: CostDiagonal) -> float:
    """Sum_z |amps[z]|^2 * values[z]: twice the sum over the kept half."""
    amps = state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    return 2.0 * float(np.real(np.vdot(amps, diag.values[:amps.size] * amps)))


def _sample_indices(state: MirroredHalf, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Full basis indices of ``shots`` draws, one uniform per draw.

    With C the kept half's CDF and S its total (one half of the mass), a
    uniform u < S maps through C, and u >= S through the mirrored half: the
    full CDF at index 2^n - 1 - j is 2S - C[j - 1], so u lands on index
    2^n - 1 - k for the first k with C[k] > 2S - u. That is the index the
    full state's CDF gives, up to round-off at bin edges; the two rules
    part only where 2S - u equals an entry of C exactly.
    """
    cdf = np.cumsum(np.abs(state.half) ** 2)
    total = cdf[-1]
    u = rng.random(shots)
    upper = u >= total
    idx = np.searchsorted(cdf, np.where(upper, 2 * total - u, u), side="right")
    return np.where(upper, 2 * cdf.size - 1 - idx, idx)


def expectation_sampled(
    state: MirroredHalf,
    diag: CostDiagonal,
    shots: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Shot-based estimate of the cost expectation.

    Draws ``shots`` bitstrings from |amps|^2 and returns the sample mean of
    the diagonal values together with its standard error. ``shots=0`` is the
    exact-mode sentinel: returns (expectation_exact, 0.0) without sampling.
    Deterministic for a fixed seed.
    """
    if shots == 0:
        return expectation_exact(state, diag), 0.0
    if shots < 0:
        raise ValueError(f"need shots >= 0, got {shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    vals = diag.values[_sample_indices(state, shots, rng)]
    if shots == 1:
        return float(vals[0]), 0.0
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(shots))


def sample_best_bitstring(
    state: MirroredHalf,
    diag: CostDiagonal | WeightedGraph,
    shots: int,
    seed: int | np.random.Generator,
) -> CutResult:
    """Best cut among ``shots`` sampled bitstrings, read from the cut table.

    Pass the run's prebuilt ``diag``; a graph builds its table first.
    Ties go to the lowest canonical index (bit 0 flipped to 0 first, which
    is harmless since cuts are invariant under global bit flip).
    """
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    if isinstance(diag, WeightedGraph):
        diag = build_cost_diagonal(diag)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    values = diag.values
    idx = _sample_indices(state, shots, rng)
    mask = values.size - 1
    canonical = np.where(idx & 1, idx ^ mask, idx)
    best_cut = values[canonical].max()
    winners = canonical[values[canonical] == best_cut]
    return CutResult(
        bitstring=index_to_bitstring(int(winners.min()), diag.n),
        cut_value=float(best_cut),
    )
