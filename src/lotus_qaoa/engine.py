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

``evolve`` builds the factors of all p layers once per schedule (phase rows
from the split of the cut table in ``CostDiagonal``, mixer blocks with one
gather per block size) and hands each layer's to ``apply_cost_phase`` and
``apply_mixer``, which build it themselves when called alone. The layer loop
only multiplies and runs matmuls: the mixer's blocks alternate between the
state's array and one spare, and its dropped top qubit is one pair step.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .instance import CutResult, WeightedGraph, _cut_values_all, index_to_bitstring
from .schedule import Schedule

DEFAULT_QUBIT_CAP = 20
# Written into each sweep's config sidecar; resume refuses another version.
# Bump it whenever records can move, round-off included.
ENGINE_VERSION = 3
_MIXER_BLOCK = 4  # qubits fused per mixer matmul
_SPLIT_MIN_N = 9  # below it one exp per entry beats the split's extra calls


@dataclass(frozen=True)
class CostDiagonal:
    """Cut value of every basis state: entry z equals cut_value(g, z).

    ``levels`` (read-only) splits the kept half, with its index as (hi, lo)
    of a + b = n - 1 bits. Every edge adds at most a bilinear term in its
    two bits, so c[hi, lo] = c[hi, 0] + c[0, lo] + the sum over set bits i
    of hi of C_i[lo], with C_i = c[1 << i, :] - c[0, :] - c[1 << i, 0]. It
    holds c[0, lo], then C_0 .. C_(a-1), then c[hi, 0]: 2^b + a*2^b + 2^a
    levels, from which ``_phase_rows`` builds the phases.
    """

    values: np.ndarray
    levels: np.ndarray = field(repr=False, compare=False)

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


def _split_bits(n: int) -> tuple[int, int]:
    """(a, b): the kept half's high and low bit counts."""
    a = (n - 1) // 2 if n >= _SPLIT_MIN_N else 0
    return a, n - 1 - a


def build_cost_diagonal(g: WeightedGraph) -> CostDiagonal:
    if g.n > DEFAULT_QUBIT_CAP:
        raise ValueError(f"qubit cap {DEFAULT_QUBIT_CAP} exceeded (n={g.n})")
    values = _cut_values_all(g)
    a, b = _split_bits(g.n)
    table = values[:values.size // 2].reshape(1 << a, 1 << b)
    rows = table[1 << np.arange(a)]  # c[1 << i, :]
    levels = np.concatenate((table[0], (rows - table[0] - rows[:, :1]).ravel(), table[:, 0]))
    levels.flags.writeable = False
    return CostDiagonal(values=values, levels=levels)


def plus_state(n: int) -> MirroredHalf:
    """Uniform superposition |+>^n."""
    if not (1 <= n <= DEFAULT_QUBIT_CAP):
        raise ValueError(f"need 1 <= n <= {DEFAULT_QUBIT_CAP}, got {n}")
    half = np.empty(1 << (n - 1), dtype=np.complex128)
    half.fill((1 << n) ** -0.5)
    return MirroredHalf(half=half)


def _phase_rows(diag: CostDiagonal, gammas: np.ndarray) -> np.ndarray:
    """Each layer's phases exp(-i*gamma*values) over the kept half, (p, half).

    One exp over the (p, levels) outer product; for each high bit i, the
    rows with it set are the rows below times exp(-i*gamma*C_i); last, each
    row times its high column entry: a + 3 numpy calls for all p layers.
    An element's operations do not depend on p.
    """
    a, b = _split_bits(diag.n)
    width = 1 << b
    gammas = np.asarray(gammas, dtype=np.float64)
    e = np.exp(np.multiply.outer(-1j * gammas, diag.levels))
    if a == 0:  # the low row is the whole half
        return e[:, :width]
    cross = e[:, :(a + 1) * width].reshape(gammas.size, a + 1, width)
    rows = np.empty((gammas.size, 1 << a, width), dtype=np.complex128)
    rows[:, 0] = cross[:, 0]
    for i in range(a):
        h = 1 << i
        np.multiply(rows[:, :h], cross[:, i + 1, None], out=rows[:, h:2 * h])
    rows *= e[:, (a + 1) * width:, None]
    return rows.reshape(gammas.size, -1)


def apply_cost_phase(state: MirroredHalf, diag: CostDiagonal, gamma: float,
                     phases: np.ndarray | None = None) -> MirroredHalf:
    """In-place amps[z] *= exp(-i*gamma*values[z]); returns the same state.

    The kept half reads the first half of the flip-invariant diagonal.
    ``phases`` is the layer's row of ``_phase_rows``, which ``evolve``
    builds for all layers at once; without it the row is built here.
    """
    amps = state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    if phases is None:
        phases = _phase_rows(diag, [gamma])[0]
    amps *= phases
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


def _mixer_blocks(k: int, betas: np.ndarray) -> np.ndarray:
    """Stack of R^(x)k, one per beta, for R = [[c, -i s], [-i s, c]].

    Entry (x, y) of the k-fold tensor power is c^(k-d) * (-i s)^d with
    d = popcount(x ^ y): each qubit contributes c where the bits agree and
    -i s where they differ. Each block is symmetric. Shape (p, 2^k, 2^k),
    built with one gather from the (p, k + 1) table of powers.
    """
    betas = np.asarray(betas, dtype=np.float64)[:, None]
    d = np.arange(k + 1.0)  # float exponents: numpy casts integer ones on every call
    powers = np.cos(betas) ** (k - d) * (-1j * np.sin(betas)) ** d
    return np.take(powers, _hamming_table(k).ravel(), axis=1).reshape(-1, 1 << k, 1 << k)


def _mixer_factors(n: int, betas: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Each layer's mixer blocks, low block first, the top one as its kept
    quadrant R_top[:w, :w] = cos(beta) * R^(x)(k-1); one gather per block size."""
    sizes = _mixer_block_sizes(n)
    stacks = {k: _mixer_blocks(k, betas) for k in set(sizes)}
    *low, top = (stacks[k] for k in sizes)
    w = top.shape[1] // 2
    return list(zip(*low, top[:, :w, :w]))


def apply_mixer(state: MirroredHalf, beta: float,
                blocks: tuple[np.ndarray, ...] | None = None) -> MirroredHalf:
    """In-place exp(-i*beta*X) on every qubit; returns the same state.

    Qubits are processed in the blocks of ``_mixer_block_sizes``, each a
    closed-form R^(x)k. ``blocks`` is the layer's entry of
    ``_mixer_factors``, which ``evolve`` builds for all layers at once;
    without it the blocks are built here.

    Each block runs as one matmul against the low k bits: ``R @ A.T`` with
    A the state as a (rest, 2^k) matrix. BLAS reads the transposed view,
    and since R is symmetric the product comes out with those bits on top
    (a bit rotation), with no copy.

    The kept half lacks the top qubit, which belongs to the last (top)
    block; after the low blocks that block's kept bits are lowest (one
    block, n <= 4, starts there). It applies only its kept quadrant
    cos(beta) * R^(x)(k-1), which restores the layout and leaves u =
    cos(beta) * R^(x)(n-1) @ half. The top qubit adds -i sin(beta) times
    R^(x)(n-1) applied to the mirrored half, half[::-1]; R[~x, ~y] = R[x, y],
    so that is u[::-1] times -i tan(beta), one pair step (cos(beta) of a
    finite double is never 0, so tan(beta) is finite). Each step writes
    into one spare array, which then swaps with the state's.
    """
    if blocks is None:
        blocks = _mixer_factors(state.n, np.array([beta]))[0]
    amps = np.ascontiguousarray(state.half, dtype=np.complex128)
    spare = np.empty_like(amps)
    for block in blocks:
        # apply to the low k bits, which land on top
        dim = block.shape[0]
        np.matmul(block, amps.reshape(-1, dim).T, out=spare.reshape(dim, -1))
        amps, spare = spare, amps
    np.multiply(amps[::-1], -1j * np.tan(beta), out=spare)
    spare += amps
    state.half = spare
    return state


def evolve(g: WeightedGraph, sched: Schedule, diag: CostDiagonal | None = None) -> MirroredHalf:
    """Run the full circuit: |+>^n, then p cost-phase + mixer layers.

    Every layer's phases and mixer blocks are built once per schedule and
    handed to the per-layer kernels. Pass a prebuilt ``diag`` to skip
    rebuilding it in hot loops.
    """
    if diag is None:
        diag = build_cost_diagonal(g)
    state = plus_state(g.n)
    gammas, betas = sched.raw_gammas, sched.raw_betas
    for gamma, beta, row, blocks in zip(gammas.tolist(), betas.tolist(),
                                        _phase_rows(diag, gammas), _mixer_factors(g.n, betas)):
        apply_cost_phase(state, diag, gamma, row)
        apply_mixer(state, beta, blocks)
    return state


def expectation_exact(state: MirroredHalf, diag: CostDiagonal) -> float:
    """Sum_z |amps[z]|^2 * values[z]: twice the sum over the kept half."""
    amps = state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    return 2.0 * float(np.vdot(amps, diag.values[:amps.size] * amps).real)


def _sample_indices(state: MirroredHalf, shots: int, rng: np.random.Generator) -> np.ndarray:
    """Full basis indices of ``shots`` draws, one uniform per draw.

    With C the kept half's CDF and S its total (one half of the mass), a
    uniform u < S maps through C, and u >= S through the mirrored half: the
    full CDF at index 2^n - 1 - j is 2S - C[j - 1], so u lands on index
    2^n - 1 - k for the first k with C[k] > 2S - u. That is the index the
    full state's CDF gives, up to round-off at bin edges; the two rules
    part only where 2S - u equals an entry of C exactly. The keys are
    searched in sorted order, which keeps the search's branches predictable,
    and each result goes back to its draw's position.
    """
    cdf = np.cumsum(np.abs(state.half) ** 2)
    total = cdf[-1]
    u = rng.random(shots)
    upper = u >= total
    keys = np.where(upper, 2 * total - u, u)
    order = np.argsort(keys)
    idx = np.empty(shots, dtype=np.intp)
    idx[order] = np.searchsorted(cdf, keys[order], side="right")
    return np.where(upper, 2 * cdf.size - 1 - idx, idx)


def expectation_sampled(
    state: MirroredHalf,
    diag: CostDiagonal,
    shots: int,
    seed: int | np.random.Generator,
) -> tuple[float, float]:
    """Shot-based estimate of the cost expectation.

    Draws ``shots`` bitstrings from |amps|^2 and returns the sample mean of
    the diagonal values together with its standard error. Needs
    ``shots >= 1``; exact mode is ``expectation_exact``. Deterministic for a
    fixed seed.
    """
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
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
