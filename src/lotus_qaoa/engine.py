"""Statevector QAOA engine for diagonal cost Hamiltonians.

The cost layer is a diagonal phase and the mixer is a product of identical
single-qubit rotations exp(-i*beta*X) (the transverse-field terms commute,
so the product is exact, no splitting error). Node ``i`` of the problem
graph maps to bit ``i`` of the amplitude index (little-endian).

Cost phases are computed from the raw (unwrapped) angles handed to
``evolve``; the mixer rotation is 2*pi-periodic in beta by construction,
while the cost phase is periodic only for integer spectra.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .instance import CutResult, WeightedGraph, _cut_values_all, index_to_bitstring
from .schedule import Schedule

DEFAULT_QUBIT_CAP = 20
_MIXER_BLOCK = 4  # qubits fused per mixer matmul

# Monotone count of evolve() calls, used to cross-check optimizer
# evaluation accounting. Read it via evolve_call_count().
_evolve_calls = 0


def evolve_call_count() -> int:
    return _evolve_calls


@dataclass(frozen=True)
class CostDiagonal:
    """Cut value of every basis state: entry z equals cut_value(g, z)."""

    values: np.ndarray

    @property
    def n(self) -> int:
        return int(self.values.size).bit_length() - 1


@dataclass
class StateVector:
    """2^n complex amplitudes; bit i of the index is node/qubit i."""

    amps: np.ndarray

    @property
    def n(self) -> int:
        return int(self.amps.size).bit_length() - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


def build_cost_diagonal(g: WeightedGraph, max_qubits: int = DEFAULT_QUBIT_CAP) -> CostDiagonal:
    if g.n > max_qubits:
        raise ValueError(f"qubit cap {max_qubits} exceeded (n={g.n})")
    return CostDiagonal(values=_cut_values_all(g))


def plus_state(n: int, max_qubits: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Uniform superposition |+>^n."""
    if not (1 <= n <= max_qubits):
        raise ValueError(f"need 1 <= n <= {max_qubits}, got {n}")
    dim = 1 << n
    return StateVector(amps=np.full(dim, dim ** -0.5, dtype=np.complex128))


def apply_cost_phase(state: StateVector, diag: CostDiagonal, gamma: float) -> StateVector:
    """In-place amps[z] *= exp(-i*gamma*values[z]); returns the same state."""
    if state.amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    state.amps *= np.exp((-1j * gamma) * diag.values)
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


def apply_mixer(state: StateVector, beta: float) -> StateVector:
    """In-place exp(-i*beta*X) on every qubit; returns the same state.

    Qubits are processed in blocks: the block rotation R^(x)k is one small
    matmul against the low k bits, then the index is bit-rotated so the
    next block lands low. The rotations sum to n bits, restoring the
    original layout. Equivalent to a per-qubit loop but with far fewer
    numpy dispatches.
    """
    sizes = _mixer_block_sizes(state.n)
    c, s = float(np.cos(beta)), float(np.sin(beta))
    blocks = {k: _mixer_block(k, c, s) for k in set(sizes)}
    amps = state.amps
    for k in sizes:
        # apply to the low k bits, then rotate them to the top
        amps = (amps.reshape(-1, 1 << k) @ blocks[k]).T.ravel()
    state.amps = amps
    return state


def evolve(g: WeightedGraph, sched: Schedule, max_qubits: int = DEFAULT_QUBIT_CAP,
           diag: CostDiagonal | None = None) -> StateVector:
    """Run the full circuit: |+>^n, then p cost-phase + mixer layers.

    Pass a prebuilt ``diag`` to skip rebuilding it in hot loops.
    """
    global _evolve_calls
    _evolve_calls += 1
    if diag is None:
        diag = build_cost_diagonal(g, max_qubits=max_qubits)
    state = plus_state(g.n, max_qubits=max_qubits)
    for gamma, beta in zip(sched.raw_gammas, sched.raw_betas):
        apply_cost_phase(state, diag, float(gamma))
        apply_mixer(state, float(beta))
    return state


def expectation_exact(state: StateVector, diag: CostDiagonal) -> float:
    """Sum_z |amps[z]|^2 * values[z]."""
    if state.amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    return float(np.real(np.vdot(state.amps, diag.values * state.amps)))


def _sample_indices(state: StateVector, shots: int, rng: np.random.Generator) -> np.ndarray:
    cdf = np.cumsum(state.probabilities())
    cdf[-1] = 1.0
    idx = np.searchsorted(cdf, rng.random(shots), side="right")
    return np.minimum(idx, state.amps.size - 1)


def expectation_sampled(
    state: StateVector,
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
    state: StateVector,
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
