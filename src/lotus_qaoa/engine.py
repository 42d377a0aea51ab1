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
the rest. Every kernel and readout works on that half, which is stored
twisted, half[z] = i^popcount(z) * amps[z]. In that frame exp(-i*beta*X)
on a kept qubit is the real rotation [[c, -s], [s, c]], so the mixer runs
real matmuls on the half's float64 view. The twist is a unit diagonal: it
commutes with every cost phase and leaves every |amplitude|^2 unchanged,
so the phase, the expectations and sampling are the same code as without
it. Only ``MirroredHalf.amps`` untwists.

Each layer's factors, a phase row (``_phase_rows``, from the split of the
cut table in ``CostDiagonal``) and real mixer blocks (``_MixerFactors``),
are built by ``evolve`` for several layers at once and handed to the
per-layer kernels ``apply_cost_phase`` and ``apply_mixer``, which build
their own when called alone. Every state lives in a ``Workspace``, which
holds its buffers, its factors with their keys and its layer snapshots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .instance import CutResult, WeightedGraph, _cut_values_all, index_to_bitstring
from .schedule import Schedule

DEFAULT_QUBIT_CAP = 20
# Written into each sweep's config sidecar; resume refuses another version.
# Bump it whenever records can move, round-off included.
ENGINE_VERSION = 5
_MIXER_BLOCK = 4  # index bits fused per mixer matmul
_MIXER_CHUNK = 1 << 16  # floats (512 KiB) of the half that the low mixer blocks run on at once
# Most rows per matmul of the lowest mixer block, which runs as a stack of
# such calls: OpenBLAS (0.3.31, one thread) ran a (rows, 16) @ (16, 16)
# product of up to 2048 rows at the speed of a 16 x 16 block's flops and
# one of 4096 rows, a whole chunk's at n >= 17, about 1.7x slower.
_LOW_ROWS = 256
_PAIR_PIECE = 1 << 13  # amplitudes (128 KiB) of the half that the pair step runs on at once
_POPCOUNT = np.array([bin(v).count("1") for v in range(1 << _MIXER_BLOCK)])
_POWER_SIGNS = np.array([[1.0], [1.0], [-1.0]])  # rows c^i, s^i, -s^i
_MINUS_I_POWERS = [(-1j) ** n for n in range(DEFAULT_QUBIT_CAP + 1)]  # the pair step's (-i)^n
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

    The 2^(n-1) amplitudes whose top bit is clear determine the state: the
    one at z ^ mask equals the one at z, and z ^ mask = mask - z, so the
    dropped half is the kept half reversed. It is the engine's only state
    form, since |+>^n, every cut diagonal and the X mixer all commute with
    the flip. ``half`` holds the kept amplitudes twisted,
    half[z] = i^popcount(z) * amps[z], the frame in which the mixer is a
    real rotation. The twist is a unit diagonal, so it commutes with the
    cost phases and leaves every |amplitude|^2 as it is: the phase, the
    expectations and sampling read ``half`` directly. ``amps`` untwists
    and forms the full 2^n vector on each access. ``workspace`` is the
    ``Workspace`` whose buffer holds ``half``: every state lives in one,
    and the kernels write only its state and spare buffers.
    """

    half: np.ndarray
    workspace: Workspace = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return int(self.half.size).bit_length()

    @property
    def amps(self) -> np.ndarray:
        kept = self.half * _twist(self.n).conj()
        return np.concatenate((kept, kept[::-1]))

    def norm_sq(self) -> float:
        return 2.0 * float(np.sum(np.abs(self.half) ** 2))

    def _cdf(self) -> np.ndarray:
        """The running sum of |half|^2, which sampling draws from, built in
        one array: the workspace's spare."""
        cdf = np.abs(self.half, out=self.workspace.spare.half.view(np.float64)[:self.half.size])
        np.square(cdf, out=cdf)
        return np.cumsum(cdf, out=cdf)


@dataclass
class _Readout(MirroredHalf):
    """A state whose draws all read one CDF, built by the first: the
    readout of a run, whose draws (each with its own generator) follow one
    another with nothing written to the state or its workspace's spare in
    between."""

    cdf: np.ndarray | None = field(default=None, repr=False, compare=False)

    def _cdf(self) -> np.ndarray:
        if self.cdf is None:
            self.cdf = super()._cdf()
        return self.cdf


@cache
def _twist_bits(bits: int, scale: float = 1.0) -> np.ndarray:
    """scale * i^popcount(z) for z < 2^bits (read-only)."""
    twist = np.full(1, scale, dtype=np.complex128)
    for _ in range(bits):  # a set top bit adds one factor of i
        twist = np.concatenate((twist, 1j * twist))
    twist.flags.writeable = False
    return twist


def _twist(n: int, scale: float = 1.0) -> np.ndarray:
    """scale * i^popcount(z) over the kept half: the outer product of the
    twists of its high (n - 1) // 2 bits and of its other bits, exact since
    the parts of every factor are 0 or +-1 (+-scale)."""
    hi = (n - 1) // 2
    return np.multiply(_twist_bits(hi)[:, None], _twist_bits(n - 1 - hi, scale)).ravel()


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
    """Uniform superposition |+>^n, twisted: half[z] = i^popcount(z) 2^(-n/2),
    the current state of a new one-layer ``Workspace``."""
    workspace = Workspace(n, 1)
    workspace.state.half[:] = _twist(n, (1 << n) ** -0.5)
    return MirroredHalf(half=workspace.state.half, workspace=workspace)


def _phase_rows(diag: CostDiagonal, gammas: np.ndarray,
                out: np.ndarray | None = None, from_plus: bool = False) -> np.ndarray:
    """Each layer's phases exp(-i*gamma*values) over the kept half, (p, half),
    written into ``out`` ((p, 2^a, 2^b)) when given.

    One exp over the (p, levels) outer product; for each high bit i, the
    rows with it set are the rows below times exp(-i*gamma*C_i); last, each
    row times its high column entry: a + 3 numpy calls for all p layers.
    An element's operations do not depend on p. With ``from_plus`` the
    first row is layer 0's, which starts from |+>^n: its high column is
    first multiplied by i^popcount(hi), the twist of |+> on the high bits,
    which is exact, since those factors are +-1 and +-i
    (``apply_cost_phase`` multiplies in the rest of |+>).
    """
    a, b = _split_bits(diag.n)
    width = 1 << b
    gammas = np.asarray(gammas, dtype=np.float64)
    if a == 0:  # the low row is the whole half
        return np.exp(np.multiply.outer(-1j * gammas, diag.levels[:width]),
                      out=None if out is None else out.reshape(gammas.size, width))
    e = np.exp(np.multiply.outer(-1j * gammas, diag.levels))
    cross = e[:, :(a + 1) * width].reshape(gammas.size, a + 1, width)
    high = e[:, (a + 1) * width:]
    if from_plus:
        high[0] *= _twist_bits(a)
    rows = np.empty((gammas.size, 1 << a, width), dtype=np.complex128) if out is None else out
    rows[:, 0] = cross[:, 0]
    for i in range(a):
        h = 1 << i
        np.multiply(rows[:, :h], cross[:, i + 1, None], out=rows[:, h:2 * h])
    rows *= high[:, :, None]
    return rows.reshape(gammas.size, -1)


def apply_cost_phase(state: MirroredHalf, diag: CostDiagonal, gamma: float,
                     phases: np.ndarray | None = None, from_plus: bool = False) -> MirroredHalf:
    """amps[z] *= exp(-i*gamma*values[z]); returns the same state.

    The kept half reads the first half of the flip-invariant diagonal.
    ``phases`` is the layer's row of ``_phase_rows``, which ``evolve``
    builds for the layers it runs at once; without it the row is built
    here. The product is written into the workspace's state buffer and
    the state moves there: in place for the current state, while a kept
    state or a snapshot is left as it was, so a circuit that keeps
    snapshots runs each layer out of the snapshot of the layer before.

    With ``from_plus`` the state's amplitudes are not read: the layer runs
    on |+>^n, layer 0 of a circuit. Its ``phases`` are then the row that
    ``_phase_rows(..., from_plus=True)`` builds first, which carries |+>'s
    twist on the high bits, and one broadcast product multiplies in the
    rest, 2^(-n/2) i^popcount(lo) over the low bits. That writes the
    product of ``plus_state`` and the plain row without writing |+> first,
    bit for bit in every part but an exact zero, whose sign may differ
    (gamma = +-0.0 or a cut value of 0 leaves one). Adding and
    multiplying keep such a difference to the sign of a zero, and every
    readout squares magnitudes.
    """
    amps, out = state.half, state.workspace.state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    if phases is None:
        phases = _phase_rows(diag, [gamma], from_plus=from_plus)[0]
    if from_plus:
        _, b = _split_bits(diag.n)
        np.multiply(phases.reshape(-1, 1 << b), _twist_bits(b, (1 << diag.n) ** -0.5),
                    out=out.reshape(-1, 1 << b))
    else:
        np.multiply(amps, phases, out=out)
    state.half = out
    return state


@cache
def _mixer_block_sizes(n: int) -> tuple[int, ...]:
    """Blocks of the n bits of the kept half's float64 index, lowest first.

    Bit 0 of that index picks the real or imaginary part and bits 1..n-1
    are the n - 1 kept qubits.
    """
    n_blocks = -(-n // _MIXER_BLOCK)
    base, extra = divmod(n, n_blocks)
    return tuple(base + (b < extra) for b in range(n_blocks))


@cache
def _mixer_plan(n: int) -> tuple[np.ndarray, tuple[tuple[int, int, int], ...], int]:
    """Gather index of all real mixer blocks at n (read-only), each block's
    (start, end, 2^k) in it, and the power table's width K + 2.

    Entry (x, y) of Q^(x)k, Q = [[c, -s], [s, c]], is
    c^(k-d) * s^d * (-1)^popcount(~x & y) with d = popcount(x ^ y): a bit
    gives c where x and y agree, -s where only y has it and s where only x
    has it. The lowest block is cos(beta) * Q^(x)(k-1) (x) I_2, which has
    the same entries where bit 0 agrees and 0 where it differs; it is
    gathered transposed, since ``apply_mixer`` right-multiplies by it. The
    index points into the (K + 1, 2, K + 2) table of c^i times +-s^j,
    whose column j = K + 1 is 0, K the largest block size.
    """
    sizes = _mixer_block_sizes(n)
    width = max(sizes) + 2
    index, spans, start = [], [], 0
    for j, k in enumerate(sizes):
        x, y = np.ogrid[:1 << k, :1 << k]
        d = _POPCOUNT[x ^ y]
        col = ((k - d) * 2 + (_POPCOUNT[~x & y & ((1 << k) - 1)] & 1)) * width + d
        if j == 0:
            col = np.where((x ^ y) & 1, width - 1, col).T
        index.append(col.ravel())
        spans.append((start, start + col.size, 1 << k))
        start += col.size
    index = np.concatenate(index)
    index.flags.writeable = False
    return index, tuple(spans), width


class _MixerFactors:
    """The arrays the real mixer blocks of p layers are built in, at n, each
    layer's tuple of block views into them, the beta each layer's blocks
    were built for (``betas``; NaN, which no beta matches, before then), and
    whether a ``Workspace``'s snapshots hold the layers that its phase-row
    keys and these block keys describe (``snapshotted``, set by ``evolve``)."""

    def __init__(self, n: int, p: int) -> None:
        self.index, spans, width = _mixer_plan(n)
        self.powers = np.empty((p, 3, width))
        self.powers[:, :, :1] = _POWER_SIGNS  # rows c^i; s^i, then 0; -s^i, then -0
        self.table = np.empty((p, width - 1, 2, width))
        self.flat = np.empty((p, self.index.size))
        self.layers = list(zip(*[self.flat[:, start:end].reshape(-1, dim, dim)
                                 for start, end, dim in spans]))
        self.betas = [math.nan] * p
        self.snapshotted = False

    def build(self, betas: np.ndarray, start: int = 0,
              stop: int | None = None) -> list[tuple[np.ndarray, ...]]:
        """Each layer's real mixer blocks for ``betas`` (p of them), lowest
        first (float64, (2^k, 2^k)), the lowest one transposed, for the
        layers from ``start`` up to ``stop`` (the last when None).

        The powers c^i and s^i are running products; one gather from their
        signed table builds the blocks of all those layers. A layer's
        blocks do not depend on which other layers are built. The layers'
        entries of ``betas`` are cleared first and record their betas once
        the blocks are written, so a build that fails partway leaves none
        of its layers marked as built. Every build clears ``snapshotted``:
        snapshots of other blocks' layers are nothing to resume from.
        """
        self.snapshotted = False
        b = np.asarray(betas[start:stop], dtype=np.float64)
        stop = start + b.size
        self.betas[start:stop] = [math.nan] * b.size
        powers, table, b = self.powers[start:stop], self.table[start:stop], b[:, None, None]
        powers[:, :1, 1:] = np.cos(b)
        powers[:, 1:, 1:] = np.sin(b)
        powers[:, 1:, -1] = 0.0
        np.multiply.accumulate(powers, axis=2, out=powers)
        np.multiply(powers[:, 0, :-1, None, None], powers[:, None, 1:], out=table)
        # mode="clip" writes straight into flat; the default mode buffers it
        table.reshape(b.size, -1).take(self.index, axis=1, out=self.flat[start:stop], mode="clip")
        self.betas[start:stop] = b.ravel().tolist()
        return self.layers[start:stop]


def _same_bits(a: float, b: float) -> bool:
    """Whether two python floats are the same angle: equal, and for zeros
    with the same sign, so +-0.0 differ (equal floats have equal bits but
    for the sign of zero); a NaN matches nothing, itself included."""
    return a == b and (a != 0.0 or math.copysign(1.0, a) == math.copysign(1.0, b))


def _stale_runs(gammas: list[float], row_keys: list[float], betas: list[float],
                block_keys: list[float]) -> tuple[int, list[list[int]], list[list[int]]]:
    """The first layer whose phase row or mixer blocks are stale (p - 1,
    the last, when none is), and [start, stop) of each run of consecutive
    layers whose gamma does not have the bits of its phase row's key
    (``_same_bits``) and of each whose beta does not have those of its
    blocks' key, found in one pass over the layers."""
    rows: list[list[int]] = []
    blocks: list[list[int]] = []
    for layer in range(len(gammas)):
        if not _same_bits(gammas[layer], row_keys[layer]):
            if rows and rows[-1][1] == layer:
                rows[-1][1] = layer + 1
            else:
                rows.append([layer, layer + 1])
        if not _same_bits(betas[layer], block_keys[layer]):
            if blocks and blocks[-1][1] == layer:
                blocks[-1][1] = layer + 1
            else:
                blocks.append([layer, layer + 1])
    resume = min([runs[0][0] for runs in (rows, blocks) if runs], default=len(gammas) - 1)
    return resume, rows, blocks


@cache
def _parity_signs(bits: int) -> np.ndarray:
    """(-1)^popcount(z) for z < 2^bits (read-only), complex so that
    multiplying amplitudes by it needs no cast."""
    signs = np.ones(1 << bits, dtype=np.complex128)
    for q in range(bits):  # in place: the table is its own peak memory
        signs.reshape(-1, 2, 1 << q)[:, 1] *= -1.0
    signs.flags.writeable = False
    return signs


def _pair_pieces(pieces: np.ndarray, rows: np.ndarray, kappa: complex,
                 factor: np.ndarray) -> None:
    """In place u += kappa * sigma * u[::-1], sigma(z) = (-1)^popcount(z),
    on a half u of more than one ``_PAIR_PIECE``, given as its
    (pieces, ``_PAIR_PIECE``) view; ``rows``, two pieces of a spare, and
    ``factor``, one piece (a workspace's), are scratch.

    Output piece c reads piece C - 1 - c reversed, and sigma(c * P + r) =
    (-1)^popcount(c) sigma(r), so every piece takes the one factor
    kappa * sigma[:P], its row subtracted where popcount(c) is odd. Both
    mirrored rows of a pair are written into ``rows`` before either piece
    is, so each pair stays in cache, and every pair reuses the same two
    rows, which stay there too: nothing else is written that memory would
    have to take back. Bit for bit the whole-half formula: sigma times
    kappa is exact, and a - x is a + (-x).
    """
    factor = np.multiply(_parity_signs(_PAIR_PIECE.bit_length() - 1), kappa, out=factor)
    last = len(pieces) - 1
    for c in range(len(pieces) // 2):
        d = last - c
        np.multiply(pieces[d, ::-1], factor, out=rows[0])
        np.multiply(pieces[c, ::-1], factor, out=rows[1])
        for e, row in ((c, rows[0]), (d, rows[1])):
            combine = np.subtract if bin(e).count("1") % 2 else np.add
            combine(pieces[e], row, out=pieces[e])


@cache
def _mixer_views(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Shape of the float64 view each real mixer block runs on at n, lowest
    first: those of the blocks that act within a chunk of ``_MIXER_CHUNK``,
    then those of the blocks above it.

    The lowest block's view is (pieces, rows, 2^k), its bits as columns,
    with at most ``_LOW_ROWS`` rows, so that its matmul is a stack of
    small BLAS calls; a block at bit offset o has the (pieces, 2^k, 2^o)
    view, its bits as the middle axis.
    """
    low, high, offset = [], [], 0
    floats = min(1 << n, _MIXER_CHUNK)
    for k in _mixer_block_sizes(n):
        shape = (-1, 1 << k, 1 << offset) if offset else (-1, min(_LOW_ROWS, floats >> k), 1 << k)
        offset += k
        (low if 1 << offset <= _MIXER_CHUNK else high).append(shape)
    return tuple(low), tuple(high)


class _Buffer:
    """A kept-half array and the views the mixer runs on.

    ``chunks`` holds, per chunk of ``_MIXER_CHUNK`` floats (one chunk when
    the half fits in one), the float64 view of each block within it, in the
    shapes of ``_mixer_views``; ``top`` the whole-half view of each block
    above the chunk (none when the half fits in one); ``pieces`` the
    (pieces, ``_PAIR_PIECE``) view of a half of more than one piece, else
    None. When the buffer is the spare, the views of its first chunk
    hold the in-chunk blocks' intermediates and its first two pieces the
    pair step's mirrored rows. Every buffer is a ``Workspace``'s, built
    once with it; the kernels write only its state and spare buffers.
    """

    __slots__ = ("half", "chunks", "top", "pieces")

    def __init__(self, half: np.ndarray) -> None:
        low, high = _mixer_views(half.size.bit_length())
        flat = half.view(np.float64)
        self.half = half
        parts = flat.reshape(-1, _MIXER_CHUNK) if flat.size > _MIXER_CHUNK else (flat,)
        self.chunks = [list(map(part.reshape, low)) for part in parts]
        self.top = list(map(flat.reshape, high))
        self.pieces = half.reshape(-1, _PAIR_PIECE) if half.size > _PAIR_PIECE else None


def apply_mixer(state: MirroredHalf, beta: float,
                blocks: tuple[np.ndarray, ...] | None = None) -> MirroredHalf:
    """In-place exp(-i*beta*X) on every qubit; returns the same state.

    In the state's frame h[z] = i^popcount(z) amps[z], exp(-i*beta*X) on
    a kept qubit is the real rotation Q = [[c, -s], [s, c]], so the blocks
    of ``_MixerFactors`` act on the half's float64 view, whose index has
    the real/imaginary bit lowest and the kept qubits above it.
    ``blocks`` is the layer's entry of ``_MixerFactors.build``; without
    it the blocks are built here, by the same builder for one layer.

    Each block runs as one matmul where its k bits already lie, so no bits
    move: the lowest block right-multiplies the view as a stack of
    (rows, 2^k) matrices of at most ``_LOW_ROWS`` rows, one BLAS call each
    (``_MixerFactors`` holds it transposed), and the block at bit offset o
    left-multiplies every piece of the (pieces, 2^k, 2^o) view.
    Since the lowest block carries cos(beta), that leaves
    u = cos(beta) Q^(x)(n-1) h. A block whose bits lie within the low
    ``_MIXER_CHUNK`` floats acts within each chunk of that size, so those
    blocks run chunk by chunk, alternating between the chunk and the
    spare's first chunk, which every chunk reuses; a half of one chunk
    (n <= 16) is that one chunk. Above one chunk (n >= 17) there are four
    such blocks, so each chunk ends back in itself, and the chunk and that
    one spare region (1 MiB) stay in cache: no intermediate, which nothing
    reads after its chunk, is written back to memory. The blocks above the
    chunk (the top one) then run once over the whole half, in the same
    form, into the spare.

    The dropped top qubit adds -i sin(beta) times the rotation of the
    mirrored half. Untwisted that is u[::-1] times -i tan(beta) (the
    rotation commutes with the global flip); in the frame, i^popcount(z)
    times i^-popcount(~z) leaves (-1)^popcount(z) i^-(n-1), so
    half = u + kappa * sigma * u[::-1] with sigma = (-1)^popcount and
    kappa = tan(beta) (-i)^n, one pair step (cos(beta) of a finite double
    is never 0, so tan(beta) is finite). A whole-half block writes into
    the spare, which then swaps with the state's array; the pair step
    builds kappa * sigma * u[::-1] in the spare and adds it to u. Above
    one ``_PAIR_PIECE`` it runs on mirrored pairs of pieces
    (``_pair_pieces``), so the sign table holds one piece, and builds
    every pair's rows in the spare's first two pieces. It uses numpy,
    not a BLAS axpy: with OpenBLAS's default threads a threaded axpy per
    layer made sweeps at n = 16 several times slower.

    The state must be its workspace's current state (else ``ValueError``,
    as ``Workspace.keep``). It runs in the workspace's state and spare
    buffers with their prebuilt views (``_Buffer``), and leaves the two
    swapped there as the blocks left them. Every matmul has the shape and
    operands it would have with a whole spare per block, so where the
    intermediates live changes no bit.
    """
    ws = state.workspace
    if state.half is not ws.state.half:
        raise ValueError("state is not its workspace's current state")
    buf, spare, n = ws.state, ws.spare, ws.n
    if blocks is None:
        blocks = _MixerFactors(n, 1).build([beta])[0]
    # every chunk alternates with the spare's first chunk; a half of more
    # than one chunk has four in-chunk blocks, so each chunk ends in itself
    for a in buf.chunks:
        s = spare.chunks[0]
        np.matmul(a[0], blocks[0], out=s[0])
        for j in range(1, len(a)):
            a, s = s, a
            np.matmul(blocks[j], a[j], out=s[j])
    inner = len(buf.chunks[0])
    if inner % 2:
        buf, spare = spare, buf
    for j in range(len(buf.top)):
        np.matmul(blocks[inner + j], buf.top[j], out=spare.top[j])
        buf, spare = spare, buf
    kappa = math.tan(beta) * _MINUS_I_POWERS[n]
    if buf.pieces is not None:
        _pair_pieces(buf.pieces, spare.pieces[:2], kappa, ws.pair_factor)
    else:  # one piece: three calls on the cached table, no per-call factor
        mirrored = spare.half
        np.multiply(buf.half[::-1], _parity_signs(n - 1), out=mirrored)
        np.multiply(mirrored, kappa, out=mirrored)  # half the cost of *= with a python scalar
        buf.half += mirrored
    ws.state, ws.spare = buf, spare
    state.half = buf.half
    return state


class Workspace:
    """The state-sized buffers every circuit at n qubits and depth p runs
    in, allocated once, with each layer's factors and snapshot.

    ``optim.optimize`` creates one per run and hands it to every
    ``evolve``, so no evaluation allocates a state-sized array or rebuilds
    a view. It holds kept-half buffers with their mixer views (``_Buffer``):
    ``state``, which each layer writes its phase product into (layer 0
    its product with |+>, which no buffer holds) and runs its mixer on,
    ``spare``, which the mixer's whole-half blocks alternate with it and
    whose first chunk and first two pieces hold the in-chunk blocks'
    intermediates and the pair step's mirrored rows, one kept buffer and
    p - 1 ``snapshots``; the p phase ``rows`` that ``_phase_rows`` fills;
    the ``_MixerFactors`` of p layers; and, from n = 15, the one-piece
    ``pair_factor`` of ``_pair_pieces``. Between mixer calls the spare is
    free, so the product of ``expectation_exact`` and the float CDF of
    ``_sample_indices`` run in its memory. The buffers live as long as the
    workspace; nothing caches them across runs.

    Each phase row and each layer's mixer blocks carry a key, which lives
    with the arrays it describes: the workspace records the diagonal its
    rows were built for and each row's gamma, and ``_MixerFactors.build``
    the beta of every layer it writes. Row 0 also carries |+>'s twist on
    the high bits, which needs no key of its own: it only ever serves
    layer 0. A key is cleared before its arrays are written and set after,
    so a build that fails partway leaves nothing marked built.

    Every state lives in a workspace (``plus_state`` makes one of a
    single layer), and the kernels write only its state and spare buffers.
    Snapshot l holds a state after layer l, for a later circuit to resume
    from (see ``evolve``). The snapshots are never handed out: ``keep``
    and the readouts touch only the state, spare and kept buffers.

    The 2p + 2 halves (state, spare, kept, p - 1 snapshots, p phase rows)
    are rows of one array: 48 MiB at n = 20, p = 2. Separate 8 MiB arrays
    at n = 20 came from glibc's heap once earlier frees in the process had
    raised its mapping threshold, and about 40 MB of their pages stayed
    resident after the run. One allocation above that threshold's 32 MiB
    ceiling at n = 20 is mapped for the run and returned to the system at
    its end.
    """

    def __init__(self, n: int, p: int) -> None:
        if not (1 <= n <= DEFAULT_QUBIT_CAP):
            raise ValueError(f"need 1 <= n <= {DEFAULT_QUBIT_CAP}, got {n}")
        if p < 1:
            raise ValueError(f"need depth p >= 1, got {p}")
        a, b = _split_bits(n)
        self.n, self.p = n, p
        halves = np.empty((2 * p + 2, 1 << (n - 1)), dtype=np.complex128)
        self.state, self.spare, self._kept, *self.snapshots = map(_Buffer, halves[:p + 2])
        rows = halves[p + 2:]
        self.rows = list(rows)  # each layer's phase row
        self._rows = rows.reshape(p, 1 << a, 1 << b)  # as _phase_rows fills them
        # the diagonal the rows were built for and each row's gamma (NaN: none)
        self._rows_diag: CostDiagonal | None = None
        self._row_gammas = [math.nan] * p
        self.factors = _MixerFactors(n, p)
        self.pair_factor = (np.empty(_PAIR_PIECE, dtype=np.complex128)
                            if 1 << (n - 1) > _PAIR_PIECE else None)

    def keep(self, state: MirroredHalf) -> MirroredHalf:
        """Take ``state``, the last one ``evolve`` returned here, out of reuse.

        Its buffer swaps with the kept one, so the state kept before goes
        back into reuse and the next ``evolve`` overwrites it.
        """
        if state.half is not self.state.half:
            raise ValueError("state is not this workspace's current state")
        self.state, self._kept = self._kept, self.state
        return state

    def _build_rows(self, diag: CostDiagonal, gammas: np.ndarray, start: int, stop: int) -> None:
        """Build the phase rows of layers ``start`` to ``stop`` for ``diag``,
        the rows' diagonal, and their ``gammas`` (p of them), and record
        the gammas as the rows' keys; the keys are cleared first, as
        ``_MixerFactors.build`` clears its."""
        self._row_gammas[start:stop] = [math.nan] * (stop - start)
        _phase_rows(diag, gammas[start:stop], self._rows[start:stop], from_plus=not start)
        self._row_gammas[start:stop] = gammas[start:stop].tolist()


def evolve(g: WeightedGraph, sched: Schedule, diag: CostDiagonal | None = None,
           workspace: Workspace | None = None) -> MirroredHalf:
    """Run the full circuit: |+>^n, then p cost-phase + mixer layers.

    The circuit runs in ``workspace``, which must be of this n and p, and
    the returned state lives there until the next ``evolve`` overwrites it
    (``Workspace.keep`` takes it out of reuse). Without one, ``evolve``
    creates a new workspace, so the state is the caller's alone; it keeps
    that workspace's 2p + 2 halves alive for as long as the caller holds
    it. Pass a prebuilt ``diag`` to skip rebuilding it in hot loops.

    A layer's phase row is stale unless its key has this ``diag`` object
    and the bits of its gamma (``_same_bits``), and its mixer blocks are
    stale unless their key has the bits of its beta. One pass over the
    keys (``_stale_runs``) finds the first stale layer (p - 1 when none
    is) and the runs of consecutive stale layers; each run is rebuilt in one
    ``_phase_rows`` call or one gather, so a step that moves every angle
    makes one of each. An element's or a layer's arithmetic does not
    depend on which other layers are built.

    A circuit whose first stale layer is not 0 shares its leading layers
    with the circuit the keys were built for: it keeps its layers, each
    layer after the first writing the product of the snapshot before and
    its phase row into the state buffer, which then swaps with the layer's
    snapshot (all but the last). When the snapshots hold the keys' layers
    (``_MixerFactors.snapshotted``, which every build and the start of
    every ``evolve`` clear and a completed circuit that kept its layers
    sets), it resumes at its first stale layer from the snapshot of the
    layer before. Each element goes through the same operations on the
    same inputs in the same order as in a circuit run from |+>, so a
    resumed state is bit for bit the one a fresh workspace gives.

    A circuit that shares no layer, a Nelder-Mead or HFA step, runs in the
    state and spare buffers alone, as without snapshots: keeping its
    layers would add a third state-sized buffer to every layer's memory
    traffic, which at n = 20 costs more than the rare resume after such a
    step saves. Circuits that share layers come in runs (the points of a
    line search, the probes of a gradient), so only the first of a run
    misses its resume.
    """
    if diag is None:
        diag = build_cost_diagonal(g)
    gammas, betas = sched.raw_gammas, sched.raw_betas
    if workspace is None:
        workspace = Workspace(g.n, sched.depth)
    elif (workspace.n, workspace.p) != (g.n, sched.depth):
        raise ValueError(f"workspace is for n={workspace.n}, p={workspace.p}; "
                         f"circuit has n={g.n}, p={sched.depth}")
    gamma_list, beta_list, factors = gammas.tolist(), betas.tolist(), workspace.factors
    if workspace._rows_diag is not diag:  # rows of another diagonal match no gamma
        workspace._rows_diag, workspace._row_gammas = diag, [math.nan] * workspace.p
    resume, stale_rows, stale_blocks = _stale_runs(gamma_list, workspace._row_gammas,
                                                   beta_list, factors.betas)
    start = resume if factors.snapshotted else 0
    factors.snapshotted = False  # until this circuit's layers are in the snapshots
    snapshots, last = workspace.snapshots, workspace.p - 1
    # layer 0 writes its product with |+> into the state buffer
    state = MirroredHalf(half=(snapshots[start - 1] if start else workspace.state).half,
                         workspace=workspace)
    for lo, hi in stale_rows:
        workspace._build_rows(diag, gammas, lo, hi)
    for lo, hi in stale_blocks:
        factors.build(betas, lo, hi)
    rows, blocks = workspace.rows, factors.layers
    for layer in range(start, last + 1):
        # in place unless the state is the snapshot of the layer before
        apply_cost_phase(state, diag, gamma_list[layer], rows[layer], from_plus=not layer)
        apply_mixer(state, beta_list[layer], blocks[layer])
        if resume and layer < last:  # the state becomes the layer's snapshot
            snapshots[layer], workspace.state = workspace.state, snapshots[layer]
    factors.snapshotted = resume > 0
    return state


def expectation_exact(state: MirroredHalf, diag: CostDiagonal) -> float:
    """Sum_z |amps[z]|^2 * values[z]: twice the sum over the kept half.

    The product runs in the workspace's spare.
    """
    amps = state.half
    if 2 * amps.size != diag.values.size:
        raise ValueError("state and diagonal dimensions differ")
    product = np.multiply(diag.values[:amps.size], amps, out=state.workspace.spare.half)
    return 2.0 * float(np.vdot(amps, product).real)


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
    cdf = state._cdf()
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
    mean, vals = _sampled_mean(state, diag, shots, seed)
    if shots == 1:
        return mean, 0.0
    return mean, float(vals.std(ddof=1) / np.sqrt(shots))


def _sampled_mean(state: MirroredHalf, diag: CostDiagonal, shots: int,
                  seed: int | np.random.Generator) -> tuple[float, np.ndarray]:
    """The mean of ``expectation_sampled``, and the sampled values it is
    taken over; an objective that needs no standard error calls this."""
    if shots < 1:
        raise ValueError(f"need shots >= 1, got {shots}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    vals = diag.values[_sample_indices(state, shots, rng)]
    return float(np.add.reduce(vals)) / shots, vals


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
