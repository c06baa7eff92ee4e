"""End-to-end multicarrier modulation chain.

A frame of K·L/2 payload symbols is mapped to the edge subcarriers of
K staggered multicarrier symbols, precoded through a chirped transform
with a per-subcarrier gain compensation, synthesized on an N-point
grid, and shaped by a half-period overlapped filter bank.

The modem holds the filter bank as its gained taps only.  Row r of
the single-symbol bank matrix carries taps[r] in column r mod N and
nothing else, so the receive bank is a tap weighting followed by a
fold of the window onto the N-point grid (:meth:`AfbmModem._fold`).

The build reads its DFT matrices from roots of unity, and the
synthesis block applies its DFT stages as FFTs
(:func:`afbm.transforms.synthesis_block`).  The modem keeps C, the
N x L/2 map from one symbol's payload to its N-point grid (synthesis o
precoder on the active columns).

Filtered-time-domain detection reads the receive bank's output.
Affine-domain detection is C^H after it: the adjoint of the DAFT,
despreading and demapping stages, applied per window.  Since the
per-symbol transmit block is the bank o C, C^H after the bank is the
matched receiver, the adjoint of :meth:`AfbmModem.modulate`.  The same
holds for the effective channels: the affine one is
(I_K kron C^H) H_f, with H_f the filtered one.

Each effective channel carries its block support, the (receive
window, symbol) blocks that propagation reached; every other block is
exactly zero, and the Gram (:func:`afbm.equalize._gram`) skips them.
A path is a cyclic shift times a diagonal twist, so the filtered
channel is read on the N-point grid: each block is a sum of scalar
tap weights times rolled copies of C.  One kernel
(:meth:`AfbmModem._filtered_windows`) produces it one receive window at
a time, and every consumer reads the windows as they come:
:meth:`AfbmModem.effective_channel_filtered` copies them into H_f, and
the per-realization sweep (:func:`afbm.metrics._systems`), which serves
SIR samples and BER frames alike, sums them into the filtered Gram and
right-hand side without forming H_f.

The affine channel has two routes, and each modem picks one at build
from a multiply-add count of its shapes: propagate each symbol's
transmit block over its own support (its span plus the largest delay,
wrapping cyclically) and project it onto the receive windows it
overlaps with the block's adjoint, or map each filtered window through
C^H as it is produced.  The second wins for a prototype long against N
(PHYDYAS), where a symbol shares many rows with each window; a short
one (Hermite) projects directly.  Neither holds H_f, and the sweep
fills the second route's rows in the same pass as the filtered Gram.

No fast path forms a dense matrix.  Effective channels take channel
realizations only; the dense matrices they are checked against
(:meth:`AfbmModem.modulation_matrix`, :meth:`AfbmModem.filter_matrix`
around :func:`afbm.channel.channel_matrix`, and H_f itself) are
oracles, built on each call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as _channel
from .filters import _FAMILIES, block_toeplitz
from .transforms import daft_matrix, default_c1, default_c2, synthesis_block

__all__ = [
    "AFFINE",
    "FILTERED",
    "AfbmModem",
    "EffectiveChannel",
    "ModulationConfig",
    "active_indices",
    "design_config",
    "mapping_matrix",
    "qam_alphabet",
    "qam_demap",
    "qam_map",
]

# Detection domain tags.
AFFINE = "affine"
FILTERED = "filtered"


@dataclass(frozen=True)
class ModulationConfig:
    """Grid and transform parameters of one modulation setup.

    Every field is required: :func:`design_config` is the one place
    that declares defaults.  The filter family fixes the prototype and
    so the overlap (:attr:`overlap`).

    Parameters
    ----------
    L : int
        Subcarriers per symbol; divisible by 4.  Half of them carry
        payload (the first and last quarter), the middle half is guard.
    K : int
        Multicarrier symbols per frame.
    N : int
        Filter-bank grid size, L < P <= N.
    P : int
        Chirped-transform size between the subcarrier and bank grids.
    filter_family : str
        "hermite" (overlap 1.5) or "phydyas" (overlap 4).
    f_max : float
        Worst-case Doppler, finite and non-negative.
    xi : int
        Guard width.  With f_max it sets :attr:`c1`, the pre-chirp rate
        both DAFT stages share so that they cancel through the grid
        embedding; an n-point stage post-chirps at ``default_c2(n)``.
    """

    L: int
    K: int
    N: int
    P: int
    filter_family: str
    f_max: float
    xi: int

    def violations(self) -> list[str]:
        """All violated structural constraints, empty when valid.  None
        reads a derived value, so an unknown family is reported here
        before :attr:`overlap` or :attr:`frame_size` is read."""
        out = []
        if self.filter_family not in _FAMILIES:
            out.append(f"filter family must be one of {sorted(_FAMILIES)}, "
                       f"got {self.filter_family!r}")
        if self.L < 4:
            out.append(f"need L >= 4, got L={self.L}")
        if not self.L < self.P <= self.N:
            out.append(f"need L < P <= N, got L={self.L} P={self.P} N={self.N}")
        if self.L % 4:
            out.append(f"L must be divisible by 4, got {self.L}")
        for name in ("L", "N", "P"):
            if getattr(self, name) % 2:
                out.append(f"{name} must be even, got {getattr(self, name)}")
        if self.K < 1:
            out.append(f"need K >= 1, got K={self.K}")
        if self.xi < 0:
            out.append(f"guard width must be >= 0, got {self.xi}")
        if not (math.isfinite(self.f_max) and self.f_max >= 0):
            out.append(f"f_max must be finite and >= 0, got {self.f_max}")
        return out

    @property
    def overlap(self) -> float:
        """Filter overlap factor in grid periods, fixed by the family."""
        overlap, _ = _FAMILIES[self.filter_family]
        return overlap

    @property
    def c1(self) -> float:
        """Pre-chirp rate of both DAFT stages, from f_max and xi."""
        return default_c1(self.f_max, self.xi, self.P)

    @property
    def payload_size(self) -> int:
        return self.K * self.L // 2

    @property
    def frame_size(self) -> int:
        """Transmit samples per frame, overlap*N + (K-1)*N/2."""
        return round(self.overlap * self.N) + (self.K - 1) * self.N // 2


def _design_prototype(cfg: ModulationConfig) -> np.ndarray:
    """The taps of the family's designed prototype on the configuration's
    grid."""
    _, design = _FAMILIES[cfg.filter_family]
    return design(cfg.N)


def design_config(L: int, K: int, N: int, P: int,
                  filter_family: str = "hermite", f_max: float = 2.0,
                  xi: int = 0) -> ModulationConfig:
    """A configuration with the default family, Doppler and guard; its
    overlap follows the family and its chirp rates derive from ``f_max``
    and ``xi`` (:attr:`ModulationConfig.c1`)."""
    return ModulationConfig(L, K, N, P, filter_family, f_max, xi)


@dataclass(frozen=True, eq=False)
class EffectiveChannel:
    """Dense end-to-end channel matrix in a declared detection domain.

    ``support`` is a K x K boolean array whose entry [j, k] is set when
    the block of receive window j and symbol k can be nonzero: the
    matrix is K x K blocks, rows split evenly over the windows and
    columns over the symbols, and every block outside the support is
    exactly zero.  None means dense, every block possibly nonzero.
    """

    matrix: np.ndarray
    domain: str
    support: np.ndarray | None = None

    def __post_init__(self):
        if self.domain not in (AFFINE, FILTERED):
            raise ValueError(f"unknown domain {self.domain!r}")
        if self.support is not None:
            K = self.support.shape[0]
            if self.support.shape != (K, K) or any(
                    n % K for n in self.matrix.shape):
                raise ValueError(f"support of shape {self.support.shape} "
                                 f"does not split a {self.matrix.shape} "
                                 f"matrix into square blocks")


def _support_runs(support: np.ndarray) -> list[list[tuple[int, int]]]:
    """Per row of a block support, the [a, b) runs of consecutive set
    entries, in column order."""
    runs = []
    for row in support:
        edges = np.flatnonzero(np.diff(row, prepend=False, append=False))
        runs.append(list(zip(edges[::2].tolist(), edges[1::2].tolist())))
    return runs


def active_indices(L: int) -> np.ndarray:
    """Payload subcarrier indices: the first and last L/4."""
    if L % 4:
        raise ValueError(f"L must be divisible by 4, got {L}")
    q = L // 4
    return np.concatenate([np.arange(q), np.arange(3 * q, L)])


def mapping_matrix(L: int, K: int) -> np.ndarray:
    """LK x KL/2 selection matrix scattering payload onto edge subcarriers.

    Column j of each per-symbol block has a single 1 in the row of the
    j-th active subcarrier; the middle L/2 subcarriers receive nothing.
    The matrix has orthonormal columns by construction.
    """
    act = active_indices(L)
    single = np.zeros((L, L // 2))
    single[act, np.arange(L // 2)] = 1.0
    out = np.zeros((L * K, K * L // 2))
    for k in range(K):
        out[k * L:(k + 1) * L, k * L // 2:(k + 1) * L // 2] = single
    return out


class AfbmModem:
    """Precomputed operators of one modulation configuration.

    Builds the chirped transforms, the synthesis block, the filter
    bank of the family's designed prototype and the gain compensation
    once, then exposes fast per-symbol modulate/demodulate paths along
    with their dense matrix oracles.  A configuration with violations
    (:meth:`ModulationConfig.violations`), an unknown family among
    them, is refused with a ValueError before anything is built.

    The filter bank inside the modem carries gain sqrt(N/2) on top of
    the unit-energy prototype.  At half-symbol stride the unit bank is
    a tight frame with bound 2/N, so this gain makes analysis-synthesis
    near-unit: transmit columns come out unit norm and the filtered
    Gram of an identity channel sits near the identity, putting both
    detection domains on the same noise scale.
    """

    def __init__(self, cfg: ModulationConfig):
        problems = cfg.violations()
        if problems:
            raise ValueError("; ".join(problems))
        self.cfg = cfg
        # The bank as gained taps: row r of the single-symbol bank matrix
        # holds taps[r] in column r mod N and nothing else.
        self._taps = np.sqrt(cfg.N / 2) * _design_prototype(cfg)
        # Column energies of the bank, one fold of the squared taps.
        self._bank_energy = self._fold(self._taps ** 2)

        # Synthesis o the L-point DAFT of the precoder.
        composed = synthesis_block(cfg) @ daft_matrix(
            cfg.c1, default_c2(cfg.L), cfg.L)
        gram_diag = self._bank_energy @ (np.abs(composed) ** 2)
        act = active_indices(cfg.L)
        if np.any(gram_diag[act] <= 0):
            raise ValueError("bank Gram vanishes on an active subcarrier")
        comp = np.zeros(cfg.L)
        comp[act] = 1.0 / np.sqrt(gram_diag[act])
        self._comp = comp

        # C, the N x L/2 grid-to-payload map of one symbol: synthesis o
        # precoder, restricted to the active columns.  The per-symbol
        # transmit block is the bank o C; its columns are unit norm.
        self._spread = (composed * comp[None, :])[:, act]
        # C^H, the affine receiver after the filtered one.
        self._despread = self._spread.conj().T
        self._tx_block = self._taps[:, None] * \
            self._spread[np.arange(self._taps.size) % cfg.N]
        self._affine_from_filtered = self._route_through_filtered()
        # Mean output-branch energy of each receive front end.
        self._branch_energy = {
            AFFINE: np.mean(np.sum(np.abs(self._tx_block) ** 2, axis=0)),
            FILTERED: np.mean(self._bank_energy),
        }

    def _fold(self, values: np.ndarray) -> np.ndarray:
        """Add the rows of ``values`` onto grid rows taken mod N: the
        transposed bank's action on values already weighted by their
        taps, in ceil(rows/N) contiguous chunks."""
        N = self.cfg.N
        out = np.zeros((N,) + values.shape[1:], dtype=values.dtype)
        for a in range(0, values.shape[0], N):
            chunk = values[a:a + N]
            out[:chunk.shape[0]] += chunk
        return out

    # ------------------------------------------------------------- fast paths

    def modulate(self, x: np.ndarray) -> np.ndarray:
        """Transmit frame for a payload vector of length K*L/2.

        Linear in the payload; per-symbol blocks are overlap-added at
        half-period stride.
        """
        cfg = self.cfg
        x = np.asarray(x, dtype=complex)
        if x.shape != (cfg.payload_size,):
            raise ValueError(f"payload must have shape ({cfg.payload_size},), "
                             f"got {x.shape}")
        h = cfg.N // 2
        blocks = self._tx_block @ x.reshape(cfg.K, cfg.L // 2).T
        s = np.zeros(cfg.frame_size, dtype=complex)
        span = self._tx_block.shape[0]
        for k in range(cfg.K):
            s[k * h:k * h + span] += blocks[:, k]
        return s

    def _receive_windows(self, r: np.ndarray) -> np.ndarray:
        """N x K receive bank outputs of a frame: window k, frame rows
        [k N/2, k N/2 + span), weighted by the taps and folded onto the
        N-point grid (:meth:`_fold`)."""
        cfg = self.cfg
        r = np.asarray(r, dtype=complex)
        if r.shape != (cfg.frame_size,):
            raise ValueError(f"frame must have shape ({cfg.frame_size},), "
                             f"got {r.shape}")
        h = cfg.N // 2
        span = self._taps.size
        windows = np.stack([r[k * h:k * h + span] for k in range(cfg.K)],
                           axis=1)
        return self._fold(self._taps[:, None] * windows)

    def matched_demodulate(self, r: np.ndarray) -> np.ndarray:
        """Adjoint of :meth:`modulate`: C^H after the receive bank
        analysis of :meth:`filtered_receive`."""
        windows = self._receive_windows(r)
        return (self._despread @ windows).T.reshape(-1)

    def filtered_receive(self, r: np.ndarray) -> np.ndarray:
        """Receive bank analysis only: length-NK vector of per-symbol
        filtered grids, the input of filtered-domain detection."""
        return self._receive_windows(r).T.reshape(-1)

    def received_noise_power(self, domain: str, sigma2: float) -> float:
        """Per-branch noise variance after the receive front end.

        White noise of power ``sigma2`` on the frame passes through the
        matched demodulator (affine domain) or the analysis bank
        (filtered domain); either front end scales each output branch by
        its column energy.  This is the variance a white-noise equalizer
        should regularize with.

        Parameters
        ----------
        domain : str
            ``AFFINE`` or ``FILTERED``.
        sigma2 : float
            Noise variance per frame sample.

        Returns
        -------
        float
            Noise variance per receive branch.
        """
        if not sigma2 >= 0:
            raise ValueError(f"noise variance must be >= 0, got {sigma2}")
        try:
            energy = self._branch_energy[domain]
        except KeyError:
            raise ValueError(f"unknown domain {domain!r}") from None
        return float(sigma2 * energy)

    # ---------------------------------------------------------- dense oracles

    def modulation_matrix(self) -> np.ndarray:
        """Dense frame_size x KL/2 transmit matrix, built on each call."""
        cfg = self.cfg
        h = cfg.N // 2
        span, width = self._tx_block.shape
        S = np.zeros((cfg.frame_size, cfg.payload_size), dtype=complex)
        for k in range(cfg.K):
            S[k * h:k * h + span, k * width:(k + 1) * width] += \
                self._tx_block
        return S

    def filter_matrix(self) -> np.ndarray:
        """Dense frame_size x NK transmit filter bank with the modem gain,
        built on each call."""
        return block_toeplitz(self._taps, self.cfg.N, self.cfg.K)

    # ------------------------------------------------------ effective channels

    def _twists(self, c) -> list[tuple[int, np.ndarray]]:
        """Per path of ``c``, its delay modulo the frame and its twist
        (:func:`afbm.channel._path_twists`).  Anything but a channel
        realization raises TypeError."""
        if not isinstance(c, _channel.ChannelRealization):
            raise TypeError(f"effective channels take a ChannelRealization, "
                            f"got {type(c).__name__}")
        return _channel._path_twists(c, self.cfg.frame_size)

    def _reach(self, k: int, n: int):
        """Where a strip of n <= M rows from symbol k's first frame row
        lands: (j, lo, hi, first) per segment of it inside receive
        window j, on window rows [lo, hi) from strip row ``first`` on.

        The strip wraps cyclically past the frame end, so inside a
        window its rows form at most two contiguous segments: the part
        before the frame end and the part that wrapped onto the frame
        start.
        """
        cfg = self.cfg
        M, h, span = cfg.frame_size, cfg.N // 2, self._taps.size
        start = k * h
        segments = [(start, min(start + n, M), 0)]
        if start + n > M:
            segments.append((0, start + n - M, M - start))
        for j in range(cfg.K):
            w0 = j * h
            for a, b, offset in segments:
                lo, hi = max(a, w0), min(b, w0 + span)
                if lo < hi:
                    yield j, lo - w0, hi - w0, offset + lo - a

    def _block_support(self, twists) -> np.ndarray:
        """The K x K block support of a channel with these path
        ``twists``: [j, k] is set when symbol k's propagated strip, its
        span plus the largest delay and at most the frame, reaches
        receive window j (:meth:`_reach`)."""
        K = self.cfg.K
        length = min(self._taps.size + max(d for d, _ in twists),
                     self.cfg.frame_size)
        support = np.zeros((K, K), dtype=bool)
        for k in range(K):
            for j, *_ in self._reach(k, length):
                support[j, k] = True
        return support

    def _propagated_pieces(self, twists):
        """Each symbol's transmit block propagated through the paths of
        ``twists`` (:meth:`_twists`), cut at the receive windows.

        Symbol k occupies frame rows [k N/2, k N/2 + span).  A path
        delays that support by d (mod M), so the symbol's response lies
        on a strip of span + max d rows starting at k N/2, which wraps
        cyclically past the frame end (:meth:`_reach`); a strip longer
        than the frame is folded onto itself.

        Yields (k, j, lo, hi, piece): ``piece`` is the strip of symbol k
        on rows [lo, hi) of receive window j, window-relative, for each
        block [j, k] of :meth:`_block_support`.
        """
        cfg = self.cfg
        M, h = cfg.frame_size, cfg.N // 2
        span, width = self._tx_block.shape
        length = span + max(d for d, _ in twists)
        for k in range(cfg.K):
            start = k * h
            strip = np.zeros((length, width), dtype=complex)
            for d, twist in twists:
                rows = (start + d + np.arange(span)) % M
                strip[d:d + span] += twist[rows, None] * self._tx_block
            if length > M:
                strip[:length - M] += strip[M:]
                strip = strip[:M]
            for j, lo, hi, first in self._reach(k, strip.shape[0]):
                yield k, j, lo, hi, strip[first:first + hi - lo]

    def _route_through_filtered(self) -> bool:
        """Whether the affine channel costs fewer multiply-adds as
        (I_K kron C^H) times the filtered one than projected directly.

        Counted for a delay-free channel: the direct projection spends
        (L/2)^2 per row a symbol shares with a receive window, the route
        through the filtered channel N (L/2)^2 per block it touches.  A
        prototype long against N shares many rows per block, so the
        second is cheaper.
        """
        cfg = self.cfg
        k = np.arange(cfg.K)
        shared = np.maximum(
            self._taps.size - np.abs(k[:, None] - k[None, :]) * (cfg.N // 2),
            0)
        return bool(cfg.N * np.count_nonzero(shared) < shared.sum())

    def effective_channel_affine(self, c) -> EffectiveChannel:
        """Payload-to-payload matrix seen by affine-domain detection.

        The matched receive chain composed with the transmit chain
        propagated through the channel realization ``c``, restricted to
        payload coordinates on both sides.  The modem computes it one
        way, fixed at build by :meth:`_route_through_filtered`: either
        each symbol is propagated on its own support and projected
        window by window with the per-symbol block's adjoint, or each
        filtered window is mapped through C^H as the kernel produces it
        (:meth:`_affine_rows`; the affine receiver is C^H after the
        filtered one), so H_f is never held.  Anything but a channel
        realization as ``c`` raises TypeError.
        """
        cfg = self.cfg
        out = np.zeros((cfg.payload_size,) * 2, dtype=complex)
        if not self._affine_from_filtered:
            return EffectiveChannel(out, AFFINE, self._project_affine(c, out))
        buffer = np.empty((cfg.N, cfg.payload_size), dtype=complex)
        support, sweep = self._filtered_windows(c, buffer)
        runs = _support_runs(support)
        for j, window in sweep:
            self._affine_rows(out, j, window, runs[j])
        return EffectiveChannel(out, AFFINE, support)

    def _project_affine(self, c, out: np.ndarray) -> np.ndarray:
        """The direct route of :meth:`effective_channel_affine`: add each
        symbol's propagated pieces, projected with the per-symbol
        block's adjoint, into the zeroed KL/2 x KL/2 ``out``.  Returns
        the block support, the blocks a piece reached."""
        twists = self._twists(c)
        w = self._tx_block.shape[1]
        adjoint = self._tx_block.conj().T
        for k, j, lo, hi, piece in self._propagated_pieces(twists):
            out[j * w:(j + 1) * w, k * w:(k + 1) * w] += \
                adjoint[:, lo:hi] @ piece
        return self._block_support(twists)

    def _affine_rows(self, out: np.ndarray, j: int, window: np.ndarray,
                     runs: list[tuple[int, int]]) -> None:
        """Write the affine channel's rows of receive window j into
        ``out``: C^H times filtered window j on each [a, b) run of the
        symbols it supports.  Blocks off the runs are left as they are."""
        w = self._despread.shape[0]
        for a, b in runs:
            np.matmul(self._despread, window[:, a * w:b * w],
                      out=out[j * w:(j + 1) * w, a * w:b * w])

    def _weight_table(self, twists) -> np.ndarray:
        """Tap weights of the filtered channel per j - k, path and class.

        Window row r (of span) of receive window j is frame row jh + r
        (h = N/2) and folds onto grid row rho = r mod N.  A path of
        delay d and twist tau feeds it from row i = (jh + r - kh - d)
        mod M of symbol k, when i < span, with taps[r] tau[jh + r]
        taps[i] C[i mod N].  Since M is a multiple of h, i mod N is
        (rho - d + c h) mod N, where the class c = (j - k + e 2M/N)
        mod 2 and e counts the times the delay wrapped past the frame
        start.  A twist is a pure tone, so tau[jh + r] is tau[r] turned
        by the tone's phase at jh, and i depends on j - k only.

        Entry [rho, u, p, c] sums taps[r] tau_p[r] taps[i] over the r of
        class c that fold onto rho, for j - k = K - 1 - u.
        """
        cfg = self.cfg
        N, K, M, h = cfg.N, cfg.K, cfg.frame_size, cfg.N // 2
        span = self._taps.size
        # Window rows padded to whole grid periods; r past span weighs 0.
        r = np.arange(-(-span // N) * N)
        taps_at = np.zeros(M)
        taps_at[:span] = self._taps
        j_minus_k = (K - 1 - np.arange(2 * K - 1))[:, None]
        table = np.zeros((N, 2 * K - 1, len(twists), 2), dtype=complex)
        for p, (d, twist) in enumerate(twists):
            source = r + j_minus_k * h - d
            wraps = -(source // M)
            lead = np.zeros(r.size, dtype=complex)
            lead[:span] = self._taps * twist[:span]
            values = lead * taps_at[source % M]
            cls = (j_minus_k + wraps * (2 * M // N)) % 2
            for half in (0, 1):
                table[:, :, p, half] = np.where(cls == half, values, 0) \
                    .reshape(2 * K - 1, -1, N).sum(axis=1).T
        return table

    def _filtered_windows(self, c, window):
        """The filtered channel H_f of realization ``c``, one receive
        window (N x KL/2) at a time.

        A path is a cyclic shift times a diagonal twist, so on the
        N-point grid block (j, k) is a sum over paths p and classes c
        of diag(w_jkpc) R_pc, where R_pc holds C's rows at
        (rho - d + c h) mod N and w_jkpc is the tone phase of path p at
        window j times the :meth:`_weight_table` entry of j - k.  The
        stacked R_pc are built once per call; each window's weights are
        applied to them by one batched product over its N rows,
        zero-weight blocks included, so no propagated row is formed and
        every entry is written once.

        ``window`` is one C-ordered N x KL/2 buffer.  Returns the block
        support, the propagated strips' reach (:meth:`_reach`), and an
        iterator that overwrites ``window`` with window j and yields
        (j, window), for j in order.  Anything but a channel realization
        as ``c`` raises TypeError here, before any window is written.
        """
        twists = self._twists(c)
        cfg = self.cfg
        N, K, M, h = cfg.N, cfg.K, cfg.frame_size, cfg.N // 2
        w = self._tx_block.shape[1]
        table = self._weight_table(twists)
        delays = np.array([d for d, _ in twists])
        rolled = (np.arange(N)[:, None, None] - delays[None, :, None]
                  + np.array([0, h])) % N
        dopplers = np.array([path.doppler for path in c.paths])
        phase = np.exp(-2j * np.pi * h * np.arange(K)[:, None] * dopplers / M)
        support = self._block_support(twists)

        def sweep():
            # 2 x paths rolled copies of C (1.5 MB at 3 paths, N = 256).
            stacked = self._spread[rolled].reshape(N, 2 * len(twists), w)
            for j in range(K):
                # Window j reads table rows K - 1 - j ... 2K - 2 - j, the
                # j - k of symbols 0 ... K - 1.
                weights = table[:, K - 1 - j:2 * K - 1 - j] * \
                    phase[j, None, None, :, None]
                np.matmul(weights.reshape(N, K, -1), stacked,
                          out=window.reshape(N, K, w))
                yield j, window

        return support, sweep()

    def effective_channel_filtered(self, c) -> EffectiveChannel:
        """Payload-to-filtered-grid matrix seen by filtered-domain detection.

        Rows live on the NK-point receive bank output; columns are the
        payload coordinates.  With an identity channel this matrix is a
        near isometry.  The oracle of :func:`afbm.metrics._systems`, it
        copies each window of :meth:`_filtered_windows` into its rows.
        Anything but a channel realization as ``c`` raises TypeError.
        """
        cfg = self.cfg
        out = np.empty((cfg.K, cfg.N, cfg.payload_size), dtype=complex)
        support, sweep = self._filtered_windows(c, np.empty_like(out[0]))
        for j, window in sweep:
            out[j] = window
        return EffectiveChannel(out.reshape(cfg.N * cfg.K, -1), FILTERED,
                                support)

    def effective_channel(self, c, domain: str) -> EffectiveChannel:
        """The effective channel of realization ``c`` in domain ``domain``."""
        if domain == AFFINE:
            return self.effective_channel_affine(c)
        if domain == FILTERED:
            return self.effective_channel_filtered(c)
        raise ValueError(f"unknown domain {domain!r}")


# ------------------------------------------------------------------- QAM maps


def _gray_levels(bits_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """PAM levels indexed by bit pattern, plus the inverse lookup.

    Position i (amplitude order) carries pattern i ^ (i >> 1), the
    binary-reflected Gray code, so adjacent levels differ in one bit.
    """
    m = 1 << bits_per_axis
    positions = np.arange(m)
    patterns = positions ^ (positions >> 1)
    level_of_pattern = np.empty(m, dtype=float)
    level_of_pattern[patterns] = 2.0 * positions - (m - 1)
    pattern_of_position = patterns
    return level_of_pattern, pattern_of_position


def _qam_params(order: int) -> tuple[int, float]:
    bits = int(order).bit_length() - 1
    if order < 4 or 1 << bits != order or bits % 2:
        raise ValueError(f"order must be an even power of 2 (4, 16, 64, "
                         f"...), got {order}")
    # Mean symbol energy of the unnormalized square constellation.
    m = 1 << (bits // 2)
    energy = 2.0 * (m * m - 1) / 3.0
    return bits, np.sqrt(energy)


def qam_alphabet(order: int = 4) -> np.ndarray:
    """Unit-average-energy Gray-mapped square QAM alphabet.

    Entry v is the symbol of bit pattern v, first half of the bits on
    the in-phase axis, second half on the quadrature axis.
    """
    bits, scale = _qam_params(order)
    half = bits // 2
    level, _ = _gray_levels(half)
    v = np.arange(order)
    re = level[v >> half]
    im = level[v & ((1 << half) - 1)]
    return (re + 1j * im) / scale


def qam_map(bits: np.ndarray, order: int = 4) -> np.ndarray:
    """Map a 0/1 vector to constellation symbols, most significant bit first."""
    bits = np.asarray(bits, dtype=np.int64)
    n, _ = _qam_params(order)
    if bits.size % n:
        raise ValueError(f"bit count must be divisible by {n}, "
                         f"got {bits.size}")
    groups = bits.reshape(-1, n)
    values = groups @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))
    return qam_alphabet(order)[values]


def qam_demap(symbols: np.ndarray, order: int = 4) -> np.ndarray:
    """Nearest-neighbor hard demapping back to bits.

    Square QAM factors over the two axes, so per-axis nearest level is
    the exact nearest neighbor; round trip with :func:`qam_map` is the
    identity in the noiseless case.
    """
    symbols = np.asarray(symbols, dtype=complex)
    bits, scale = _qam_params(order)
    half = bits // 2
    level, pattern_of_position = _gray_levels(half)
    m = 1 << half

    def axis_patterns(values):
        # Nearest odd level by rounding the scaled coordinate.
        pos = np.clip(np.round((values * scale + (m - 1)) / 2.0), 0, m - 1)
        return pattern_of_position[pos.astype(np.int64)]

    v = (axis_patterns(symbols.real) << half) | axis_patterns(symbols.imag)
    shifts = np.arange(bits - 1, -1, -1, dtype=np.int64)
    return ((v[:, None] >> shifts[None, :]) & 1).reshape(-1)
