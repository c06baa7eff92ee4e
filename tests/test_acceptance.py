"""Acceptance gate: seven end-to-end checks, one verdict line each.

Every test prints and records a single ``[n] name: PASS/FAIL`` line;
the collected lines are echoed in an "acceptance checks" summary block
after the run, so a plain ``pytest tests/test_acceptance.py`` shows all
outcomes at a glance even when individual assertions fail.  The
200-realization channel experiment is executed once and shared by
checks 3 and 4.
"""

import time

import numpy as np
import pytest

from afbm import (AFFINE, FILTERED, AfbmModem, ChannelConfig, ChirpParams,
                  apply_channel, ber_curve, channel_matrix, daft_matrix,
                  delta_from_gram, design_config, sample_channel,
                  sir_conditioned, sir_pass, sir_waveform,
                  synthesis_block, trial_stream)
from afbm.cli import PRESETS, run
from afbm.equalize import _gram
from afbm.modem import mapping_matrix

# Reference SIR averages (dB) the statistical run reproduces to +-3 dB.
REFERENCE_AVERAGE_DB = {
    ("hermite", 192, AFFINE): 14.87,
    ("hermite", 256, AFFINE): 20.67,
    ("phydyas", 192, AFFINE): 12.34,
    ("phydyas", 256, AFFINE): 20.08,
    ("hermite", 192, FILTERED): 43.01,
    ("hermite", 256, FILTERED): 45.18,
    ("phydyas", 192, FILTERED): 42.43,
    ("phydyas", 256, FILTERED): 43.44,
}

SWEEP_GRIDS = {128: (72, 80, 96, 112, 120, 128),
               256: (144, 160, 192, 224, 240, 256)}

BER_SNR_GRID = tuple(range(0, 22, 2))
BER_CHANNEL = ChannelConfig(n_paths=3, delay_max=12, doppler_max=1.0)


def _verdict(record, index: int, name: str, ok: bool, detail: str) -> bool:
    line = f"[{index}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    record(line)
    print(line)
    return ok


def _crossing(snrs, bers, level=1e-2):
    """SNR where the curve crosses ``level``, log-linear between points."""
    logs = np.log10(np.maximum(np.asarray(bers, dtype=float), 1e-12))
    for i in range(len(snrs) - 1):
        if bers[i] >= level > bers[i + 1]:
            t = (np.log10(level) - logs[i]) / (logs[i + 1] - logs[i])
            return snrs[i] + t * (snrs[i + 1] - snrs[i])
    return np.nan


@pytest.fixture(scope="module")
def channel_sir_report():
    """The full 200-realization channel SIR experiment, run once."""
    return run(PRESETS["channel-stats"], workers=1)


def _table(report):
    avg, minimum = {}, {}
    for family, P, domain, metric, value in report.rows:
        if metric == "average_db":
            avg[(family, P, domain)] = value
        elif metric == "minimum_db":
            minimum[(family, P, domain)] = value
    return avg, minimum


def test_waveform_sir_point(acceptance_recorder):
    t0 = time.perf_counter()
    result = sir_waveform(AfbmModem(design_config(64, 8, 128, 96, "phydyas")))
    elapsed = time.perf_counter() - t0
    ok = abs(result.value_db - 15.0) <= 1.5 and elapsed < 10.0
    assert _verdict(
        acceptance_recorder, 1, "waveform SIR point check", ok,
        f"{result.value_db:.2f} dB, target 15 +- 1.5 dB; {elapsed:.1f} s")


def test_waveform_sir_peak_location(acceptance_recorder):
    t0 = time.perf_counter()
    ok = True
    notes = []
    for N, grid in SWEEP_GRIDS.items():
        values = [
            sir_waveform(AfbmModem(
                design_config(N // 2, 8, N, P, "hermite"))).value_db
            for P in grid]
        best = grid[int(np.argmax(values))]
        ok = ok and best == N
        notes.append(f"N={N} peak at P={best} ({max(values):.2f} dB)")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    assert _verdict(
        acceptance_recorder, 2, "waveform SIR peak at full grid", ok,
        "; ".join(notes) + f"; {elapsed:.1f} s")


@pytest.mark.slow
def test_channel_sir_averages(channel_sir_report, acceptance_recorder):
    avg, _ = _table(channel_sir_report)
    misses = []
    for key, reference in REFERENCE_AVERAGE_DB.items():
        delta = avg[key] - reference
        if abs(delta) > 3.0:
            family, P, domain = key
            misses.append(f"{family}/P={P}/{domain} {delta:+.2f} dB")
    ok = not misses and channel_sir_report.elapsed_s < 1800.0
    detail = f"{8 - len(misses)}/8 rows within +-3 dB"
    if misses:
        detail += "; out: " + ", ".join(misses)
    detail += f"; {channel_sir_report.elapsed_s:.0f} s"
    assert _verdict(
        acceptance_recorder, 3, "channel SIR table averages", ok, detail)


@pytest.mark.slow
def test_filtered_worst_case_dominance(channel_sir_report,
                                       acceptance_recorder):
    avg, minimum = _table(channel_sir_report)
    ok = True
    margins = []
    for family in ("hermite", "phydyas"):
        for P in (192, 256):
            margin = minimum[(family, P, FILTERED)] - avg[(family, P, AFFINE)]
            ok = ok and margin > 0.0
            margins.append(f"{family}/P={P} {margin:+.2f}")
    assert _verdict(
        acceptance_recorder, 4, "filtered minimum above affine average", ok,
        "margins dB: " + ", ".join(margins))


@pytest.mark.slow
def test_ber_ordering_and_gap(acceptance_recorder):
    t0 = time.perf_counter()
    ordering_ok = True
    labels, gaps, filtered_crossings = [], [], []
    for family in ("hermite", "phydyas"):
        for P in (48, 64):
            modem = AfbmModem(design_config(32, 4, 64, P, family, f_max=1.0))
            curves = {
                domain: ber_curve(modem, BER_CHANNEL, domain, BER_SNR_GRID,
                                  300, 20250819, workers=1)
                for domain in (AFFINE, FILTERED)}
            for affine_pt, filtered_pt in zip(curves[AFFINE],
                                              curves[FILTERED]):
                ordering_ok = ordering_ok and \
                    filtered_pt.ber <= affine_pt.ber
            affine_cross = _crossing(
                BER_SNR_GRID, [p.ber for p in curves[AFFINE]])
            filtered_cross = _crossing(
                BER_SNR_GRID, [p.ber for p in curves[FILTERED]])
            labels.append(f"{family}/P={P}")
            gaps.append(affine_cross - filtered_cross)
            filtered_crossings.append(filtered_cross)
    elapsed = time.perf_counter() - t0
    gaps_ok = all(3.0 <= gap <= 7.0 for gap in gaps)
    spread = max(filtered_crossings) - min(filtered_crossings)
    ok = (ordering_ok and gaps_ok and spread <= 1.0 and elapsed < 600.0)
    detail = ("gaps at 1e-2 dB: "
              + ", ".join(f"{label} {gap:.2f}"
                          for label, gap in zip(labels, gaps))
              + f"; filtered crossing spread {spread:.2f} dB"
              + f"; ordering {'holds' if ordering_ok else 'violated'}"
              + f"; {elapsed:.0f} s")
    assert _verdict(
        acceptance_recorder, 5, "BER ordering and gap", ok, detail)


def test_property_bundle(acceptance_recorder, mid_hermite):
    t0 = time.perf_counter()
    failures = []

    for n, c1, c2 in ((37, 0.013, 0.0007), (64, 5 / 512, 0.003)):
        W = daft_matrix(ChirpParams(c1, c2, n))
        if np.abs(W.conj().T @ W - np.eye(n)).max() >= 1e-10:
            failures.append("transform unitarity")

    Q = synthesis_block(mid_hermite.cfg)
    if np.abs(Q.conj().T @ Q - np.eye(64)).max() >= 1e-10:
        failures.append("synthesis isometry")

    Xi = mapping_matrix(64, 8)
    if not np.array_equal(Xi.T @ Xi, np.eye(256)):
        failures.append("payload mapping orthogonality")

    norms = np.linalg.norm(mid_hermite.modulation_matrix(), axis=0)
    if np.abs(norms - 1.0).max() >= 1e-8:
        failures.append("compensated column gain")

    small = AfbmModem(design_config(16, 2, 32, 24, "hermite", f_max=1.0))
    zf_channel = sample_channel(2, 4, 0.5, trial_stream(20250819, 0),
                                size=small.cfg.frame_size)
    for domain in (AFFINE, FILTERED):
        h = small.effective_channel(zf_channel, domain).matrix
        delta = delta_from_gram(_gram(h), 0.0)
        if np.abs(delta - np.eye(16)).max() >= 1e-6:
            failures.append(f"zero-forcing restoration ({domain})")

    sparse_channel = sample_channel(3, 6, 1.0, trial_stream(5, 1), size=64)
    rng = np.random.default_rng(42)
    s = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    dense = channel_matrix(sparse_channel, 64) @ s
    if np.abs(apply_channel(sparse_channel, s) - dense).max() >= 1e-10:
        failures.append("sparse-vs-dense channel application")

    S = mid_hermite.modulation_matrix()
    identity_delta = S.conj().T @ S
    waveform_db = sir_waveform(mid_hermite).value_db
    conditioned_db = sir_conditioned(identity_delta).diagonal_db
    if abs(waveform_db - conditioned_db) >= 0.1:
        failures.append("waveform-vs-conditioned identity consistency")

    chan = ChannelConfig(2, 4, 0.5)
    first = sir_pass(small, chan, {AFFINE: 0.01}, range(6), 77,
                     averaging="db").statistics[AFFINE]
    second = sir_pass(small, chan, {AFFINE: 0.01}, range(6), 77,
                      averaging="db").statistics[AFFINE]
    if first.samples_db != second.samples_db or \
            first.average_db != second.average_db:
        failures.append("SIR replay")
    ber_first = ber_curve(small, chan, FILTERED, (6.0, 10.0), 10, 123,
                          min_bit_errors=5)
    ber_second = ber_curve(small, chan, FILTERED, (6.0, 10.0), 10, 123,
                           min_bit_errors=5)
    if ber_first != ber_second:
        failures.append("BER replay")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    detail = ("all 9 properties hold" if not failures
              else "failed: " + ", ".join(failures))
    detail += f"; {elapsed:.1f} s"
    assert _verdict(acceptance_recorder, 6, "property bundle", ok, detail)


def test_toy_scale_oracle_equivalence(acceptance_recorder, toy_modem):
    S = toy_modem.modulation_matrix()
    frame = toy_modem.cfg.frame_size
    rng = np.random.default_rng(20250819)
    worst = 0.0
    for _ in range(100):
        x = rng.standard_normal(S.shape[1]) + 1j * rng.standard_normal(
            S.shape[1])
        realization = sample_channel(2, 4, 0.5, rng, size=frame)
        dense_channel = channel_matrix(realization)
        s = toy_modem.modulate(x)
        worst = max(worst, np.abs(s - S @ x).max())
        r = apply_channel(realization, s)
        worst = max(worst, np.abs(r - dense_channel @ s).max())
        y = toy_modem.matched_demodulate(r)
        worst = max(worst, np.abs(y - S.conj().T @ r).max())
    ok = worst < 1e-9
    assert _verdict(
        acceptance_recorder, 7, "toy-scale fast-vs-dense equivalence", ok,
        f"max deviation {worst:.2e} over 100 random frames")
