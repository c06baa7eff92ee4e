"""Workload definitions: a preset plus the fields that shrink it.

Each workload is a `cli.PRESETS` entry with overrides applied through
`dataclasses.replace`; the seed always comes from the command line.
The definitions are plain data so the parent harness can read them
without importing numpy or the package under test.

Full scale keeps the presets' waveform (L=128, N=256) and cuts only the
Monte-Carlo budget, so one repetition takes a few seconds on one core.
Toy scale (L=8, K=2, N=16, a two-path channel that satisfies the
separability bound at P <= 16) runs every shape in well under a second.
"""

from __future__ import annotations

_NO_NOISE = (("affine", 0.0), ("filtered", 0.0))

WORKLOADS = {
    # channel-stats shape: the Gram path (_domain_gram -> delta_from_gram)
    # over all four scenarios and both domains; mmse never runs.
    "sir-channel": {
        "preset": "channel-stats",
        "full": {"realizations": 1},
        "toy": {"realizations": 3},
    },
    # ber-curves shape: mmse forms the full equalizer per frame and
    # delta_from_gram never runs.  ber_curve checks its error target
    # every 25 frames, so an early stop costs 25 frames and a full
    # budget 26; K=4 keeps those ~100 frames per repetition near 5 s
    # (K=8 would take ~27 s).  0 dB always reaches min_bit_errors in the
    # first batch; 20 dB never does and uses the whole budget.
    "ber-curves": {
        "preset": "ber-curves",
        "full": {"K": 4, "P": (256,), "filters": ("hermite",),
                 "snr_db": (0.0, 20.0), "trials": 26,
                 "min_bit_errors": 1000},
        "toy": {"P": (12,), "filters": ("hermite",),
                "snr_db": (0.0, 40.0), "trials": 26,
                "min_bit_errors": 60},
    },
    # One scenario with the spec defaults (sigma2 = 0, linear averaging)
    # and heatmaps: a second Monte-Carlo pass inside write_report, two
    # 512x512 heatmap CSVs, every Delta held before averaging, and the
    # zero-forcing ridge fallback.
    "sir-heatmap": {
        "preset": "channel-stats",
        "full": {"realizations": 4, "P": (192,), "filters": ("hermite",),
                 "sigma2": _NO_NOISE, "averaging": "linear",
                 "emit_heatmap": True},
        "toy": {"realizations": 3, "P": (12,), "filters": ("hermite",),
                "sigma2": _NO_NOISE, "averaging": "linear",
                "emit_heatmap": True},
    },
}

_TOY_GRID = {"L": 8, "K": 2, "N": 16, "P": (12, 16), "paths": 2,
             "delay_max": 2, "doppler_max": 0.5}


def overrides(name: str, toy: bool) -> dict:
    """ExperimentSpec field overrides of one workload at one scale."""
    entry = WORKLOADS[name]
    if not toy:
        return dict(entry["full"])
    return {**_TOY_GRID, **entry["toy"]}
