"""Affine filter bank modulation: waveform, channel, detection, metrics.

The public surface mirrors the processing chain.  `design_config` and
`AfbmModem` build the transmitter and the two receive front ends,
`channel` provides the doubly-dispersive ensemble, `equalize` the MMSE
detectors, and `metrics` the SIR and BER figures of merit.  `cli` wraps
the whole thing in reproducible YAML-driven experiments.
"""

__version__ = "0.7.1"

import importlib

# Public name -> defining module.  Names load on first access, so
# importing the package alone loads no numpy: the command-line entry
# (:mod:`afbm.__main__`) can still set BLAS threading before it does.
_EXPORTS = {
    "channel": ("ChannelConfig", "ChannelRealization", "PathSpec",
                "add_awgn", "apply_channel", "channel_matrix",
                "sample_channel", "trial_stream"),
    "equalize": ("Equalizer", "delta_from_gram", "delta_matrix",
                 "equalize_and_detect", "mmse"),
    "filters": ("hermite_prototype", "phydyas_prototype"),
    "metrics": ("BerPoint", "ConditionedSir", "SirPass", "SirStatistics",
                "ber_curve", "sir_conditioned", "sir_pass", "sir_waveform"),
    "modem": ("AFFINE", "FILTERED", "AfbmModem", "EffectiveChannel",
              "ModulationConfig", "design_config", "qam_alphabet",
              "qam_demap", "qam_map"),
    "transforms": ("daft_matrix", "default_c1", "default_c2",
                   "synthesis_block"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)
