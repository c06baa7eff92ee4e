"""Span tracing of the package from outside, by wrapping its entry points.

Each hook names a module-level function or a method of the package and
the layer it belongs to.  Installing a hook replaces every binding of
that function across the package's modules (``from .x import f`` makes
copies), so calls through any module land in the wrapper.  A wrapper
records a span (name, start, end, parent) and, where the layer has
one, a counter read from the call's arguments or result; it never
alters arguments or results, so traced outputs equal untraced ones.

A hook whose target no longer exists is recorded as absent rather than
raising, so the trace survives refactors that delete a helper.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
from collections import Counter

PACKAGE_MODULES = ("afbm", "afbm.channel", "afbm.modem", "afbm.equalize",
                   "afbm.metrics", "afbm.cli", "afbm.filters",
                   "afbm.transforms")

# Flops of one complex multiply-add, for the shape-derived counts.
_CMAC = 8


class Tracer:
    """Spans and counters of one process, kept in memory until dumped."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, solves]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.ber_points: list[dict] = []
        self.last_heff_rows = 0

    # ------------------------------------------------------------ wrappers

    def span(self, name, fn, on_call=None, on_return=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(self, args, kwargs)
            record = [name, 0.0, 0.0,
                      self.stack[-1] if self.stack else None, 0]
            index = len(self.spans)
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if on_return is not None:
                on_return(self, record, args, kwargs, out)
            return out
        return wrapper

    def counter(self, fn, on_call):
        """Counting wrapper without a span: its time stays with the caller."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(self, args, kwargs)
            return fn(*args, **kwargs)
        return wrapper

    # ------------------------------------------------------------ reduction

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Per-name sum of span duration minus direct children's durations."""
        spans = self.spans[first:]
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for offset, (name, start, end, _, _) in enumerate(spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[
                first + offset]
        return out

    def dump(self) -> dict:
        return {
            "spans": [{"name": n, "start": s, "end": e, "parent": p}
                      for n, s, e, p, _ in self.spans],
            "counts": dict(self.counts),
            "absent": list(self.absent),
            "ber_points": list(self.ber_points),
        }


# ---------------------------------------------------------------- counters


def _columns(tracer, args, kwargs):
    s = args[1] if len(args) > 1 else kwargs["s"]
    ndim = getattr(s, "ndim", 1)
    tracer.counts["channel.apply_channel.columns"] += \
        s.shape[1] if ndim > 1 else 1


def _effective(tracer, record, args, kwargs, out):
    tracer.counts["modem.effective_channel.bytes_computed"] += \
        out.matrix.nbytes
    tracer.last_heff_rows = out.matrix.shape[0]


def _gram_flops(tracer, n):
    tracer.counts["equalize.flop_computed"] += \
        _CMAC * tracer.last_heff_rows * n * n


def _gram(tracer, record, args, kwargs, out):
    _gram_flops(tracer, out.shape[0])


def _conditioned(tracer, record, args, kwargs, out):
    _gram_flops(tracer, out.matrix.shape[0])
    _ridge(tracer, record, args, kwargs, out)


def _solve(tracer, args, kwargs):
    gram, rhs = args[0], args[1]
    n = gram.shape[0]
    m = rhs.shape[1] if rhs.ndim > 1 else 1
    tracer.counts["equalize.factorizations"] += 1
    # Cholesky n^3/3 plus two triangular solves of n^2/2 per column.
    tracer.counts["equalize.flop_computed"] += \
        _CMAC * (n ** 3 / 3 + n * n * m)
    if tracer.stack:
        tracer.spans[tracer.stack[-1]][4] += 1


def _ridge(tracer, record, args, kwargs, out):
    # A second factorization within one call is the ridge retry.
    if record[4] >= 2:
        tracer.counts["equalize.ridge_fallbacks"] += 1


def _mmse(tracer, record, args, kwargs, out):
    rows, cols = args[0].matrix.shape
    tracer.counts["equalize.mmse.rhs_columns"] += rows
    tracer.counts["equalize.flop_computed"] += _CMAC * rows * cols * cols


def _detect(tracer, record, args, kwargs, out):
    rows, cols = args[0].matrix.shape
    tracer.counts["equalize.flop_computed"] += _CMAC * rows * cols


def _sir(tracer, record, args, kwargs, out):
    if math.isinf(out.value_db):
        tracer.counts["metrics.sir.inf_samples"] += 1
    if out.substituted:
        tracer.counts["metrics.sir.substituted"] += 1


def _ber_points(tracer, record, args, kwargs, points):
    from afbm.metrics import ber_curve  # signature() follows __wrapped__

    bound = inspect.signature(ber_curve).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    bits_per_frame = (a["modem"].cfg.payload_size
                      * int(round(math.log2(a["qam_order"]))))
    for point in points:
        used = point.bits_total // bits_per_frame
        early = used < a["trials"]
        tracer.counts["metrics.ber.frames_used"] += used
        tracer.counts["metrics.ber.frames_budget"] += a["trials"]
        tracer.counts["metrics.ber.early_stops"] += int(early)
        tracer.ber_points.append({
            "domain": a["domain"], "snr_db": point.snr_db,
            "frames_used": used, "frames_budget": a["trials"],
            "early_stop": early})


def _bytes_written(tracer, record, args, kwargs, paths):
    tracer.counts["cli.bytes_written"] += sum(os.path.getsize(p)
                                              for p in paths)


# (module, attribute path, span name or None for a pure counter,
#  on_call, on_return, counters fed).
HOOKS = (
    ("afbm.channel", "sample_channel", "channel.sample_channel",
     None, None, ()),
    ("afbm.channel", "apply_channel", "channel.apply_channel",
     _columns, None, ("channel.apply_channel.columns",)),
    ("afbm.channel", "add_awgn", "channel.add_awgn", None, None, ()),
    ("afbm.modem", "AfbmModem.__init__", "modem.build", None, None, ()),
    ("afbm.modem", "AfbmModem.effective_channel_affine",
     "modem.effective_channel", None, _effective,
     ("modem.effective_channel.bytes_computed",)),
    ("afbm.modem", "AfbmModem.effective_channel_filtered",
     "modem.effective_channel", None, _effective,
     ("modem.effective_channel.bytes_computed",)),
    ("afbm.modem", "AfbmModem.modulate", "modem.modulate", None, None, ()),
    ("afbm.modem", "AfbmModem.matched_demodulate", "modem.receive",
     None, None, ()),
    ("afbm.modem", "AfbmModem.filtered_receive", "modem.receive",
     None, None, ()),
    ("afbm.metrics", "_domain_gram", "metrics.gram", None, _gram,
     ("equalize.flop_computed",)),
    ("afbm.equalize", "delta_from_gram", "equalize.delta_from_gram",
     None, _ridge, ()),
    ("afbm.equalize", "conditioned_delta", "equalize.conditioned_delta",
     None, _conditioned, ("equalize.flop_computed",)),
    ("afbm.equalize", "_solve_spd", None, _solve, None,
     ("equalize.factorizations", "equalize.ridge_fallbacks",
      "equalize.flop_computed")),
    ("afbm.equalize", "mmse", "equalize.mmse", None, _mmse,
     ("equalize.mmse.rhs_columns", "equalize.flop_computed")),
    ("afbm.equalize", "equalize_and_detect", "equalize.detect",
     None, _detect, ("equalize.flop_computed",)),
    ("afbm.metrics", "sir_conditioned", "metrics.sir_conditioned",
     None, _sir, ("metrics.sir.inf_samples", "metrics.sir.substituted")),
    ("afbm.metrics", "sir_statistics", "metrics.monte_carlo",
     None, None, ()),
    ("afbm.metrics", "_sir_sample", "metrics.monte_carlo", None, None, ()),
    ("afbm.metrics", "ber_curve", "metrics.monte_carlo", None,
     _ber_points, ("metrics.ber.frames_used",
                         "metrics.ber.frames_budget",
                         "metrics.ber.early_stops")),
    ("afbm.metrics", "_ber_trial", "metrics.monte_carlo", None, None, ()),
    ("afbm.metrics", "interference_map", "metrics.interference_map",
     None, None, ()),
    ("afbm.cli", "validate", "cli.validate", None, None, ()),
    ("afbm.cli", "write_report", "cli.write_report", None,
     _bytes_written, ("cli.bytes_written",)),
    ("afbm.cli", "_write_heatmaps", "cli.heatmap_write", None, None, ()),
)

# Span layers and counters the trace reports, in report order.
SPAN_LAYERS = tuple(dict.fromkeys(h[2] for h in HOOKS if h[2]))
COUNTERS = tuple(dict.fromkeys(c for h in HOOKS for c in h[5]))


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


def replace_everywhere(original, wrapper, owner, leaf, modules):
    """Rebind `original` to `wrapper` on `owner` and in every module."""
    if inspect.isclass(owner):
        setattr(owner, leaf, wrapper)
        return
    for module in modules:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, wrapper)


def install(tracer: Tracer, hooks=HOOKS) -> None:
    """Wrap every hook target that exists; record the missing ones."""
    modules = [importlib.import_module(m) for m in PACKAGE_MODULES]
    for module_name, path, name, on_call, on_return, _ in hooks:
        try:
            owner, leaf, original = _resolve(
                importlib.import_module(module_name), path)
        except (AttributeError, ImportError):
            tracer.absent.append(f"{module_name}.{path}")
            continue
        if name is None:
            wrapper = tracer.counter(original, on_call)
        else:
            wrapper = tracer.span(name, original, on_call, on_return)
        replace_everywhere(original, wrapper, owner, leaf, modules)


def absent_layers(tracer: Tracer, hooks=HOOKS) -> list[str]:
    """Span layers and counters none of whose hooks could be installed."""
    missing = set(tracer.absent)
    names = [h[2] for h in hooks if h[2]] + [c for h in hooks for c in h[5]]
    out = []
    for layer in dict.fromkeys(names):
        targets = [f"{h[0]}.{h[1]}" for h in hooks
                   if h[2] == layer or layer in h[5]]
        if all(t in missing for t in targets):
            out.append(layer)
    return out
