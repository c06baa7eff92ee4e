"""Experiment runner.

One YAML document describes one experiment: the modulation grid (with
filter families and P values allowed as lists, expanded into a
cartesian grid of scenarios), the channel ensemble, the detection
domains, and the Monte-Carlo budget.  Three experiment kinds exist:

``sir-waveform``
    Intrinsic SIR of every scenario, no channel involved.
``sir-channel``
    Channel-conditioned SIR statistics per scenario and domain, and
    with ``emit_heatmap`` the mean |Delta|^2 maps.  One Monte-Carlo
    pass per scenario (:func:`afbm.metrics.sir_pass`) feeds both; the
    maps travel in :attr:`ExperimentReport.heatmaps` and
    :func:`write_report` only formats them.
``ber``
    Bit-error curves over an SNR grid per scenario and domain.

Each config key is declared once, as an :class:`ExperimentSpec` field
with its YAML section and type; only ``sigma2``, a number or a
per-domain mapping, is read by hand.

Outputs land in the chosen directory as ``<kind>-<hash>.csv`` plus a
human-readable ``summary.txt``; the hash is a digest of the canonical
spec serialization, so identical experiments land on identical names.
Nothing is written when validation fails, and :func:`validate` refuses
a bad spec (non-finite noise or SNR values, a negative seed, options
the kind ignores, ...) before any compute; :func:`main` likewise
refuses an output directory it could not create or write in.  Worker
processes default to the cores this process may run on.  The ``afbm``
script and ``python -m afbm`` enter through :mod:`afbm.__main__`, which
pins BLAS to one thread unless the environment says otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields, replace
from typing import get_args, get_origin, get_type_hints

import numpy as np
import yaml

from . import __version__
from .channel import ChannelConfig
from .metrics import ber_curve, sir_pass, sir_waveform
from .filters import _OVERLAP
from .modem import (AFFINE, FILTERED, AfbmModem, ModulationConfig,
                    _design_prototype, design_config, qam_alphabet)
from .transforms import separability_span

__all__ = [
    "ExperimentReport",
    "ExperimentSpec",
    "PRESETS",
    "main",
    "parse_spec",
    "run",
    "serialize_spec",
    "spec_fingerprint",
    "validate",
]

KINDS = ("sir-waveform", "sir-channel", "ber")
_SNR_DEFAULT = tuple(float(s) for s in range(0, 22, 2))


def _in(section: str, default, key: str | None = None):
    """A spec field at ``key``, by default its name, in YAML ``section``."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment; each field is one
    config key, at the top level unless declared :func:`_in` a section."""

    kind: str
    L: int = _in("modulation", 128)
    K: int = _in("modulation", 8)
    N: int = _in("modulation", 256)
    P: tuple[int, ...] = _in("modulation", (192, 256))
    filters: tuple[str, ...] = _in("modulation", ("hermite", "phydyas"),
                                   key="filter")
    xi: int = _in("modulation", 0)
    paths: int = _in("channel", 3)
    delay_max: int = _in("channel", 16)
    doppler_max: float = _in("channel", 2.0)
    domains: tuple[str, ...] = (AFFINE, FILTERED)
    realizations: int = 200
    sigma2: tuple[tuple[str, float], ...] = ((AFFINE, 0.0), (FILTERED, 0.0))
    averaging: str = "linear"
    snr_db: tuple[float, ...] = _SNR_DEFAULT
    trials: int = 200
    min_bit_errors: int = 100
    qam_order: int = 4
    seed: int = 20250819
    output: str = "results"
    emit_heatmap: bool = False

    def sigma2_for(self, domain: str) -> float:
        return dict(self.sigma2)[domain]

    def scenarios(self):
        """(filter_family, P) grid, filters outer, P inner."""
        return [(f, p) for f in self.filters for p in self.P]

    def channel_config(self) -> ChannelConfig:
        return ChannelConfig(self.paths, self.delay_max, self.doppler_max)

    def modulation_config(self, family: str, P: int) -> ModulationConfig:
        return design_config(self.L, self.K, self.N, P, family,
                             f_max=self.doppler_max, xi=self.xi)


# (field, YAML section, YAML key) of every config key, the top level
# being section "", and each field's type, which its values are read as.
_KEYS = tuple((f.name, f.metadata.get("section", ""),
               f.metadata.get("key") or f.name)
              for f in fields(ExperimentSpec))
_TYPES = get_type_hints(ExperimentSpec)


@dataclass(frozen=True)
class ExperimentReport:
    """Everything a run produced, before and after being written out."""

    fingerprint: str
    version: str
    kind: str
    elapsed_s: float
    rows: tuple[tuple, ...]
    header: tuple[str, ...]
    samples: tuple[tuple, ...] = ()
    samples_header: tuple[str, ...] = ()
    # ((filter, P, domain), mean |Delta|^2 array) per scenario and domain
    # of a sir-channel run with emit_heatmap.
    heatmaps: tuple = field(default=(), compare=False)


# ------------------------------------------------------------- serialization


_TYPE_NAMES = {int: "an integer", float: "a number", bool: "true or false",
               str: "a string"}


def _cast(key: str, value, cast):
    """``value`` as a ``cast``, refused with the config key named when it
    is not one; nothing is truncated or coerced.  An integer may be an
    integral float, and a number anything but a boolean that float()
    reads (YAML leaves a dotless exponent such as 1e-3 a string)."""
    integral = isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) == (cast is bool):
        if cast is float:
            with contextlib.suppress(TypeError, ValueError, OverflowError):
                return float(value)
        elif isinstance(value, cast) or (cast is int and integral):
            return cast(value)
    raise ValueError(f"{key} must be {_TYPE_NAMES[cast]}, got {value!r}")


def _spec_to_dict(spec: ExperimentSpec) -> dict:
    doc = {}
    for name, section, key in _KEYS:
        value = getattr(spec, name)
        if name == "sigma2":
            value = dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _spec_from_dict(doc: dict) -> ExperimentSpec:
    defaults = ExperimentSpec(kind="")
    known = _spec_to_dict(defaults)
    unknown = sorted(set(doc) - set(known))
    sections = {"": doc}
    for name in dict.fromkeys(section for _, section, _ in _KEYS if section):
        sections[name] = doc.get(name, {})
        if not isinstance(sections[name], dict):
            raise ValueError(f"{name} must be a mapping")
        unknown += sorted(f"{name}.{key}"
                          for key in set(sections[name]) - set(known[name]))
    if unknown:
        raise ValueError(f"unknown config keys: {unknown}")

    values = {}
    for name, section, key in _KEYS:
        if name == "sigma2":
            continue
        label, hint = f"{section}.{key}" if section else key, _TYPES[name]
        value = sections[section].get(key, getattr(defaults, name))
        if get_origin(hint) is tuple:
            items = value if isinstance(value, (list, tuple)) else (value,)
            values[name] = tuple(_cast(label, v, get_args(hint)[0])
                                 for v in items)
        else:
            values[name] = _cast(label, value, hint)
    sigma2 = doc.get("sigma2", 0.0)
    if isinstance(sigma2, dict):
        values["sigma2"] = tuple(sorted(
            (str(k), _cast(f"sigma2.{k}", v, float))
            for k, v in sigma2.items()))
    else:
        value = _cast("sigma2", sigma2, float)
        values["sigma2"] = ((AFFINE, value), (FILTERED, value))
    return ExperimentSpec(**values)


def serialize_spec(spec: ExperimentSpec) -> str:
    """Canonical YAML for hashing and round-tripping."""
    return yaml.safe_dump(_spec_to_dict(spec), sort_keys=True,
                          default_flow_style=False)


def parse_spec(text: str) -> ExperimentSpec:
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as err:
        raise ValueError(f"config is not valid YAML: {err}") from err
    if not isinstance(doc, dict):
        raise ValueError("config must be a mapping")
    return _spec_from_dict(doc)


def spec_fingerprint(spec: ExperimentSpec) -> str:
    # The destination directory does not change what gets computed, so
    # the same experiment keeps the same hash wherever it is written.
    payload = _spec_to_dict(spec)
    del payload["output"]
    canon = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ------------------------------------------------------------------- presets

# Operating noise powers of the channel-stats preset, calibrated so the
# per-domain SIR statistics sit at their reference operating points
# while the worst filtered realization stays above the affine average.
# Recalibrating means sweeping both values over a small grid and
# rechecking those two properties on the preset's exact ensemble.
_CALIBRATED_SIGMA2 = ((AFFINE, 10.0 ** (-1.6)), (FILTERED, 10.0 ** (-3.4)))

PRESETS: dict[str, ExperimentSpec] = {
    "waveform-sweep": ExperimentSpec(
        kind="sir-waveform",
        P=(144, 160, 192, 224, 240, 256),
    ),
    "channel-stats": ExperimentSpec(
        kind="sir-channel",
        sigma2=_CALIBRATED_SIGMA2,
        averaging="db",
    ),
    "ber-curves": ExperimentSpec(
        kind="ber",
        trials=500,
    ),
}


# ---------------------------------------------------------------- validation


def validate(spec: ExperimentSpec) -> list[str]:
    """Every violated constraint, cheap checks only.

    Diagnostics beginning with "orthogonality condition" are the soft
    class that --override-orthogonality-check downgrades to warnings;
    everything else always refuses to run.
    """
    out = []
    if spec.kind not in KINDS:
        out.append(f"kind must be one of {KINDS}, got {spec.kind!r}")
    if not spec.filters:
        out.append("at least one filter family is required")
    if not spec.P:
        out.append("at least one P value is required")
    for dom in spec.domains:
        if dom not in (AFFINE, FILTERED):
            out.append(f"unknown domain {dom!r}")
    if not spec.domains:
        out.append("at least one domain is required")
    # A repeated scenario, domain or SNR point would be computed and
    # written twice.
    for name in ("P", "filters", "domains", "snr_db"):
        values = getattr(spec, name)
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            out.append(f"{name} has duplicate entries {repeated}")
    if spec.averaging not in ("linear", "db"):
        out.append(f"averaging must be 'linear' or 'db', "
                   f"got {spec.averaging!r}")
    for dom, value in spec.sigma2:
        if dom not in (AFFINE, FILTERED):
            out.append(f"unknown sigma2 domain {dom!r}; expected "
                       f"{AFFINE!r} or {FILTERED!r}")
        if not math.isfinite(value):
            out.append(f"sigma2[{dom}] must be finite, got {value}")
        elif value < 0:
            out.append(f"sigma2[{dom}] must be >= 0, got {value}")
    for value in spec.snr_db:
        if not math.isfinite(value):
            out.append(f"snr_db entries must be finite, got {value}")
    if spec.seed < 0:
        out.append(f"seed must be >= 0, got {spec.seed}")
    if spec.emit_heatmap and spec.kind != "sir-channel":
        out.append(f"emit_heatmap applies to sir-channel only; "
                   f"{spec.kind!r} writes no heatmap")
    if spec.kind == "sir-channel":
        missing = [d for d in spec.domains if d not in dict(spec.sigma2)]
        if missing:
            out.append(f"sigma2 has no value for domain(s) {missing}")
    if spec.kind == "sir-channel" and spec.realizations < 1:
        out.append(f"realizations must be >= 1, got {spec.realizations}")
    if spec.kind == "ber":
        if spec.trials < 1:
            out.append(f"trials must be >= 1, got {spec.trials}")
        if not spec.snr_db:
            out.append("snr_db grid must not be empty")
        if spec.min_bit_errors < 1:
            out.append(f"min_bit_errors must be >= 1, "
                       f"got {spec.min_bit_errors}")
        try:
            qam_alphabet(spec.qam_order)
        except ValueError as err:
            out.append(f"qam_order: {err}")
    try:
        spec.channel_config()
    except ValueError as err:
        out.append(str(err))

    # A bad L or P, or a family with no design and so no frame size, is
    # reported alone: no scenario is checked while one is present.
    unbuildable = [f"{name} must be positive, got {value}"
                   for name, value in [("L", spec.L)]
                   + [("P", p) for p in spec.P] if value < 1]
    unbuildable += [f"filter must be one of {sorted(_OVERLAP)}, "
                    f"got {family!r}" for family in spec.filters
                    if family not in _OVERLAP]
    out += unbuildable
    for family, P in [] if unbuildable else spec.scenarios():
        cfg = spec.modulation_config(family, P)
        problems = cfg.violations()
        if not problems:
            # The prototype's own grid limits (PHYDYAS needs N >= 8);
            # designing one costs microseconds.
            try:
                _design_prototype(cfg)
            except ValueError as err:
                problems.append(str(err))
        for problem in problems:
            out.append(f"{family}/P={P}: {problem}")
        if spec.kind != "sir-waveform":
            if spec.delay_max >= cfg.frame_size:
                out.append(
                    f"{family}/P={P}: delay_max {spec.delay_max} must be "
                    f"below the frame size {cfg.frame_size}; longer delays "
                    f"alias under the cyclic shift")
            span = separability_span(spec.doppler_max, spec.delay_max,
                                     spec.xi)
            if not span <= P:
                out.append(
                    f"orthogonality condition violated for {family}/P={P}: "
                    f"2(f_max+xi)(l_max+1)+l_max = {span:g} > {P}")
    return out


# ------------------------------------------------------------------- running


def _num(value) -> str:
    """Canonical text for a CSV number (repr keeps floats byte-stable)."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _run_sir_waveform(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "L", "K", "N", "sir_db", "orthogonal")
    rows = []
    for family, P in spec.scenarios():
        result = sir_waveform(AfbmModem(spec.modulation_config(family, P)))
        rows.append((family, P, spec.L, spec.K, spec.N,
                     result.value_db, int(result.orthogonal)))
    return {"header": header, "rows": tuple(rows)}


def _run_sir_channel(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "domain", "metric", "value")
    samples_header = ("filter", "P", "domain", "realization", "sir_db")
    rows, samples, heatmaps = [], [], []
    chan = spec.channel_config()
    for family, P in spec.scenarios():
        result = sir_pass(
            AfbmModem(spec.modulation_config(family, P)), chan,
            {d: spec.sigma2_for(d) for d in spec.domains},
            range(spec.realizations), spec.seed, averaging=spec.averaging,
            heatmaps=spec.emit_heatmap, workers=workers)
        for domain, stats in result.statistics.items():
            for metric, value in (
                    ("average_db", stats.average_db),
                    ("maximum_db", stats.maximum_db),
                    ("minimum_db", stats.minimum_db),
                    ("realizations", stats.realizations),
                    ("sigma2", spec.sigma2_for(domain))):
                rows.append((family, P, domain, metric, value))
            samples.extend(
                (family, P, domain, i, s)
                for i, s in enumerate(stats.samples_db))
        heatmaps.extend(((family, P, domain), power)
                        for domain, power in result.heatmaps.items())
    return {"header": header, "rows": tuple(rows),
            "samples_header": samples_header, "samples": tuple(samples),
            "heatmaps": tuple(heatmaps)}


def _run_ber(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "domain", "snr_db", "bit_errors",
              "bits_total", "ber")
    rows = []
    chan = spec.channel_config()
    for family, P in spec.scenarios():
        modem = AfbmModem(spec.modulation_config(family, P))
        for domain in spec.domains:
            points = ber_curve(
                modem, chan, domain, spec.snr_db, spec.trials, spec.seed,
                min_bit_errors=spec.min_bit_errors,
                qam_order=spec.qam_order, workers=workers)
            rows.extend((family, P, domain, pt.snr_db, pt.bit_errors,
                         pt.bits_total, pt.ber) for pt in points)
    return {"header": header, "rows": tuple(rows)}


_RUNNERS = {
    "sir-waveform": _run_sir_waveform,
    "sir-channel": _run_sir_channel,
    "ber": _run_ber,
}


def _usable_cores() -> int:
    """Cores this process may run on, or the machine's where the
    affinity mask cannot be read."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run(spec: ExperimentSpec, override_orthogonality: bool = False,
        workers: int | None = None) -> ExperimentReport:
    """Validate, compute, and return the report without touching disk."""
    diagnostics = validate(spec)
    soft = [d for d in diagnostics if d.startswith("orthogonality condition")]
    hard = [d for d in diagnostics if not
            d.startswith("orthogonality condition")]
    if hard:
        raise ValueError(hard[0])
    if soft and not override_orthogonality:
        raise ValueError(soft[0] + " (pass --override-orthogonality-check "
                                   "to run anyway)")
    for line in soft:
        print(f"warning: {line}", file=sys.stderr)

    if workers is None or workers < 1:
        workers = _usable_cores()
    start = time.perf_counter()
    outputs = _RUNNERS[spec.kind](spec, workers)
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        fingerprint=spec_fingerprint(spec), version=__version__,
        kind=spec.kind, elapsed_s=elapsed, **outputs)


@contextlib.contextmanager
def _atomic_open(path: str):
    """Text handle on a temporary file beside ``path``, moved onto it
    only once the block finishes.

    A write that fails partway removes the temporary file and leaves
    whatever was at ``path`` before untouched, so result files are
    never half-written.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_csv(path: str, report_header: str, header, rows):
    with _atomic_open(path) as fh:
        fh.write(report_header)
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_num(v) for v in row) + "\n")


def _heatmap_rows(power: np.ndarray):
    """The CSV text of each row of the square map ``power``, one at a
    time, formatted from its upper triangle alone.

    Each cell is ``repr`` of its value.  ``power`` is float64 and its
    bits equal its transpose's (:func:`_write_heatmaps` refuses any
    other map), so row i formats ``power[i, i:]`` and takes each cell
    left of the diagonal from the text already made for its mirror,
    since equal bits give equal text.  Those pending texts stay one
    string per row, read by a cursor.  Rows are formatted as ``repr``
    of their list, whose items never contain ``", "``, then split.
    """
    template = "".join(f"@,{j},%s\n" for j in range(power.shape[1]))
    texts, cursors = [], []
    for i, row in enumerate(power):
        text = repr(row[i:].tolist())[1:-1]
        cells = []
        for j, above in enumerate(texts):
            start = cursors[j]
            end = above.find(",", start)
            if end < 0:
                end = len(above)
            cells.append(above[start:end])
            cursors[j] = end + 2
        upper = text.split(", ")
        texts.append(text)
        cursors.append(len(upper[0]) + 2)
        yield template.replace("@", str(i)) % tuple(cells + upper)


def _write_heatmaps(report: ExperimentReport, out_dir: str, stamp: str):
    """One CSV per map in ``report.heatmaps``, formatted a row at a time.

    Each cell is written as ``repr`` of its float, the same text
    :func:`_num` gives.  The maps :func:`afbm.metrics.sir_pass` makes
    are float64 and symmetric bit for bit, so each is formatted from
    its upper triangle and every mirrored pair is formatted once
    (:func:`_heatmap_rows`).  Any other map is refused with a
    ValueError naming it, before its file is opened.
    """
    written = []
    for (family, P, domain), power in report.heatmaps:
        name = f"heatmap-{family}-P{P}-{domain}"
        if not (power.dtype == np.float64 and power.ndim == 2
                and power.shape[0] == power.shape[1]
                and np.array_equal(power.view(np.int64),
                                   power.T.view(np.int64))):
            raise ValueError(
                f"{name}: a heatmap must be a square float64 map equal to "
                f"its transpose bit for bit, got {power.dtype} "
                f"{power.shape}")
        path = os.path.join(out_dir, f"{name}.csv")
        with _atomic_open(path) as fh:
            fh.write(stamp)
            fh.write("row,col,power\n")
            for text in _heatmap_rows(power):
                fh.write(text)
        written.append(path)
    return written


def write_report(spec: ExperimentSpec, report: ExperimentReport,
                 out_dir: str) -> list[str]:
    """Write the CSV artifacts and summary; returns the paths written.

    Everything written comes from ``report``; ``spec`` is accepted for
    callers that pass it.
    """
    os.makedirs(out_dir, exist_ok=True)
    stamp = (f"# afbm {report.version} spec={report.fingerprint}\n")
    written = []

    csv_path = os.path.join(out_dir, f"{report.kind}-{report.fingerprint}.csv")
    _write_csv(csv_path, stamp, report.header, report.rows)
    written.append(csv_path)

    if report.samples:
        samples_path = os.path.join(
            out_dir, f"{report.kind}-{report.fingerprint}-samples.csv")
        _write_csv(samples_path, stamp, report.samples_header, report.samples)
        written.append(samples_path)

    summary_path = os.path.join(out_dir, "summary.txt")
    with _atomic_open(summary_path) as fh:
        fh.write(f"afbm {report.version}\n")
        fh.write(f"experiment: {report.kind}\n")
        fh.write(f"spec hash:  {report.fingerprint}\n")
        fh.write(f"elapsed:    {report.elapsed_s:.2f} s\n")
        fh.write(f"rows:       {len(report.rows)}\n\n")
        widths = [max(len(str(h)), 12) for h in report.header]
        fh.write("  ".join(str(h).ljust(w)
                           for h, w in zip(report.header, widths)) + "\n")
        for row in report.rows:
            fh.write("  ".join(
                (f"{v:.4f}" if isinstance(v, float) else str(v)).ljust(w)
                for v, w in zip(row, widths)) + "\n")
    written.append(summary_path)

    written.extend(_write_heatmaps(report, out_dir, stamp))
    return written


# ----------------------------------------------------------------------- CLI


def _unwritable(out_dir: str) -> str | None:
    """Why results cannot be written to ``out_dir``, or None.

    Checks what :func:`write_report` will need without creating
    anything: ``out_dir`` is a writable directory, or its nearest
    existing ancestor is one that the missing levels can be made in.
    """
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        return f"{path!r} is not a directory"
    if not os.access(path, os.W_OK | os.X_OK):
        return f"{path!r} is not writable"
    return None


def _load_spec(args) -> ExperimentSpec:
    if args.preset and args.config:
        raise ValueError("pass either --config or --preset, not both")
    if args.preset:
        try:
            spec = PRESETS[args.preset]
        except KeyError:
            raise ValueError(f"unknown preset {args.preset!r}; "
                             f"available: {sorted(PRESETS)}") from None
    elif args.config:
        with open(args.config) as fh:
            spec = parse_spec(fh.read())
    else:
        raise ValueError("one of --config or --preset is required")
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.out is not None:
        spec = replace(spec, output=args.out)
    return spec


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="path to a YAML experiment file")
    parser.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default from the spec)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: the cores this "
                             "process may run on)")
    parser.add_argument("--override-orthogonality-check", action="store_true",
                        help="downgrade the separability condition to a "
                             "warning")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="afbm",
        description="Affine filter bank modulation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment")
        _add_common(p)
    p = sub.add_parser("validate", help="check a spec without running it")
    _add_common(p)
    args = parser.parse_args(argv)

    try:
        spec = _load_spec(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.command == "validate":
        diagnostics = validate(spec)
        if not diagnostics:
            print("ok: no violations")
            return 0
        for line in diagnostics:
            print(f"violation: {line}")
        return 1

    if spec.kind != args.command:
        print(f"error: config kind {spec.kind!r} does not match "
              f"subcommand {args.command!r}", file=sys.stderr)
        return 2

    problem = _unwritable(spec.output)
    if problem is not None:
        print(f"error: cannot write results to {spec.output!r}: {problem}",
              file=sys.stderr)
        return 2

    try:
        report = run(spec, args.override_orthogonality_check, args.workers)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    paths = write_report(spec, report, spec.output)
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
