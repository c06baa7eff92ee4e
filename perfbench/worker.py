"""One benchmark process: set up, measure, or check, then print JSON.

    python worker.py setup   --workload W --seed S [--toy]
    python worker.py measure --workload W --seed S --out DIR
                             [--seconds T] [--min-reps N] [--traced] [--toy]
    python worker.py check   --workload W --seed S --out DIR [--toy]

The parent (run.py) starts each mode in a fresh interpreter with the
BLAS thread count pinned, so import and set-up costs are paid as a
user would pay them and memory peaks are per mode.  The last line of
stdout is the mode's JSON result.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

from afbm import cli  # noqa: E402
from afbm.modem import AfbmModem, design_config  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS, overrides  # noqa: E402

FRAMES_FILE = "frames.json"


def build_spec(workload: str, seed: int, toy: bool) -> cli.ExperimentSpec:
    preset = cli.PRESETS[WORKLOADS[workload]["preset"]]
    return replace(preset, seed=seed, **overrides(workload, toy))


def set_up(spec) -> float:
    """Validate and build every scenario's modem; seconds since start."""
    problems = cli.validate(spec)
    if problems:
        raise SystemExit(f"workload spec is invalid: {problems[0]}")
    for family, P in spec.scenarios():
        AfbmModem(design_config(spec.L, spec.K, spec.N, P, family,
                                f_max=spec.doppler_max, xi=spec.xi))
    return time.perf_counter() - _T0


def bits_per_frame(spec) -> int:
    return spec.K * spec.L // 2 * int(round(math.log2(spec.qam_order)))


def samples_done(spec, report) -> int:
    """SIR realizations or BER frames the run completed."""
    if spec.kind == "ber":
        return sum(row[5] for row in report.rows) // bits_per_frame(spec)
    return len(report.samples)


def result_hashes(paths) -> dict[str, str]:
    """Digest of every result file; summary.txt carries a timing."""
    out = {}
    for path in paths:
        name = os.path.basename(path)
        if name != "summary.txt":
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def machine_stamp(seed: int) -> dict:
    import platform

    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def blas_threads():
    """Thread count OpenBLAS reports, else the pinned environment value."""
    import ctypes

    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads")
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for name in names:
            if hasattr(handle, name):
                return int(getattr(handle, name)())
    return os.environ.get("OPENBLAS_NUM_THREADS")


class FrameRecorder:
    """Keeps each BER frame's (errors, bits) for the dense re-check."""

    def __init__(self):
        self.frames = []
        self.active = True

    def install(self) -> None:
        from afbm import metrics

        original = getattr(metrics, "_ber_trial", None)
        if original is None:
            self.active = False
            return

        def recorded(modem, chan, domain, seed, index, sigma2, *rest):
            out = original(modem, chan, domain, seed, index, sigma2, *rest)
            if self.active:
                cfg = modem.cfg
                self.frames.append([cfg.filter_family, cfg.P, domain,
                                    index, sigma2, out[0], out[1]])
            return out

        modules = [sys.modules[m] for m in tracing.PACKAGE_MODULES]
        tracing.replace_everywhere(original, recorded, metrics,
                                   "_ber_trial", modules)


# ------------------------------------------------------------------- modes


def mode_setup(args) -> dict:
    return {"setup_s": set_up(build_spec(args.workload, args.seed,
                                         args.toy))}


def mode_measure(args) -> dict:
    spec = build_spec(args.workload, args.seed, args.toy)
    os.makedirs(args.out, exist_ok=True)
    tracer = recorder = None
    if args.traced:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    else:
        recorder = FrameRecorder()
        recorder.install()
    setup_s = set_up(spec)

    reps = []
    first_rep_span = len(tracer.spans) if tracer else 0
    start = time.perf_counter()
    while (len(reps) < args.min_reps
           or time.perf_counter() - start < args.seconds):
        rep_dir = os.path.join(args.out, f"rep{len(reps)}")
        try:
            t = time.perf_counter()
            report = cli.run(spec, workers=1)
            paths = cli.write_report(spec, report, rep_dir)
            wall = time.perf_counter() - t
            samples = samples_done(spec, report)
            reps.append({"wall_s": wall, "run_s": report.elapsed_s,
                         "samples": samples,
                         "samples_per_s": samples / report.elapsed_s,
                         "hashes": result_hashes(paths)})
        except Exception as err:  # counted as a failed operation
            reps.append({"error": f"{type(err).__name__}: {err}"})
        if recorder is not None and recorder.active:
            recorder.active = False
            with open(os.path.join(args.out, FRAMES_FILE), "w") as fh:
                json.dump(recorder.frames, fh)
        if len(reps) > 1:
            shutil.rmtree(rep_dir, ignore_errors=True)

    out = {
        "setup_s": setup_s,
        "reps": reps,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_stamp(args.seed),
    }
    if tracer is not None:
        out["trace"] = summarize_trace(tracer, first_rep_span, reps[0])
        with open(os.path.join(args.out, "trace.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
    return out


def summarize_trace(tracer, first_rep_span, rep) -> dict:
    """Per-layer self times (set-up and one repetition) and counters."""
    self_s = tracer.self_times()
    rep_self = sum(tracer.self_times(first_rep_span).values())
    wall = rep.get("wall_s", float("nan"))
    layers = {f"{name}.self_s": self_s.get(name, 0.0)
              for name in tracing.SPAN_LAYERS}
    layers.update({name: tracer.counts[name] for name in tracing.COUNTERS})
    layers["equalize.gflop_computed"] = \
        layers.pop("equalize.flop_computed") / 1e9
    return {
        "layers": layers,
        "unaccounted_share": (wall - rep_self) / wall,
        "absent": tracing.absent_layers(tracer),
        "missing_hooks": tracer.absent,
        "ber_points": tracer.ber_points,
    }


# ------------------------------------------------------------------- check


def _dense_effective(modem, HS, domain):
    from afbm.modem import AFFINE, EffectiveChannel

    if domain == AFFINE:
        return EffectiveChannel(modem.modulation_matrix().conj().T @ HS,
                                domain)
    return EffectiveChannel(modem.filter_matrix().T @ HS, domain)


def _dense_channel(spec, modem, seed, index):
    from afbm.channel import channel_matrix, sample_channel, trial_stream

    rng = trial_stream(seed, index)
    chan = spec.channel_config()
    realization = sample_channel(chan.n_paths, chan.delay_max,
                                 chan.doppler_max, rng,
                                 size=modem.cfg.frame_size)
    return channel_matrix(realization), rng


def _dense_sir(heff, sigma2):
    """SIR through mmse + delta_matrix, and the regularized condition number.

    sigma2 = 0 mirrors delta_from_gram's documented ridge on Grams the
    factorization rejects.
    """
    from afbm.equalize import delta_matrix, mmse
    from afbm.metrics import sir_conditioned

    gram = heff.matrix.conj().T @ heff.matrix
    reg = sigma2
    try:
        eq = mmse(heff, sigma2)
    except ValueError:
        if sigma2 > 0:
            raise
        reg = 1e-10 * np.trace(gram).real / gram.shape[0]
        eq = mmse(heff, reg)
    eig = np.linalg.eigvalsh(gram + reg * np.eye(gram.shape[0]))
    kappa = eig[-1] / eig[0] if eig[0] > 0 else math.inf
    return sir_conditioned(delta_matrix(eq, heff)).value_db, kappa


def _sir_matches(fast_db, dense_db, n, kappa):
    """Compare interference-to-signal ratios, 1e-9 relative plus the
    solve's forward-error bound n * eps * kappa.

    At sigma2 = 0 the Gram can be nearly singular; the sample is then
    fixed by roundoff and only agrees within that bound.  Returns
    (matches, needed the conditioning term)."""
    a, b = 10.0 ** (-fast_db / 10.0), 10.0 ** (-dense_db / 10.0)
    diff = abs(a - b)
    strict = 1e-9 * max(a, b)
    if diff <= strict:
        return True, False
    return diff <= strict + 2 * n * np.finfo(float).eps * kappa, True


def _read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def mode_check(args) -> dict:
    spec = build_spec(args.workload, args.seed, args.toy)
    rep_dir = os.path.join(args.out, "rep0")
    pick = random.Random(args.seed)
    tally = {"attempted": 0, "failed": 0, "roundoff_limited": 0,
             "failures": [], "skipped": []}

    def attempt(label, fn):
        tally["attempted"] += 1
        try:
            ok = fn()
        except Exception as err:
            ok = False
            label += f" raised {type(err).__name__}: {err}"
        if not ok:
            tally["failed"] += 1
            tally["failures"].append(label)

    if not os.path.isdir(rep_dir):
        attempt("outputs of the first repetition exist", lambda: False)
    elif spec.kind == "sir-channel":
        samples = {}
        for name in os.listdir(rep_dir):
            if name.endswith("-samples.csv"):
                for row in _read_csv(os.path.join(rep_dir, name)):
                    key = (row["filter"], int(row["P"]), row["domain"],
                           int(row["realization"]))
                    samples[key] = float(row["sir_db"])
        # Half the scenarios per run (all of them at toy scale), chosen
        # by the seed, keep the dense recomputation to a few seconds.
        scenarios = spec.scenarios()
        if len(scenarios) > 2 and not args.toy:
            scenarios = pick.sample(scenarios, len(scenarios) // 2)
        for family, P in scenarios:
            modem = AfbmModem(design_config(
                spec.L, spec.K, spec.N, P, family,
                f_max=spec.doppler_max, xi=spec.xi))
            index = pick.randrange(spec.realizations)
            H, _ = _dense_channel(spec, modem, spec.seed, index)
            HS = H @ modem.modulation_matrix()
            for domain in spec.domains:
                def same(domain=domain):
                    dense, kappa = _dense_sir(
                        _dense_effective(modem, HS, domain),
                        spec.sigma2_for(domain))
                    ok, limited = _sir_matches(
                        samples[(family, P, domain, index)], dense,
                        modem.cfg.payload_size, kappa)
                    tally["roundoff_limited"] += int(limited)
                    return ok
                attempt(f"sir {family}/P={P}/{domain}/#{index}", same)
    else:
        check_ber(spec, args, rep_dir, pick, attempt, tally)
    return tally


def check_ber(spec, args, rep_dir, pick, attempt, tally):
    """Recorded frames sum to the CSV rows; sampled frames re-detect
    through the dense chain with the same error count."""
    from afbm.channel import add_awgn
    from afbm.equalize import equalize_and_detect, mmse
    from afbm.modem import AFFINE, qam_alphabet, qam_demap, qam_map

    frames_path = os.path.join(args.out, FRAMES_FILE)
    if not os.path.exists(frames_path):
        tally["skipped"].append("BER frames: metrics._ber_trial not found, "
                                "so no frame was recorded")
        return
    with open(frames_path) as fh:
        frames = json.load(fh)
    groups = {}
    for family, P, domain, index, sigma2, errors, bits in frames:
        key = (family, P, domain, index // spec.trials)
        groups.setdefault(key, []).append((index, sigma2, errors, bits))
    csv_name = [n for n in os.listdir(rep_dir) if n.startswith("ber-")][0]
    rows = _read_csv(os.path.join(rep_dir, csv_name))
    alphabet = qam_alphabet(spec.qam_order)
    modems = {}

    for (family, P, domain, point), group in sorted(groups.items()):
        row = [r for r in rows if (r["filter"], int(r["P"]), r["domain"])
               == (family, P, domain)][point]
        attempt(f"ber totals {family}/P={P}/{domain}/{row['snr_db']} dB",
                lambda row=row, group=group: (
                    int(row["bit_errors"]) == sum(g[2] for g in group)
                    and int(row["bits_total"]) == sum(g[3] for g in group)))
        if (family, P) not in modems:
            modems[(family, P)] = AfbmModem(design_config(
                spec.L, spec.K, spec.N, P, family,
                f_max=spec.doppler_max, xi=spec.xi))
        modem = modems[(family, P)]
        index, sigma2, errors, n_bits = pick.choice(group)

        def redetect(modem=modem, domain=domain, index=index,
                     sigma2=sigma2, errors=errors, n_bits=n_bits):
            H, rng = _dense_channel(spec, modem, spec.seed, index)
            bits = rng.integers(0, 2, size=n_bits)
            S = modem.modulation_matrix()
            r = add_awgn(H @ (S @ qam_map(bits, spec.qam_order)), sigma2,
                         rng)
            heff = _dense_effective(modem, H @ S, domain)
            front = (S.conj().T if domain == AFFINE
                     else modem.filter_matrix().T)
            eq = mmse(heff, modem.received_noise_power(domain, sigma2))
            detected = equalize_and_detect(eq, front @ r, alphabet)
            return int(np.sum(qam_demap(detected, spec.qam_order)
                              != bits)) == errors
        attempt(f"ber frame {family}/P={P}/{domain}/#{index}", redetect)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure", "check"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-reps", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    mode = {"setup": mode_setup, "measure": mode_measure,
            "check": mode_check}[args.mode]
    print(json.dumps(mode(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
