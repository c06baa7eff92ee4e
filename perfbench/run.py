"""Benchmark of the afbm simulator through its public experiment API.

    python3 perfbench/run.py --workload sir-channel --seed 20250819 \\
        --seconds 25 --trace 0

Every workload is an experiment spec run through `cli.run` and
`cli.write_report` with one worker, in fresh interpreters with one BLAS
thread (see workloads.py for the three shapes and why each exists).

`--trace 0` reports the end-to-end metrics:
  setup_s        median over several fresh processes of import,
                 `cli.validate` and the modem builds
  wall_s         median repetition of `cli.run` + `cli.write_report`
  samples_per_s  median of SIR realizations or BER frames completed per
                 second inside `cli.run`
  peak_rss_mb    `ru_maxrss` of the measuring process
Repetitions of one seed run until `--seconds` has passed; the first
pays first-touch costs and is checked but not timed, and at least two
more are timed.

`--trace 1` runs one untraced and one traced repetition and reports the
per-layer metrics: self time of each layer's spans (set-up included),
counters read at the layer boundaries, the tracing overhead and the
share of wall time no span covers.

Both modes check the outputs: a few SIR samples and BER frames of the
run are recomputed through the dense oracles, and every repetition
(traced or not) must write byte-identical result CSVs.  Each mismatch
or exception is one failed operation; their share is printed as
fail_share, a per-layer metric of the traced run because it reads 0 on
a healthy run.  The last stdout line is a JSON object {correct,
attempted, failed, metrics}; a readable table, the machine stamp and
any failures precede it, and the full record goes to
.perfbench_runs/<workload>-seed<seed>-trace<t>/result.json.

`--toy` swaps in an L=8, K=2, N=16 grid, for the harness's own test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = "1"
SETUP_RUNS = 5
MEASURED_REPS = 2
DEADLINE_S = 170.0

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


class HarnessError(RuntimeError):
    """The benchmark could not produce a result at all."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = BLAS_THREADS
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_child(mode: str, args: list[str], deadline: float) -> dict:
    """Run one worker mode to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError(f"no time left for the {mode} step")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), mode, *args],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} step timed out") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise HarnessError(f"{mode} step exited {proc.returncode}: {tail}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def compare_outputs(reference: dict, reps: list[dict], tally: dict,
                    what: str) -> None:
    """One operation per repetition: its result files equal the reference."""
    for i, rep in enumerate(reps):
        tally["attempted"] += 1
        if "error" in rep:
            tally["failed"] += 1
            tally["failures"].append(f"{what} {i}: {rep['error']}")
        elif rep["hashes"] != reference:
            tally["failed"] += 1
            tally["failures"].append(f"{what} {i}: result files differ")


def good(reps: list[dict]) -> list[dict]:
    ok = [r for r in reps if "error" not in r]
    if not ok:
        raise HarnessError(f"every repetition failed: {reps[0]['error']}")
    return ok


def measure_untraced(common, args, deadline, run_dir):
    setups = [run_child("setup", common, deadline)["setup_s"]
              for _ in range(SETUP_RUNS - 1)]
    measured = run_child("measure", common + [
        "--out", str(run_dir), "--seconds", str(args.seconds),
        "--min-reps", str(1 + MEASURED_REPS)], deadline)
    setups.append(measured["setup_s"])
    check = run_child("check", common + ["--out", str(run_dir)], deadline)
    reps = measured["reps"]
    compare_outputs(good(reps)[0]["hashes"], reps, check, "repetition")
    # The first repetition pays first-touch costs; it is checked, not timed.
    ok = good(reps[1:])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "samples_per_s": statistics.median(r["samples_per_s"] for r in ok),
        "peak_rss_mb": measured["peak_rss_mb"],
    }
    record = {"setups_s": setups, "reps": reps,
              "machine": measured["machine"]}
    return metrics, check, record


def measure_traced(common, args, deadline, run_dir):
    plain = run_child("measure", common + ["--out", str(run_dir)], deadline)
    check = run_child("check", common + ["--out", str(run_dir)], deadline)
    traced = run_child("measure", common + [
        "--out", str(run_dir / "traced"), "--traced"], deadline)
    reference = good(plain["reps"])[0]
    compare_outputs(reference["hashes"], traced["reps"], check,
                    "traced repetition")
    trace = traced["trace"]
    metrics = dict(trace["layers"])
    metrics["trace.overhead_s"] = \
        good(traced["reps"])[0]["wall_s"] - reference["wall_s"]
    metrics["trace.unaccounted_share"] = trace["unaccounted_share"]
    metrics["fail_share"] = check["failed"] / check["attempted"]
    record = {"untraced_rep": reference, "traced_rep": traced["reps"][0],
              "absent": trace["absent"],
              "missing_hooks": trace["missing_hooks"],
              "ber_points": trace["ber_points"],
              "machine": traced["machine"]}
    return metrics, check, record


def print_report(args, metrics, check, record) -> None:
    stamp = record["machine"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}{'  (toy)' if args.toy else ''}")
    print("machine  " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    absent = {a.replace("flop_computed", "gflop_computed")
              for a in record.get("absent", ())}
    for name, (value, unit) in metrics.items():
        flag = ""
        if any(name == a or name.startswith(a + ".") for a in absent):
            flag = "  (absent: hook target not found)"
        print(f"  {name:42s} {value:>16.6g} {unit}{flag}")
    for point in record.get("ber_points", ()):
        print(f"  ber point {point['domain']:8s} {point['snr_db']:6.1f} dB "
              f"frames {point['frames_used']}/{point['frames_budget']}"
              f"{'  early stop' if point['early_stop'] else ''}")
    print(f"checks   {check['attempted']} attempted, {check['failed']} "
          f"failed, {check['roundoff_limited']} within the conditioning "
          f"bound only")
    for failure in check["failures"]:
        print(f"  FAILED {failure}")
    for skipped in check["skipped"]:
        print(f"  skipped {skipped}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=20250819)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="L=8, K=2, N=16 grid for a fast smoke run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "afbm").is_dir():
        print(f"error: no package source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = RUNS / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                      f"{'-toy' if args.toy else ''}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.toy:
        common.append("--toy")
    measure = measure_traced if args.trace else measure_untraced
    try:
        measured, check, record = measure(common, args, deadline, run_dir)
    except HarnessError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    finally:
        for rep in run_dir.glob("**/rep*"):
            shutil.rmtree(rep, ignore_errors=True)

    declared = CONTRACT["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (measured[m["name"]], m["unit"]) for m in declared}
    if not args.trace:
        metrics["fail_share"] = (check["failed"] / check["attempted"],
                                 "share")
    print_report(args, metrics, check, record)
    result = {
        "correct": check["failed"] == 0,
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }
    with open(run_dir / "result.json", "w") as fh:
        json.dump({**result, "check": check, **record}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
