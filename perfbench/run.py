"""Benchmark entry point.

    python3 perfbench/run.py --workload {tables,checks,offaxis} --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The library is imported from that
checkout's ``src`` in a separate workload process (one thread, BLAS and
OpenMP pinned to one thread, a closed loop with one caller); this process
computes references, checks every value and prints the metrics that
BENCHMARK.json declares, the JSON result on the last line.  ``--trace 0``
gives the end-to-end metrics, with every timing scaled to one reference
speed of the shared core (``speed.py``); ``--trace 1`` the per-layer ones
from a traced pass through the workload's plan.  Records, ledgers and spans
are written to ``perfbench/.out``.
"""

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy or scipy load in this process too

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REFERENCE_S  # noqa: E402  (this directory is on the path)
from workloads import PLAN_ROUNDS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / ".out"

# Set-up is timed in fresh processes, half before the workload process
# and half after it, so that its median spans the run's stretch of time.
SETUP_RUNS = 10
CHILD_GRACE_S = 100
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def _child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, str(HERE / "child.py"), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def _time_setup(workload: str, count: int, timeout: float, times: list[tuple[float, float]]) -> bool:
    """Append (set-up seconds, probe seconds) of ``count`` fresh processes; False if one failed."""
    for _ in range(count):
        done = _child(["--setup", "--workload", workload], timeout)
        if done.returncode != 0:
            print(f"error: set-up process failed:\n{done.stderr}", file=sys.stderr)
            return False
        setup_s, probe_s = done.stdout.split()[-2:]
        times.append((float(setup_s), float(probe_s)))
    return True


def _environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "thread_pins": THREAD_PINS,
        "seed": seed,
    }


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it): the highest percentile of
    TAIL_LADDER with TAIL_MIN_BEYOND sorted samples beyond it, by nearest rank."""
    n = len(latencies)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return pct, latencies[rank - 1], n - rank
    return 0.0, math.nan, 0


def _end_to_end(report: dict, records: list[dict], verdicts, setup: list[tuple[float, float]]):
    """The end-to-end metrics, and the same figures in unscaled wall time.

    Every latency is scaled to the reference speed by the mean of the probes
    before and after its round (speed.py).  A call's latency is the median
    over the passes that made it; rows_per_s is the rows of one pass over
    the sum of those latencies.
    """
    probe_s = report["probe_s"]
    scaled: list[list[float]] = []
    wall: list[list[float]] = []
    rows: list[int] = []
    made: Counter = Counter()  # pass -> its calls so far
    for i, record in enumerate(records):
        call = made[record["pass"]]
        made[record["pass"]] += 1
        if call == len(scaled):
            scaled.append([])
            wall.append([])
            rows.append(verdicts.rows.get(i, 0))
        slot = record["slot"]
        speed = REFERENCE_S / (0.5 * (probe_s[slot] + probe_s[slot + 1]))
        scaled[call].append(record["s"] * speed)
        wall[call].append(record["s"])

    def timings(samples: list[list[float]], setup_s: list[float]) -> tuple[dict, float, int]:
        latencies = [statistics.median(s) for s in samples]
        pct, tail, beyond = _tail(sorted(latencies))
        return {
            "rows_per_s": sum(rows) / sum(latencies),
            "call_p50_ms": statistics.median(latencies) * 1e3,
            "call_tail_ms": tail * 1e3,
            "setup_s": statistics.median(setup_s),
        }, pct, beyond

    values, pct, beyond = timings(scaled, [t * REFERENCE_S / probe for t, probe in setup])
    values.update({
        "pass_frac": 1.0 - len(verdicts.failures) / verdicts.attempted,
        "err_max_tol": max(verdicts.err_tol.values(), default=0.0),
        "peak_rss_mb": report["peak_rss_mb"],
    })
    notes = {
        "passes": report["passes"],
        "calls_per_pass": len(scaled),
        "tail_percentile": pct,
        "tail_beyond": beyond,
        "probe_median_s": statistics.median(probe_s),
        "wall_time_figures": timings(wall, [t for t, _ in setup])[0],
    }
    return values, notes


def _ledger_lines(failures: list[dict]) -> list[str]:
    from check import KNOWN

    lines = []
    groups = Counter(f["known"] or "UNEXPECTED" for f in failures)
    for label, count in sorted(groups.items()):
        mine = [f for f in failures if (f["known"] or "UNEXPECTED") == label]
        inputs = {json.dumps({k: v for k, v in f.items() if k not in ("call", "value", "ref", "reason")},
                             sort_keys=True) for f in mine}
        lines.append(f"# ledger {label}: {count} values at {len(inputs)} inputs -- {KNOWN.get(label, 'not a recorded defect')}")
        for f in mine[:3]:
            shown = {k: v for k, v in f.items() if k not in ("call", "known", "grid_near_switch")}
            lines.append(f"#   {json.dumps(shown)}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(PLAN_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "ballschwarz" / "__init__.py").is_file():
        print(f"error: no library at {SRC / 'ballschwarz'}; run from a repository checkout", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    sys.path.insert(0, str(HERE))
    from check import check_run
    from oracle import Oracle

    oracle = Oracle()
    problems = oracle.self_check(off_axis=args.workload == "offaxis")
    if problems:
        print("error: reference oracle failed its self-check:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    env = _environment(args.seed)
    tag = f"{args.workload}-{args.seed}-trace{args.trace}"
    timeout = args.seconds + CHILD_GRACE_S

    setup: list[tuple[float, float]] = []
    if not args.trace and not _time_setup(args.workload, SETUP_RUNS // 2, timeout, setup):
        return 1

    prefix = OUT / tag
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", str(prefix)] + (["--trace"] if args.trace else [])
    done = _child(cmd, timeout)
    if done.returncode != 0:
        print(f"error: workload process failed:\n{done.stderr}", file=sys.stderr)
        return 1
    if not args.trace and not _time_setup(args.workload, SETUP_RUNS - len(setup), timeout, setup):
        return 1
    report = json.loads(prefix.with_suffix(".json").read_text())
    with open(prefix.with_suffix(".jsonl"), encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle]
    if not Path(report["ballschwarz_file"]).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported {report['ballschwarz_file']}, not the checkout's library", file=sys.stderr)
        return 1
    threads = max(report["threads_after_import"], report["threads_at_end"])
    if threads > 1:
        print(f"warning: the workload process ran {threads} threads, not 1", file=sys.stderr)
    env.update(numpy=report["numpy"], python=report["python"], workload_threads=threads)

    verdicts = check_run(args.workload, records, oracle)
    oracle.save()
    fail_frac = len(verdicts.failures) / verdicts.attempted
    notes: dict = {}
    if args.trace:
        values = report["layers"]
    else:
        values, notes = _end_to_end(report, records, verdicts, setup)
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: declared metrics not computed: {missing}", file=sys.stderr)
        return 1
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    result = {
        "correct": not verdicts.unexpected_calls,
        "attempted": len(records),
        "failed": len(verdicts.unexpected_calls),
        "metrics": metrics,
    }
    with open(OUT / f"{tag}-result.json", "w", encoding="utf-8") as handle:
        json.dump({**result, "environment": env, "fail_frac": fail_frac, "values_attempted": verdicts.attempted,
                   **notes, "setup_samples_s": setup, "wall_s": report["wall_s"], "ledger": verdicts.failures},
                  handle, indent=1)

    print("# environment " + json.dumps(env, sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} calls={len(records)} "
          f"values={verdicts.attempted} wall_s={report['wall_s']:.3f}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    if notes:
        print(f"# timings scaled to the reference speed (probe {REFERENCE_S * 1e3:g} ms; median probe in this run "
              f"{notes['probe_median_s'] * 1e3:.3g} ms); a call's latency is its median over "
              f"{notes['passes']} or more passes")
        print("# unscaled wall-time figures: " + ", ".join(
            f"{name} {value:.6g}" for name, value in notes["wall_time_figures"].items()))
        print(f"# call_tail_ms is p{notes['tail_percentile']:g} of {notes['calls_per_pass']} calls, "
              f"{notes['tail_beyond']} beyond it")
    print(f"# fail_frac {fail_frac:.6g} ({len(verdicts.failures)} of {verdicts.attempted} values)")
    for line in _ledger_lines(verdicts.failures):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
