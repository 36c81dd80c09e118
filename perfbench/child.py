"""The workload process: imports the library, runs a closed loop, reports.

Started by ``run.py`` with thread pins in its environment and ``src`` on
its path.  One caller, one thread: each call starts only after the
previous one returned.  Modes:

``--setup``    import ``ballschwarz``, make one warm-up call, print the seconds
               that took and then the seconds the speed probe takes.
(default)      warm up, then pass through the plan until ``--seconds`` have
               passed, always at least once.
``--trace``    pass through the plan untraced, traced, and untraced again.

Records (inputs, raw outputs, latencies) go to ``--out``.jsonl and the
run's report to ``--out``.json; all checking happens in the parent, after
this process has exited.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def _status(field: str) -> int:
    """An integer field of /proc/self/status (kB for sizes)."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()

    import ballschwarz  # the import is part of set-up time
    from workloads import WARMUP, run_item

    run_item(args.workload, WARMUP[args.workload])
    setup_s = time.perf_counter() - _T0
    if args.setup:
        from speed import probe

        print(repr(setup_s), repr(probe()))
        return 0

    import numpy

    report = {
        "ballschwarz_file": ballschwarz.__file__,
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "threads_after_import": _status("Threads"),
    }
    with open(args.out + ".jsonl", "w", encoding="utf-8") as records:
        if args.trace:
            report.update(_traced(args, records))
        else:
            report.update(_timed(args, records))
    report.update({
        # VmHWM, not ru_maxrss: Linux carries ru_maxrss over from the parent across exec
        "peak_rss_mb": _status("VmHWM") / 1024.0,
        "threads_at_end": _status("Threads"),
    })
    with open(args.out + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


def _timed(args, records) -> dict:
    """Passes through the plan until --seconds have passed, stopping at a round
    boundary, with the speed probe timed before the first round and after
    every round.  Each record is written as it completes, so that kept
    records do not add to the process's memory."""
    from speed import probe
    from workloads import plan, run_item

    rounds = plan(args.workload, args.seed)
    start = time.perf_counter()
    deadline = start + args.seconds
    probe_s = [probe()]
    passes = 0
    while True:
        for index, rnd in enumerate(rounds):
            if passes and time.perf_counter() >= deadline:
                return {"wall_s": time.perf_counter() - start, "passes": passes, "probe_s": probe_s}
            for item in rnd:
                for record in run_item(args.workload, item):
                    # the round ran between probe_s[slot] and probe_s[slot + 1]
                    record.update({"round": index, "pass": passes, "slot": len(probe_s) - 1})
                    records.write(json.dumps(record) + "\n")
            probe_s.append(probe())
        passes += 1


def _traced(args, records) -> dict:
    """Pass through the plan untraced, traced and untraced again."""
    from tracing import Tracer
    from workloads import plan, run_item

    rounds = plan(args.workload, args.seed)

    def replay() -> tuple[list[dict], float]:
        done = []
        begun = time.perf_counter()
        for rnd in rounds:
            for item in rnd:
                done.extend(run_item(args.workload, item))
        return done, time.perf_counter() - begun

    _, before = replay()
    tracer = Tracer()
    tracer.install()
    done, wall = replay()
    tracer.uninstall()
    _, after = replay()
    for record in done:
        records.write(json.dumps(record) + "\n")
    # the traced pass against the mean of the untraced passes around it
    wall_untraced = 0.5 * (before + after)
    bytes_out = sum(len(r.get("out", "").encode()) for r in done)
    spans_path = args.out + "-spans.json.gz"
    tracer.dump(spans_path)
    return {
        "wall_s": wall,
        "wall_untraced_s": wall_untraced,
        "layers": tracer.layer_metrics(wall, wall_untraced, bytes_out),
        "spans_file": spans_path,
        "spans": len(tracer.names),
    }


if __name__ == "__main__":
    sys.exit(main())
