"""Run the default verification suite over a range of seeds and summarize each row family.

    PYTHONPATH=src python3 tools/seed_sweep.py [--seeds 0:1000] [--m 2,3]

For each codomain dimension ``m`` and each seed in ``START:STOP`` this runs
``default_verification_suite(seed, target_dim=m)`` from the ``ballschwarz``
on the import path (point ``PYTHONPATH`` at another tree's ``src`` to sweep
that tree).  The suite keeps its 17 seed-free rows per tolerances, which
no ``m`` changes, so the sweep computes them once and every later seed
and ``m`` makes only its 5 seeded rows.  A row's family is its ``case`` text up to the first space.  Per
``m`` and family it prints one line: the rows that failed out of the rows
run, and the min, 50%, 90%, 99% quantiles and max of ``lambda``.  Exit status
1 when any row fails, 0 otherwise.
"""

import argparse
import sys

import numpy as np

from ballschwarz.verify import default_verification_suite


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0:1000", help="seed range START:STOP, STOP excluded (default 0:1000)")
    parser.add_argument("--m", default="2,3", help="comma-separated codomain dimensions (default 2,3)")
    args = parser.parse_args(argv)
    start, stop = (int(part) for part in args.seeds.split(":"))
    failed_any = False
    for m in (int(part) for part in args.m.split(",")):
        families: dict[str, tuple[list[float], list[str]]] = {}
        for seed in range(start, stop):
            for report in default_verification_suite(seed, target_dim=m):
                values, failures = families.setdefault(report.case.split(" ")[0], ([], []))
                values.append(report.lam)
                if not report.passed:
                    failures.append(f"seed {seed}: {report.case}")
        for family, (values, failures) in families.items():
            low, p50, p90, p99, high = np.quantile(values, [0.0, 0.5, 0.9, 0.99, 1.0])
            print(f"m={m} {family}: {len(failures)} of {len(values)} rows failed; lambda min {low:.6g} "
                  f"p50 {p50:.6g} p90 {p90:.6g} p99 {p99:.6g} max {high:.6g}")
            for failure in failures:
                print(f"  failed {failure}")
            failed_any |= bool(failures)
    return 1 if failed_any else 0


if __name__ == "__main__":
    sys.exit(main())
