import dataclasses
import importlib.util
import re
from pathlib import Path

from ballschwarz import default_verification_suite

ROOT = Path(__file__).resolve().parent.parent
FAMILY_LINE = re.compile(r"m=(\d+) (\S+): (\d+) of (\d+) rows failed; lambda min (\S+) p50 (\S+) p90 (\S+) "
                         r"p99 (\S+) max (\S+)")


def _tool():
    spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "tools" / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_three_seeds_pass_every_row_family(capsys):
    assert _tool().main(["--seeds", "0:3", "--m", "2"]) == 0
    lines = [FAMILY_LINE.fullmatch(line) for line in capsys.readouterr().out.splitlines()]
    assert all(lines)
    suite = default_verification_suite(0, target_dim=2)
    families = list(dict.fromkeys(report.case.split(" ")[0] for report in suite))
    assert [line[2] for line in lines] == families
    assert sum(int(line[4]) for line in lines) == 3 * len(suite)
    for line in lines:
        assert line[1] == "2" and line[3] == "0"
        quantiles = [float(value) for value in line.groups()[4:]]
        assert quantiles == sorted(quantiles)


def test_a_failing_row_is_named_and_fails_the_sweep(monkeypatch, capsys):
    tool = _tool()

    def suite(seed, target_dim):
        first, *rest = default_verification_suite(seed, target_dim=target_dim)
        return [dataclasses.replace(first, lam=first.bound + 1.0), *rest] if seed == 1 else [first, *rest]

    monkeypatch.setattr(tool, "default_verification_suite", suite)
    assert tool.main(["--seeds", "0:2", "--m", "3"]) == 1
    out = capsys.readouterr().out.splitlines()
    first = default_verification_suite(1, target_dim=3)[0].case
    assert out[0].startswith(f"m=3 {first.split(' ')[0]}: 1 of ")
    assert out[1] == f"  failed seed 1: {first}"
