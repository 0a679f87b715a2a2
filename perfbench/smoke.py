"""Smoke test of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/smoke.py

It sits outside ``tests/`` so the package's own suite never collects it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402
from tracing import PER_LAYER  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--scale", "smoke", "--seconds", "0",
         "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_units(stdout: str) -> dict[str, str]:
    units = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            float(parts[2])
            units[parts[1]] = parts[3]
    return units


def test_every_metric_is_printed_with_its_unit():
    for workload in WORKLOADS:
        for trace, wanted in ((0, END_TO_END), (1, PER_LAYER)):
            proc = bench("--workload", workload, "--trace", str(trace))
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, proc.stderr
            assert result["attempted"] >= 1
            assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
            units = printed_units(proc.stdout)
            assert {k: units.get(k) for k in wanted} == wanted
            assert units["error_rate"] == "ratio"


def test_tampered_reference_makes_error_rate_nonzero(monkeypatch, capsys):
    refs = json.loads(run.REFS.read_text())
    for entry in refs["smoke"]["tune_grid"].values():
        entry["prior"] = [-1.0, -1.0, -1.0]
    OUT.mkdir(exist_ok=True)
    tampered = OUT / "tampered-refs.json"
    tampered.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFS", tampered)
    try:
        code = run.main(["--scale", "smoke", "--seconds", "0", "--seed", "3",
                         "--workload", "tune_grid", "--trace", "0"])
    finally:
        tampered.unlink()
    stdout = capsys.readouterr().out
    assert code == 0
    result = json.loads(stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0
    error_rate = [line.split()[2] for line in stdout.splitlines()
                  if line.startswith("metric error_rate ")]
    assert error_rate == ["1"]


def test_fails_without_the_package_source():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for name in ("run.py", "tracing.py", "refs.json"):
        shutil.copy(BENCH / name, bare / "perfbench" / name)
    proc = bench("--workload", "cli_market", "--trace", "0", cwd=bare,
                 script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(subprocess.call([sys.executable, "-m", "pytest", "-q",
                              __file__]))
