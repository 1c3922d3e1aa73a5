"""Smoke self-test of the benchmark: every workload at tiny size.

    python3 bench/selftest.py

Checks that each workload runs correctly untraced and traced, that every
metric named in BENCHMARK.json is emitted with its unit, that the counts a
later change may quote repeat exactly at a fixed seed, and that the
command refuses to run (non-zero exit, no result line) in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def check_line(name: str, trace: bool, line: dict, spec: dict) -> None:
    want = spec["per_layer" if trace else "end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}, line.keys()
    assert line["correct"] and line["failed"] == 0, (name, trace, line)
    assert isinstance(line["attempted"], int) and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in want], (name, trace)
    for m in want:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (name, m["name"])
        assert isinstance(got["value"], (int, float)), (name, m["name"])
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values()), (name, line)


def check_bare_directory() -> None:
    """Without src/pcsp the command must fail without printing a result."""
    bare = run.ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "classify", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, proc
    assert not proc.stdout.strip(), proc.stdout


# Counts that must repeat exactly at a fixed seed.
DETERMINISTIC = ("certificates.nodes", "certificates.refs", "certificates.json_bytes",
                 "solvers.lp_rows", "solvers.lp_cols", "solvers.lp_nonzeros",
                 "polymorphisms.minor_entries", "structures.validate_calls",
                 "classifier.classify_calls")


def main() -> int:
    spec = run.benchmark_spec()
    for name in workloads.WORKLOADS:
        counts = []
        for trace in (False, True, True):
            line, report = run.benchmark(name, 1, 0.1, trace, tiny=True)
            check_line(name, trace, line, spec)
            if trace:
                counts.append({k: line["metrics"][k]["value"] for k in DETERMINISTIC})
            print(f"ok {name} trace={int(trace)} ops={line['attempted']}")
        assert counts[0] == counts[1], (name, counts)
    check_bare_directory()
    print("ok bare directory refused")
    return 0


if __name__ == "__main__":
    sys.exit(main())
