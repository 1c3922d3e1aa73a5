"""Benchmark of the pcsp command line: one workload, closed loop, one client.

    python3 bench/run.py --workload classify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program under test is imported from
``src/`` of that checkout and driven in process through ``pcsp.cli.run``, so
interpreter start-up stays outside the op timings.  Set-up generates the
inputs from the seed, writes them under ``.bench_work/`` and computes the
expected answers, after importing pcsp afresh; it runs at least five times
and for at least half a second, and the median is reported.  The timed window then runs whole
rounds (every op of the workload once) back to back until another round
would pass ``--seconds`` of wall-clock time.  Every op's output is checked
after the window; a wrong answer, a raise or an unexpected exit code is a
failure and does not stop the run.

Every reported time (set-up, op latencies, the window behind ops/s) is CPU
time of this process, user plus system.  The program is single-threaded
and runs in process, so on a machine of its own that equals wall-clock
time.  On a shared virtual machine, wall-clock time also counts the spells
in which the host runs another tenant on the core, which have nothing to do
with the program (bench/README.md gives a measurement).  The wall-clock
window and ops/s are kept in the report.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` the window is split in two halves, untraced then traced;
the last line holds the per-layer metrics (span self times per round and
counts of the first round), the untraced half's per-kind latencies and the
ops/s of both halves.  A report with run metadata, property shares and the
failure list goes to ``.bench_out/``; spans of a traced run go there too.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
WORKLOAD_UNITS = {"lp_p50_ms": "ms", "exact_p50_ms": "ms", "certify_p50_ms": "ms",
                  "verify_p50_ms": "ms", "cert_kb": "KB", "failed_ratio": "fraction"}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad arguments)."""


def load_program():
    """Import pcsp afresh from this checkout's src/, never from anywhere else.

    Modules of an earlier import are dropped first, so every set-up pays
    for executing pcsp's module bodies, as a process starting pcsp does.
    """
    src = ROOT / "src"
    if not (src / "pcsp" / "cli.py").is_file():
        raise BenchError(f"no pcsp sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for loaded in [m for m in sys.modules if m == "pcsp" or m.startswith("pcsp.")]:
        del sys.modules[loaded]
    cli = importlib.import_module("pcsp.cli")
    if Path(cli.__file__).resolve().parent != (src / "pcsp").resolve():
        raise BenchError(f"imported pcsp from {cli.__file__}, not from {src}")
    return cli


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def setup(name: str, seed: int, work: Path, tiny: bool):
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}/{seed}")
    return workloads.SETUPS[name](rng, work, tiny)


def run_op(cli, op):
    """(exit code or None if it raised, stdout, stderr or cause, CPU seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.process_time()
    try:
        with contextlib.redirect_stderr(err):
            if op.call is not None:
                rc, text = op.call()
            else:
                rc, text = cli.run(op.argv, out), None
    except Exception as e:  # a raise is a failed op, the run goes on
        return None, "", f"raised {type(e).__name__}: {e}", time.process_time() - t0
    seconds = time.process_time() - t0
    return rc, (out.getvalue() if text is None else text), err.getvalue(), seconds


def run_window(cli, wl, seconds: float, tracer=None):
    """Run whole rounds until the next one would end past ``seconds``.

    The window is ``seconds`` of wall-clock time; op times and the window's
    ``elapsed`` are CPU time of this process (see the module docstring).
    """
    gc.collect()
    samples = []  # (round slot, op index, CPU seconds)
    outcomes = {}  # (slot, index) -> {(rc, stdout, stderr): count}
    op_id = 0
    start, cpu_start = time.perf_counter(), time.process_time()
    rounds = 0
    while True:
        slot = rounds % len(wl.rounds)
        round_start = time.perf_counter()
        for i, op in enumerate(wl.rounds[slot]):
            if tracer is not None:
                tracer.op, tracer.round = op_id, rounds
            rc, out, err, dt = run_op(cli, op)
            op_id += 1
            samples.append((slot, i, dt))
            seen = outcomes.setdefault((slot, i), {})
            seen[(rc, out, err)] = seen.get((rc, out, err), 0) + 1
            if op.after is not None:
                op.after(rc, out)
        rounds += 1
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            break
    return {"samples": samples, "outcomes": outcomes, "rounds": rounds,
            "elapsed": time.process_time() - cpu_start, "wall": now - start}


def check_window(wl, window):
    failures, failed = [], 0
    for (slot, i), seen in window["outcomes"].items():
        op = wl.rounds[slot][i]
        for (rc, out, err), count in seen.items():
            if rc is None:
                cause = err
            else:
                cause = op.check(rc, out)
                if cause and err.strip():
                    cause += f" (stderr: {err.strip()[:160]})"
            if cause:
                failed += count
                failures.append({"kind": op.kind, "input": op.label, "count": count,
                                 "cause": cause})
    return failed, failures


def _ms(values):
    return statistics.median(values) * 1000 if values else 0.0


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (Lentz's method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-12:
            break
    return h


def _beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(sorted_values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with weights concentrated near
    rank q*n.  A single order statistic of a mix of input sizes jumps
    between neighbouring samples of different sizes from run to run.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [_beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * v for i, v in enumerate(sorted_values))


def window_metrics(wl, window):
    """ops/s, median and tail latency of a window."""
    lat = sorted(dt for _, _, dt in window["samples"])
    n = len(lat)
    q = wl.tail_percentile / 100
    return {
        "ops_per_s": n / window["elapsed"],
        "latency_p50_ms": hd_quantile(lat, 0.5) * 1000,
        "latency_tail_ms": hd_quantile(lat, q) * 1000,
        "tail": {"percentile": wl.tail_percentile, "samples": n,
                 "beyond": n - math.ceil(q * n)},
    }


def split_metrics(wl, window):
    """Per-kind latencies and property shares of one untraced window."""
    by = {}
    for slot, i, dt in window["samples"]:
        op = wl.rounds[slot][i]
        by.setdefault(op.kind, []).append(dt)
        by.setdefault("group:" + op.group, []).append(dt)
    yes = sum(c for (slot, i), seen in window["outcomes"].items()
              if wl.rounds[slot][i].kind == "solve"
              for (_, out, _), c in seen.items() if out.startswith("YES"))
    n = len(window["samples"])
    total_time = sum(dt for _, _, dt in window["samples"])
    m = {"lp_p50_ms": _ms(by.get("group:lp", [])),
         "exact_p50_ms": _ms(by.get("group:exact", [])),
         "certify_p50_ms": _ms(by.get("certify", [])),
         "verify_p50_ms": _ms(by.get("verify", []))}
    sizes = wl.props.get("cert_bytes", {})
    m["cert_kb"] = (sum(sizes.values()) / len(sizes) / 1024) if sizes else 0.0
    shares = {}
    if wl.name == "solve":
        lp = by.get("group:lp", [])
        shares = {"lp_op_share": len(lp) / n, "lp_time_share": sum(lp) / total_time,
                  "yes_share": yes / n}
    elif wl.name == "certify":
        heavy = by.get("group:ref-heavy", [])
        shares = {"ref_heavy_op_share": len(heavy) / n,
                  "ref_heavy_time_share": sum(heavy) / total_time}
    shares["ops_by_kind"] = {k: len(v) for k, v in sorted(by.items())
                             if not k.startswith("group:")}
    return m, shares


def benchmark(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result line, report)."""
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    setup_times = []
    # At least five set-ups, and more of a cheap one, so that the median is
    # not at the mercy of one slow file write.  The first set-up creates the
    # input files and later ones rewrite them in place: creating a file cost
    # from 0.07 to 0.5 ms of kernel time on one virtual machine, drifting
    # over minutes, and a round of classify needs 146 of them.
    while not setup_times or (not tiny and (len(setup_times) < SETUP_MIN_REPEATS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < 100))):
        t0 = time.process_time()
        cli = load_program()
        wl = setup(name, seed, work, tiny)
        setup_times.append(time.process_time() - t0)
    try:
        untraced = run_window(cli, wl, seconds / 2 if trace else seconds)
        traced = tracer = None
        if trace:
            tracer = spans.Tracer()
            with tracer:
                traced = run_window(cli, wl, seconds / 2, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, failures = check_window(wl, untraced)
    attempted = len(untraced["samples"])
    if traced is not None:
        t_failed, t_failures = check_window(wl, traced)
        failed += t_failed
        failures += t_failures
        attempted += len(traced["samples"])
    base = window_metrics(wl, untraced)
    splits, shares = split_metrics(wl, untraced)
    splits["failed_ratio"] = failed / attempted
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": base["ops_per_s"],
        "latency_p50_ms": base["latency_p50_ms"],
        "latency_tail_ms": base["latency_tail_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    spec = benchmark_spec()
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "commit": git_commit(), "tiny": tiny,
        "ops": {"untraced": len(untraced["samples"]),
                "traced": len(traced["samples"]) if traced else 0},
        "rounds": {"untraced": untraced["rounds"], "traced": traced["rounds"] if traced else 0},
        "window_cpu_s": untraced["elapsed"], "window_wall_s": untraced["wall"],
        "ops_per_s_wall": len(untraced["samples"]) / untraced["wall"],
        "setup_runs_s": setup_times,
        "tail": base["tail"], "end_to_end": end_to_end,
        "workload_metrics": splits, "properties": {**wl.props, **shares},
        "failures": failures,
        "units": {**{m["name"]: m["unit"] for m in spec["end_to_end"]}, **WORKLOAD_UNITS},
    }
    if traced is None:
        metrics = {m["name"]: {"value": end_to_end[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    else:
        layers = tracer.aggregate(traced["rounds"])
        layers["ops_per_s_untraced"] = base["ops_per_s"]
        layers["ops_per_s_traced"] = window_metrics(wl, traced)["ops_per_s"]
        layers.update(splits)
        report["per_layer_all"] = layers
        # a layer the workload does not run reads 0
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        report["spans"] = write_spans(name, seed, tracer)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, report


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def write_spans(name, seed, tracer) -> str:
    out = ROOT / ".bench_out" / f"{name}-seed{seed}-spans.json"
    out.parent.mkdir(exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "op", "round"],
                   "spans": tracer.spans}, f)
    return str(out.relative_to(ROOT))


def print_summary(line, report, stream):
    print(f"workload {report['workload']} seed {report['seed']} "
          f"traced={report['traced']} python {report['python']} nproc {report['nproc']} "
          f"commit {report['commit'][:12]}", file=stream)
    print(f"  ops {report['ops']} rounds {report['rounds']} "
          f"window {report['window_cpu_s']:.2f} s CPU, {report['window_wall_s']:.2f} s wall "
          f"({report['ops_per_s_wall']:.4f} ops per wall second); tail = {report['tail']}",
          file=stream)
    for k, v in report["end_to_end"].items():
        print(f"  {k:<22} {v:12.4f} {report['units'][k]}", file=stream)
    for k, v in report["workload_metrics"].items():
        if v or k == "failed_ratio":  # per-kind metrics of other workloads read 0
            print(f"  {k:<22} {v:12.4f} {report['units'][k]}", file=stream)
    print(f"  properties {json.dumps(report['properties'], sort_keys=True)}", file=stream)
    print(f"  failed {line['failed']} of {line['attempted']}", file=stream)
    for f in report["failures"]:
        print(f"  FAILED x{f['count']} {f['kind']} [{f['input']}]: {f['cause']}", file=stream)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_summary(line, report, sys.stderr)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
