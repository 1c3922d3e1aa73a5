"""Start-up cost of each `pcsp` subcommand run as a fresh process.

Each subcommand runs --repeat times as `python -m pcsp.cli ...` on inputs
small enough that importing pcsp is most of the run: (1-in-3, NAE-3), a
three-variable instance, the 3-ary parity table, and a p = 7, b = 0
certificate.  The CPU time (user plus system) of each child is read from
`resource.getrusage(RUSAGE_CHILDREN)` before and after it, and the minimum
and median are printed in milliseconds, as CPU time on a shared machine
only ever reads high.

Two modes, each on its own copy of the sources in a temporary directory,
so the checkout's own `__pycache__` is neither read nor written:

* `no-cache`: the copy has no bytecode, and the children run with
  PYTHONDONTWRITEBYTECODE=1, so every run compiles each module it loads;
* `cached`: the copy is compiled first (`compileall`), so every run reads
  bytecode.

With --base, a second `src/` directory is measured beside the first: for
each command and mode the two trees' runs alternate, the tree that goes
first swapping every run, so that drift of the machine between runs falls
on both.  The two trees' columns are printed, then `delta`, the median of
--src minus the median of --base.

Usage: python3 tools/startup.py [--src DIR] [--base DIR] [--repeat 15]
(--src is the `src/` directory to measure; by default this checkout's.)
"""

import argparse
import compileall
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

INPUTS = {
    "t.tmpl": "template\npair rin 1 3 nae 3\nend\n",
    "i.inst": "vars 3\nc 0 0 1 2\n",
    "f.tt": "fn 3 2\n01101001\n",
}
CERTIFY = ["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", "7", "-b", "0"]
# (subcommand, arguments after it, expected exit code)
COMMANDS = [
    ("classify", ["-t", "t.tmpl"], 1),
    ("solve", ["-t", "t.tmpl", "-i", "i.inst"], 0),
    ("poly", ["f.tt", "--cyclic"], 0),
    ("certify", CERTIFY[1:] + ["-o", "out.json"], 0),
    ("verify", ["cert.json", "-t", "t.tmpl"], 0),
    ("table", ["--max-s", "3"], 0),
]


def child_cpu(argv, env, cwd, expect: int) -> float:
    """CPU seconds of one `python -m pcsp.cli argv` child."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run([sys.executable, "-m", "pcsp.cli", *argv], env=env, cwd=cwd,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != expect:
        raise SystemExit(f"pcsp {' '.join(argv)} exited {proc.returncode}, "
                         f"not {expect}: {proc.stderr.strip()}")
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src")
    ap.add_argument("--base", type=Path, help="a second src/ directory to compare with")
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()
    trees = {"src": args.src} if args.base is None else {"base": args.base, "src": args.src}
    for src in trees.values():
        if not (src / "pcsp" / "cli.py").is_file():
            raise SystemExit(f"no pcsp sources under {src}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in INPUTS.items():
            (tmp / name).write_text(text, encoding="utf-8")
        envs = {}  # mode -> tree -> environment
        for mode in ("no-cache", "cached"):
            for tree, src in trees.items():
                copy = tmp / f"{tree}-{mode}"
                shutil.copytree(src, copy, ignore=shutil.ignore_patterns("__pycache__"))
                if mode == "cached":
                    compileall.compile_dir(copy, quiet=1)
                envs.setdefault(mode, {})[tree] = {**os.environ, "PYTHONPATH": str(copy),
                                                   "PYTHONDONTWRITEBYTECODE": "1"}
        child_cpu(CERTIFY + ["-o", "cert.json"], envs["cached"]["src"], tmp, 0)
        print(f"python {sys.version.split()[0]}, {args.repeat} runs each, "
              f"CPU ms (user + system)")
        print(f"{'command':10} {'mode':9}"
              + "".join(f" {tree + ' min':>9} {tree + ' median':>11}" for tree in trees)
              + (f" {'delta':>7}" if len(trees) > 1 else ""))
        for command, rest, expect in COMMANDS:
            for mode, by_tree in envs.items():
                ms = {tree: [] for tree in trees}
                order = list(trees)
                for _ in range(args.repeat):
                    for tree in order:
                        ms[tree].append(1000 * child_cpu([command, *rest], by_tree[tree],
                                                         tmp, expect))
                    order.reverse()
                medians = {tree: statistics.median(v) for tree, v in ms.items()}
                line = f"{command:10} {mode:9}" + "".join(
                    f" {min(ms[tree]):9.1f} {medians[tree]:11.1f}" for tree in trees)
                if len(trees) > 1:
                    line += f" {medians['src'] - medians['base']:+7.1f}"
                print(line)


if __name__ == "__main__":
    main()
