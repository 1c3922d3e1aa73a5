"""Time certificate generation, I/O and checking at large p.

The context is (1-in-3, NAE-3), case 4a, b = 1, at p = 97 and p = 199 by
default, primes far above the benchmark's, which stop near p = 31.  Only
the cited step-one indices are derived there, so the certificates hold 44
and 52 nodes (3,413 and 14,289 when they kept the whole chain down to
those indices).  For each p it reports:

* `pcsp certify -o FILE` and `pcsp verify FILE -t TEMPLATE` run as child
  processes: user plus system CPU time and peak RSS, read per child with
  `os.wait4` (the child-process rusage of that one process);
* in process, the CPU time of generation (`gen_certificate`, self-check
  included), serialization (`certificate_to_json`), parsing
  (`certificate_from_json`) and checking (`verify_certificate`), once with
  the cyclic collector enabled and once paused, as `pcsp` runs each
  command.

Each figure is the minimum over --repeat runs, as CPU time on a shared
machine only ever reads high.

Usage: PYTHONPATH=src python3 tools/cert_io.py [--p 97 199] [--repeat 3]
"""

import argparse
import gc
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pcsp import certificates
from pcsp.certificates import ProofContext
from pcsp.structures import format_template

R, S, CASE, B = 1, 3, "4a", 1


def child(argv) -> tuple:
    """(CPU seconds, peak RSS in MB) of one `pcsp` child process."""
    env = dict(os.environ)
    src = str(Path(certificates.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen([sys.executable, "-m", "pcsp.cli", *argv], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"pcsp {' '.join(argv)} exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cpu(fn, *args):
    """(result, CPU seconds) of one call."""
    start = time.process_time()
    result = fn(*args)
    return result, time.process_time() - start


def in_process(ctx) -> dict:
    """CPU seconds of each phase for one certificate, under the current
    collector state."""
    cert, t_gen = cpu(certificates.gen_certificate, ctx)
    text, t_ser = cpu(certificates.certificate_to_json, cert)
    again, t_parse = cpu(certificates.certificate_from_json, text)
    result, t_verify = cpu(certificates.verify_certificate, again, ctx.canonical_template())
    if not result.ok:
        raise SystemExit(f"p={ctx.p}: the certificate does not verify: {result.reason}")
    return {"generate": t_gen, "serialize": t_ser, "parse": t_parse, "verify": t_verify,
            "nodes": len(cert.nodes), "bytes": len(text)}


def measure(p: int, repeat: int, work: Path) -> None:
    ctx = ProofContext(R, S, CASE, p, B)
    cfile, tfile = work / f"c{p}.json", work / f"t{p}.tmpl"
    tfile.write_text(format_template(ctx.canonical_template()), encoding="utf-8")
    runs = {"certify": [], "verify": []}
    for _ in range(repeat):
        runs["certify"].append(child(["certify", "-r", str(R), "-s", str(S), "--case", CASE,
                                      "-p", str(p), "-b", str(B), "-o", str(cfile)]))
        runs["verify"].append(child(["verify", str(cfile), "-t", str(tfile)]))
    phases = {}
    was_enabled = gc.isenabled()
    try:
        for label, switch in (("collector on", gc.enable), ("collector paused", gc.disable)):
            switch()
            got = [in_process(ctx) for _ in range(repeat)]
            phases[label] = {k: min(g[k] for g in got) for k in got[0]}
    finally:
        (gc.enable if was_enabled else gc.disable)()
    shape = phases["collector on"]
    print(f"p = {p}: {shape['nodes']} nodes, {shape['bytes'] / 1e3:.1f} KB of JSON")
    for name, got in runs.items():
        print(f"  pcsp {name:<8} CPU {min(c for c, _ in got):6.2f} s   "
              f"peak RSS {min(m for _, m in got):6.1f} MB")
    for label, times in phases.items():
        print(f"  in process, {label + ':':<17} " + "  ".join(
            f"{k} {times[k] * 1e3:.1f} ms" for k in ("generate", "serialize", "parse", "verify")))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--p", type=int, nargs="+", default=[97, 199])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"({R}-in-{S}, NAE-{S}), case {CASE}, b = {B}; min of {args.repeat} runs; "
          f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    with tempfile.TemporaryDirectory() as work:
        for p in args.p:
            measure(p, args.repeat, Path(work))


if __name__ == "__main__":
    main()
