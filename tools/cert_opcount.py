"""Count the Python opcodes one certify round spends, phase by phase.

The round is the certificates of the benchmark's `certify` workload
(`CERT_CASES` in bench/workloads.py).  For each, the program runs under
`sys.settrace` with opcode events on and counts the opcodes executed in
five phases, summed over the certificates:

* build: `gen_certificate` without its final self-check (the builder),
* self-check: the `verify_certificate` that `gen_certificate` ends with,
* serialize: `certificate_to_json`,
* parse: `certificate_from_json` of that text,
* verify: `verify_certificate` of the parsed certificate against the
  canonical template.

Only bytecode is counted, not the work inside C functions (`json`, `sorted`
and the like).  Unlike CPU time on a shared host, the counts repeat exactly
from run to run, so two checkouts can be compared with diff.

A count stands in for time only where an edit keeps the work in bytecode.
An edit that moves a short loop into C-level calls (`min`/`max`/`sum`,
`set(map(...))`, `collections.Counter`, a comprehension over a handful of
items) cuts the count and can still make the phase slower: CPython 3.11
pays more per such call than a 2- to 5-step loop costs.  Time such edits
against each other, alternated in one process, before reading a count.

Usage: PYTHONPATH=src python3 tools/cert_opcount.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from workloads import CERT_CASES  # noqa: E402

from pcsp import certificates  # noqa: E402
from pcsp.certificates import ProofContext  # noqa: E402

PHASES = ("build", "self-check", "serialize", "parse", "verify")


class OpcodeCounter:
    """Counts opcode events into the current phase.  Inside `phase`, a call
    of `verify_certificate` counts as self-check until it returns."""

    def __init__(self):
        self.counts = dict.fromkeys(PHASES, 0)
        self.phase = None
        self._check_code = certificates.verify_certificate.__code__

    def run(self, phase, fn, *args):
        self.phase = phase
        sys.settrace(self._call)
        try:
            return fn(*args)
        finally:
            sys.settrace(None)

    def _call(self, frame, event, arg):
        frame.f_trace_opcodes = True
        if frame.f_code is self._check_code and self.phase == "build":
            self.phase = "self-check"
            return self._self_check
        return self._opcode

    def _opcode(self, frame, event, arg):
        if event == "opcode":
            self.counts[self.phase] += 1
        return self._opcode

    def _self_check(self, frame, event, arg):
        if event == "opcode":
            self.counts["self-check"] += 1
        elif event == "return":
            self.phase = "build"
        return self._self_check


def main() -> None:
    counter = OpcodeCounter()
    nodes = 0
    for args in CERT_CASES:
        ctx = ProofContext(*args)
        cert = counter.run("build", certificates.gen_certificate, ctx)
        text = counter.run("serialize", certificates.certificate_to_json, cert)
        again = counter.run("parse", certificates.certificate_from_json, text)
        result = counter.run("verify", certificates.verify_certificate, again,
                             ctx.canonical_template())
        if not result.ok:
            raise SystemExit(f"{args}: the certificate does not verify: {result.reason}")
        nodes += len(cert.nodes)
    print(f"{len(CERT_CASES)} certificates, {nodes} nodes")
    for phase in PHASES:
        print(f"{phase:<10} {counter.counts[phase]:>11,}")
    print(f"{'total':<10} {sum(counter.counts.values()):>11,}")


if __name__ == "__main__":
    main()
