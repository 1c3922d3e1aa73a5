"""Generate a certificate for every small proof context and fingerprint it.

The contexts are every (r, s, case) that `ProofContext` accepts with
s <= 9 (28 combinations), every prime p < 80 with p = 1 (mod s), and
b in {0, 1, 2}: 408 contexts in all.  For each it prints one line
`r s case p b` followed by the first 16 hex digits of the SHA-256 of the
certificate JSON, or by the class name of the error that generation
raised.  The total CPU time goes to stderr, so the stdout of two
checkouts can be compared with diff.

Usage: PYTHONPATH=src python3 tools/cert_sweep.py > sweep.txt
"""

import hashlib
import sys
import time

from pcsp.certificates import (CASES, CertificateError, GenerationError, ProofContext,
                               certificate_to_json, gen_certificate)
from pcsp.structures import InternalCheckError

MAX_S = 9
P_BELOW = 80
BS = (0, 1, 2)


def contexts(p_below: int = P_BELOW):
    """Every accepted context with s <= MAX_S, prime p < p_below and b in BS."""
    for s in range(1, MAX_S + 1):
        primes = [p for p in range(2, p_below)
                  if p % s == 1 and all(p % q for q in range(2, p))]
        for r in range(0, s + 1):
            for case in CASES:
                for p in primes:
                    for b in BS:
                        try:
                            ctx = ProofContext(r, s, case, p, b)
                        except CertificateError:
                            continue  # the case refuses (r, s)
                        yield ctx


def sweep_line(ctx: ProofContext) -> str:
    """The context and the fingerprint of its certificate (or error class)."""
    try:
        text = certificate_to_json(gen_certificate(ctx))
        outcome = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    except (GenerationError, InternalCheckError) as e:
        outcome = type(e).__name__
    return f"{ctx.r} {ctx.s} {ctx.case} {ctx.p} {ctx.b} {outcome}"


def main() -> None:
    count = 0
    start = time.process_time()
    for ctx in contexts():
        print(sweep_line(ctx), flush=True)
        count += 1
    elapsed = time.process_time() - start
    print(f"{count} contexts, cpu_s={elapsed:.2f}", file=sys.stderr)


if __name__ == "__main__":
    main()
