"""The benchmark's smoke self-test, run as part of the suite.

`bench/spans.py` wraps pcsp functions by name, so renaming one breaks the
traced benchmark; running `bench/selftest.py` here makes that a test
failure instead.  It takes a few seconds.
"""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

SELFTEST = Path(__file__).resolve().parent.parent / "bench" / "selftest.py"


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                          text=True, env=child_env(), timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
