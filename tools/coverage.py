"""Line coverage of the `pcsp` package over a pytest run, with the stdlib.

The program runs pytest in this process under `sys.settrace` and records
the lines executed in the files of `src/pcsp`.  A module's executable lines
are the line starts of its compiled code objects, nested ones included.
For each module it prints the executed and executable counts and the
lines never run, as ranges, then the totals.  Code that runs in a child
interpreter (the tests that start `python -m pcsp`) is not seen.

The trace functions are two module-level functions, not a closure per
frame, so tracing leaves no garbage cycle behind: the suite's test that
every command leaves no cyclic garbage holds under it.  The whole Tier-1
suite takes a few minutes traced.

Usage: PYTHONPATH=src python3 tools/coverage.py [pytest arguments]
(with no arguments, `-q -p no:cacheprovider tests`).
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pcsp"
PREFIX = str(PACKAGE) + "/"

_hits = {}  # file name -> set of executed line numbers


def _trace_line(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _trace_line


def _trace_call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(PREFIX):
        return None
    # a call starts at the def line, for which no line event comes
    _hits.setdefault(name, set()).add(frame.f_lineno)
    return _trace_line


def executable_lines(path: Path) -> set:
    """The line starts of every code object compiled from the file."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as comma-separated runs: 3-5,9."""
    runs = []
    for line in sorted(lines):
        if runs and runs[-1][1] == line - 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main(argv) -> int:
    args = argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]
    sys.settrace(_trace_call)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    print()
    total_run = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        run = lines & _hits.get(str(path), set())
        total_run += len(run)
        total += len(lines)
        print(f"{path.stem}: {len(run)}/{len(lines)} lines run; "
              f"never run: {ranges(lines - run) or 'none'}")
    print(f"total: {total_run}/{total} lines run, {total - total_run} never")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
