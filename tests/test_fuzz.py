"""Seeded fuzz suite: mutated input files through `cli.run`.

Valid templates, instances and truth tables get one to three random edits
(a character deleted, inserted or replaced, a token swapped for another, a
line dropped or copied elsewhere), and single fields of the p = 7 fixture
certificate are replaced or deleted.  Each mutated file goes through the
command that reads it.  No exception may escape `cli.run`, every exit code
is 0, 1 or 2, an exit 2 prints exactly one `error:` line on stderr, and no
run takes more than OP_BUDGET_S of CPU time.

Template and instance mutations keep numbers short (edits insert one
character at a time, and replacement tokens are small).  The template
format caps each relation's arity (at MAX_RELATION_ARITY), not the number
of pairs.  The instance format caps only the `vars` count (at MAX_VARS),
not the number or length of its constraints.
The truth-table header is capped (arity at most MAX_ARITY, entries at most
MAX_TABLE_ENTRIES), so its replacement tokens include huge numbers.  The
seed is fixed, so a failure names a case that reproduces.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from pcsp.cli import run

SEED = 20261018
FILE_CASES = 600
CERT_CASES = 200
OP_BUDGET_S = 1.0

TEMPLATES = [
    "template\npair rin 1 3 nae 3\nend\n",
    "template\npair atmost 2 4 atmost 3 4\npair neq neq\nend\n",
    "template\npair atleast 2 4 atleast 1 4\npair neq neq\nend\n",
    "template\npair odd 3 odd 3\npair neq neq\nend\n",
    "template\npair rin 1 3 rin 1 3\nend\n",
    "template\npair explicit 2 0,1;1,0 neq  # disequality, spelled out\nend\n",
    "template\npair explicit 3 0,0,1;0,1,0;1,0,0 nae 3\nend\n",
]
# INSTANCES[i] is a valid instance of TEMPLATES[i]
INSTANCES = [
    "vars 4\nc 0 0 1 2\nc 0 1 2 3\n",
    "vars 5\nc 0 0 1 2 3\nc 0 1 2 3 4\nc 1 0 4\n",
    "vars 5\nc 0 0 1 2 3\nc 1 1 4\nc 1 2 3\n",
    "vars 4\nc 0 0 1 2\nc 1 2 3\nc 0 1 2 3\n",
    "vars 6\nc 0 0 1 2\nc 0 3 4 5\nc 0 0 3 5\n",
    "vars 3\nc 0 0 1\nc 0 1 2\n",
    "vars 4\nc 0 0 1 2\nc 0 1 2 3\n",
]
FUNCTIONS = [
    "fn 3 2\n00010111\n",
    "fn 2 3\n012120201\n",
    "fn 4 2\n0110100110010110\n",
    "fn 2 4\n0123123023013012\n",
]

ALPHABET = "0123456789-,; x#\n"
SMALL_TOKENS = ["-1", "0", "1", "2", "3", "4", "5", "9", "25", "x", "1.5", "", "0,1",
                "0,x", ";;", "٣", "neq", "explicit", "rin", "full", "atmost",
                "pair", "end", "template", "c", "vars", "fn"]
HUGE_TOKENS = ["9999", "999999"]

CERT_VALUES = [None, True, False, 0, 1, -1, 2, 7, 1.5, 10 ** 18 + 9, "x", "", [], {},
               [0], [[0, 0, 0]], {"sigma": 1}]
FIXTURE = Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json"


def _mutate(text: str, rng: random.Random, tokens) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(6)
        if op == 0 and text:
            i = rng.randrange(len(text))
            text = text[:i] + text[i + 1:]
        elif op == 1:
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 2 and text:
            i = rng.randrange(len(text))
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        elif op == 3:
            parts = text.replace(",", " , ").replace(";", " ; ").split(" ")
            parts[rng.randrange(len(parts))] = rng.choice(tokens)
            text = " ".join(parts).replace(" , ", ",").replace(" ; ", ";")
        else:
            lines = text.split("\n")
            i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
            if op == 4:
                del lines[i]
            else:
                lines.insert(j, lines[i])
            text = "\n".join(lines)
    return text


def _run(argv):
    """(exit code, stdout, stderr, CPU seconds) of one `cli.run`."""
    out, err = io.StringIO(), io.StringIO()
    start = time.process_time()
    with contextlib.redirect_stderr(err):
        code = run(argv, out)
    return code, out.getvalue(), err.getvalue(), time.process_time() - start


def _problem(code, err, cpu_s):
    """None when the exit code, stderr and run time keep the CLI's contract."""
    if cpu_s > OP_BUDGET_S:
        return f"took {cpu_s:.2f} s"
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2 and not (err.startswith("error: ") and err.count("\n") == 1):
        return f"exit 2 with stderr {err!r}"
    return None


def _file_case(rng: random.Random, tmp: Path):
    """One mutated file and the command that reads it: (argv, file text)."""
    i = rng.randrange(len(TEMPLATES))
    tpath, ipath, fpath = tmp / "t.tmpl", tmp / "i.inst", tmp / "f.tt"
    template, instance = TEMPLATES[i], INSTANCES[i]
    function = rng.choice(FUNCTIONS)
    kind = rng.randrange(3)
    if kind == 0:
        template = _mutate(template, rng, SMALL_TOKENS)
        argv = rng.choice([["classify", "-t", str(tpath)],
                           ["classify", "-t", str(tpath), "--json"],
                           ["solve", "-t", str(tpath), "-i", str(ipath), "--witness"],
                           ["poly", str(fpath), "--is-polymorphism", "-t", str(tpath)]])
        mutated = template
    elif kind == 1:
        instance = _mutate(instance, rng, SMALL_TOKENS)
        argv = ["solve", "-t", str(tpath), "-i", str(ipath), "--witness"]
        mutated = instance
    else:
        function = _mutate(function, rng, SMALL_TOKENS + HUGE_TOKENS)
        argv = ["poly", str(fpath)] + rng.choice([
            ["--cyclic"], ["--doubly-cyclic", "2"], ["--compose-eq1", "2"],
            ["--sigma", "2"], ["--is-polymorphism", "-t", str(tpath)]])
        mutated = function
    tpath.write_text(template, encoding="utf-8")
    ipath.write_text(instance, encoding="utf-8")
    fpath.write_text(function, encoding="utf-8")
    return argv, mutated


def test_mutated_input_files(tmp_path):
    rng = random.Random(SEED)
    failures = []
    for case in range(FILE_CASES):
        argv, text = _file_case(rng, tmp_path)
        try:
            code, _, err, cpu_s = _run(argv)
        except Exception as e:  # noqa: BLE001 - any escape is the failure
            failures.append((case, argv[0], text, f"{type(e).__name__}: {e}"))
            continue
        problem = _problem(code, err, cpu_s)
        if problem:
            failures.append((case, argv[0], text, problem))
    assert not failures, failures[:5]


def _paths(obj, path=()):
    """Every position in a JSON tree, the root excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def test_mutated_certificates(tmp_path):
    rng = random.Random(SEED)
    base = json.loads(FIXTURE.read_text(encoding="utf-8"))
    positions = list(_paths(base))
    tpath, cpath = tmp_path / "t.tmpl", tmp_path / "c.json"
    tpath.write_text(TEMPLATES[0], encoding="utf-8")
    failures = []
    for case in range(CERT_CASES):
        obj = json.loads(json.dumps(base))
        *parent_path, key = rng.choice(positions)
        parent = obj
        for step in parent_path:
            parent = parent[step]
        if isinstance(parent, dict) and rng.random() < 0.25:
            del parent[key]
            edit = f"delete {parent_path + [key]}"
        else:
            value = rng.choice(CERT_VALUES)
            parent[key] = value
            edit = f"set {parent_path + [key]} = {value!r}"
        cpath.write_text(json.dumps(obj), encoding="utf-8")
        try:
            code, out, err, cpu_s = _run(["verify", str(cpath), "-t", str(tpath)])
        except Exception as e:  # noqa: BLE001 - any escape is the failure
            failures.append((case, edit, f"{type(e).__name__}: {e}"))
            continue
        problem = _problem(code, err, cpu_s)
        if problem is None and code != 2 and out.split()[:1] != [("VALID", "INVALID")[code]]:
            problem = f"exit {code} with stdout {out!r}"
        if problem:
            failures.append((case, edit, problem))
    assert not failures, failures[:5]
