"""Byte-identity guard: stdout of the truth-table commands, of the catalog
table and of certificate generation, pinned by SHA-256, and the help
texts, pinned verbatim.

The inputs are written as text straight from a seeded generator, so they do
not depend on the formatter under test.  A changed hash means some command
prints different bytes than it did when the hash was recorded.
"""

import hashlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

from pcsp.cli import run


def _table_text(arity, d, digits):
    return f"fn {arity} {d}\n{''.join(map(str, digits))}\n"


def _random_digits(rng, d, n):
    return [rng.randrange(d) for _ in range(n)]


def _cyclic_digits(rng, d, p):
    """A table over d**p entries invariant under rotating the p arguments."""
    by_orbit, digits = {}, []
    for idx in range(d ** p):
        args = tuple(idx // d ** (p - 1 - i) % d for i in range(p))
        orbit = min(args[i:] + args[:i] for i in range(p))
        digits.append(by_orbit.setdefault(orbit, rng.randrange(d)))
    return digits


def _invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return f"exit {code}\n{out.getvalue()}"


def _poly_transcript(tmp_path, d, p):
    rng = random.Random(1000 * d + p)
    files = {
        "c": _table_text(p, d, _random_digits(rng, d, d ** p)),
        "cyc": _table_text(p, d, _cyclic_digits(rng, d, p)),
        "t": _table_text(p * p, d, _random_digits(rng, d, d ** (p * p))),
    }
    paths = {}
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.tt"
        paths[name].write_text(text, encoding="utf-8")
    log = []
    for name in ("c", "cyc"):
        log.append(_invoke(["poly", str(paths[name]), "--compose-eq1", str(p)]))
        log.append(_invoke(["poly", str(paths[name]), "--cyclic"]))
        composed = log[-2].split("\n", 1)[1]  # stdout after the exit line
    # the composition of the cyclic table is doubly cyclic
    paths["sq"] = tmp_path / "sq.tt"
    paths["sq"].write_text(composed, encoding="utf-8")
    for name in ("t", "sq"):
        for flag in ("--sigma", "--doubly-cyclic"):
            log.append(_invoke(["poly", str(paths[name]), flag, str(p)]))
        log.append(_invoke(["poly", str(paths[name]), "--cyclic"]))
    return "".join(log)


def _sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


POLY_SHA = {
    (2, 3): "af3090794ec4b07b496c0276c49a2243bdbf474dde482f9aec6f43c178f866ca",
    (3, 3): "64396199f1e3e915ccee6b5f53cb3d7113e238e6de48f8d54bf8ca6af0555945",
    (2, 4): "5ef6d72153afdcab6065083140077d468c130eaa16f14468872a48a3cdb62c34",
    (4, 2): "1fcc93ad4ad19a83d3ccbbf2cf5b88d2daed98a29dda3b71b2e42a666ea03dd5",
}


@pytest.mark.parametrize("d, p", sorted(POLY_SHA))
def test_poly_stdout_is_pinned(tmp_path, d, p):
    assert _sha(_poly_transcript(tmp_path, d, p)) == POLY_SHA[d, p]


ENUMERATE_SHA = {
    "pair rin 1 3 nae 3":
        "5d53360c84d9ab77a2eea547a48a8e65342f590cde1aab0b259122ca78d1c34d",
    "pair odd 3 odd 3\npair neq neq":
        "254adb3e6f51c33d05006703f3a1e1f5729089f42c2d296b16e119b38b1c0d67",
}


@pytest.mark.parametrize("body", sorted(ENUMERATE_SHA))
def test_enumerate_stdout_is_pinned(tmp_path, body):
    path = tmp_path / "t.tmpl"
    path.write_text(f"template\n{body}\nend\n", encoding="utf-8")
    assert _sha(_invoke(["poly", "-t", str(path), "--enumerate", "3"])) == ENUMERATE_SHA[body]


def test_table_stdout_is_pinned():
    out = io.StringIO()
    assert run(["table", "--max-s", "12"], out) == 0
    assert _sha(out.getvalue()) == \
        "ce1e78fcf462cd37149aaefa4679fe635220dd6d6f3b8570392aba528b2e28a8"


# (r, s, case, p, b): README minimal-p cases at b = 1 and small b = 0 chains
CERTIFY_SHA = {
    (1, 3, "4a", 13, 1): "238e53ef027ab60fab795066e2725c3e246d5ac44aaf1171c6ba75512591ba4f",
    (2, 4, "4a", 29, 1): "b92c8afca83b46d18994e17cd76d1937862b660737d4da40ba689e48ff1f5fdd",
    (2, 4, "2", 29, 1): "e1d1acb604e7ebd23dd3d1dec7eddec0a3e95fb8d23ee6374c6612b13f9195cf",
    (2, 5, "1", 31, 1): "90647b4c001530f31bb672028f2f24cb2b8f973693f86af1771997b6b6c9f7a2",
    (1, 3, "4a", 19, 1): "2bc0e8676f2a595c820786401a4c276864967ad48adc1d24e2a7efa1e2c3429c",
    (1, 3, "4a", 7, 0): "d0e12923a435b71cf933aa53c0130a0529b19d395a655bb69404d4dcbde5396d",
    (2, 4, "4a", 17, 0): "2fd8c4475b38b3e9566fbdc046196079c991eed09f2929377308ab8f9b262ec9",
    (2, 4, "3", 17, 0): "03cbb15a29e2662a87c58712df9889f5397a7b3428149420998cbf57804b5f49",
    (2, 5, "4b", 11, 0): "2c003d34361ca6c695480d12477ad59280be83c1eeef2a04667c714f67f74be1",
    (2, 4, "2", 13, 0): "d021a273cef24725474acf79475da89580749d98b44899a86344ebca030108db",
    (2, 5, "1", 11, 0): "48e9309ea116ad6ad53c39a97e7b78ac123a70634f980694671416f53cce35c3",
}


@pytest.mark.parametrize("r, s, case, p, b", sorted(CERTIFY_SHA))
def test_certify_stdout_is_pinned(r, s, case, p, b):
    out = io.StringIO()
    argv = ["certify", "-r", str(r), "-s", str(s), "--case", case, "-p", str(p), "-b", str(b)]
    assert run(argv, out) == 0
    assert _sha(out.getvalue()) == CERTIFY_SHA[r, s, case, p, b]


def _load_cert_sweep():
    path = Path(__file__).resolve().parents[1] / "tools" / "cert_sweep.py"
    spec = importlib.util.spec_from_file_location("cert_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cert_sweep_below_32_is_pinned():
    """tools/cert_sweep.py's stdout for every context with p < 32: 156 lines,
    78 of them certificate fingerprints and 78 generation errors."""
    sweep = _load_cert_sweep()
    lines = [sweep.sweep_line(ctx) + "\n" for ctx in sweep.contexts(32)]
    assert len(lines) == 156
    assert _sha("".join(lines)) == \
        "7f34e5b96f414516c2a6e98e1852d4ec5eba277b5748a5b078b71bd833b84cdb"


# `pcsp --help` and each subcommand's --help at 80 columns, as argparse
# formats them in Python 3.10 to 3.12.
HELP = {
    (): """\
usage: pcsp [-h] {classify,solve,poly,certify,verify,table} ...

Boolean promise constraint satisfaction workbench

positional arguments:
  {classify,solve,poly,certify,verify,table}
    classify            tractability verdict for a template
    solve               decide instances through the sandwich
    poly                truth-table operations
    certify             generate a non-existence certificate
    verify              check a certificate against a template
    table               regenerate the classification table

options:
  -h, --help            show this help message and exit
""",
    ("classify",): """\
usage: pcsp classify [-h] -t TEMPLATE [--json]

options:
  -h, --help            show this help message and exit
  -t TEMPLATE, --template TEMPLATE
  --json
""",
    ("solve",): """\
usage: pcsp solve [-h] -t TEMPLATE -i INSTANCE [--witness]

options:
  -h, --help            show this help message and exit
  -t TEMPLATE, --template TEMPLATE
  -i INSTANCE, --instance INSTANCE
                        instance file; repeat for batch mode
  --witness
""",
    ("poly",): """\
usage: pcsp poly [-h] [-t TEMPLATE] [--is-polymorphism] [--cyclic]
                 [--doubly-cyclic P] [--compose-eq1 P] [--sigma P]
                 [--enumerate N]
                 [function]

positional arguments:
  function              truth-table file

options:
  -h, --help            show this help message and exit
  -t TEMPLATE, --template TEMPLATE
  --is-polymorphism
  --cyclic
  --doubly-cyclic P
  --compose-eq1 P
  --sigma P
  --enumerate N
""",
    ("certify",): """\
usage: pcsp certify [-h] -r R -s S --case {1,2,3,4a,4b} -p P -b B
                    [--preset {desk,paper}] [-o OUTPUT]

options:
  -h, --help            show this help message and exit
  -r R
  -s S
  --case {1,2,3,4a,4b}
  -p P
  -b B
  --preset {desk,paper}
  -o OUTPUT, --output OUTPUT
""",
    ("verify",): """\
usage: pcsp verify [-h] -t TEMPLATE certificate

positional arguments:
  certificate

options:
  -h, --help            show this help message and exit
  -t TEMPLATE, --template TEMPLATE
""",
    ("table",): """\
usage: pcsp table [-h] [--max-s MAX_S]

options:
  -h, --help     show this help message and exit
  --max-s MAX_S
""",
}


@pytest.mark.skipif(sys.version_info >= (3, 13),
                    reason="argparse 3.13 prints '-t, --template TEMPLATE'")
@pytest.mark.parametrize("command", sorted(HELP))
def test_help_stdout_is_pinned(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run([*command, "--help"], io.StringIO()) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (HELP[command], "")
