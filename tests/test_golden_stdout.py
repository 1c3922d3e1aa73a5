"""Byte-identity guard: stdout of the truth-table commands, of the catalog
table and of certificate generation, pinned by SHA-256.

The inputs are written as text straight from a seeded generator, so they do
not depend on the formatter under test.  A changed hash means some command
prints different bytes than it did when the hash was recorded.
"""

import hashlib
import importlib.util
import io
import random
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
    (1, 3, "4a", 13, 1): "ba9f73ef880a9ddc960a1f9ec573f04a3760ab892d895fbb7c12f1c16d8b4a8d",
    (2, 4, "4a", 29, 1): "88343a261f118fe660c0ba214ec855a542fe43b31b78538937df5d8255f7a894",
    (2, 4, "2", 29, 1): "c263946cb55dfc8703fdf141f19094a5a53acf2b8543956f2b169b319293cce9",
    (2, 5, "1", 31, 1): "12195839214e0e2e8d2a727c86708c8c4584622cd40ed425614e44c0b6103de1",
    (1, 3, "4a", 19, 1): "d35d9e3df10e2fc93bf27bdc06bceb4e71b5de6570c4084775f9bc17bf66f8af",
    (1, 3, "4a", 7, 0): "5272537243902785f5750785026644557f4406e15b4ab01e026b1100a3aa3027",
    (2, 4, "4a", 17, 0): "2d0724e05fde45c23f221bd3418b5638ef52bceb95ad0909914f854fbdbb38b2",
    (2, 4, "3", 17, 0): "afcad16fd9b7328c14a07bd34c8d75b82a68b463bf22fe3d327737d7baa05eee",
    (2, 5, "4b", 11, 0): "c4f0b4f003548505158652b97b35b45660f8bc560d1daca1aff649fe914198e6",
    (2, 4, "2", 13, 0): "711564dac01c10887a9646a9d7844a4a5f672648cb1613b9c9bdd653c8d884fe",
    (2, 5, "1", 11, 0): "5237b42c309462df3cfb3c16382eb7ae2bb4307a62359484538c7a5040d23e20",
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
        "36592017b5e4f87fa1db21d28d5c8618ae0583577989a4d96e069349f4f32b6c"
