"""Byte-identity guard: stdout of the truth-table commands and of the catalog
table, pinned by SHA-256.

The inputs are written as text straight from a seeded generator, so they do
not depend on the formatter under test.  A changed hash means some command
prints different bytes than it did when the hash was recorded.
"""

import hashlib
import io
import random

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
