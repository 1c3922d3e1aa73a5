import gc
import io
import json
import time
from pathlib import Path

import pytest

from pcsp import classifier, cli, solvers
from pcsp.cli import run
from pcsp.polymorphisms import MAX_TABLE_ENTRIES, format_function, parity_function
from pcsp.structures import (MAX_RELATION_ARITY, MAX_VARS, Instance, format_instance,
                             format_template, parse_instance)
from conftest import child_env, template, with_neq
from pcsp.structures import build_family


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out)
    return code, out.getvalue()


def write_template(tmp_path, name, t):
    path = tmp_path / name
    path.write_text(format_template(t), encoding="utf-8")
    return str(path)


def write_instance(tmp_path, name, inst):
    path = tmp_path / name
    path.write_text(format_instance(inst), encoding="utf-8")
    return str(path)


ONE_IN_THREE = template((build_family("exact", 1, 3), build_family("nae", 3)))


def test_classify_line(tmp_path):
    path = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    code, out = invoke(["classify", "-t", path])
    assert out.splitlines()[0] == ("complexity=Tractable "
                                   "finiteness=NotFinitelyTractable "
                                   "case=c(r=1,s=3) theorem_item=4")
    assert code == 1  # negative finiteness verdict


def test_classify_json(tmp_path):
    path = write_template(tmp_path, "t.tmpl",
                          with_neq(build_family("odd", 3), build_family("odd", 3)))
    code, out = invoke(["classify", "-t", path, "--json"])
    assert code == 0
    payload = json.loads(out.splitlines()[1])
    assert payload["sandwich"]["solver"] == "gf2"


def test_solve_no_and_yes(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    no_inst = write_instance(tmp_path, "a.inst", Instance(3, ((0, (0, 0, 0)),)))
    code, out = invoke(["solve", "-t", tpath, "-i", no_inst])
    assert (code, out) == (1, "NO\n")
    yes_inst = write_instance(tmp_path, "b.inst",
                              Instance(4, ((0, (0, 1, 2)), (0, (0, 1, 3)))))
    code, out = invoke(["solve", "-t", tpath, "-i", yes_inst, "--witness"])
    assert code == 0 and out.startswith("YES\n")


def test_solve_unsupported_template(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl",
                           with_neq(build_family("nae", 3), build_family("nae", 3)))
    ipath = write_instance(tmp_path, "i.inst", Instance(3, ((0, (0, 1, 2)),)))
    code, _ = invoke(["solve", "-t", tpath, "-i", ipath])
    assert code == 2


# Parity pairs of two arities beside a disequality: a tractable shape
# exists, but no one basic item matches, so there is no sandwich to solve by.
NO_RECIPE = "template\npair odd 3 odd 3\npair odd 4 odd 4\npair neq neq\nend\n"


def test_classify_tractable_template_without_recipe(tmp_path):
    path = tmp_path / "t.tmpl"
    path.write_text(NO_RECIPE, encoding="utf-8")
    code, out = invoke(["classify", "-t", str(path), "--json"])
    line, payload = out.splitlines()
    assert (code, line) == (0, "complexity=Tractable finiteness=Unknown case=- theorem_item=-")
    assert json.loads(payload)["sandwich"] is None


def test_solve_refuses_tractable_template_without_recipe(tmp_path, capsys):
    tpath = tmp_path / "t.tmpl"
    tpath.write_text(NO_RECIPE, encoding="utf-8")
    ipath = tmp_path / "i.inst"
    ipath.write_text("vars 3\nc 0 0 1 2\n", encoding="utf-8")
    err = _usage_error(["solve", "-t", str(tpath), "-i", str(ipath)], capsys)
    assert err == "error: unsupported template: tractable template without a recognized recipe\n"


def test_gf2_witness_outside_b_is_an_internal_error(tmp_path, capsys, monkeypatch):
    """A GF(2) solution that leaves the B side fails the witness re-check:
    exit 3, nothing on stdout, one `error:` line."""
    monkeypatch.setattr(solvers, "solve_gf2", lambda system: [0] * system.n_vars)
    tpath = tmp_path / "t.tmpl"
    tpath.write_text("template\npair odd 3 odd 3\npair neq neq\nend\n", encoding="utf-8")
    ipath = tmp_path / "i.inst"
    ipath.write_text("vars 3\nc 0 0 1 2\n", encoding="utf-8")
    capsys.readouterr()
    assert invoke(["solve", "-t", str(tpath), "-i", str(ipath)]) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("n", [2000, 6000])
def test_integer_path_cost_does_not_grow_with_unused_variables(tmp_path, n):
    """Two constraints among thousands of variables: the integer system
    holds sparse rows, so the answer takes far below a second of CPU time
    (dense n x (m + n) column reduction took seconds)."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    ipath = write_instance(tmp_path, "i.inst", Instance(n, ((0, (0, 1, 2)), (0, (0, 1, 3)))))
    start = time.process_time()
    code, out = invoke(["solve", "-t", tpath, "-i", ipath, "--witness"])
    assert time.process_time() - start < 1.0
    assert (code, out) == (0, "YES\n1" + " 0" * (n - 1) + "\n")


def test_malformed_template_exit_code(tmp_path):
    path = tmp_path / "bad.tmpl"
    path.write_text("template\npair rin 1 nae 3\nend\n", encoding="utf-8")
    code, _ = invoke(["classify", "-t", str(path)])
    assert code == 2


def test_certify_verify_round_trip(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cert = tmp_path / "c.json"
    code, out = invoke(["certify", "-r", "1", "-s", "3", "--case", "4a",
                        "-p", "7", "-b", "0", "-o", str(cert)])
    assert code == 0 and "tame_base" in out
    code, out = invoke(["verify", str(cert), "-t", tpath])
    assert (code, out) == (0, "VALID\n")


def test_verify_rejects_tamper(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cert = tmp_path / "c.json"
    invoke(["certify", "-r", "1", "-s", "3", "--case", "4a",
            "-p", "7", "-b", "0", "-o", str(cert)])
    obj = json.loads(cert.read_text())
    obj["nodes"][0]["justify"]["tuples"][0][0] += 1
    cert.write_text(json.dumps(obj))
    code, out = invoke(["verify", str(cert), "-t", tpath])
    assert code == 1 and out.startswith("INVALID node=0")


def test_verify_names_a_missing_field(tmp_path):
    fixture = Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json"
    obj = json.loads(fixture.read_text())
    del obj["nodes"][2]["claim"]["a"]
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(obj))
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    code, out = invoke(["verify", str(cert), "-t", tpath])
    assert (code, out) == (1, "INVALID node=2 reason=malformed node: missing field 'a'\n")


@pytest.mark.parametrize("edit,message", [
    (lambda obj: obj.update(nodes={}), "nodes is not a JSON array"),
    (lambda obj: obj["nodes"][0].update(refs={}), "node 0: refs is not a JSON array"),
    (lambda obj: obj["nodes"].__setitem__(3, [obj["nodes"][3]]), "node 3 is not a JSON object"),
    (lambda obj: obj["nodes"][3].pop("claim"), "node 3 has no field 'claim'"),
    (lambda obj: obj.pop("nodes"), "missing field 'nodes'"),
    (lambda obj: obj.update(context=[]), "context is not a JSON object"),
    (lambda obj: obj["context"].update(exponent_preset=[]), "exponent_preset [] is not a string"),
    ([], "top level is not a JSON object"),
    ("context", "top level is not a JSON object"),
], ids=["nodes", "refs", "node", "node-field", "field", "context", "preset", "array", "string"])
def test_verify_reads_containers_strictly(tmp_path, capsys, edit, message):
    """An object where an array belongs used to be read as its keys, so
    `"refs": {}` on node 0 verified VALID and `"nodes": {}` was an empty
    certificate; a missing field was named by its key alone, and a context
    or certificate of the wrong type by the bare TypeError text.  An edit
    that is not a function is the whole certificate."""
    obj = json.loads((Path(__file__).parent / "data" / "cert_1in3_p7_b0_path_refs.json")
                     .read_text())
    if callable(edit):
        edit(obj)
    else:
        obj = edit
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps(obj))
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    err = _usage_error(["verify", str(cert), "-t", tpath], capsys)
    assert err == f"error: {cert}: malformed certificate: {message}\n"


def test_certify_small_p_reports(tmp_path):
    code, _ = invoke(["certify", "-r", "1", "-s", "3", "--case", "4a",
                      "-p", "7", "-b", "1"])
    assert code == 1


def test_table_deterministic():
    code1, out1 = invoke(["table", "--max-s", "5"])
    code2, out2 = invoke(["table", "--max-s", "5"])
    assert code1 == code2 == 0 and out1 == out2
    assert "(1-in-3,nae-3)" in out1


def test_poly_flags(tmp_path):
    fn = tmp_path / "par3.tt"
    fn.write_text(format_function(parity_function(3)), encoding="utf-8")
    code, out = invoke(["poly", str(fn), "--cyclic"])
    assert (code, out) == (0, "cyclic\n")
    tpath = write_template(tmp_path, "t.tmpl",
                           with_neq(build_family("odd", 3), build_family("odd", 3)))
    code, out = invoke(["poly", str(fn), "--is-polymorphism", "-t", tpath])
    assert (code, out) == (0, "polymorphism\n")
    code, out = invoke(["poly", str(fn), "--compose-eq1", "3"])
    assert code == 0 and out.startswith("fn 9 2\n")
    code, out = invoke(["poly", str(fn), "--sigma", "3"])
    assert code == 2  # parity of arity 3 is not 9-ary


def test_poly_enumerate(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    code, out = invoke(["poly", "--enumerate", "1", "-t", tpath])
    assert code == 0 and out.endswith("count 2\n")


def test_outputs_byte_identical_across_processes(tmp_path):
    """Golden determinism: fresh interpreters produce identical bytes."""
    import subprocess
    import sys

    script = (
        "import io\n"
        "from pcsp.cli import run\n"
        "out = io.StringIO()\n"
        "run(['table', '--max-s', '6'], out)\n"
        "run(['certify', '-r', '1', '-s', '3', '--case', '4a', '-p', '7',"
        " '-b', '0'], out)\n"
        "import sys; sys.stdout.write(out.getvalue())\n"
    )
    runs = [subprocess.run([sys.executable, "-c", script], capture_output=True,
                           check=True, env=child_env()).stdout for _ in range(2)]
    assert runs[0] == runs[1] and len(runs[0]) > 1000


def test_solve_batch_mode(tmp_path):
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    a = write_instance(tmp_path, "a.inst", Instance(3, ((0, (0, 0, 0)),)))
    b = write_instance(tmp_path, "b.inst", Instance(3, ((0, (0, 1, 2)),)))
    code, out = invoke(["solve", "-t", tpath, "-i", b, "-i", a])
    lines = out.splitlines()
    assert lines[0].endswith("YES") and lines[1].endswith("NO")
    assert code == 1


def test_consecutive_runs_answer_as_fresh_processes(tmp_path):
    """`run` keeps no state between calls: two solves with a usage error
    between them answer in one process exactly as in three fresh ones."""
    import subprocess
    import sys

    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    no_inst = write_instance(tmp_path, "a.inst", Instance(3, ((0, (0, 0, 0)),)))
    yes_inst = write_instance(tmp_path, "b.inst",
                              Instance(4, ((0, (0, 1, 2)), (0, (0, 1, 3)))))
    calls = [["solve", "-t", tpath, "-i", yes_inst, "--witness"],
             ["solve", "-t", tpath, "--witness"],  # no instance: usage error
             ["solve", "-t", tpath, "-i", no_inst]]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "pcsp.cli", *argv],
                              capture_output=True, text=True, env=child_env())
        fresh.append((proc.returncode, proc.stdout))
    assert [code for code, _ in fresh] == [0, 2, 1]
    assert fresh[0][1].startswith("YES\n") and fresh[2][1] == "NO\n"
    assert [invoke(argv) for argv in calls] == fresh


def _context_only_certificate(p, b=0, conclusion="tame_base") -> str:
    return json.dumps({"context": {"r": 1, "s": 3, "case": "4a", "p": p, "b": b,
                                   "theta": "1/3", "exponent_preset": "desk"},
                       "nodes": [], "conclusion": conclusion})


def test_verify_large_prime_context_is_prompt(tmp_path):
    """p = 2^61 - 1 is prime and 1 mod 3; its primality test used to run by
    trial division for many seconds.  An empty proof is rejected (exit 1)."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_context_only_certificate(2 ** 61 - 1), encoding="utf-8")
    start = time.process_time()
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert time.process_time() - start < 1.0
    assert code == 1 and out.startswith("INVALID")


def test_p_beyond_exact_primality_is_refused(tmp_path, capsys):
    """Above the bound where Miller-Rabin on bases 2..41 is exact, certify
    and verify both refuse with exit 2 and a one-line message."""
    from pcsp.certificates import MAX_PRIME

    p = next(q for q in range(MAX_PRIME, MAX_PRIME + 3) if q % 3 == 1)
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_context_only_certificate(p), encoding="utf-8")
    capsys.readouterr()
    for argv in (["verify", str(cpath), "-t", tpath],
                 ["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", str(p), "-b", "0"]):
        assert invoke(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "primality" in err


def test_loose_context_fields_are_refused(tmp_path, capsys):
    """A context's integers are read strictly: p = 7.9 is not truncated to
    7, and b = false is not read as 0.  Both are malformed input (exit 2)."""
    from pcsp.certificates import CertificateError, certificate_from_json

    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_context_only_certificate(7), encoding="utf-8")
    assert invoke(["verify", str(cpath), "-t", tpath])[0] == 1
    for p, b in ((7.9, 0), (7, False)):
        text = _context_only_certificate(p, b)
        with pytest.raises(CertificateError, match="is not an integer"):
            certificate_from_json(text)
        cpath.write_text(text, encoding="utf-8")
        capsys.readouterr()
        assert invoke(["verify", str(cpath), "-t", tpath]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_huge_b_is_prompt(tmp_path):
    """The pigeonhole interval is a range, not a list of about 2b integers,
    so a contradiction with b = 10^9 and no nodes is rejected at once."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_context_only_certificate(7, 10 ** 9, "contradiction"),
                     encoding="utf-8")
    start = time.process_time()
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert time.process_time() - start < 0.5
    assert (code, out) == (1, "INVALID reason=pigeonhole interval has too few integers\n")


def _one_node_certificate(p, node, b=0, conclusion="tame_base") -> str:
    obj = json.loads(_context_only_certificate(p, b, conclusion))
    obj["nodes"] = [dict(node, id=0, refs=[])]
    return json.dumps(obj)


@pytest.mark.parametrize("p", [10000000000051, 10000000000000000000009])
def test_boundedness_at_huge_p_is_prompt(tmp_path, p):
    """The boundedness rule sizes the claim's two rectangles before it builds
    p-entry ones.  Building them first ran out of memory at the first p and
    overflowed at the second (exit 3); a certificate of about 400 bytes is
    INVALID (exit 1)."""
    z22 = p // 3  # theta*p - 2b < z21 < z22 < theta*p at theta = 1/3, b = 1
    node = {"claim": {"kind": "distinct", "a": {"blocks": [1, 0]}, "b": {"blocks": [1, 1]}},
            "justify": {"tag": "boundedness", "z21": z22 - 1, "z22": z22}}
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_one_node_certificate(p, node, 1, "contradiction"), encoding="utf-8")
    assert cpath.stat().st_size < 500
    start = time.process_time()
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert time.process_time() - start < 1.0
    assert (code, out) == (1, "INVALID node=0 reason=claim does not name the two "
                              "finale rectangles\n")


def _double_cyclicity_node(blocks):
    return {"claim": {"kind": "tame", "blocks": blocks},
            "justify": {"tag": "double_cyclicity"}}


@pytest.mark.parametrize("p, length, reason", [
    (13, 40000, "malformed node: block vector has 40000 entries, not p=13"),
    (40009, 40009, "claim does not follow from the referenced facts")], ids=["p13", "p40009"])
def test_long_block_vector_is_prompt(tmp_path, p, length, reason):
    """A block vector's length is checked against p before the rule reads
    it, and an almost rectangle is recognized in linear time, where the
    rotation search took seconds on 40,000 entries.  At p = 40009 the
    vector is a rotated almost rectangle of step one, so the rule runs to
    its claim, which no referenced fact supports."""
    ones = length // 2
    canonical = [1] * ones + [0] * (length - ones)
    blocks = canonical[-12345:] + canonical[:-12345]  # the run of ones starts at 12345
    node = _double_cyclicity_node(blocks)
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_one_node_certificate(p, node), encoding="utf-8")
    start = time.process_time()
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert time.process_time() - start < 0.5
    assert (code, out) == (1, f"INVALID node=0 reason={reason}\n")


def test_long_tame_claim_gets_a_short_reason(tmp_path):
    """A tame claim's vector of the wrong length is named by its length and
    p, not printed: the whole vector made a 120,042-character line here."""
    node = {"claim": {"kind": "tame", "blocks": [1] * 40000},
            "justify": {"tag": "closure"}}
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text(_one_node_certificate(13, node), encoding="utf-8")
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert (code, out) == (1, "INVALID node=0 reason=malformed node: "
                              "bad block vector of 40000 entries for p=13\n")
    assert len(out) < 200


def test_completion_with_many_rows_is_prompt(tmp_path):
    """(2-in-40008, NAE-40008) at p = 40009 completes z with m = 40007
    staggered rows.  Their column sums have a closed form, so a one-node
    certificate of about p entries is checked without building the rows
    (1.6e9 entries), and its unsupported claim is INVALID."""
    p, s = 40009, 40008
    z = [2] * p
    node = {"claim": {"kind": "tame", "blocks": z},
            "justify": {"tag": "completion"}}
    obj = json.loads(_one_node_certificate(p, node))
    obj["context"].update(r=2, s=s, theta=f"1/{s // 2}")
    tpath = write_template(tmp_path, "t.tmpl", template(
        (build_family("exact", 2, s), build_family("nae", s))))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(obj), encoding="utf-8")
    start = time.process_time()
    code, out = invoke(["verify", str(cpath), "-t", tpath])
    assert time.process_time() - start < 1.0
    assert (code, out) == (1, "INVALID node=0 reason=claim is not forced by the constraint\n")


def _usage_error(argv, capsys) -> str:
    """Run argv, expect exit 2 with nothing on stdout and exactly one
    `error:` line on stderr, and return that line."""
    capsys.readouterr()
    assert invoke(argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("tuples", ["0,x;1,0", "0,1;;1,0"])
def test_explicit_tuples_are_read_strictly(tmp_path, capsys, tuples):
    path = tmp_path / "t.tmpl"
    path.write_text(f"template\npair explicit 2 {tuples} neq\nend\n", encoding="utf-8")
    err = _usage_error(["classify", "-t", str(path)], capsys)
    assert "line 2: bad tuple" in err


@pytest.mark.parametrize("header, message", [("fn 999999 3", "arity 999999 above cap 24"),
                                             ("fn -1 2", "arity must be >= 1"),
                                             ("fn 2 5", "domain size must be between 2 and 4"),
                                             ("fn 14 4", "table of 4**14 entries above cap "
                                                         "67108864")])
def test_truth_table_header_is_checked_before_the_table(tmp_path, capsys, header, message):
    """3^999999 used to be formatted into a message (a ValueError traceback),
    and arity -1 asked for 0.5 values."""
    path = tmp_path / "f.tt"
    path.write_text(f"{header}\n0\n", encoding="utf-8")
    err = _usage_error(["poly", str(path), "--cyclic"], capsys)
    assert err == f"error: {path}: {message}\n"


def test_compose_eq1_refuses_a_table_above_the_entry_cap(tmp_path, capsys):
    """4^16 entries used to be gathered until a MemoryError; the composed
    shape is now checked first.  3^16 entries stay under the cap."""
    path = tmp_path / "c.tt"
    path.write_text("fn 4 4\n" + "0123" * 64 + "\n", encoding="utf-8")
    err = _usage_error(["poly", str(path), "--compose-eq1", "4"], capsys)
    assert err == "error: table of 4**16 entries above cap 67108864\n"
    assert 3 ** 16 <= MAX_TABLE_ENTRIES < 4 ** 16


def test_poly_without_a_template_is_refused(tmp_path, capsys):
    fpath = tmp_path / "f.tt"
    fpath.write_text(format_function(parity_function(3)), encoding="utf-8")
    for argv in (["poly", str(fpath), "--is-polymorphism"], ["poly", "--enumerate", "2"]):
        assert _usage_error(argv, capsys) == "error: missing template file (-t)\n"


def test_poly_needs_a_table_and_an_operation(tmp_path, capsys):
    fpath = tmp_path / "f.tt"
    fpath.write_text(format_function(parity_function(3)), encoding="utf-8")
    assert _usage_error(["poly"], capsys) == "error: poly needs a truth-table file\n"
    assert _usage_error(["poly", str(fpath)], capsys) == (
        "error: poly needs one of --is-polymorphism, --cyclic, --doubly-cyclic, "
        "--compose-eq1, --sigma, --enumerate\n")


@pytest.mark.parametrize("flags, named", [
    (["--cyclic", "--sigma", "3"], "--cyclic and --sigma"),
    (["--cyclic", "--is-polymorphism"], "--is-polymorphism and --cyclic"),
    (["--doubly-cyclic", "0", "--compose-eq1", "3", "--enumerate", "2"],
     "--doubly-cyclic and --compose-eq1 and --enumerate"),
])
def test_poly_refuses_more_than_one_operation(tmp_path, capsys, flags, named):
    """`--cyclic --sigma 3` used to print `cyclic` and never run --sigma,
    and `--cyclic --is-polymorphism` ran only the polymorphism test."""
    fpath = tmp_path / "f.tt"
    fpath.write_text(format_function(parity_function(3)), encoding="utf-8")
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    err = _usage_error(["poly", str(fpath), *flags, "-t", tpath], capsys)
    assert err == f"error: poly takes one operation, got {named}\n"


def test_poly_enumerate_refuses_a_truth_table(tmp_path, capsys):
    """`poly F --enumerate 2 -t T` used to ignore F."""
    fpath = tmp_path / "f.tt"
    fpath.write_text(format_function(parity_function(3)), encoding="utf-8")
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    err = _usage_error(["poly", str(fpath), "--enumerate", "2", "-t", tpath], capsys)
    assert err == "error: --enumerate takes no truth-table file\n"


def test_point_absorbing_template_is_finitely_tractable(tmp_path):
    """(1-in-3, at-least-1-in-3) matches no basic item; the all-ones tuple
    lies in its B side, so it reduces to a one-element structure."""
    t = template((build_family("exact", 1, 3), build_family("atleast", 1, 3)))
    assert classifier.match_basic(t) is None and classifier._point_absorbing(t) == 1
    path = tmp_path / "t.tmpl"
    path.write_text("template\npair rin 1 3 atleast 1 3\nend\n", encoding="utf-8")
    assert invoke(["classify", "-t", str(path)]) == (
        0, "complexity=Tractable finiteness=FinitelyTractable case=- theorem_item=-\n")


def test_enumerate_arity_below_one_is_refused(tmp_path, capsys):
    """Arity 0 was refused for some templates and printed `count 0` for
    others; a negative arity raised a TypeError."""
    full3 = template((build_family("full", 3), build_family("full", 3)))
    for t in (ONE_IN_THREE, full3):
        tpath = write_template(tmp_path, "t.tmpl", t)
        for n in ("0", "-3"):
            err = _usage_error(["poly", "-t", tpath, "--enumerate", n], capsys)
            assert err == "error: arity must be >= 1\n"


def test_table_max_s_below_one_is_refused(capsys):
    for k in ("0", "-2"):
        assert _usage_error(["table", "--max-s", k], capsys) == "error: --max-s must be >= 1\n"


def test_table_max_s_is_capped(capsys):
    """All rows are built before the first is printed, and --max-s had no
    upper bound: 320 took 4 s of CPU.  The cap itself is accepted."""
    cap = cli.MAX_TABLE_S
    code, out = invoke(["table", "--max-s", str(cap)])
    assert code == 0 and f"(1-in-{cap},nae-{cap})" in out
    for k in (cap + 1, 320, 10 ** 40):
        assert _usage_error(["table", "--max-s", str(k)], capsys) == (
            f"error: --max-s {k} above cap {cap}\n")


@pytest.mark.parametrize("kind", ["template", "instance", "table", "certificate"])
def test_input_that_is_not_utf8_is_refused(tmp_path, capsys, kind):
    """A UTF-16 file, or one holding byte 0xff, used to end in a
    UnicodeDecodeError traceback and exit 1."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    bad = tmp_path / "bad"
    if kind == "template":
        bad.write_text(format_template(ONE_IN_THREE), encoding="utf-16")
        argv = ["classify", "-t", str(bad)]
    elif kind == "instance":
        bad.write_text(format_instance(Instance(3, ((0, (0, 1, 2)),))), encoding="utf-16")
        argv = ["solve", "-t", tpath, "-i", str(bad)]
    elif kind == "table":
        bad.write_bytes(format_function(parity_function(3)).encode("ascii") + b"\xff\n")
        argv = ["poly", str(bad), "--cyclic"]
    else:
        bad.write_bytes(b'{"context": "\xff"}\n')
        argv = ["verify", str(bad), "-t", tpath]
    assert _usage_error(argv, capsys).startswith(f"error: cannot read {bad}: ")


def test_deeply_nested_certificate_is_refused(tmp_path, capsys):
    """Nesting past the recursion limit used to end in a RecursionError
    traceback and exit 1."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text("[" * 200_000, encoding="utf-8")
    err = _usage_error(["verify", str(cpath), "-t", tpath], capsys)
    assert err.startswith(f"error: {cpath}: bad JSON: ")


def test_certificate_integer_beyond_conversion_limit_is_refused(tmp_path, capsys):
    """An integer of more digits than int() converts (4300 by default) used
    to end in a ValueError traceback and exit 1."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    cpath = tmp_path / "c.json"
    cpath.write_text('{"context": ' + "9" * 5000 + "}", encoding="utf-8")
    err = _usage_error(["verify", str(cpath), "-t", tpath], capsys)
    assert err.startswith(f"error: {cpath}: bad JSON: ") and len(err) < 300, err


def test_certify_into_a_missing_directory_is_refused(tmp_path, capsys):
    target = tmp_path / "missing" / "c.json"
    err = _usage_error(["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", "7",
                        "-b", "0", "-o", str(target)], capsys)
    assert err.startswith(f"error: cannot write {target}: ")
    assert not target.parent.exists()


# -- the collector pause ---------------------------------------------------------

@pytest.fixture
def collector_state():
    """Leaves the cyclic collector as the test found it."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


def _table_raising(exc):
    def table(max_s):
        raise exc
    return table


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("argv, table, code", [
    (["table", "--max-s", "2"], None, 0),
    (["classify", "-t", "<template>"], None, 1),
    (["no-such-command"], None, 2),
    (["table", "--max-s", "0"], None, 2),
    (["table", "--max-s", "2"], _table_raising(solvers.InternalCheckError("seeded")), 3),
    (["table", "--max-s", "2"], _table_raising(RuntimeError("seeded")), None),
], ids=["exit0", "exit1", "exit2-argparse", "exit2-usage", "exit3", "raises"])
def test_run_restores_the_collector_state(tmp_path, monkeypatch, capsys, collector_state,
                                          enabled, argv, table, code):
    """`run` pauses the cyclic collector for the whole command and then
    restores the state it found, on every way out of the command."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    argv = [tpath if a == "<template>" else a for a in argv]
    if table is not None:
        monkeypatch.setattr(classifier, "classification_table", table)
    (gc.enable if enabled else gc.disable)()
    seen = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda build=cli.build_parser: seen.append(gc.isenabled()) or build())
    if code is None:
        with pytest.raises(RuntimeError):
            run(argv, io.StringIO())
    else:
        assert run(argv, io.StringIO()) == code
    assert seen == [False]
    assert gc.isenabled() is enabled


def _command_garbage(argv):
    """(exit code, objects the collector finds) after running one command
    function directly, without argparse, with the collector off."""
    args = cli.build_parser().parse_args(argv)
    command = cli._COMMANDS[args.command]
    gc.collect()
    gc.disable()
    try:
        try:
            code = command(args, io.StringIO())
        except cli._CliError as e:
            code = e.code
        return code, gc.collect()
    finally:
        gc.enable()


def test_commands_leave_no_cyclic_garbage(tmp_path, collector_state):
    """Why pausing the collector is safe: no command makes a reference
    cycle, so a collection during one frees nothing.  Only argparse's
    parser does, and `run` leaves that to the next collection."""
    gf2 = with_neq(build_family("odd", 3), build_family("odd", 3))
    lp = with_neq(build_family("atmost", 1, 3), build_family("atmost", 1, 3))
    recipes = {"gf2": gf2, "diophantine": ONE_IN_THREE, "lp": lp}
    assert {name: classifier.classify(t).sandwich.solver
            for name, t in recipes.items()} == {name: name for name in recipes}
    inst = write_instance(tmp_path, "i.inst", Instance(4, ((0, (0, 1, 2)), (0, (0, 1, 3)))))
    fn = tmp_path / "par3.tt"
    fn.write_text(format_function(parity_function(3)), encoding="utf-8")
    t13 = write_template(tmp_path, "t13.tmpl", ONE_IN_THREE)
    certify = ["certify", "-r", "1", "-s", "3", "--case", "4a", "-b"]
    cert = tmp_path / "c.json"
    assert _command_garbage(certify + ["0", "-p", "7", "-o", str(cert)]) == (0, 0)
    obj = json.loads(cert.read_text())
    obj["nodes"][0]["justify"]["tuples"][0][0] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(obj), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    runs = [(["classify", "-t", t13, "--json"], 1)]
    runs += [(["solve", "-t", write_template(tmp_path, f"{name}.tmpl", t),
               "-i", inst, "--witness"], 0) for name, t in recipes.items()]
    runs += [
        (["poly", str(fn), "--cyclic"], 0),
        (["poly", str(fn), "--compose-eq1", "3"], 0),
        (["poly", "--enumerate", "1", "-t", t13], 0),
        (certify + ["1", "-p", "13", "-o", str(tmp_path / "c13.json")], 0),
        (["verify", str(cert), "-t", t13], 0),
        (["verify", str(tampered), "-t", t13], 1),
        (["verify", str(bad), "-t", t13], 2),
        (["table", "--max-s", "3"], 0),
    ]
    for argv, code in runs:
        assert _command_garbage(argv) == (code, 0), argv


# Run in a fresh interpreter: the pcsp modules whose body executed (audit
# event "exec", raised for each module body), then the exit code.
_EXECUTED_SCRIPT = """
import io, sys
from pathlib import Path
executed = []
def hook(event, args):
    if event == "exec":
        path = Path(getattr(args[0], "co_filename", ""))
        if path.parent.name == "pcsp":
            executed.append(path.stem)
sys.addaudithook(hook)
from pcsp.cli import run
code = run(sys.argv[1:], io.StringIO())
print(code, *executed)
"""

_LAZY_MODULES = {"certificates", "classifier", "polymorphisms", "solvers"}


def _executed_modules(argv):
    """(exit code, lazily loaded modules that executed, stderr) of argv run
    in a fresh interpreter."""
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _EXECUTED_SCRIPT, *argv],
                          capture_output=True, text=True, env=child_env(), check=True)
    code, *executed = proc.stdout.split()
    return int(code), set(executed) & _LAZY_MODULES, proc.stderr


def test_each_subcommand_executes_only_the_modules_it_runs(tmp_path):
    """`cli` keeps certificates, classifier, polymorphisms and solvers
    unexecuted until a subcommand uses one of them; `solvers` runs the
    classifier for its recipe.  A template parse error loads none of them:
    `_load` used to name polymorphisms' FunctionError for every file, and
    `cli` used to import the classifier for every command."""
    t13 = write_template(tmp_path, "t13.tmpl", ONE_IN_THREE)
    bad = tmp_path / "bad.tmpl"
    bad.write_text("template\npair rin 1 3 nae\nend\n", encoding="utf-8")
    inst = write_instance(tmp_path, "i.inst", Instance(3, ((0, (0, 1, 2)),)))
    fn = tmp_path / "par3.tt"
    fn.write_text(format_function(parity_function(3)), encoding="utf-8")
    cert = str(tmp_path / "c.json")
    runs = [
        (["classify", "-t", t13], 1, {"classifier"}),
        (["classify", "-t", str(bad)], 2, set()),
        (["table", "--max-s", "3"], 0, {"classifier"}),
        (["solve", "-t", t13, "-i", inst], 0, {"classifier", "solvers"}),
        (["poly", str(fn), "--cyclic"], 0, {"polymorphisms"}),
        (["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", "7", "-b", "0",
          "-o", cert], 0, {"certificates"}),
        (["verify", cert, "-t", t13], 0, {"certificates"}),
    ]
    for argv, code, lazy in runs:
        got_code, got_lazy, err = _executed_modules(argv)
        assert (got_code, got_lazy) == (code, lazy), argv
        assert err == (f"error: {bad}: line 2: nae expects 1 parameter(s)\n"
                       if code == 2 else "")


def test_poly_leaves_json_unloaded(tmp_path):
    """Only `classify --json` and the certificate module write JSON; `cli`
    used to import json for every command."""
    import subprocess
    import sys

    fn = tmp_path / "par3.tt"
    fn.write_text(format_function(parity_function(3)), encoding="utf-8")
    script = ("import io, sys\nfrom pcsp.cli import run\n"
              "print(run(sys.argv[1:], io.StringIO()), 'json' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script, "poly", str(fn), "--cyclic"],
                          capture_output=True, text=True, env=child_env(), check=True)
    assert (proc.stdout, proc.stderr) == ("0 False\n", "")


@pytest.mark.parametrize("p, b, message", [
    (1009, 0, "certificate needs 678721 step-one nodes, above cap 131072"),
    (100000000003, 1, "certificate needs 200000000006 block entries in boundedness "
                      "nodes, above cap 131072"),
])
def test_certify_above_the_size_cap_is_refused(capsys, p, b, message):
    """p = 100000000003, b = 1 used to end in a MemoryError traceback with
    exit 1 (the NO code), and p = 1009, b = 0 took 18 s of CPU and 1.2 GB;
    such a context is now refused before anything is generated."""
    err = _usage_error(["certify", "-r", "1", "-s", "3", "--case", "4a",
                        "-p", str(p), "-b", str(b)], capsys)
    assert err == f"error: {message}\n"


def test_certify_below_the_size_cap_still_certifies(tmp_path):
    cert = tmp_path / "c.json"
    code, out = invoke(["certify", "-r", "1", "-s", "3", "--case", "4a", "-p", "409",
                        "-b", "1", "-o", str(cert)])
    assert code == 0 and out.endswith(" nodes, contradiction)\n"), out
    assert invoke(["verify", str(cert), "-t",
                   write_template(tmp_path, "t13.tmpl", ONE_IN_THREE)]) == (0, "VALID\n")


@pytest.mark.parametrize("count", [MAX_VARS + 1, 3000000, 10 ** 40])
def test_variable_count_above_the_cap_is_refused(tmp_path, capsys, count):
    """`vars 3000000` used to end in a MemoryError traceback with exit 1 (the
    NO code); the count is now refused before any per-variable state."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    ipath = tmp_path / "big.inst"
    ipath.write_text(f"# many variables\nvars {count}\nc 0 0 1 2\n", encoding="utf-8")
    err = _usage_error(["solve", "-t", tpath, "-i", str(ipath)], capsys)
    assert err == f"error: {ipath}: line 2: variable count {count} above cap {MAX_VARS}\n"


@pytest.mark.parametrize("pair, arity", [("full 999999 full 999999", 999999),
                                         ("rin 1 9999999 nae 9999999", 9999999),
                                         ("explicit 999999 - explicit 999999 -", 999999)])
def test_relation_arity_above_the_cap_is_refused(tmp_path, capsys, pair, arity):
    """`classify` on `pair full 999999 full 999999` used to exit 0 after
    1.35 s of CPU and 425 MB, and on `pair rin 1 9999999 nae 9999999` take
    3.5 s and 1.7 GB; the arity is now refused before any weight set is
    built, for family and explicit relations alike."""
    path = tmp_path / "big.tmpl"
    path.write_text(f"template\npair {pair}\nend\n", encoding="utf-8")
    err = _usage_error(["classify", "-t", str(path)], capsys)
    assert err == f"error: {path}: line 2: relation arity {arity} above cap {MAX_RELATION_ARITY}\n"


def test_variable_count_at_the_cap_is_accepted():
    assert parse_instance(f"vars {MAX_VARS}\n").var_count == MAX_VARS


@pytest.mark.parametrize("text, message", [
    ("# c\nvars -1\n", "line 2: var_count must be >= 0"),
    ("# c\nvars 3\nc 0 0 1 5\n", "line 3: variable out of range in constraint (0, (0, 1, 5))"),
], ids=["negative count", "variable out of range"])
def test_instance_error_names_the_line_that_states_it(tmp_path, capsys, text, message):
    """Both errors used to read `line 1`, whatever line held the fault."""
    tpath = write_template(tmp_path, "t.tmpl", ONE_IN_THREE)
    ipath = tmp_path / "bad.inst"
    ipath.write_text(text, encoding="utf-8")
    err = _usage_error(["solve", "-t", tpath, "-i", str(ipath)], capsys)
    assert err == f"error: {ipath}: {message}\n"


def test_relation_too_wide_to_enumerate_is_a_usage_error(tmp_path, capsys):
    """A template relation above MAX_ENUM_ARITY reaches `_run`'s
    StructureError clause from both commands that list its tuples."""
    tpath = tmp_path / "t.tmpl"
    tpath.write_text("template\npair rin 1 21 nae 21\nend\n", encoding="utf-8")
    fpath = tmp_path / "f.tt"
    fpath.write_text(format_function(parity_function(2)), encoding="utf-8")
    for argv in (["poly", str(fpath), "--is-polymorphism", "-t", str(tpath)],
                 ["poly", "--enumerate", "2", "-t", str(tpath)]):
        assert _usage_error(argv, capsys) == "error: refusing to enumerate arity 21 relation\n"
