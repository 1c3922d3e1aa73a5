import io
import json

from pcsp.cli import run
from pcsp.polymorphisms import format_function, parity_function
from pcsp.structures import Instance, format_instance, format_template
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
