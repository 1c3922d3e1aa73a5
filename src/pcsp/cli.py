"""Command-line front end: classify, solve, poly, certify, verify, table.

Exit codes: 0 success or YES or a positive verdict, 1 NO or a negative
verdict, 2 usage errors and unsupported templates, 3 internal check
failures.  Output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.util
import sys
from pathlib import Path

from . import structures


def _lazy(name: str):
    """The submodule `name` of this package, put in sys.modules now but
    executed on its first attribute access, so that a subcommand compiles
    and runs only the modules it uses.  A module imported before `cli` is
    returned as it is, so that no second copy of its classes exists."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


certificates = _lazy("certificates")
classifier = _lazy("classifier")
polymorphisms = _lazy("polymorphisms")
solvers = _lazy("solvers")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


class _CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise _CliError(f"cannot read {path}: {e}")


def _load(parse, path, error=structures.StructureError):
    """Read and parse one input file; a parse error (`error`, raised by
    `parse`) names the file."""
    if path is None:
        # the only optional path argument is -t, which poly needs for
        # --is-polymorphism and --enumerate
        raise _CliError("missing template file (-t)")
    try:
        return parse(_read(path))
    except error as e:
        raise _CliError(f"{path}: {e}")


def _cmd_classify(args, out) -> int:
    t = _load(structures.parse_template, args.template)
    verdict = classifier.classify(t)
    out.write(classifier.format_verdict(verdict) + "\n")
    if args.json:
        import json  # here, so that no other command imports it

        spec = verdict.sandwich
        payload = {
            "complexity": verdict.complexity.value,
            "finiteness": verdict.finiteness.value,
            "case": str(verdict.case) if verdict.case else None,
            "theorem_item": verdict.main_theorem_item,
            "sandwich": None if spec is None else {
                "solver": spec.solver, "r": spec.r, "s": spec.s,
                "polarity": spec.polarity,
            },
        }
        out.write(json.dumps(payload, sort_keys=True) + "\n")
    bad = (verdict.complexity is classifier.Complexity.NP_HARD
           or verdict.finiteness is classifier.Finiteness.NOT_FINITELY_TRACTABLE)
    return EXIT_NEGATIVE if bad else EXIT_OK


def _cmd_solve(args, out) -> int:
    t = _load(structures.parse_template, args.template)
    batch = len(args.instance) > 1
    worst = EXIT_OK
    for path in args.instance:
        inst = _load(structures.parse_instance, path)
        try:
            structures.check_instance_against(inst, t)
        except structures.StructureError as e:
            raise _CliError(f"{path}: {e}")
        try:
            answer = solvers.solve_pcsp(t, inst)
        except classifier.UnsupportedTemplateError as e:
            raise _CliError(f"unsupported template: {e}")
        except structures.InternalCheckError as e:
            raise _CliError(str(e), EXIT_INTERNAL)
        prefix = f"{path}: " if batch else ""
        out.write(prefix + ("YES" if answer.yes else "NO") + "\n")
        if args.witness and answer.witness is not None:
            out.write(_format_witness(answer.witness) + "\n")
        if not answer.yes:
            worst = EXIT_NEGATIVE
    return worst


def _format_witness(witness) -> str:
    if isinstance(witness, dict):
        return " ".join(f"{v}={witness[v]}" for v in sorted(witness))
    return " ".join(str(x) for x in witness)


# The six operations of `poly`, as argparse destinations; one is run per call.
_POLY_OPS = ("is_polymorphism", "cyclic", "doubly_cyclic", "compose_eq1", "sigma", "enumerate")


def _cmd_poly(args, out) -> int:
    given = [op for op in _POLY_OPS
             if getattr(args, op) is not None and getattr(args, op) is not False]
    if len(given) > 1:
        raise _CliError("poly takes one operation, got "
                        + " and ".join("--" + op.replace("_", "-") for op in given))
    if args.enumerate is not None:
        if args.function is not None:
            raise _CliError("--enumerate takes no truth-table file")
        t = _load(structures.parse_template, args.template)
        count = 0
        for f in polymorphisms.enumerate_polymorphisms(t, args.enumerate):
            out.write(polymorphisms.format_function(f))
            count += 1
        out.write(f"count {count}\n")
        return EXIT_OK
    if args.function is None:
        raise _CliError("poly needs a truth-table file")
    f = _load(polymorphisms.parse_function, args.function, polymorphisms.FunctionError)
    if args.is_polymorphism:
        t = _load(structures.parse_template, args.template)
        ok = polymorphisms.is_polymorphism(f, t)
        out.write(("polymorphism" if ok else "not-a-polymorphism") + "\n")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.cyclic:
        ok = polymorphisms.is_cyclic(f)
        out.write(("cyclic" if ok else "not-cyclic") + "\n")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.doubly_cyclic is not None:
        ok = polymorphisms.is_doubly_cyclic(f, args.doubly_cyclic)
        out.write(("doubly-cyclic" if ok else "not-doubly-cyclic") + "\n")
        return EXIT_OK if ok else EXIT_NEGATIVE
    if args.compose_eq1 is not None:
        t_fn = polymorphisms.compose_eq1(f, args.compose_eq1)
        out.write(polymorphisms.format_function(t_fn))
        return EXIT_OK
    if args.sigma is not None:
        out.write(polymorphisms.format_function(
            polymorphisms.sigma_transform(f, args.sigma)))
        return EXIT_OK
    raise _CliError("poly needs one of --is-polymorphism, --cyclic, "
                    "--doubly-cyclic, --compose-eq1, --sigma, --enumerate")


def _cmd_certify(args, out) -> int:
    try:
        ctx = certificates.ProofContext(args.r, args.s, args.case, args.p,
                                        args.b, args.preset)
        cert = certificates.gen_certificate(ctx)
    except certificates.CertificateError as e:
        raise _CliError(str(e))
    except certificates.GenerationError as e:
        raise _CliError(str(e), EXIT_NEGATIVE)
    text = certificates.certificate_to_json(cert)
    if args.output:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as e:
            raise _CliError(f"cannot write {args.output}: {e}")
        out.write(f"wrote {args.output} ({len(cert.nodes)} nodes, "
                  f"{cert.conclusion})\n")
    else:
        out.write(text)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    t = _load(structures.parse_template, args.template)
    try:
        cert = certificates.certificate_from_json(_read(args.certificate))
    except certificates.CertificateError as e:
        raise _CliError(f"{args.certificate}: {e}")
    result = certificates.verify_certificate(cert, t)
    if result.ok:
        out.write("VALID\n")
        return EXIT_OK
    where = "" if result.failed_node is None else f" node={result.failed_node}"
    out.write(f"INVALID{where} reason={result.reason}\n")
    return EXIT_NEGATIVE


# Largest --max-s `table` accepts: the rows grow with its square, and all are
# built before the first is printed (4 s of CPU at 320).
MAX_TABLE_S = 128


def _cmd_table(args, out) -> int:
    if args.max_s < 1:
        raise _CliError("--max-s must be >= 1")
    if args.max_s > MAX_TABLE_S:
        raise _CliError(f"--max-s {args.max_s} above cap {MAX_TABLE_S}")
    rows = classifier.classification_table(args.max_s)
    width = max(len(label) for label, _ in rows)
    for label, verdict in rows:
        out.write(f"{label.ljust(width)}  {classifier.format_verdict(verdict)}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcsp",
        description="Boolean promise constraint satisfaction workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="tractability verdict for a template")
    p.add_argument("-t", "--template", required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("solve", help="decide instances through the sandwich")
    p.add_argument("-t", "--template", required=True)
    p.add_argument("-i", "--instance", required=True, action="append",
                   help="instance file; repeat for batch mode")
    p.add_argument("--witness", action="store_true")

    p = sub.add_parser("poly", help="truth-table operations")
    p.add_argument("function", nargs="?", help="truth-table file")
    p.add_argument("-t", "--template")
    p.add_argument("--is-polymorphism", action="store_true")
    p.add_argument("--cyclic", action="store_true")
    p.add_argument("--doubly-cyclic", type=int, metavar="P")
    p.add_argument("--compose-eq1", type=int, metavar="P")
    p.add_argument("--sigma", type=int, metavar="P")
    p.add_argument("--enumerate", type=int, metavar="N")

    p = sub.add_parser("certify", help="generate a non-existence certificate")
    p.add_argument("-r", type=int, required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("--case", required=True, choices=structures.CASES)
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-b", type=int, required=True)
    p.add_argument("--preset", default="desk", choices=sorted(structures.PRESETS))
    p.add_argument("-o", "--output")

    p = sub.add_parser("verify", help="check a certificate against a template")
    p.add_argument("certificate")
    p.add_argument("-t", "--template", required=True)

    p = sub.add_parser("table", help="regenerate the classification table")
    p.add_argument("--max-s", type=int, default=8)

    return parser


_COMMANDS = {
    "classify": _cmd_classify,
    "solve": _cmd_solve,
    "poly": _cmd_poly,
    "certify": _cmd_certify,
    "verify": _cmd_verify,
    "table": _cmd_table,
}


@contextlib.contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, then restore its earlier state.

    No command creates a reference cycle, so a collection during one frees
    nothing; yet the containers that parsing, writing and checking a
    certificate allocate set off collections that scan them again and
    again.  The argparse parser's cycles (a few hundred objects per call)
    are freed by the next collection after the command."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def run(argv, out=None) -> int:
    with _collector_paused():
        return _run(argv, out)


def _run(argv, out) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args, out)
    except _CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code
    except structures.StructureError as e:  # first, as it loads no module
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (polymorphisms.ResourceGuard, polymorphisms.FunctionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (structures.InternalCheckError, certificates.CertificateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
