"""Span recording around the public functions of the six pcsp modules.

The tracer wraps each listed function where it is bound as a module
attribute (including names other modules imported with ``from .x import``),
so calls made inside the program go through the wrapper too.  Nothing under
``src/`` changes: the wrappers are installed for the traced window and
removed afterwards.

Per-entry helpers (``pack_args``, ``unpack_index``, ``area``, the claim
constructors, ``BoolRelation.contains``) are deliberately left unwrapped:
they run 10^4-10^6 times per op, so spans around them would measure the
tracer rather than the program.  Their time lands in the self time of the
wrapped function that calls them.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import defaultdict

# Wrapped functions per layer (the six pcsp modules), and the per-layer
# bucket each one's self time feeds.  A function mapped to None inherits the
# bucket of its nearest ancestor span in the same module (or
# "<module>.other_s" at the top).
WRAPPED = {
    "cli": {"run": "cli.self_s", "build_parser": "cli.self_s"},
    "structures": {
        "parse_template": "structures.parse_s",
        "parse_instance": "structures.parse_s",
        "build_family": None,
        "hom_exists": "structures.validate_s",
        "structure_to_instance": None,
        "is_relaxation": None,
        "check_instance_against": "structures.check_instance_s",
        "format_template": None,
        "format_instance": None,
    },
    "classifier": {
        "classify": "classifier.classify_s",
        "sandwich": "classifier.classify_s",
        "match_basic": "classifier.classify_s",
        "format_verdict": "classifier.classify_s",
        "classification_table": "classifier.classify_s",
    },
    "solvers": {
        "solve_pcsp": "solvers.promise_self_s",
        "solve_gf2": "solvers.gf2_s",
        "solve_diophantine": "solvers.dio_s",
        "solve_lp_feasible": "solvers.lp_s",
        "brute_force_promise": None,
    },
    "certificates": {
        "gen_certificate": "certificates.gen_self_s",
        "gen_stepone_chain": None,
        "propagate": None,
        "verify_certificate": "certificates.verify_s",
        "certificate_to_json": "certificates.to_json_s",
        "certificate_from_json": "certificates.from_json_s",
        "find_minimal_p": None,
    },
    "polymorphisms": {
        "make_function": None,
        "function_from_callable": None,
        "minor": "polymorphisms.minor_s",
        "satisfies_h1": None,
        "is_polymorphism": "polymorphisms.is_polymorphism_s",
        "enumerate_polymorphisms": "polymorphisms.enumerate_s",
        "is_cyclic": "polymorphisms.cyclic_s",
        "compose_eq1": "polymorphisms.compose_eq1_s",
        "is_doubly_cyclic": "polymorphisms.is_doubly_cyclic_s",
        "sigma_transform": "polymorphisms.sigma_s",
        "derive_sim": "polymorphisms.bounded_s",
        "is_b_bounded": "polymorphisms.bounded_s",
        "enumerate_doubly_cyclic_polymorphisms": None,
        "parse_function": "polymorphisms.io_s",
        "format_function": "polymorphisms.io_s",
    },
}

# The self-check inside gen_certificate is the same function the verify
# command calls; its parent decides which bucket it feeds.
_PARENT_BUCKETS = {
    ("certificates.verify_certificate", "certificates.gen_certificate"):
        "certificates.selfcheck_s",
}


def _count_lp(tracer, args, result):
    system = args[0]
    tracer.add("solvers.lp_rows", len(system.rows))
    tracer.add("solvers.lp_cols", system.n_vars)
    tracer.add("solvers.lp_nonzeros",
               sum(1 for coeffs, _, _ in system.rows for c in coeffs if c != 0))


def _count_dio(tracer, args, result):
    system = args[0]
    tracer.add("solvers.dio_rows", len(system.rows))
    tracer.add("solvers.dio_cols", system.n_vars)


def _count_answer(tracer, args, result):
    tracer.add("solvers.yes" if result.yes else "solvers.no", 1)


def _count_minor(tracer, args, result):
    tracer.add("polymorphisms.minor_entries", result.domain_size ** result.arity)


def _count_certificate(tracer, args, result):
    tracer.add("certificates.nodes", len(result.nodes))
    for node in result.nodes:
        tag = node.justify.get("tag", "untagged")
        tracer.add("certificates.refs", len(node.refs))
        tracer.add(f"certificates.nodes.{tag}", 1)
        tracer.add(f"certificates.refs.{tag}", len(node.refs))


def _count_json(tracer, args, result):
    tracer.add("certificates.json_bytes", len(result.encode("utf-8")))


# Counts computed from arguments and results, outside the program.
COUNTERS = {
    "solvers.solve_lp_feasible": _count_lp,
    "solvers.solve_diophantine": _count_dio,
    "solvers.solve_pcsp": _count_answer,
    "polymorphisms.minor": _count_minor,
    "certificates.gen_certificate": _count_certificate,
    "certificates.certificate_to_json": _count_json,
}


class Tracer:
    """Records spans (name, start, end, parent span, op id, round) in memory.

    ``round`` and ``op`` are set by the workload loop; counts are kept per
    round so that the counts of one round can be compared across runs.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, round]
        self._stack = []
        self.op = -1
        self.round = 0
        self.counts = defaultdict(lambda: defaultdict(int))  # round -> name -> n
        self._restore = []
        # time spent in COUNTERS, charged to nobody: parent index -> seconds
        self._excluded = defaultdict(float)

    def add(self, name: str, n: int) -> None:
        self.counts[self.round][name] += n

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(qualname)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                # one span per resumption, so the consumer's work between
                # items is not charged to the generator
                inner = fn(*args, **kwargs)
                while True:
                    idx = len(spans)
                    spans.append([qualname, clock(), 0.0,
                                  stack[-1] if stack else -1, tracer.op, tracer.round])
                    stack.append(idx)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        stack.pop()
                        spans[idx][2] = clock()
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([qualname, clock(), 0.0, stack[-1] if stack else -1,
                          tracer.op, tracer.round])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if counter is not None:
                t0 = clock()
                counter(tracer, args, result)
                if stack:
                    tracer._excluded[stack[-1]] += clock() - t0
            return result
        return wrapper

    def install(self) -> None:
        """Replace every module-level binding of each listed function."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "pcsp" or name.startswith("pcsp."))]
        for layer, names in WRAPPED.items():
            mod = sys.modules[f"pcsp.{layer}"]
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._restore):
            setattr(m, attr, orig)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- aggregation -------------------------------------------------------

    def aggregate(self, rounds: int) -> dict:
        """Per-layer metrics: self times per round, counts of round 0."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for idx, seconds in self._excluded.items():
            child_time[idx] += seconds
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        bucket_of = [None] * len(spans)
        times = defaultdict(float)
        calls = defaultdict(int)
        for i, (name, start, end, parent, _, _) in enumerate(spans):
            module, func = name.split(".", 1)
            parent_name = spans[parent][0] if parent >= 0 else None
            bucket = _PARENT_BUCKETS.get((name, parent_name)) or WRAPPED[module][func]
            if bucket is None:
                j = parent
                while j >= 0 and not spans[j][0].startswith(module + "."):
                    j = spans[j][3]
                bucket = bucket_of[j] if j >= 0 else f"{module}.other_s"
            bucket_of[i] = bucket
            self_time = (end - start) - child_time[i]
            times[bucket] += self_time
            times[f"{module}.module_self_s"] += self_time
        for name, _, _, parent, _, rnd in spans:
            if rnd == 0:
                if name == "classifier.classify":
                    calls["classifier.classify_calls"] += 1
                elif name == "solvers.solve_lp_feasible":
                    calls["solvers.lp_calls"] += 1
                elif (name == "structures.hom_exists"
                      and (parent < 0 or spans[parent][0] != "structures.hom_exists")):
                    calls["structures.validate_calls"] += 1
        out = {k: v / rounds for k, v in times.items()}
        out.update(calls)
        out.update(self.counts.get(0, {}))
        if out.get("certificates.nodes"):
            out["certificates.refs_per_node"] = (out.get("certificates.refs", 0)
                                                 / out["certificates.nodes"])
            for key in list(out):
                if key.startswith("certificates.nodes.") and out[key]:
                    tag = key[len("certificates.nodes."):]
                    out[f"certificates.refs_per_node.{tag}"] = (
                        out.get(f"certificates.refs.{tag}", 0) / out[key])
        return out
