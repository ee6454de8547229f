"""Spans and counts recorded from outside the library, around its public functions.

`Tracer.install` wraps each function in `LAYER_FUNCTIONS` and rebinds the
wrapper everywhere the original is bound: in its own module, in every
`intdiffops` module that imported it by name (`from .linalg import rref`),
and in the benchmark's workload module.  Methods are wrapped on their class.
A span is recorded only while a job is open (`Tracer.job` is set), so input
generation and the exact checks stay out of the trace.

Spans live in memory until the run ends: name, start, end, parent index,
job id.  A span's self time is its duration minus the time covered by its
direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from functools import wraps
from time import perf_counter

from intdiffops import action, classify, cli, linalg, local_ideals, modules, operators, parser, serialize


def _rref_name(args):
    m = args[0]
    return "linalg.rref_qi" if any(x.im for row in m.data for x in row) else "linalg.rref"


def _count_rref(counts, name, args, out):
    cells = args[0].rows * args[0].cols
    counts[name + ".cells"] += cells
    counts[name + ".small"] += cells <= 64


def _count_mul(counts, name, args, out):
    counts[name + ".term_pairs"] += len(args[0].terms) * len(args[1].terms)
    counts[name + ".out_terms"] += len(out.terms)


def _count_to_matrix(counts, name, args, out):
    counts[name + ".cells"] += out.matrix.rows * out.matrix.cols


def _count_unknowns(counts, name, args, out):
    counts[name + ".unknowns"] += args[0].total


def _count_iso(counts, name, args, out):
    counts[name + ".found"] += out is not None


# (owner, attribute, span name or callable choosing it from the arguments, counter)
LAYER_FUNCTIONS = [
    (local_ideals, "quotient_basis", "local_ideals.quotient_basis", None),
    (linalg, "rref", _rref_name, _count_rref),
    (linalg, "rank", "linalg.rank", None),
    (linalg, "solve_linear", "linalg.solve_linear", None),
    (linalg, "kernel_basis", "linalg.kernel_basis", None),
    (linalg, "invert", "linalg.invert", None),
    (linalg.Mat, "__matmul__", "linalg.matmul", None),
    (linalg.BlockSystem, "solve", "linalg.blocksystem_solve", _count_unknowns),
    (operators.Operator, "__mul__", "operators.mul", _count_mul),
    (operators, "principal_left_ideal_membership", "operators.ideal_membership", None),
    (action, "to_matrix", "action.to_matrix", _count_to_matrix),
    (action, "is_zero_by_action", "action.is_zero_by_action", None),
    (action, "act_monomial", "action.act_monomial", None),
    (modules, "build_simple", "modules.build", None),
    (modules, "build_Ms", "modules.build", None),
    (modules, "decompose_weight", "modules.decompose_weight", None),
    (modules, "block_decompose", "modules.block_decompose", None),
    (modules, "hom_basis", "modules.hom_basis", None),
    (modules, "window_isomorphism", "modules.window_isomorphism", _count_iso),
    (modules, "split_extension", "modules.split_extension", None),
    (classify, "kronecker_decompose_with_iso", "classify.kronecker_decompose_with_iso", None),
    (classify, "contains_regular_summand", "classify.contains_regular_summand", None),
    (classify, "is_indecomposable", "classify.is_indecomposable", None),
    (classify, "modules_isomorphic", "classify.modules_isomorphic", None),
    (classify, "min_poly", "classify.min_poly", None),
    (classify, "factor_unipoly", "classify.factor_unipoly", None),
    (parser, "parse_expression", "parser.parse_expression", None),
    (serialize, "dumps", "serialize.dumps", None),
    (cli, "main", "cli.main", None),
]

# elimination entry points of linalg; operator algebra must call none of them
ELIMINATION = (
    "linalg.rref",
    "linalg.rref_qi",
    "linalg.rank",
    "linalg.solve_linear",
    "linalg.kernel_basis",
    "linalg.invert",
    "linalg.blocksystem_solve",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, job]
        self.stack = []
        self.job = None
        self.counts = defaultdict(int)
        self._undo = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self.stack
        choose = name if callable(name) else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            rec = [choose(args) if choose else name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(self.counts, rec[0], args, out)
            return out

        return wrapper

    def install(self, extra_modules=()):
        targets = [m for k, m in sys.modules.items() if k.startswith("intdiffops")]
        targets += list(extra_modules)
        for owner, attr, name, counter in LAYER_FUNCTIONS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, counter)
            if isinstance(owner, type):
                self._rebind(owner, attr, original, wrapper)
                continue
            for mod in targets:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, original, wrapper)

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self):
        """Per span name: number of calls and total self time."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for k, rec in enumerate(self.spans):
            calls[rec[0]] += 1
            self_s[rec[0]] += rec[2] - rec[1] - child_time[k]
        return calls, self_s

    def calls_under(self, name, ancestor):
        """Number of `name` spans that have an `ancestor` span above them."""
        spans = self.spans
        total = 0
        for rec in spans:
            if rec[0] != name:
                continue
            p = rec[3]
            while p >= 0:
                if spans[p][0] == ancestor:
                    total += 1
                    break
                p = spans[p][3]
        return total
