"""Fixed probes of single layers, each timed once per traced invocation.

They reproduce the rows of the ROADMAP Baseline that fit in a run; see
README.md for the rows left out.  Every probe checks its answer: the rref
probes against sympy's `DomainMatrix`, the power against the action oracle,
the CLI probe against its golden file.  A probe that fails raises.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

from clijobs import CLI_CODE
from jobs import ROOT, child_env

REPEATS = 3


def _child_seconds(args, expect_stdout=None) -> float:
    """Median wall time of `python3 <args>` as a child, over REPEATS runs."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True
        )
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or (expect_stdout is not None and proc.stdout != expect_stdout):
            raise AssertionError(f"probe child {args!r} failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return statistics.median(times)


def process_probes() -> dict:
    interpreter = _child_seconds(["-c", "pass"])
    with_cli = _child_seconds(["-c", "import intdiffops.cli"])
    golden = (ROOT / "tests" / "golden" / "01_normalize_di.txt").read_bytes()
    return {
        "cli.interpreter_s": interpreter,
        "cli.import_s": with_cli - interpreter,
        "cli.normalize_s": _child_seconds(["-c", CLI_CODE, "normalize", "d_1*int_1"], golden),
    }


def _per_op_us(op, pairs) -> float:
    """Median over REPEATS batches of the time of one `op(a, b)`, in microseconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        for a, b in pairs:
            op(a, b)
        times.append(perf_counter() - t0)
    return statistics.median(times) / len(pairs) * 1e6


def scalar_batches(workload, size: int = 4000) -> dict:
    """Scalar arithmetic on operands drawn like the workload's own numbers."""
    from intdiffops.scalars import Scalar

    rng = random.Random(f"scalars:{workload.seed}")
    raw = [workload.operand(rng) for _ in range(2 * size)]
    q = [Scalar(re) for re, _ in raw]
    # a workload over Q lends its rationals pairwise as real and imaginary parts
    qi = [Scalar(re, im) if im else Scalar(re, raw[k - 1][0]) for k, (re, im) in enumerate(raw)]
    qi = [x if not x.is_zero() else Scalar(1, 1) for x in qi]
    qp = list(zip(q[::2], q[1::2]))
    qip = list(zip(qi[::2], qi[1::2]))
    return {
        "scalars.mul_q_us": _per_op_us(lambda a, b: a * b, qp),
        "scalars.mul_qi_us": _per_op_us(lambda a, b: a * b, qip),
        "scalars.add_q_us": _per_op_us(lambda a, b: a + b, qp),
        "scalars.div_qi_us": _per_op_us(lambda a, b: a / b, qip),
    }


def _dense(rows, cols, gaussian, rng):
    from intdiffops.linalg import Mat
    from intdiffops.scalars import Scalar

    def entry():
        re = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return Scalar(re, rng.randint(-9, 9) if gaussian else 0)

    return Mat(rows, cols, [[entry() for _ in range(cols)] for _ in range(rows)])


def _sympy_rref(m, gaussian):
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    if gaussian:
        dom, conv = QQ_I, lambda x: QQ_I(QQ(x.re.numerator, x.re.denominator), QQ(x.im.numerator, x.im.denominator))
    else:
        dom, conv = QQ, lambda x: QQ(x.re.numerator, x.re.denominator)
    dm = DomainMatrix([[conv(x) for x in row] for row in m.data], (m.rows, m.cols), dom)
    R, piv = dm.rref()

    def back(e):
        if gaussian:
            return Fraction(int(e.x.numerator), int(e.x.denominator)), Fraction(int(e.y.numerator), int(e.y.denominator))
        return Fraction(int(e.numerator), int(e.denominator)), Fraction(0)

    return [[back(e) for e in row] for row in R.to_list()], list(piv)


def _rref_probe(gaussian) -> float:
    from intdiffops.linalg import rref

    m = _dense(35, 40, gaussian, random.Random("rref-probe"))
    t0 = perf_counter()
    R, piv = rref(m)
    seconds = perf_counter() - t0
    want, want_piv = _sympy_rref(m, gaussian)
    if piv != want_piv or [[(x.re, x.im) for x in row] for row in R.data] != want:
        raise AssertionError("rref probe disagrees with sympy DomainMatrix")
    return seconds


def _pow4_probe() -> float:
    """(1 + d H + int + e[1,2])^4 at arity 1, checked against four applications of the action."""
    from intdiffops.action import act_monomial
    from intdiffops.operators import Operator

    p = Operator.one(1) + Operator.gen_d(1) * Operator.gen_H(1) + Operator.gen_int(1) + Operator.gen_e(1, 1, 2)
    t0 = perf_counter()
    p4 = p**4
    seconds = perf_counter() - t0
    for k in range(8):
        image = {(k,): 1}
        for _ in range(4):
            nxt = {}
            for beta, c in image.items():
                for gamma, c2 in act_monomial(p, beta).items():
                    nxt[gamma] = nxt.get(gamma, 0) + c * c2
            image = {g: c for g, c in nxt.items() if c != 0}
        if act_monomial(p4, (k,)) != image:
            raise AssertionError("power probe disagrees with the action oracle")
    return seconds


def library_probes() -> dict:
    from intdiffops.scalars import Scalar

    a, b = Scalar(Fraction(3, 7)), Scalar(Fraction(-5, 11))
    return {
        "scalars.mul_probe_us": _per_op_us(lambda x, y: x * y, [(a, b)] * 20000),
        "linalg.rref_q_dense35x40_s": _rref_probe(False),
        "linalg.rref_qi_dense35x40_s": _rref_probe(True),
        "operators.pow4_arity1_s": _pow4_probe(),
    }
