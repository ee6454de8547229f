"""Batch command-line front end.

Every invocation is a single command over explicit inputs; output goes to
stdout as plain text or (with --json) versioned JSON, deterministically
ordered so identical invocations are byte-identical.  Exit codes: 0 success,
1 domain error, 2 usage error.  The default scalar field can be set with the
INTDIFF_FIELD environment variable (q or qi).

Each invocation is a fresh process, so a command loads only the layers it
runs on: this module imports `scalars`, `parser`, `operators` and
`serialize` at the top, and a handler imports any other layer in its body
(`action` for act, `modules` for the window commands, `classify` for the
classification commands).  The operator commands never load `linalg`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import prod
from typing import TYPE_CHECKING, List, NamedTuple, Optional

from . import __version__
from .operators import Operator, from_expression, principal_left_ideal_membership
from .parser import check_slots, parse_expression
from .scalars import QQ, QQI, Field, Scalar, scalar_from_str
from .serialize import (
    REPORT_SCHEMA,
    dumps,
    mat_from_json,
    mat_to_json,
    module_from_json,
    module_to_json,
    operator_to_json,
    orbit_to_json,
)

if TYPE_CHECKING:
    from .modules import DSet, ModuleWindow, Orbit

# largest --arity: every operator command (normalize, mul, commutator, grade,
# involve, act) on "d_1 + int_1" and "H_1 + x_1" takes at most 0.13 s at
# this arity on a 2-vCPU machine, and 1.3 s (mul) to 2.8 s (commutator) at
# 10,000, where mul prints 1.15 MB
MAX_ARITY = 1_000


class SessionConfig(NamedTuple):
    field: Field
    arity: int
    json_out: bool
    deg: int

    def header(self) -> dict:
        return {
            "arity": self.arity,
            "field": self.field.name,
            "version": __version__,
        }


class UsageError(Exception):
    pass


def _domain_error(message: str) -> ValueError:
    """A `linalg.DomainError` (exit 1); linalg loads only when one is raised."""
    from .linalg import DomainError

    return DomainError(message)


class _ArgumentError(Exception):
    """An error argparse found in the arguments, raised instead of exiting
    so that `main` can report it as a JSON error object under --json."""

    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _HelpRequested(Exception):
    """-h or --help: argparse's help text, raised instead of printed so that
    `main` can report it as a JSON object under --json."""


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, through `add_subparsers`, subparsers) whose
    errors raise `_ArgumentError` and whose help raises `_HelpRequested`."""

    def error(self, message):
        raise _ArgumentError(self, message)

    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _parse_scalar_arg(text: str) -> Scalar:
    try:
        return scalar_from_str(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_orbit(text: str) -> Orbit:
    from .modules import Orbit

    reps = []
    for part in text.split(","):
        part = part.strip()
        if part in ("Z", "z"):
            reps.append(Scalar(0))
        else:
            reps.append(_parse_scalar_arg(part))
    return Orbit.from_reps(reps)


def _parse_ints(text: str, what: str) -> List[int]:
    """A comma-separated list of integers, [] when blank; a UsageError
    "bad <what> '<text>'" otherwise."""
    if not text.strip():
        return []
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise UsageError(f"bad {what} {text!r}") from None


def _parse_window_arg(text: Optional[str], n: int):
    if text is None:
        raise UsageError("need --window")
    out = []
    for part in text.split(","):
        if ".." not in part:
            raise UsageError(f"bad window interval {part!r} (want a..b)")
        a, b = part.split("..", 1)
        try:
            out.append((int(a), int(b)))
        except ValueError:
            raise UsageError(f"bad window interval {part!r}")
    if len(out) == 1 and n > 1:
        out = out * n
    if len(out) != n:
        raise UsageError(f"window has {len(out)} intervals for arity {n}")
    return _bounded_window(out)


def _bounded_window(window):
    from .modules import MAX_WINDOW_POINTS

    points = prod(max(b - a + 1, 0) for a, b in window)
    if points > MAX_WINDOW_POINTS:
        raise _domain_error(
            f"window of {points} points exceeds the limit MAX_WINDOW_POINTS = {MAX_WINDOW_POINTS}"
        )
    return window


def _read_operator(text: str, cfg: SessionConfig) -> Operator:
    ast = parse_expression(text)
    check_slots(ast, cfg.arity)
    return from_expression(ast, cfg.arity, cfg.field)


def _load_module(args, cfg: SessionConfig) -> ModuleWindow:
    from .modules import MAX_MS_LENGTH, DSet, build_Ms, build_simple

    if getattr(args, "infile", None):
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read --in file {args.infile!r}: {exc.strerror}")
        if not isinstance(doc, dict):
            raise _domain_error("module document is not a JSON object")
        try:
            M = module_from_json(doc)
        except KeyError as exc:
            raise _domain_error(f"module document lacks key {exc.args[0]!r}")
        except (TypeError, AttributeError) as exc:
            raise _domain_error(f"malformed module document: {exc}")
        _bounded_window(M.window)
        return M
    kind = getattr(args, "module", None)
    if kind is None:
        raise UsageError("need --module {simple,Ms} or --in FILE")
    if not args.window:
        raise UsageError("need --window")
    if kind == "Ms":
        if args.s is None or args.lam is None:
            raise UsageError("module Ms needs --s and --lambda")
        if args.s > MAX_MS_LENGTH:
            raise _domain_error(f"length {args.s} exceeds the limit MAX_MS_LENGTH = {MAX_MS_LENGTH}")
        window = _parse_window_arg(args.window, 1)
        return build_Ms(args.s, _parse_scalar_arg(args.lam), window)
    if kind == "simple":
        if args.orbit is None:
            raise UsageError("module simple needs --orbit")
        orbit = _parse_orbit(args.orbit)
        dset = DSet(orbit, _parse_ints(args.dset or "", "slot list"))
        window = _parse_window_arg(args.window, orbit.n)
        return build_simple(dset, window)
    raise UsageError(f"unknown module kind {kind!r}")


def _emit(cfg: SessionConfig, text_value: str, json_value) -> None:
    if cfg.json_out:
        doc = {"config": cfg.header(), "result": json_value, "schema": REPORT_SCHEMA}
        print(dumps(doc))
    else:
        print(text_value)


def _expressions(args) -> List[str]:
    """The expressions of the arguments, or else the nonblank lines of
    stdin; a UsageError when there are none, so --json always prints one
    object."""
    if getattr(args, "expr", None):
        return list(args.expr)
    exprs = [line.rstrip("\n") for line in sys.stdin if line.strip()]
    if not exprs:
        raise UsageError("no expression: give one as an argument or on stdin")
    return exprs


# -- command handlers -------------------------------------------------------


def cmd_normalize(args, cfg):
    for text in _expressions(args):
        a = _read_operator(text, cfg)
        _emit(cfg, str(a), operator_to_json(a))


def cmd_mul(args, cfg):
    a = _read_operator(args.lhs, cfg)
    b = _read_operator(args.rhs, cfg)
    c = a * b
    _emit(cfg, str(c), operator_to_json(c))


def cmd_commutator(args, cfg):
    a = _read_operator(args.lhs, cfg)
    b = _read_operator(args.rhs, cfg)
    c = a.commutator(b)
    _emit(cfg, str(c), operator_to_json(c))


def cmd_act(args, cfg):
    from .action import check_action_window, to_matrix

    expr = _expressions(args)[0]
    # the sizes alone may refuse the window; building the operator can take longer
    check_action_window(cfg.arity, cfg.deg)
    a = _read_operator(expr, cfg)
    am = to_matrix(a, cfg.deg)
    rows = mat_to_json(am.matrix)
    text = "\n".join("[" + ", ".join(r) + "]" for r in rows)
    _emit(cfg, text, {"N_in": am.N_in, "N_out": am.N_out, "matrix": rows})


def cmd_grade(args, cfg):
    a = _read_operator(_expressions(args)[0], cfg)
    comps = a.graded_components()
    lines = []
    jout = []
    for deg in sorted(comps):
        lines.append(f"{list(deg)}: {comps[deg]}")
        jout.append({"component": operator_to_json(comps[deg]), "degree": list(deg)})
    _emit(cfg, "\n".join(lines), jout)


def cmd_ideal_test(args, cfg):
    if cfg.arity != 1:
        raise _domain_error("principal ideal membership is implemented for arity 1")
    a = _read_operator(args.expr[0], cfg)
    if args.gen == "d":
        gen = "d"
    else:
        if args.lam is None:
            raise UsageError("generator H needs --lambda")
        gen = ("H", _parse_scalar_arg(args.lam))
    member, witness = principal_left_ideal_membership(a, gen)
    text = "member" if member else "not a member"
    if member and witness is not None:
        text += f"; witness: {witness}"
    _emit(
        cfg,
        text,
        {
            "member": member,
            "witness": operator_to_json(witness) if witness is not None else None,
        },
    )


def cmd_involve(args, cfg):
    for text in _expressions(args):
        a = _read_operator(text, cfg).involution()
        _emit(cfg, str(a), operator_to_json(a))


def cmd_module_build(args, cfg):
    M = _load_module(args, cfg)
    dims = {p: d for p, d in sorted(M.spaces.items())}
    text = f"module on {len(dims)} points, total dim {M.total_dim()}"
    _emit(cfg, text, module_to_json(M))


def cmd_support(args, cfg):
    from .modules import support

    M = _load_module(args, cfg)
    pts = support(M)
    lines = [",".join(str(x) for x in p) for p in pts]
    _emit(cfg, "\n".join(lines), [list(p) for p in pts])


def cmd_dims(args, cfg):
    M = _load_module(args, cfg)
    lines = []
    jout = []
    for p in sorted(M.points()):
        d = M.spaces.get(p, 0)
        lines.append(f"{','.join(str(x) for x in p)}: {d}")
        jout.append({"dim": d, "point": list(p)})
    _emit(cfg, "\n".join(lines), jout)


def _dset_doc(dset: DSet) -> dict:
    return {"D": sorted(dset.D), "orbit": orbit_to_json(dset.orbit)}


def cmd_decompose(args, cfg):
    from .modules import decompose_weight

    M = _load_module(args, cfg)
    mults = decompose_weight(M)
    items = sorted(mults.items(), key=lambda kv: sorted(kv[0].D))
    lines = [f"D={sorted(ds.D)}: multiplicity {m}" for ds, m in items]
    _emit(
        cfg,
        "\n".join(lines),
        [{"dset": _dset_doc(ds), "multiplicity": m} for ds, m in items],
    )


def cmd_block_split(args, cfg):
    from .modules import block_decompose

    M = _load_module(args, cfg)
    blocks = block_decompose(M)
    lines = []
    jout = []
    for ds, block in blocks:
        lines.append(f"D={sorted(ds.D)}: total dim {block.total_dim()}")
        jout.append({"dset": _dset_doc(ds), "module": module_to_json(block)})
    _emit(cfg, "\n".join(lines), jout)


def cmd_rep_type(args, cfg):
    from .classify import rep_type, rep_type_orbit
    from .modules import DSet

    orbit = _parse_orbit(args.orbit)
    if args.dset is None:
        verdict = rep_type_orbit(orbit)
    else:
        verdict = rep_type(DSet(orbit, _parse_ints(args.dset, "slot list")))
    _emit(cfg, verdict.kind, {"kind": verdict.kind, "witness": verdict.witness})


def cmd_kronecker(args, cfg):
    from .classify import MAX_PENCIL_DIM, KroneckerRep, kronecker_decompose

    R = KroneckerRep(mat_from_json(json.loads(args.a)), mat_from_json(json.loads(args.b)))
    if max(R.dims) > MAX_PENCIL_DIM:
        raise _domain_error(
            f"pencil of dimensions ({R.d1},{R.d2}) exceeds the limit MAX_PENCIL_DIM = {MAX_PENCIL_DIM}"
        )
    labels = kronecker_decompose(R, cfg.field)
    _emit(
        cfg,
        " + ".join(repr(l) for l in labels),
        [
            {"lam": str(l.lam) if l.lam is not None else None,
             "n": l.n, "series": l.series}
            for l in labels
        ],
    )


def _bounded_gamma_dim(kind: str, dim: int) -> None:
    from .classify import MAX_GAMMA_DIM

    if dim > MAX_GAMMA_DIM:
        raise _domain_error(
            f"{kind} module of dimension {dim} exceeds the limit MAX_GAMMA_DIM = {MAX_GAMMA_DIM}"
        )


def cmd_string(args, cfg):
    from .classify import is_indecomposable, parse_word, string_module

    word = parse_word(args.word)
    _bounded_gamma_dim("string", len(word) + 1)
    m = string_module(word)
    indec = is_indecomposable(m.matrices)
    text = f"dim {m.dim}; {'indecomposable' if indec else 'decomposable'}"
    _emit(
        cfg,
        text,
        {
            "dim": m.dim,
            "h1": mat_to_json(m.h1),
            "h2": mat_to_json(m.h2),
            "indecomposable": indec,
        },
    )


def cmd_band(args, cfg):
    from .classify import BandOrbit, band_module, is_indecomposable, parse_word

    if args.lam is None:
        raise UsageError("band needs --lambda")
    lam = _parse_scalar_arg(args.lam)
    word = parse_word(args.word)
    if args.n < 1:
        raise _domain_error("band multiplicity must be positive")
    _bounded_gamma_dim("band", args.n * len(word))
    canon = BandOrbit(word)
    m = band_module(canon, args.n, lam)
    indec = is_indecomposable(m.matrices)
    text = f"dim {m.dim}; {'indecomposable' if indec else 'decomposable'}"
    _emit(
        cfg,
        text,
        {
            "canonical_word": "".join(f"h{x}" for x in canon.word),
            "dim": m.dim,
            "h1": mat_to_json(m.h1),
            "h2": mat_to_json(m.h2),
            "indecomposable": indec,
        },
    )


def cmd_fiber(args, cfg):
    from .modules import fiber as module_fiber

    M = _load_module(args, cfg)
    point = tuple(_parse_ints(args.point, "--point"))
    if len(point) != M.n:
        raise UsageError(f"--point has {len(point)} coordinates for a module of arity {M.n}")
    fib = module_fiber(M, point)
    lines = [f"dim {fib.dim}; slots {list(fib.slots)}"]
    _emit(
        cfg,
        "\n".join(lines),
        {
            "center": [str(c) for c in fib.center],
            "dim": fib.dim,
            "matrices": [mat_to_json(m) for m in fib.matrices],
            "slots": list(fib.slots),
        },
    )


def cmd_induce(args, cfg):
    from .modules import DSet, Fiber, induce

    orbit = _parse_orbit(args.orbit)
    dset = DSet(orbit, _parse_ints(args.dset or "", "slot list"))
    window = _parse_window_arg(args.window, orbit.n)
    slots = sorted(dset.complement())
    mats = [mat_from_json(m) for m in json.loads(args.matrices)] if args.matrices else []
    center = [orbit.reps[j - 1] for j in slots]
    if len(mats) != len(slots):
        raise UsageError(
            f"need {len(slots)} fiber matrices for the non-degenerate slots {slots}"
        )
    fib = Fiber(slots, center, mats)
    M = induce(fib, dset, window)
    _emit(cfg, f"module on {len(M.spaces)} points, total dim {M.total_dim()}", module_to_json(M))


def cmd_report(args, cfg):
    from .modules import annihilator_dset, is_equidimensional

    M = _load_module(args, cfg)
    _, label = annihilator_dset(M, strict=False)
    weight, offending = M.is_weight()
    doc = {
        "annihilator_height": label.height,
        "annihilator_slots": sorted(label.prime_slots),
        "equidimensional": is_equidimensional(M),
        "points": len(M.spaces),
        "total_dim": M.total_dim(),
        "weight": weight,
    }
    lines = [f"{k}: {doc[k]}" for k in sorted(doc)]
    _emit(cfg, "\n".join(lines), doc)


# -- dispatch ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="intdiff",
        description="Exact calculus of polynomial integro-differential operators.",
    )
    p.add_argument("--field", choices=("q", "qi"), default=None)
    p.add_argument("--arity", type=int, default=1)
    p.add_argument("--window", default=None)
    p.add_argument("--deg", type=int, default=6)
    p.add_argument("--json", action="store_true")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, handler, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(handler=handler)
        return sp

    sp = add("normalize", cmd_normalize, help="canonical form of expressions")
    sp.add_argument("expr", nargs="*")
    sp = add("mul", cmd_mul, help="product of two expressions")
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp = add("commutator", cmd_commutator, help="commutator of two expressions")
    sp.add_argument("lhs")
    sp.add_argument("rhs")
    sp = add("act", cmd_act, help="action matrix on divided powers up to --deg")
    sp.add_argument("expr", nargs="*")
    sp = add("grade", cmd_grade, help="graded components")
    sp.add_argument("expr", nargs="*")
    sp = add("ideal-test", cmd_ideal_test, help="principal left ideal membership")
    sp.add_argument("expr", nargs=1)
    sp.add_argument("--gen", choices=("d", "H"), required=True)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp = add("involve", cmd_involve, help="apply the involution")
    sp.add_argument("expr", nargs="*")

    def module_flags(sp, with_point=False):
        sp.add_argument("--module", choices=("simple", "Ms"), default=None)
        sp.add_argument("--orbit", default=None)
        sp.add_argument("--dset", default=None)
        sp.add_argument("--s", type=int, default=None)
        sp.add_argument("--lambda", dest="lam", default=None)
        sp.add_argument("--in", dest="infile", default=None)
        if with_point:
            sp.add_argument("--point", required=True)

    for name, handler in (
        ("module-build", cmd_module_build),
        ("support", cmd_support),
        ("dims", cmd_dims),
        ("decompose", cmd_decompose),
        ("block-split", cmd_block_split),
        ("report", cmd_report),
    ):
        sp = add(name, handler)
        module_flags(sp)
    sp = add("fiber", cmd_fiber, help="restriction to one weight point")
    module_flags(sp, with_point=True)

    sp = add("rep-type", cmd_rep_type, help="finite/tame/wild verdict")
    sp.add_argument("--orbit", required=True)
    sp.add_argument("--dset", default=None)
    sp = add("kronecker", cmd_kronecker, help="decompose a matrix pencil")
    sp.add_argument("--a", required=True, help="JSON matrix")
    sp.add_argument("--b", required=True, help="JSON matrix")
    sp = add("string", cmd_string, help="string module over K[h1,h2]/(h1h2)")
    sp.add_argument("word")
    sp = add("band", cmd_band, help="band module over K[h1,h2]/(h1h2)")
    sp.add_argument("word")
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--lambda", dest="lam", default=None)
    sp = add("induce", cmd_induce, help="module induced from a fiber")
    sp.add_argument("--orbit", required=True)
    sp.add_argument("--dset", default=None)
    sp.add_argument("--matrices", default=None, help="JSON list of matrices")
    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    # arguments that never start a session report the default config
    unparsed = SessionConfig(field=QQ, arity=1, json_out=True, deg=6)
    try:
        args = parser.parse_args(argv)
        field_name = args.field or os.environ.get("INTDIFF_FIELD", "q")
        if field_name not in ("q", "qi"):
            parser.error(f"bad field {field_name!r}")
    except _HelpRequested as exc:
        (text,) = exc.args
        if not _wants_json(argv):
            # argparse's own help: the text on stdout and exit 0
            sys.stdout.write(text)
            sys.exit(0)
        _emit(unparsed, text, {"help": text})
        return 0
    except _ArgumentError as exc:
        if not _wants_json(argv):
            # argparse's own report: usage and "intdiff: error: ..." on stderr
            argparse.ArgumentParser.error(exc.parser, str(exc))
        _fail(unparsed, "usage", str(exc))
        return 2
    cfg = SessionConfig(
        field=QQI if field_name == "qi" else QQ,
        arity=args.arity,
        json_out=args.json,
        deg=args.deg,
    )
    try:
        if cfg.arity > MAX_ARITY:
            raise _domain_error(f"arity {cfg.arity} exceeds the limit MAX_ARITY = {MAX_ARITY}")
        args.handler(args, cfg)
        return 0
    except UsageError as exc:
        _fail(cfg, "usage", str(exc))
        return 2
    except ValueError as exc:  # parser.ParseError and linalg.DomainError among them
        _fail(cfg, "domain", str(exc))
        return 1


def _wants_json(argv: List[str]) -> bool:
    """Whether argv asks for --json (or an abbreviation argparse accepts),
    read by a parser that knows only that flag, for arguments that the full
    parser refused."""
    p = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    p.add_argument("--json", action="store_true")
    try:
        return p.parse_known_args(argv)[0].json
    except argparse.ArgumentError:
        return False


def _fail(cfg: SessionConfig, kind: str, message: str) -> None:
    """The error object under --json, else "error: message" on stderr.  An
    error in the arguments themselves reports the default config, as the
    session never started."""
    if cfg.json_out:
        doc = {
            "config": cfg.header(),
            "error": {"kind": kind, "message": message},
            "schema": REPORT_SCHEMA,
        }
        print(dumps(doc))
    else:
        print(f"error: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
