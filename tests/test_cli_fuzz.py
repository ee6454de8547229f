"""Contract fuzz test of the command line, in process through `cli.main`.

Arguments are drawn from the subcommand names, the global flags and the
subcommands' flags, each with good and bad values, small windows and arity at
most 2.  Whatever the arguments, the exit code is 0, 1 or 2, no exception
escapes `main`, and under --json nothing reaches stderr while every line of
stdout is a JSON object holding `result` or `error`: one object, except that
the batch commands print one per expression, the error (if any) last.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdiffops.cli import main

COMMANDS = [
    "normalize", "mul", "commutator", "act", "grade", "ideal-test", "involve", "module-build", "support",
    "dims", "decompose", "block-split", "report", "fiber", "rep-type", "kronecker", "string", "band", "induce",
]
BATCH = {"normalize", "involve"}

GLOBALS = {
    "--field": ["q", "qi", "r"],
    "--arity": ["1", "2", "0", "-1", "x", "1001"],
    "--window": ["0..1", "=-1..1", "=-2..2,-1..1", "-2..2", "a..b", "5", "2..0"],
    "--deg": ["2", "0", "-1", "x"],
}
FLAGS = {
    "--module": ["Ms", "simple", "Xs"],
    "--s": ["1", "2", "0", "-1", "x", "31"],
    "--lambda": ["0", "1/2", "i", "1+i", "0e5", "1/0", ""],
    "--orbit": ["Z", "Z,Z", "1/2", "1/2,Z", "i", "", "x"],
    "--dset": ["", "1", "1,2", "3", "a"],
    "--point": ["0", "0,0", "1,-1", "x", ""],
    "--gen": ["d", "H", "x"],
    "--a": ['[["1","0"],["0","1"]]', '[["0","2"],["1","0"]]', "[[1]]", "[]", "[[", '"x"'],
    "--b": ['[["2","1"],["0","2"]]', '[["1"],["0"]]', "[[0]]", "[[1,2],[3]]", "{}"],
    "--n": ["1", "2", "0", "-3", "x"],
    "--matrices": ["[]", '[[["1"]]]', '[[["0","1"],["0","0"]]]', "[1]", "x"],
    "--in": ["/nonexistent/module.json"],
}
POSITIONALS = [
    "d_1*int_1", "H_1^2 + x_1", "e[1,2]_1", "int_2*d_1", "H_1 +", "i*H_1", "d_1^3", "h1h2", "h1h2h2", "h3",
    "", "1/0", "x_9",
]


def _option(table):
    return st.sampled_from(sorted(table)).flatmap(lambda flag: st.sampled_from(table[flag]).map(
        lambda value: [flag + value] if value.startswith("=") else [flag, value]))


@st.composite
def argvs(draw):
    json_out = draw(st.booleans())
    argv = ["--json"] if json_out else []
    for opt in draw(st.lists(_option(GLOBALS), max_size=2)):
        argv += opt
    command = draw(st.sampled_from(COMMANDS + ["bogus"]))
    rest = draw(st.lists(st.sampled_from(POSITIONALS), max_size=2))
    for opt in draw(st.lists(_option(FLAGS), max_size=4)):
        rest += opt
    return json_out, command, argv + [command] + rest, draw(st.sampled_from(["", "d_1\n", "H_1 +\n"]))


@given(argvs())
# violations the drawing found: a zero denominator in an expression, induce
# without a window (both tracebacks), and an empty batch (no output at all)
@example((False, "normalize", ["normalize", "1/0"], ""))
@example((True, "induce", ["--json", "induce", "--orbit", "Z"], ""))
@example((True, "normalize", ["--json", "normalize"], ""))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_cli_contract_on_drawn_arguments(case):
    json_out, command, argv, stdin_text = case
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse in text mode, and its help
                code = exc.code
    finally:
        sys.stdin = old_stdin
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if not json_out:
        return
    assert err.getvalue() == "", argv
    lines = out.getvalue().splitlines()
    assert lines and out.getvalue().endswith("\n"), argv
    assert len(lines) == 1 or command in BATCH, argv
    docs = [json.loads(line) for line in lines]
    assert all(isinstance(doc, dict) and len({"result", "error"} & doc.keys()) == 1 for doc in docs), argv
    assert all("result" in doc for doc in docs[:-1]), argv
    assert ("error" in docs[-1]) == (code != 0), argv
