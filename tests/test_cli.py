import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from intdiffops.cli import MAX_ARITY, main
from intdiffops.action import MAX_ACTION_CELLS
from intdiffops.classify import MAX_GAMMA_DIM
from intdiffops.modules import MAX_MS_LENGTH, MAX_WINDOW_POINTS, dualize
from intdiffops.parser import MAX_EXPONENT, MAX_NESTING
from intdiffops.serialize import module_from_json, module_to_json
from golden_cases import GOLDEN_CASES

GOLDEN_DIR = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run_cli(argv, stdin_text=None):
    buf = io.StringIO()
    old_stdin = sys.stdin
    try:
        if stdin_text is not None:
            sys.stdin = io.StringIO(stdin_text)
        with redirect_stdout(buf):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, buf.getvalue()


def test_normalize_examples():
    code, out = run_cli(["normalize", "d_1*int_1"])
    assert code == 0 and out == "1\n"
    code, out = run_cli(["normalize", "int_1*d_1"])
    assert code == 0 and out == "1 - e[0,0]_1\n"


def test_dims_example():
    code, out = run_cli(
        ["--window=-5..5", "dims", "--module", "Ms", "--s", "3", "--lambda", "0"]
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11
    assert all(line.endswith(": 3") for line in lines)


def test_rep_type_example():
    code, out = run_cli(["rep-type", "--orbit", "Z,Z", "--dset", "1,2"])
    assert code == 0 and out.strip() == "finite"


def test_stdin_batch():
    code, out = run_cli(["normalize"], stdin_text="d_1*int_1\nH_1*d_1\n")
    assert code == 0
    assert out == "1\nH_1*d_1\n"


def test_exit_codes():
    code, _ = run_cli(["normalize", "H_1 +"])
    assert code == 1
    code, _ = run_cli(["--window=-2..2", "dims", "--module", "Ms"])
    assert code == 2
    # block decomposition without offset 0 in the window is a domain error
    code, _ = run_cli(
        ["--window=1..3", "decompose", "--module", "Ms", "--s", "1", "--lambda", "0"]
    )
    assert code == 1


@pytest.mark.parametrize(
    "expr, code",
    [
        ("(" * 3000 + "x_1" + ")" * 3000, 1),
        ("+".join(["x_1"] * 5000), 0),
        ("*".join(["d_1*int_1"] * 1500), 0),
    ],
    ids=["nested", "flat_sum", "flat_product"],
)
def test_deep_input_keeps_the_contract(expr, code):
    got, out = run_cli(["--json", "normalize", expr])
    doc = json.loads(out)
    assert got == code
    if code:
        assert f"MAX_NESTING = {MAX_NESTING}" in doc["error"]["message"]
        assert f"column {MAX_NESTING + 1}" in doc["error"]["message"]
    else:
        assert "result" in doc


def test_zero_denominator_is_a_parse_error():
    # the tokenizer built Fraction(1, 0), and the ZeroDivisionError escaped main
    code, out = run_cli(["--json", "normalize", "x_1 + 1/0"])
    assert code == 1
    assert json.loads(out)["error"] == {"kind": "domain", "message": "zero denominator in '1/0' at line 1, column 7"}


def test_induce_without_a_window_is_a_usage_error():
    code, out = run_cli(["--json", "induce", "--orbit", "Z"])
    assert code == 2
    assert json.loads(out)["error"] == {"kind": "usage", "message": "need --window"}


def test_exponent_limit_is_a_parse_error():
    start = time.perf_counter()
    code, out = run_cli(["--json", "normalize", "d_1^100000000"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "domain"
    assert f"exponent 100000000 exceeds the limit MAX_EXPONENT = {MAX_EXPONENT}" in doc["error"]["message"]
    assert "column 5" in doc["error"]["message"]
    code, out = run_cli(["normalize", f"d_1^{MAX_EXPONENT}"])
    assert code == 0 and out.strip() == f"d_1^{MAX_EXPONENT}"


def test_action_size_limit_is_a_domain_error():
    code, out = run_cli(["--json", "--arity", "3", "--deg", "2", "act", "int_1^40*H_1^5"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "domain"
    message = doc["error"]["message"]
    assert f"MAX_ACTION_CELLS = {MAX_ACTION_CELLS}" in message
    assert "27 domain x 79507 codomain monomials (2146689 cells)" in message


def test_action_size_limit_names_counts_past_the_int_print_limit():
    # 100001^1000 has 5,001 digits, more than Python prints as a decimal;
    # the sizes alone refuse this window, so the codomain count is a bound
    start = time.perf_counter()
    code, out = run_cli(["--json", "--arity", str(MAX_ARITY), "--deg", "100000", "act", "x_1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "domain"
    message = doc["error"]["message"]
    assert f"MAX_ACTION_CELLS = {MAX_ACTION_CELLS}" in message
    assert f"100001^{MAX_ARITY} domain x at least 100001^{MAX_ARITY} codomain monomials" in message
    assert f"(at least 10000200001^{MAX_ARITY} cells)" in message
    # one domain monomial passes the bound; the exact check counts x_1's codomain
    code, out = run_cli(["--json", "--arity", str(MAX_ARITY), "--deg", "0", "act", "x_1"])
    assert code == 1
    message = json.loads(out)["error"]["message"]
    assert f"1 domain x 2^{MAX_ARITY} codomain monomials (2^{MAX_ARITY} cells)" in message


def test_act_refuses_by_size_before_building_the_operator(monkeypatch):
    import intdiffops.cli as cli

    class Built(Exception):
        pass

    def build(*args):
        raise Built

    monkeypatch.setattr(cli, "from_expression", build)
    code, out = run_cli(["--json", "--arity", "1000", "act", "int_1^10000"])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain"
    assert error["message"] == (
        f"action matrix on 7^1000 domain x at least 7^1000 codomain monomials "
        f"(at least 49^1000 cells) exceeds the limit MAX_ACTION_CELLS = {MAX_ACTION_CELLS}"
    )
    # (deg + 1)^(2 arity) = 7^6 cells pass the bound, so the operator is built
    with pytest.raises(Built):
        run_cli(["--json", "--arity", "3", "act", "x_1"])


def test_window_size_limit_is_a_domain_error():
    start = time.perf_counter()
    code, out = run_cli(["--json", "--window=-100000..100000", "dims", "--module", "Ms", "--s", "3", "--lambda", "0"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == {
        "kind": "domain",
        "message": f"window of 200001 points exceeds the limit MAX_WINDOW_POINTS = {MAX_WINDOW_POINTS}",
    }
    argv = ["--arity", "3", "--window=-60..60", "support", "--module", "simple", "--orbit", "Z,Z,Z", "--dset", "1"]
    code, out = run_cli(["--json", *argv])
    assert code == 1
    assert "window of 1771561 points" in json.loads(out)["error"]["message"]
    assert time.perf_counter() - start < 1.0
    # a box of exactly MAX_WINDOW_POINTS points is allowed, one more slice is not
    code, out = run_cli(argv[:2] + ["--window=-4..5"] + argv[3:])
    assert 10**3 == MAX_WINDOW_POINTS and code == 0 and out.strip()
    code, out = run_cli(["--json", *argv[:2], "--window=-4..5,-4..5,-4..6", *argv[3:]])
    assert code == 1 and "window of 1100 points" in json.loads(out)["error"]["message"]


def test_window_size_limit_holds_for_module_files(tmp_path):
    code, out = run_cli(["--json", "--window=-2..2", "module-build", "--module", "Ms", "--s", "1", "--lambda", "0"])
    doc = json.loads(out)["result"]
    doc["window"] = [[-2000000, 2000000]]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(["--json", "dims", "--in", str(path)])
    assert code == 1
    assert "window of 4000001 points" in json.loads(out)["error"]["message"]


def test_arity_limit_is_a_domain_error():
    argv = ["mul", "d_1 + int_1", "H_1 + x_1"]
    code, out = run_cli(["--json", "--arity", str(MAX_ARITY), *argv])
    result = json.loads(out)["result"]
    assert code == 0 and result["n"] == MAX_ARITY and len(result["terms"]) == 5
    start = time.perf_counter()
    for extra in (1, 10**6):
        code, out = run_cli(["--json", "--arity", str(MAX_ARITY + extra), *argv])
        assert code == 1
        assert json.loads(out)["error"] == {
            "kind": "domain",
            "message": f"arity {MAX_ARITY + extra} exceeds the limit MAX_ARITY = {MAX_ARITY}",
        }
    code, out = run_cli(["--arity", str(MAX_ARITY + 1), "normalize", "d_1"])
    assert code == 1 and out == ""
    assert time.perf_counter() - start < 1.0


def test_ms_length_limit_is_a_domain_error():
    argv = ["--window=0..1", "dims", "--module", "Ms", "--lambda", "0", "--s"]
    code, out = run_cli([*argv, str(MAX_MS_LENGTH)])
    assert code == 0 and out.strip()
    start = time.perf_counter()
    code, out = run_cli(["--json", *argv, str(MAX_MS_LENGTH + 1)])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "domain",
        "message": f"length {MAX_MS_LENGTH + 1} exceeds the limit MAX_MS_LENGTH = {MAX_MS_LENGTH}",
    }
    code, out = run_cli([*argv, "1000000"])
    assert code == 1 and out == ""
    assert time.perf_counter() - start < 1.0


def test_gamma_dimension_limit_is_a_domain_error():
    # a string of MAX_GAMMA_DIM - 1 letters and a band word of
    # MAX_GAMMA_DIM letters are allowed; one letter more is not
    word = "h1" * (MAX_GAMMA_DIM - 1)
    code, out = run_cli(["--json", "string", word])
    assert code == 0 and json.loads(out)["result"]["dim"] == MAX_GAMMA_DIM
    code, out = run_cli(["--json", "band", word + "h2", "--n", "1", "--lambda", "2"])
    assert code == 0 and json.loads(out)["result"]["dim"] == MAX_GAMMA_DIM
    start = time.perf_counter()
    code, out = run_cli(["--json", "string", word + "h2"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "domain",
        "message": f"string module of dimension {MAX_GAMMA_DIM + 1} exceeds the limit MAX_GAMMA_DIM = {MAX_GAMMA_DIM}",
    }
    code, out = run_cli(["--json", "band", word + "h1h2", "--n", "1", "--lambda", "2"])
    assert code == 1
    assert json.loads(out)["error"] == {
        "kind": "domain",
        "message": f"band module of dimension {MAX_GAMMA_DIM + 1} exceeds the limit MAX_GAMMA_DIM = {MAX_GAMMA_DIM}",
    }
    # the band's dimension counts its copies: n = MAX_GAMMA_DIM / 2 + 1 of h1h2
    code, out = run_cli(["--json", "band", "h1h2", "--n", str(MAX_GAMMA_DIM // 2 + 1), "--lambda", "2"])
    assert code == 1 and f"band module of dimension {MAX_GAMMA_DIM + 2} exceeds" in json.loads(out)["error"]["message"]
    # checked before any work, however long the word or large the multiplicity
    code, out = run_cli(["--json", "band", "h1h2" * 30000 + "h1", "--n", "1", "--lambda", "2"])
    assert code == 1 and "band module of dimension 60001" in json.loads(out)["error"]["message"]
    code, out = run_cli(["--json", "band", "h1h2", "--n", str(10**30), "--lambda", "2"])
    assert code == 1 and "MAX_GAMMA_DIM" in json.loads(out)["error"]["message"]
    code, out = run_cli(["--json", "string", "h1" * 60000])
    assert code == 1 and "string module of dimension 60001" in json.loads(out)["error"]["message"]
    assert time.perf_counter() - start < 1.0


def test_json_error_object():
    code, out = run_cli(["--json", "normalize", "H_1 +"])
    assert code == 1
    doc = json.loads(out)
    assert doc["error"]["kind"] == "domain"
    assert "schema" in doc


@pytest.mark.parametrize(
    "argv, needle",
    [
        (["--json", "dims", "--module", "Xs"], "argument --module: invalid choice: 'Xs'"),
        # a window with a leading minus needs the = form; this one is read as a flag
        (["--json", "--window", "-2..2", "dims", "--module", "Ms", "--s", "2", "--lambda", "0"],
         "argument --window: expected one argument"),
        (["--json", "--arity", "x", "normalize", "d_1"], "argument --arity: invalid int value: 'x'"),
        (["--json"], "the following arguments are required: command"),
        (["--json", "normalize", "d_1", "--deg", "2"], "unrecognized arguments: --deg 2"),
    ],
)
def test_argparse_errors_keep_the_json_contract(argv, needle, capsys):
    code, out = run_cli(argv)
    assert code == 2 and capsys.readouterr().err == ""
    doc = json.loads(out)
    assert doc["error"] == {"kind": "usage", "message": doc["error"]["message"]}
    assert needle in doc["error"]["message"] and "result" not in doc


def test_bad_field_variable_keeps_the_json_contract(monkeypatch, capsys):
    monkeypatch.setenv("INTDIFF_FIELD", "r")
    code, out = run_cli(["--json", "normalize", "d_1"])
    assert code == 2 and capsys.readouterr().err == ""
    assert json.loads(out)["error"] == {"kind": "usage", "message": "bad field 'r'"}
    # text mode: argparse's usage and message on stderr, exit 2 as before
    with pytest.raises(SystemExit) as exc:
        run_cli(["normalize", "d_1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: intdiff") and err.endswith("intdiff: error: bad field 'r'\n")


def test_argparse_errors_in_text_mode_and_help_are_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["dims", "--module", "Xs"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: intdiff dims")
    assert "intdiff dims: error: argument --module: invalid choice: 'Xs'" in captured.err
    for argv in (["-h"], ["--help"], ["dims", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: intdiff")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["dims", "-h"], ["fiber", "--help"], ["--arity", "2", "mul", "-h"]])
def test_help_under_json_is_one_object(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    text = capsys.readouterr().out
    code, out = run_cli(["--json", *argv])
    assert code == 0 and capsys.readouterr().err == ""
    doc = json.loads(out)
    assert list(doc) == ["config", "result", "schema"]
    assert doc["result"] == {"help": text}
    assert doc["config"] == {"arity": 1, "field": "q", "version": doc["config"]["version"]}


def test_field_env_default(monkeypatch):
    monkeypatch.setenv("INTDIFF_FIELD", "qi")
    code, out = run_cli(["normalize", "i*H_1"])
    assert code == 0 and out.strip() == "i*H_1"
    monkeypatch.setenv("INTDIFF_FIELD", "q")
    code, _ = run_cli(["normalize", "i*H_1"])
    assert code == 1


def test_exponent_literal_is_usage_error():
    # an exponent would make the parser build its whole power of ten
    argv = ["ideal-test", "H_1*d_1", "--gen", "H", "--lambda", "0e6000000"]
    code, _ = run_cli(argv)
    assert code == 2
    code, out = run_cli(["--json"] + argv)
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage" and "0e6000000" in error["message"]


@pytest.mark.parametrize(
    "literal, reason",
    [("0e6000000", "exponents are not accepted"), ("1/0", "zero denominator"), ("2i3", "'i' may only end the literal")],
)
def test_scalar_usage_error_keeps_parser_reason(literal, reason):
    code, out = run_cli(["--json", "ideal-test", "H_1*d_1", "--gen", "H", "--lambda", literal])
    assert code == 2
    error = json.loads(out)["error"]
    assert error == {"kind": "usage", "message": f"bad scalar literal {literal!r}: {reason}"}


def test_scalars_outside_field_rejected():
    code, _ = run_cli(["normalize", "i*H_1"])
    assert code == 1
    code, _ = run_cli(["--field", "qi", "normalize", "i*H_1"])
    assert code == 0


def test_pencil_outside_field_is_a_domain_error():
    # B has min poly H^2 - 2, so the one summand's eigenvalue is not in Q
    code, out = run_cli(["--json", "kronecker", "--a", '[["1","0"],["0","1"]]', "--b", '[["0","2"],["1","0"]]'])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain"
    assert error["message"] == "pencil eigenvalue not in the field q: min poly H^2 - 2"


def test_zero_pencil_names_both_simples():
    # a 2 x 1 zero pencil is K -> 0 plus twice 0 -> K, that is S1 + 2 S2(0)
    code, out = run_cli(["kronecker", "--a", '[["0"],["0"]]', "--b", '[["0"],["0"]]'])
    assert code == 0 and out == "S1 + S2(0) + S2(0)\n"


@pytest.mark.parametrize("command", ["act", "grade"])
def test_act_and_grade_without_an_expression_are_usage_errors(command):
    for stdin_text in ("", "\n  \n"):
        code, out = run_cli(["--json", command], stdin_text=stdin_text)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "usage" and "no expression" in error["message"]
    # the first nonblank line of stdin is the expression
    assert run_cli(["--json", command], stdin_text="\nd_1\n") == run_cli(["--json", command, "d_1"])


@pytest.mark.parametrize(
    "argv, point",
    [([], "x"), ([], "1,y"), ([], "1,2"), ([], ""), (["--arity", "2"], "1")],
)
def test_fiber_point_is_parsed_and_counted(argv, point):
    window = "--window=-2..2" if not argv else "--window=-2..2,-2..2"
    orbit = "1/2" if not argv else "1/2,1/3"
    code, out = run_cli(["--json", *argv, window, "fiber", "--module", "simple", "--orbit", orbit, "--point", point])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage" and "--point" in error["message"]


def test_fiber_point_of_the_module_arity():
    code, out = run_cli(["--json", "--window=-2..2", "fiber", "--module", "simple", "--orbit", "1/2", "--point", "0"])
    assert code == 0
    assert json.loads(out)["result"]["dim"] == 1
    code, out = run_cli(
        ["--json", "--window=-2..2,-2..2", "fiber", "--module", "simple", "--orbit", "1/2,1/3", "--point", "1,-1"]
    )
    assert code == 0
    assert json.loads(out)["result"]["slots"] == [1, 2]


def test_deterministic_output():
    argv = ["--json", "--window=-2..2", "module-build", "--module", "Ms", "--s", "2", "--lambda", "0"]
    _, out1 = run_cli(argv)
    _, out2 = run_cli(argv)
    assert out1 == out2


def test_in_unreadable_file_is_usage_error(tmp_path):
    missing = str(tmp_path / "missing.json")
    code, out = run_cli(["--json", "report", "--in", missing])
    assert code == 2
    error = json.loads(out)["error"]
    assert error["kind"] == "usage" and missing in error["message"]


@pytest.mark.parametrize(
    "key,value,needle",
    [
        ("orbit", None, "'orbit'"),
        ("spaces", [], "malformed"),
        ("window", 5, "malformed"),
        ("orbit", {"reps": ["1/0"], "integer": [True]}, "'1/0': zero denominator"),
    ],
)
def test_in_malformed_document_is_domain_error(tmp_path, key, value, needle):
    _, out = run_cli(
        ["--json", "--window=-2..2", "module-build", "--module", "Ms", "--s", "1", "--lambda", "0"]
    )
    doc = json.loads(out)["result"]
    if value is None:
        del doc[key]
    else:
        doc[key] = value
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["--json", "report", "--in", str(path)])
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain" and needle in error["message"]


def test_parse_print_identity():
    for expr in ["H_1^2*d_1 - 2*int_1", "e[0,0]_1", "1 - e[0,0]_1"]:
        _, out = run_cli(["normalize", expr])
        canonical = out.strip()
        _, out2 = run_cli(["normalize", canonical])
        assert out2.strip() == canonical


@pytest.mark.parametrize("name,argv", GOLDEN_CASES)
def test_golden(name, argv):
    path = GOLDEN_DIR / f"{name}.txt"
    assert path.exists(), f"golden file {path} missing; run scripts/regen_golden.py"
    code, out = run_cli(list(argv))
    assert code == 0
    assert out.encode() == path.read_bytes()


def test_cli_import_leaves_sympy_unloaded():
    code = "import sys, intdiffops, intdiffops.cli; print('sympy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
    # one adapter module holds every sympy import
    importers = [
        f.name
        for f in sorted((SRC / "intdiffops").glob("*.py"))
        if any(
            line.lstrip().startswith(("import sympy", "from sympy"))
            for line in f.read_text().splitlines()
        )
    ]
    assert importers == ["symbolic.py"]


# run in a fresh interpreter: each argv of the JSON list in argv[1] through
# cli.main, then print the modules that importing and running the CLI loaded
_COMMAND_IMPORTS = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from intdiffops.cli import main
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(set(sys.modules) - before)))
"""

_LAYERS = ["intdiffops." + m for m in ("linalg", "modules", "local_ideals", "action", "classify")]
_SIMPLE = ["--module", "simple", "--orbit", "Z", "--dset", ""]


@pytest.mark.parametrize(
    "argvs,needed,unloaded",
    [
        (
            [
                ["normalize", "d_1*int_1"],
                ["mul", "H_1^2", "d_1"],
                ["commutator", "H_1", "int_1"],
                ["grade", "H_1*d_1 + int_1^2"],
                ["ideal-test", "H_1*d_1", "--gen", "H", "--lambda", "1"],
                ["involve", "H_1^2*d_1 - e[1,2]_1"],
            ],
            ["intdiffops.operators", "intdiffops.serialize"],
            _LAYERS + ["dataclasses", "inspect"],
        ),
        ([["--deg", "3", "act", "int_1*d_1"]], ["intdiffops.action"], ["intdiffops.modules", "intdiffops.classify"]),
        (
            [["--window=-2..2", command, *_SIMPLE] for command in ("dims", "support", "module-build", "decompose")],
            ["intdiffops.modules"],
            ["intdiffops.classify", "dataclasses"],
        ),
        (
            [
                ["rep-type", "--orbit", "Z,Z", "--dset", "1,2"],
                ["kronecker", "--a", '[["1","0"],["0","1"],["0","0"]]', "--b", '[["0","0"],["1","0"],["0","1"]]'],
                ["string", "h1h2"],
                ["--field", "qi", "band", "h1h2", "--n", "2", "--lambda", "2"],
            ],
            ["intdiffops.classify"],
            ["dataclasses", "inspect"],
        ),
    ],
    ids=["operator", "act", "window", "classification"],
)
def test_commands_load_only_their_layers(argvs, needed, unloaded):
    proc = subprocess.run(
        [sys.executable, "-c", _COMMAND_IMPORTS, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert set(needed) <= loaded
    assert not loaded & set(unloaded), sorted(loaded & set(unloaded))


_PUBLIC_NAMES = """
import json, sys
import intdiffops
layers = sorted(m for m in sys.modules if m.startswith("intdiffops."))
homes = {}
for name in intdiffops.__all__:
    obj = getattr(intdiffops, name)
    home = sys.modules[obj.__module__]
    assert obj is vars(home)[name] and home.__name__.startswith("intdiffops."), name
    homes[name] = home.__name__
star = {}
exec("from intdiffops import *", star)
assert all(star[name] is getattr(intdiffops, name) for name in intdiffops.__all__)
try:
    intdiffops.no_such_name
except AttributeError as exc:
    missing = str(exc)
from intdiffops import linalg
print(json.dumps([layers, homes, missing, linalg.__name__]))
"""


def test_public_names_load_on_first_access():
    proc = subprocess.run(
        [sys.executable, "-c", _PUBLIC_NAMES],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    layers, homes, missing, linalg = json.loads(proc.stdout)
    # a bare `import intdiffops` loads no layer
    assert layers == []
    assert homes["Operator"] == "intdiffops.operators" and homes["QQ"] == "intdiffops.scalars"
    assert homes["build_Ms"] == "intdiffops.modules" and homes["rep_type"] == "intdiffops.classify"
    assert "no_such_name" in missing
    # submodules still import by name from the package
    assert linalg == "intdiffops.linalg"


def test_single_term_power_is_refused_in_time():
    # int_1^10000 at arity 1,000 is one term; its 9,999 products once took 33 s
    start = time.perf_counter()
    code, out = run_cli(["--json", "--arity", str(MAX_ARITY), "--deg", "0", "act", "int_1^10000"])
    assert time.perf_counter() - start < 2.0
    assert code == 1
    error = json.loads(out)["error"]
    assert error["kind"] == "domain" and f"MAX_ACTION_CELLS = {MAX_ACTION_CELLS}" in error["message"]


def test_windows_without_layer_0_are_refused():
    simple = ["--module", "simple", "--orbit", "Z", "--dset", "1"]
    for command in (["report"], ["fiber", "--point", "2"]):
        code, out = run_cli(["--json", "--window=1..5", *command, *simple])
        assert code == 1
        error = json.loads(out)["error"]
        assert error["kind"] == "domain" and "slot 1" in error["message"] and "down to 0" in error["message"]
    code, out = run_cli(["--json", "--window=0..5", "report", *simple])
    assert code == 0 and json.loads(out)["result"]["annihilator_height"] == 0


def test_report_of_a_right_window_file(tmp_path):
    _, out = run_cli(["--json", "--window=-2..2", "module-build", "--module", "simple", "--orbit", "Z", "--dset", "1"])
    doc = json.loads(out)["result"]
    left = tmp_path / "left.json"
    left.write_text(json.dumps(doc))
    right = tmp_path / "right.json"
    right.write_text(json.dumps(module_to_json(dualize(module_from_json(doc)))))
    reports = [json.loads(run_cli(["--json", "report", "--in", str(f)])[1])["result"] for f in (left, right)]
    assert reports[0] == reports[1] and reports[1]["annihilator_slots"] == []
    fibers = [run_cli(["--json", "fiber", "--point", "1", "--in", str(f)]) for f in (left, right)]
    assert fibers[0] == fibers[1] and fibers[1][0] == 0
