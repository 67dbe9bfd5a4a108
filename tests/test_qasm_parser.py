"""Parser unit tests: AST shape, diagnostics, expression grammar, round-trip."""

import math
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

import qcc
from qcc.cli import main
from qcc.errors import QasmSemanticError, QasmSyntaxError
from qcc.qasm import lower_ast_to_ir, parse_qasm, parser
from qcc.qasm.ast import (
    Argument, BarrierStmt, BinOp, Call, GateCall, IfStatement, Measure, Neg, Num, Param, Pi, RegDecl, Reset
)
from qcc.qasm.parser import MAX_EXPR_DEPTH, MAX_INT_DIGITS, MAX_PROGRAM_OPS, MAX_PROGRAM_QUBITS

GHZ = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
"""


def test_ghz_ast_shape():
    tree = parse_qasm(GHZ)
    assert tree.version == "2.0"
    assert tree.includes == ["qelib1.inc"]
    assert len(tree.declarations) == 2
    # measure over a full register is one AST statement
    assert len(tree.statements) == 4
    qreg, creg = tree.declarations
    assert (qreg.kind, qreg.name, qreg.size) == ("qreg", "q", 3)
    assert (creg.kind, creg.name, creg.size) == ("creg", "c", 3)
    h = tree.statements[0]
    assert isinstance(h, GateCall)
    assert h.name == "h" and h.params == ()
    assert h.qargs == (Argument(reg="q", index=0, span=h.qargs[0].span),)
    last = tree.statements[3]
    assert isinstance(last, Measure)
    assert last.qarg.index is None and last.carg.index is None


def test_empty_circuit():
    tree = parse_qasm("OPENQASM 2.0;\n")
    assert tree.declarations == [] and tree.statements == []


def test_comments_and_whitespace_ignored():
    src = "// leading comment\nOPENQASM 2.0;//trailing\n\n\nqreg\tq[1];\nU(0, 0,0)q[0] ;\n"
    tree = parse_qasm(src)
    assert len(tree.statements) == 1
    assert tree.statements[0].name == "U"


def test_index_out_of_range_diagnostic():
    src = "OPENQASM 2.0;\nqreg q[3];\nU(0,0,0) q[5];\n"
    with pytest.raises(QasmSemanticError) as exc:
        parse_qasm(src)
    err = exc.value
    assert err.span.line == 3
    assert "out of range" in str(err)
    assert err.diagnostic().startswith("<input>:3:")
    assert ": error: " in err.diagnostic()


def test_missing_semicolon_is_syntax_error():
    src = "OPENQASM 2.0;\nqreg q[2];\nU(0,0,0) q[0]\nCX q[0],q[1];\n"
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert exc.value.span.line == 4
    assert "expected ';'" in str(exc.value)


def test_version_must_be_2_0():
    with pytest.raises(QasmSemanticError, match="version"):
        parse_qasm("OPENQASM 3.0;\nqreg q[1];\n")
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1];\n")


def test_unknown_include_rejected():
    with pytest.raises(QasmSemanticError, match="include"):
        parse_qasm('OPENQASM 2.0;\ninclude "other.inc";\n')


def test_duplicate_register_rejected():
    with pytest.raises(QasmSemanticError, match="already declared"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\ncreg q[2];\n")


def test_register_size_must_be_positive():
    with pytest.raises(QasmSemanticError, match="positive"):
        parse_qasm("OPENQASM 2.0;\nqreg q[0];\n")


def test_wrong_arity_rejected():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0];\n'
    with pytest.raises(QasmSemanticError, match="takes 2 qubit"):
        parse_qasm(src)


def test_wrong_param_count_rejected():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(pi,pi) q[0];\n'
    with pytest.raises(QasmSemanticError, match="parameter"):
        parse_qasm(src)


def test_undeclared_register_rejected():
    with pytest.raises(QasmSemanticError, match="undeclared"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nU(0,0,0) r[0];\n")


def test_undeclared_gate_rejected():
    # no include, so qelib1 names are unknown
    with pytest.raises(QasmSemanticError, match="undeclared gate 'h'"):
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[0];\n")


def test_opaque_rejected():
    with pytest.raises(QasmSemanticError, match="opaque"):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nopaque foo a;\n")


@pytest.mark.parametrize(
    "body, error, diagnostic",
    [
        ("@", QasmSyntaxError, "6:1: error: unexpected character '@'"),
        ("qreg Q[2];", QasmSemanticError, "6:6: error: invalid register name 'Q'"),
        ("gate Foo a { h a; }", QasmSemanticError, "6:6: error: invalid gate name 'Foo'"),
        ("gate foo(a,a) b { h b; }", QasmSemanticError, "6:6: error: duplicate parameter name"),
        ("gate foo a,a { h a; }", QasmSemanticError, "6:6: error: duplicate qubit argument"),
        ("gate foo a { h a;", QasmSyntaxError, "7:1: error: unterminated gate body"),
        ("gate foo a { 3; }", QasmSyntaxError, "6:14: error: expected a gate application, got '3'"),
        ("gate g a { barrier b; }", QasmSemanticError, "6:12: error: 'b' is not a qubit argument of this gate"),
        ("gate g a { h b; }", QasmSemanticError, "6:12: error: 'b' is not a qubit argument of this gate"),
        ("gate g a, b { cx a,a; }", QasmSemanticError, "6:15: error: gate arguments must be distinct"),
        ("gate g a { rz(x) b; }", QasmSemanticError, "6:15: error: unknown parameter 'x'"),
        ("cx q, r;", QasmSemanticError, "6:1: error: whole-register operands have mismatched sizes"),
        ("cx q, q;", QasmSemanticError, "6:1: error: register 'q' used twice in one statement"),
        ("cx q[0], q;", QasmSemanticError, "6:1: error: 'q[0]' collides with whole-register operand 'q'"),
        ("measure q[0] -> c;", QasmSemanticError,
         "6:1: error: measure operands must both be indexed or both whole registers"),
        ("if (c==1) 3;", QasmSyntaxError, "6:11: error: expected a quantum operation after if(...)"),
        ("if (c==1) barrier q;", QasmSyntaxError, "6:11: error: 'barrier' cannot be conditioned"),
        ("rz(,) q[0];", QasmSyntaxError, "6:4: error: expected an expression, got ','"),
        ("rz(theta) q[0];", QasmSemanticError, "6:1: error: unknown parameter 'theta'"),
        ("opaque foo(a) b;", QasmSemanticError, "6:1: error: opaque gates are not supported"),
    ],
)
def test_statement_diagnostics(body, error, diagnostic):
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nqreg r[3];\ncreg c[2];\n' + body + "\n"
    with pytest.raises(error) as exc:
        parse_qasm(src)
    assert type(exc.value) is error
    assert exc.value.diagnostic() == f"<input>:{diagnostic}"


@pytest.mark.parametrize(
    "body, diagnostic",
    [
        ("\t@", "6:2: error: unexpected character '@'"),
        ("// comment\n@", "7:1: error: unexpected character '@'"),
        ("h q[0]; // note\n  @", "7:3: error: unexpected character '@'"),
        ("h q[0];\r\n@", "7:1: error: unexpected character '@'"),
        ("x q[0];\r\n\th q[1]; $", "7:10: error: unexpected character '$'"),
        ("é", "6:1: error: unexpected character 'é'"),
        ('"é" @', "6:5: error: unexpected character '@'"),
        ("barrier q; // é\n @", "7:2: error: unexpected character '@'"),
        ("measure q[0] -> c[0]; @", "6:23: error: unexpected character '@'"),
        ("if (c==1) x q[0]; @", "6:19: error: unexpected character '@'"),
        ("rz(1.5e3) q[0]; @", "6:17: error: unexpected character '@'"),
        ('include "qelib1.inc;', "6:9: error: unexpected character '\"'"),
        ('include "qelib1\n.inc";', "6:9: error: unexpected character '\"'"),
        ("h q[0]", "6:7: error: expected ';', got 'end of input'"),
        ("h q[0];\r\n  h", "7:4: error: expected qreg name, got 'end of input'"),
        ("gate g a {\n\th a;", "7:6: error: unterminated gate body"),
    ],
)
def test_diagnostic_positions(body, diagnostic):
    # No trailing newline: the last case's position is that of the end of input.
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nqreg r[3];\ncreg c[2];\n' + body
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src)
    assert exc.value.diagnostic() == f"<input>:{diagnostic}"


# (expression at `levels` of nesting, column of the nesting-limit diagnostic one level deeper)
NESTING = {
    "parentheses": (lambda levels: "(" * (levels - 1) + "1" + ")" * (levels - 1), 104),
    "unary-minus": (lambda levels: "-" * (levels - 1) + "1", 104),
    "sum-chain": (lambda levels: "+".join(["1"] * levels), 204),
    "difference-chain": (lambda levels: "-".join(["1"] * levels), 204),
    "product-chain": (lambda levels: "*".join(["1"] * levels), 204),
    "power-chain": (lambda levels: "^".join(["1"] * levels), 204),
}


@pytest.mark.parametrize("kind", NESTING)
def test_nesting_limit_position(kind):
    expr, column = NESTING[kind]
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz({}) q[0];\n'
    assert MAX_EXPR_DEPTH == 100
    assert len(parse_qasm(src.format(expr(MAX_EXPR_DEPTH))).statements) == 1
    with pytest.raises(QasmSyntaxError) as exc:
        parse_qasm(src.format(expr(MAX_EXPR_DEPTH + 1)))
    assert exc.value.diagnostic() == f"<input>:4:{column}: error: expression nested more than 100 levels deep"


def test_collision_diagnostic_does_not_depend_on_the_hash_seed(tmp_path):
    # Collisions are reported in operand order, so the first colliding qubit is named.
    path = tmp_path / "collide.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nccx q, q[1], q[0];\n')
    run_cli = "import sys; from qcc.cli import main; sys.exit(main(sys.argv[1:]))"
    src_dir = os.path.dirname(os.path.dirname(qcc.__file__))
    errors = set()
    for seed in range(1, 7):
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=src_dir)
        argv = [sys.executable, "-c", run_cli, "metrics", str(path)]
        proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        errors.add(proc.stderr)
    assert errors == {f"{path}:4:1: error: 'q[1]' collides with whole-register operand 'q'\n"}


def test_division_by_zero_in_parameter():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(1/0) q[0];\n'
    with pytest.raises(QasmSemanticError, match="division by zero"):
        parse_qasm(src)


@pytest.mark.parametrize(
    "expr, message",
    [
        ("(0-8)^(1/3)", "not real"),
        ("exp(1000)", "overflows"),
        ("10.0^400", "parameter expression overflows"),
        ("1e999", "does not fit in a double"),
    ],
)
def test_parameter_outside_the_finite_reals(expr, message):
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz({expr}) q[0];\n'
    with pytest.raises(QasmSemanticError, match=message):
        parse_qasm(src)


@pytest.mark.parametrize(
    "expr,value",
    [
        ("pi/2", math.pi / 2),
        ("-pi", -math.pi),
        ("2^3", 8.0),
        ("2^3^2", 512.0),  # right-associative
        ("3-1-1", 1.0),  # left-associative
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("sin(pi/6)", 0.5),
        ("cos(0)", 1.0),
        ("tan(0)", 0.0),
        ("exp(1)", math.e),
        ("ln(exp(1))", 1.0),
        ("sqrt(4)", 2.0),
        ("-2^2", -4.0),  # unary minus binds looser than power
    ],
)
def test_parameter_expressions(expr, value):
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz({expr}) q[0];\n'
    tree = parse_qasm(src)
    got = tree.statements[0].params[0]
    assert got == pytest.approx(value, abs=1e-12)


def test_builtin_u_and_cx():
    src = "OPENQASM 2.0;\nqreg q[2];\nU(pi/2,0,pi) q[0];\nCX q[0],q[1];\n"
    tree = parse_qasm(src)
    assert [s.name for s in tree.statements] == ["U", "CX"]


def test_gate_def_shadows_nothing_and_parses():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "gate foo(a) x, y { rz(a/2) x; cx x, y; }\n"
        "foo(pi) q[0], q[1];\n"
    )
    tree = parse_qasm(src)
    assert len(tree.gate_defs) == 1
    gd = tree.gate_defs[0]
    assert gd.name == "foo"
    assert gd.params == ("a",)
    assert gd.qubits == ("x", "y")
    assert len(gd.body) == 2


def test_gate_redefinition_rejected():
    src = (
        "OPENQASM 2.0;\nqreg q[1];\n"
        "gate foo a { U(0,0,0) a; }\n"
        "gate foo a { U(0,0,0) a; }\n"
    )
    with pytest.raises(QasmSemanticError, match="already"):
        parse_qasm(src)


def test_if_statement_parses():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[2];\nif (c == 2) x q[0];\n'
    tree = parse_qasm(src)
    stmt = tree.statements[0]
    assert stmt.creg == "c" and stmt.value == 2
    assert stmt.body.name == "x"


def test_if_on_undeclared_creg_rejected():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nif (c == 1) x q[0];\n'
    with pytest.raises(QasmSemanticError, match="undeclared"):
        parse_qasm(src)


@pytest.mark.parametrize(
    "size, value, ok",
    [
        (2, 3, True),
        (2, 4, False),  # needs 3 bits
        (64, 2**63 - 1, True),
        (64, 2**63, False),  # overflows the i64 that QIR compares as
        (2, 99999999999999999999, False),
    ],
)
def test_if_value_must_fit_creg_and_i64(size, value, ok):
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[{size}];\nif (c == {value}) x q[0];\n'
    if ok:
        assert parse_qasm(src).statements[0].value == value
    else:
        with pytest.raises(QasmSemanticError, match="does not fit") as exc:
            parse_qasm(src)
        assert (exc.value.span.line, exc.value.span.column) == (5, 10)


def test_measure_size_mismatch_rejected():
    src = "OPENQASM 2.0;\nqreg q[3];\ncreg c[2];\nmeasure q -> c;\n"
    with pytest.raises(QasmSemanticError, match="size"):
        parse_qasm(src)


# The printer is the oracle of the round-trip tests: source that parses to an equal AST.


def expr_to_qasm(expr) -> str:
    if isinstance(expr, float):
        return repr(expr)
    if isinstance(expr, Num):
        return repr(expr.value)
    if isinstance(expr, Pi):
        return "pi"
    if isinstance(expr, Param):
        return expr.name
    if isinstance(expr, Neg):
        return f"(-{expr_to_qasm(expr.operand)})"
    if isinstance(expr, BinOp):
        return f"({expr_to_qasm(expr.lhs)} {expr.op} {expr_to_qasm(expr.rhs)})"
    if isinstance(expr, Call):
        return f"{expr.func}({expr_to_qasm(expr.operand)})"
    raise TypeError(f"not an expression: {expr!r}")


def _arg_to_qasm(arg) -> str:
    if arg.index is None:
        return arg.reg
    return f"{arg.reg}[{arg.index}]"


def _stmt_to_qasm(stmt) -> str:
    if isinstance(stmt, GateCall):
        params = ""
        if stmt.params:
            params = "(" + ", ".join(expr_to_qasm(p) for p in stmt.params) + ")"
        args = ", ".join(_arg_to_qasm(a) for a in stmt.qargs)
        return f"{stmt.name}{params} {args};"
    if isinstance(stmt, Measure):
        return f"measure {_arg_to_qasm(stmt.qarg)} -> {_arg_to_qasm(stmt.carg)};"
    if isinstance(stmt, Reset):
        return f"reset {_arg_to_qasm(stmt.qarg)};"
    if isinstance(stmt, BarrierStmt):
        return "barrier " + ", ".join(_arg_to_qasm(a) for a in stmt.qargs) + ";"
    if isinstance(stmt, IfStatement):
        return f"if ({stmt.creg} == {stmt.value}) " + _stmt_to_qasm(stmt.body)
    raise TypeError(f"not a statement: {stmt!r}")


def to_qasm(ast) -> str:
    """Render an AST back to source that parses to an equal AST."""
    lines = [f"OPENQASM {ast.version};"]
    for name in ast.includes:
        lines.append(f'include "{name}";')
    for decl in ast.declarations:
        lines.append(f"{decl.kind} {decl.name}[{decl.size}];")
    for gdef in ast.gate_defs:
        params = ""
        if gdef.params:
            params = "(" + ", ".join(gdef.params) + ")"
        header = f"gate {gdef.name}{params} " + ", ".join(gdef.qubits) + " {"
        lines.append(header)
        for stmt in gdef.body:
            lines.append("  " + _stmt_to_qasm(stmt))
        lines.append("}")
    for stmt in ast.statements:
        lines.append(_stmt_to_qasm(stmt))
    return "\n".join(lines) + "\n"


def test_roundtrip_ghz():
    tree = parse_qasm(GHZ)
    assert parse_qasm(to_qasm(tree)) == tree


def test_roundtrip_with_defs_and_control_flow():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "gate foo(a, b) x, y { rz(a/2) x; cx x, y; u2(-a, b^2) y; }\n"
        "foo(pi, 0.25) q[0], q[1];\nbarrier q;\nif (c == 2) x q[1];\n"
        "reset q[0];\nmeasure q[0] -> c[0];\n"
    )
    tree = parse_qasm(src)
    text = to_qasm(tree)
    assert parse_qasm(text) == tree
    # printing is a fixpoint after one round
    assert to_qasm(parse_qasm(text)) == text


def test_roundtrip_of_pi_and_a_function_call_in_a_gate_body():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ngate g(theta) a { rz(pi/2 + sin(theta)) a; }\ng(0.5) q[0];\n'
    tree = parse_qasm(src)
    text = to_qasm(tree)
    assert "  rz(((pi / 2.0) + sin(theta))) a;\n" in text
    assert parse_qasm(text) == tree


def test_roundtrip_random_corpus_sample(corpus_sources):
    for src, _ in corpus_sources[:50]:
        tree = parse_qasm(src)
        assert parse_qasm(to_qasm(tree)) == tree


DEEP = 3000


@pytest.mark.parametrize(
    "expr",
    [
        "(" * DEEP + "1" + ")" * DEEP,
        "-" * (DEEP // 2) + "1",
        "^".join(["2"] * (DEEP // 2)),
        "+".join(["1"] * DEEP),
        "*".join(["1"] * DEEP),
    ],
    ids=["parentheses", "unary-minus", "power-chain", "sum-chain", "product-chain"],
)
def test_deep_expression_is_a_diagnostic(tmp_path, capsys, expr):
    path = tmp_path / "deep.qasm"
    path.write_text(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz({expr}) q[0];\n')
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.search(r"deep\.qasm:4:\d+: error: expression nested more than \d+ levels deep", err)


def test_nesting_below_the_limit_parses():
    depth = MAX_EXPR_DEPTH - 1
    src = f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz({"(" * depth}0.5{")" * depth}) q[0];\n'
    assert parse_qasm(src).statements[0].params == (0.5,)


@pytest.mark.parametrize(
    "body, line",
    [
        ("qreg q[{n}];\n", 3),
        ("qreg q[2];\nh q[{n}];\n", 4),
        ("qreg q[1];\ncreg c[1];\nif(c=={n}) x q[0];\n", 5),
    ],
    ids=["size", "index", "if-value"],
)
def test_oversized_integer_literal_is_a_diagnostic(tmp_path, capsys, body, line):
    path = tmp_path / "big.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body.format(n="9" * 5000))
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert re.search(rf"big\.qasm:{line}:\d+: error: integer literal longer than {MAX_INT_DIGITS} digits does not fit", err)


def test_integer_literal_at_the_digit_limit_is_checked_by_value():
    src = f"OPENQASM 2.0;\nqreg q[1];\nU(0, 0, 0) q[{'9' * MAX_INT_DIGITS}];\n"
    with pytest.raises(QasmSemanticError, match="out of range"):
        parse_qasm(src)


@pytest.mark.parametrize(
    "body, line",
    [
        ("qreg q[100000000];\nh q;\n", 3),
        (f"qreg a[{MAX_PROGRAM_QUBITS}];\nqreg b[1];\nh b;\n", 4),
    ],
    ids=["one-register", "total"],
)
def test_too_many_qubits_is_a_diagnostic(tmp_path, capsys, body, line):
    path = tmp_path / "wide.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)
    assert main(["metrics", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"wide.qasm:{line}:1: error: program declares more than {MAX_PROGRAM_QUBITS} qubits" in err


def test_qubit_count_at_the_limit_parses():
    src = f"OPENQASM 2.0;\nqreg a[{MAX_PROGRAM_QUBITS - 1}];\nqreg b[1];\ncreg c[{MAX_PROGRAM_QUBITS + 1}];\n"
    assert [d.size for d in parse_qasm(src).declarations] == [MAX_PROGRAM_QUBITS - 1, 1, MAX_PROGRAM_QUBITS + 1]


@pytest.mark.parametrize(
    "body, diagnostic",
    [
        ("gate a x { b x; }\ngate b x { U(0,0,0) x; }\na q[0];\n", "3:12: error: undeclared gate 'b'"),
        ("gate g x { CX x; }\ng q[0];\n", "3:12: error: gate 'CX' takes 2 qubit argument(s), got 1"),
        ("gate g(t) x { U(t,0) x; }\ng(1) q[0];\n", "3:15: error: gate 'U' takes 3 parameter(s), got 2"),
        ('gate h a { U(0,0,0) a; }\ninclude "qelib1.inc";\nh q[0];\n', "4:1: error: gate 'h' is already defined"),
        ('gate g a { h a; }\ninclude "qelib1.inc";\ng q[0];\n', "3:12: error: undeclared gate 'h'"),
        ("gate g x { g x; }\ng q[0];\n", "3:12: error: recursive gate definition 'g'"),
    ],
    ids=["forward-reference", "body-qubit-count", "body-parameter-count", "late-include-clash",
         "qelib1-before-include", "self-recursion"],
)
def test_gates_are_defined_before_use(tmp_path, capsys, body, diagnostic):
    path = tmp_path / "defs.qasm"
    path.write_text("OPENQASM 2.0;\nqreg q[2];\n" + body)
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err.strip() == f"{path}:{diagnostic}"


@pytest.mark.parametrize(
    "body, diagnostic",
    [
        ("rx(sqrt(-1)) q[0];\n", "4:1: error: domain error in sqrt()"),
        ("rx(1/0) q[0];\n", "4:1: error: division by zero in parameter expression"),
        ("gate g(x) a { rx(sqrt(x)) a; }\ng(-1) q[0];\n", "4:15: error: domain error in sqrt()"),
    ],
    ids=["top-level-domain", "top-level-division", "body-domain-at-call"],
)
def test_parameter_diagnostics_name_the_file(tmp_path, capsys, body, diagnostic):
    path = tmp_path / "params.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n' + body)
    assert main(["metrics", str(path)]) == 1
    assert capsys.readouterr().err.strip() == f"{path}:{diagnostic}"


def doubling_macros(levels: int) -> str:
    """Gate d<k> calls d<k-1> twice, so one call of d<levels> is 2**(levels+1) ops."""
    lines = ["gate d0 a { h a; h a; }"]
    lines += [f"gate d{k} a {{ d{k - 1} a; d{k - 1} a; }}" for k in range(1, levels + 1)]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "body, line",
    [
        ("qreg q[1];\n" + doubling_macros(19) + "d19 q[0];\n", 24),
        (f"qreg q[{MAX_PROGRAM_QUBITS}];\n" + "h q;\n" * 10, 8),
    ],
    ids=["doubling-macros", "wide-broadcasts"],
)
def test_too_many_operations_is_a_parse_time_diagnostic(tmp_path, capsys, body, line):
    path = tmp_path / "big.qasm"
    path.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\n' + body)
    start = time.perf_counter()
    assert main(["metrics", str(path), "--opt-level", "0"]) == 1
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err.strip()
    assert err == f"{path}:{line}:1: error: program expands to more than {MAX_PROGRAM_OPS} operations"


def test_operation_count_at_the_limit_is_accepted():
    widest = f"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[{MAX_PROGRAM_QUBITS}];\n"
    src = widest + "h q;\n" * (MAX_PROGRAM_OPS // MAX_PROGRAM_QUBITS)
    assert len(parse_qasm(src).statements) == 4
    with pytest.raises(QasmSemanticError, match="program expands to more than"):
        parse_qasm(src + "barrier q;\n")


def test_operation_count_is_what_lowering_emits(monkeypatch):
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nqreg r[3];\ncreg c[3];\n'
        "gate inner(t) a, b { rz(t) a; barrier a, b; CX a, b; }\n"
        "gate outer a, b { inner(0.5) a, b; h b; inner(pi) b, a; }\n"
        "outer q, r;\nouter q[0], r[1];\nif (c == 1) outer r, q;\n"
        "measure q -> c;\nreset r;\nreset q[2];\nbarrier q, r[0];\nU(0,0,0) q;\nCX q[1], r;\n"
    )
    n_ops = len(lower_ast_to_ir(parse_qasm(src)).ops)
    assert n_ops == 3 * 7 + 7 + 3 * 7 + 3 + 3 + 1 + 1 + 3 + 3
    monkeypatch.setattr(parser, "MAX_PROGRAM_OPS", n_ops)
    parse_qasm(src)
    monkeypatch.setattr(parser, "MAX_PROGRAM_OPS", n_ops - 1)
    with pytest.raises(QasmSemanticError, match=f"more than {n_ops - 1} operations"):
        parse_qasm(src)
