"""Parser unit tests: AST shape, diagnostics, expression grammar, round-trip."""

import math
import re

import numpy as np
import pytest

from qcc.cli import main
from qcc.errors import QasmSemanticError, QasmSyntaxError
from qcc.qasm import parse_qasm, to_qasm
from qcc.qasm.ast import Argument, GateCall, Measure, RegDecl
from qcc.qasm.parser import MAX_EXPR_DEPTH

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


def test_division_by_zero_in_parameter():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(1/0) q[0];\n'
    with pytest.raises(QasmSemanticError, match="division by zero"):
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
    ],
    ids=["parentheses", "unary-minus", "power-chain", "sum-chain"],
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
