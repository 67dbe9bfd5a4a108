"""AST-to-IR lowering: macro inlining, broadcast, conditionals, register numbering."""

import pytest

from qcc.errors import QasmSemanticError
from qcc.ir import (
    Barrier,
    Inst,
    QubitRef,
    ResultRef,
)
from qcc.qasm import lower_ast_to_ir, parse_qasm
from qcc.qasm.qelib1 import gate_table
from qcc.qir import emit_qir

from conftest import qasm_program

GHZ = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q -> c;
"""


def q(i: int) -> QubitRef:
    return QubitRef(i)


def test_ghz_lowering_exact():
    prog = qasm_program(GHZ)
    assert prog.n_qubits == 3
    assert [r.name for r in prog.registers] == ["q"]
    assert [c.name for c in prog.cregs] == ["c"]
    assert prog.ops == [
        Inst(name="h", params=(), qubits=(q(0),)),
        Inst(name="cx", params=(), qubits=(q(0), q(1))),
        Inst(name="cx", params=(), qubits=(q(1), q(2))),
        Inst(name="measure", params=(), qubits=(q(0),), result=ResultRef(creg_id=0, index=0)),
        Inst(name="measure", params=(), qubits=(q(1),), result=ResultRef(creg_id=0, index=1)),
        Inst(name="measure", params=(), qubits=(q(2),), result=ResultRef(creg_id=0, index=2)),
    ]


def test_macro_inlined():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
        "gate foo a { h a; h a; }\nfoo q[0];\n"
    )
    prog = qasm_program(src)
    gates = [op for op in prog.ops if isinstance(op, Inst)]
    assert [g.name for g in gates] == ["h", "h"]
    assert all(g.qubits == (q(0),) for g in gates)


def test_macro_parameter_substitution():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
        "gate foo(a) x { rz(a/2) x; rz(-a) x; }\nfoo(1.0) q[0];\n"
    )
    prog = qasm_program(src)
    gates = [op for op in prog.ops if isinstance(op, Inst)]
    assert [(g.name, g.params) for g in gates] == [("rz", (0.5,)), ("rz", (-1.0,))]


def test_nested_macros_inline_fully():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "gate inner a { h a; }\n"
        "gate outer a, b { inner a; cx a, b; inner b; }\n"
        "outer q[0], q[1];\n"
    )
    prog = qasm_program(src)
    names = [op.name for op in prog.ops if isinstance(op, Inst)]
    assert names == ["h", "cx", "h"]


def test_recursive_macro_rejected():
    # Mutual recursion needs a forward reference, which define-before-use rejects.
    src = "OPENQASM 2.0;\nqreg q[1];\ngate a x { b x; }\ngate b x { a x; }\nb q[0];\n"
    with pytest.raises(QasmSemanticError, match="undeclared gate 'b'"):
        qasm_program(src)


def test_self_recursive_macro_rejected():
    src = "OPENQASM 2.0;\nqreg q[1];\ngate a x { a x; }\na q[0];\n"
    with pytest.raises(QasmSemanticError, match="recursive"):
        qasm_program(src)


def test_broadcast_expands_ascending():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nx q;\n'
    prog = qasm_program(src)
    gates = [op for op in prog.ops if isinstance(op, Inst)]
    assert [g.qubits[0].logical_id for g in gates] == [0, 1, 2, 3]


def test_builtin_u_lowered_to_u3():
    src = "OPENQASM 2.0;\nqreg q[2];\nU(0.1,0.2,0.3) q[0];\nCX q[0],q[1];\n"
    prog = qasm_program(src)
    gates = [op for op in prog.ops if isinstance(op, Inst)]
    assert gates[0].name == "u3" and gates[0].params == (0.1, 0.2, 0.3)
    assert gates[1].name == "cx"


def test_qelib1_gates_stay_primitive():
    # standard-library gates are never expanded into their definitions
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nccx q[0],q[1],q[2];\nch q[0],q[1];\n'
    prog = qasm_program(src)
    names = [op.name for op in prog.ops if isinstance(op, Inst)]
    assert names == ["ccx", "ch"]


def test_conditional_region_shape():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "if (c == 1) z q[1];\n"
    )
    prog = qasm_program(src)
    conditioned = [op for op in prog.ops if isinstance(op, Inst) and op.condition is not None]
    assert len(conditioned) == 1
    gate = conditioned[0]
    assert gate.condition == (0, 1)
    assert gate.name == "z"
    assert gate.qubits == (QubitRef(1),)


def test_conditional_broadcast_splits_per_gate():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\n'
        "if (c == 1) x q;\n"
    )
    prog = qasm_program(src)
    conditioned = [op for op in prog.ops if isinstance(op, Inst) and op.condition is not None]
    assert len(conditioned) == 3
    assert [g.qubits[0].logical_id for g in conditioned] == [0, 1, 2]
    assert all(g.condition == (0, 1) for g in conditioned)


def test_barrier_collects_qubits():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbarrier q;\n'
    prog = qasm_program(src)
    barriers = [op for op in prog.ops if isinstance(op, Barrier)]
    assert len(barriers) == 1
    assert [ref.logical_id for ref in barriers[0].qubits] == [0, 1]


def test_reset_is_an_inst():
    src = "OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\nreset q[0];\nif (c==1) reset q[0];\n"
    prog = qasm_program(src)
    assert prog.ops == [Inst("reset", (), (q(0),)), Inst("reset", (), (q(0),), condition=(0, 1))]


def test_two_registers_get_disjoint_logical_ids():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[2];\nqreg b[2];\ncx a[1], b[0];\n'
    prog = qasm_program(src)
    assert prog.n_qubits == 4
    gate = [op for op in prog.ops if isinstance(op, Inst)][0]
    assert [ref.logical_id for ref in gate.qubits] == [1, 2]
    # the emitter takes logical qubit 2, b[0], as element 0 of the second array
    assert "@__quantum__rt__array_get_element_ptr(%Array* %1, i64 0)" in emit_qir(prog).text


def test_inlining_is_complete_on_corpus(corpus_programs):
    allowed = set(gate_table()) | {"measure", "reset"}
    for prog, _ in corpus_programs[:100]:
        for op in prog.ops:
            if isinstance(op, Inst):
                assert op.name in allowed
