"""Textual QIR emission: golden module, formatting rules, verifier."""

import math
import struct

import numpy as np
import pytest

from qcc.errors import EmitError
from qcc.ir import Dealloc, FusedUnitary, Qalloc, QRegister, QuantumProgram, QubitRef
from qcc.qir import emit_qir, verify_qir_text
from qcc.qir.codegen import format_double

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

GHZ_QIR = """\
; ModuleID = 'main'
; quantum kernel: main
; result 0 (%7) -> c[0]
; result 1 (%8) -> c[1]
; result 2 (%9) -> c[2]

%Array = type opaque
%Qubit = type opaque
%Result = type opaque

declare void @__quantum__rt__initialize(i8*)
declare void @__quantum__rt__finalize()
declare %Array* @__quantum__rt__qubit_allocate_array(i64)
declare void @__quantum__rt__qubit_release_array(%Array*)
declare i8* @__quantum__rt__array_get_element_ptr(%Array*, i64)
declare void @__quantum__qis__h(%Qubit*)
declare void @__quantum__qis__cx(%Qubit*, %Qubit*)
declare %Result* @__quantum__qis__m(%Qubit*)

define void @main() #0 {
entry:
  call void @__quantum__rt__initialize(i8* null)
  %0 = call %Array* @__quantum__rt__qubit_allocate_array(i64 3)
  %1 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 0)
  %2 = bitcast i8* %1 to %Qubit*
  %3 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 1)
  %4 = bitcast i8* %3 to %Qubit*
  %5 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 2)
  %6 = bitcast i8* %5 to %Qubit*
  call void @__quantum__qis__h(%Qubit* %2)
  call void @__quantum__qis__cx(%Qubit* %2, %Qubit* %4)
  call void @__quantum__qis__cx(%Qubit* %4, %Qubit* %6)
  %7 = call %Result* @__quantum__qis__m(%Qubit* %2)
  %8 = call %Result* @__quantum__qis__m(%Qubit* %4)
  %9 = call %Result* @__quantum__qis__m(%Qubit* %6)
  call void @__quantum__rt__qubit_release_array(%Array* %0)
  call void @__quantum__rt__finalize()
  ret void
}

attributes #0 = { "quantum" }
"""


def test_ghz_golden_module():
    mod = emit_qir(qasm_program(GHZ))
    assert mod.text == GHZ_QIR
    assert mod.kernel_name == "main"


def test_emission_is_deterministic():
    texts = {emit_qir(qasm_program(GHZ)).text for _ in range(3)}
    assert len(texts) == 1


def test_kernel_name_parameter():
    mod = emit_qir(qasm_program(GHZ), kernel_name="bell_prep")
    assert "define void @bell_prep() #0 {" in mod.text
    assert "; quantum kernel: bell_prep" in mod.text


def test_invalid_kernel_name_rejected():
    with pytest.raises(EmitError):
        emit_qir(qasm_program(GHZ), kernel_name="not a symbol")
    with pytest.raises(EmitError):
        emit_qir(qasm_program(GHZ), kernel_name="7начало")


def test_empty_program_module():
    mod = emit_qir(qasm_program("OPENQASM 2.0;\n"))
    assert "call void @__quantum__rt__initialize(i8* null)" in mod.text
    assert "call void @__quantum__rt__finalize()" in mod.text
    assert "allocate_array" not in mod.text
    assert verify_qir_text(mod.text) == []


def test_declarations_cover_used_symbols_only():
    mod = emit_qir(qasm_program(GHZ))
    assert "declare void @__quantum__qis__h(%Qubit*)" in mod.text
    assert "__quantum__qis__rz" not in mod.text
    assert "creg_equal" not in mod.text


def test_double_operand_formats():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(0.5) q[0];\nrz(pi/2) q[0];\n'
    text = emit_qir(qasm_program(src)).text
    assert "call void @__quantum__qis__rz(double 5.000000e-01, %Qubit* %2)" in text
    assert "call void @__quantum__qis__rz(double 0x3FF921FB54442D18, %Qubit* %2)" in text


def test_format_double_round_trips():
    # short form only when the decimal rendering reproduces the exact bits
    assert format_double(0.5) == "5.000000e-01"
    assert format_double(-0.25) == "-2.500000e-01"
    assert float(format_double(1e300)) == 1e300
    hexed = format_double(math.pi / 2)
    assert hexed.startswith("0x") and len(hexed) == 18
    bits = struct.unpack(">d", bytes.fromhex(hexed[2:]))[0]
    assert bits == math.pi / 2


def test_conditional_control_flow_shape():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\n'
        "measure q[0] -> c[0];\nif (c == 1) x q[1];\n"
    )
    text = emit_qir(qasm_program(src)).text
    assert "declare i1 @__quantum__rt__creg_equal(i64, i64)" in text
    assert "= call i1 @__quantum__rt__creg_equal(i64 0, i64 1)" in text
    assert "br i1 %" in text and "label %then.0, label %endif.0" in text
    assert "then.0:" in text and "endif.0:" in text
    assert "br label %endif.0" in text
    assert verify_qir_text(text) == []


def test_barrier_emits_variadic_call():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nbarrier q;\n'
    text = emit_qir(qasm_program(src)).text
    assert "declare void @__quantum__qis__barrier(...)" in text
    assert "call void (...) @__quantum__qis__barrier(%Qubit* %2, %Qubit* %4)" in text


def test_result_map_comments():
    text = emit_qir(qasm_program(GHZ)).text
    assert "; result 0 (%7) -> c[0]" in text
    assert "; result 2 (%9) -> c[2]" in text


def test_fused_unitary_cannot_be_emitted():
    reg = QRegister(register_id=0, size=1, name="q")
    prog = QuantumProgram(
        registers=[reg],
        cregs=[],
        ops=[
            Qalloc(register=reg),
            FusedUnitary(QubitRef(0, 0, 0), np.eye(2, dtype=complex), ()),
            Dealloc(register=reg),
        ],
    )
    with pytest.raises(EmitError, match="decompose before emission"):
        emit_qir(prog)


def test_call_order_matches_program_order():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "x q[0];\ny q[1];\ncx q[0],q[1];\nz q[0];\n"
    )
    text = emit_qir(qasm_program(src)).text
    qis_lines = [l for l in text.splitlines() if "@__quantum__qis__" in l and "declare" not in l]
    names = [l.split("@__quantum__qis__")[1].split("(")[0] for l in qis_lines]
    assert names == ["x", "y", "cx", "z"]


def test_corpus_modules_verify_clean(corpus_programs):
    for prog, _ in corpus_programs[:40]:
        assert verify_qir_text(emit_qir(prog).text) == []


# ------------------------------------------------------------- verifier


def test_verifier_accepts_golden():
    assert verify_qir_text(GHZ_QIR) == []


def test_verifier_flags_undeclared_callee():
    broken = GHZ_QIR.replace(
        "  call void @__quantum__qis__h(%Qubit* %2)\n",
        "  call void @__quantum__qis__mystery(%Qubit* %2)\n",
    )
    diags = verify_qir_text(broken)
    assert len(diags) == 1
    assert "mystery" in diags[0]


def test_verifier_flags_duplicate_ssa_definition():
    broken = GHZ_QIR.replace(
        "  %3 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 1)",
        "  %2 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 1)",
    )
    diags = verify_qir_text(broken)
    assert any("%2" in d for d in diags)


def test_verifier_flags_use_before_definition():
    broken = GHZ_QIR.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* %99)",
    )
    diags = verify_qir_text(broken)
    assert any("%99" in d for d in diags)


def test_verifier_flags_unbalanced_parens():
    broken = GHZ_QIR.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* %2",
    )
    assert verify_qir_text(broken) != []


def test_verifier_accepts_parameters_as_defined():
    text = "define i32 @add(i32 %a, i32 %b) {\nentry:\n  %0 = add i32 %a, %b\n  ret i32 %0\n}\n"
    assert verify_qir_text(text) == []


def test_verifier_accepts_labels_as_defined():
    text = "define void @f() {\nentry:\n  br label %next\nnext:\n  ret void\n}\n"
    assert verify_qir_text(text) == []


def test_verifier_flags_unknown_instruction():
    broken = GHZ_QIR.replace(
        "  call void @__quantum__qis__h(%Qubit* %2)\n",
        "  cal void @__quantum__qis__h(%Qubit* %2)\n",
    )
    line = broken.splitlines().index("  cal void @__quantum__qis__h(%Qubit* %2)") + 1
    assert verify_qir_text(broken) == [f"line {line}: unknown instruction 'cal'"]


def test_verifier_flags_unterminated_body():
    text = GHZ_QIR.replace("\n}\n", "\n")
    define = text.splitlines().index("define void @main() #0 {") + 1
    assert verify_qir_text(text) == [f"line {define}: unterminated function body"]
