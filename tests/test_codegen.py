"""Textual QIR emission: golden module, formatting rules, verifier."""

import hashlib
import math
import shutil
import struct
import subprocess

import pytest

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.errors import CapacityError, EmitError
from qcc.ir import FusedUnitary, Inst, QRegister, QuantumProgram, QubitRef
from qcc.optimizer import NativeGateSet, optimize
from qcc.qir import emit_qir, reader, verify_qir_text
from qcc.qir.codegen import format_double
from qcc.routing import CouplingGraph, route_program

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


def kernel_body(text: str) -> list[str]:
    """The lines of the kernel function between its entry label and its closing brace."""
    lines = text.splitlines()
    start = lines.index("entry:") + 1
    return lines[start : lines.index("}", start)]


def test_runtime_frame_comes_from_registers():
    # a is never used, yet it is allocated and released like b.
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[2];\nqreg b[3];\nx b[1];\n'
    text = emit_qir(qasm_program(src)).text
    assert kernel_body(text) == [
        "  call void @__quantum__rt__initialize(i8* null)",
        "  %0 = call %Array* @__quantum__rt__qubit_allocate_array(i64 2)",
        "  %1 = call %Array* @__quantum__rt__qubit_allocate_array(i64 3)",
        "  %2 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %1, i64 1)",
        "  %3 = bitcast i8* %2 to %Qubit*",
        "  call void @__quantum__qis__x(%Qubit* %3)",
        "  call void @__quantum__rt__qubit_release_array(%Array* %1)",
        "  call void @__quantum__rt__qubit_release_array(%Array* %0)",
        "  call void @__quantum__rt__finalize()",
        "  ret void",
    ]
    assert verify_qir_text(text) == []
    empty = emit_qir(QuantumProgram(registers=[], cregs=[], ops=[])).text
    assert kernel_body(empty) == [
        "  call void @__quantum__rt__initialize(i8* null)",
        "  call void @__quantum__rt__finalize()",
        "  ret void",
    ]


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
    prog = QuantumProgram(
        registers=[QRegister(size=1, name="q")],
        cregs=[],
        ops=[FusedUnitary(QubitRef(0), ())],
    )
    with pytest.raises(EmitError, match="cannot emit op FusedUnitary"):
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


def test_reader_takes_a_constant_expression_operand_whole():
    assert reader._operands("%Qubit* inttoptr (i64 1 to %Qubit*)") == (("%Qubit*", "inttoptr (i64 1 to %Qubit*)"),)
    assert reader._operands("%Qubit* inttoptr (i64 0 to %Qubit*), double 0.5") == (
        ("%Qubit*", "inttoptr (i64 0 to %Qubit*)"),
        ("double", "0.5"),
    )
    # A parenthesis that does not close the part keeps the last word as the value.
    assert reader._operands("void (%Qubit*)* @f") == (("void (%Qubit*)*", "@f"),)
    # Commas inside brackets do not split.
    assert reader._operands("%Qubit* getelementptr (%Qubit, %Qubit* null, i64 1)") == (
        ("%Qubit*", "getelementptr (%Qubit, %Qubit* null, i64 1)"),
    )
    assert reader._operands("{ i32, i64 } %s, <2 x i32> %v, [2 x i8]* %a") == (
        ("{ i32, i64 }", "%s"),
        ("<2 x i32>", "%v"),
        ("[2 x i8]*", "%a"),
    )


def test_verifier_reads_a_constant_expression_operand_as_one_value():
    text = GHZ_QIR.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* inttoptr (i64 1 to %Qubit*))",
    )
    assert verify_qir_text(text) == []


def test_verifier_reads_a_struct_operand_as_one_value():
    text = """%Qubit = type opaque

declare void @g({ %Qubit*, i64 })

define void @f() {
entry:
  %s = insertvalue { %Qubit*, i64 } undef, i64 1, 1
  call void @g({ %Qubit*, i64 } %s)
  ret void
}
"""
    assert verify_qir_text(text) == []
    assert verify_qir_text(text.replace("} %s)", "} %t)")) == ["line 8: use of undefined value %t"]


def test_verifier_flags_unterminated_body():
    text = GHZ_QIR.replace("\n}\n", "\n")
    define = text.splitlines().index("define void @main() #0 {") + 1
    assert verify_qir_text(text) == [f"line {define}: unterminated function body"]


# ------------------------------------------------------------ pinned emission

# sha256 of the emitted QIR of each bundled benchmark per optimization level,
# unrouted (False) and routed on a 10-qubit line with seed 0 (True).  adder4
# declares four qregs, so its modules pin the allocation order of several
# registers and the reversed order of their releases.  A CapacityError is a
# pinned outcome too.
EMITTED_QIR_GOLDEN = {
    ("adder4", 0, False): "9e732eea9c724e60428a3c7e4dada6abb014452de78d3b407af74c90dde8b7cb",
    ("adder4", 0, True): "acef29607255c58789ba2d4160137d7f104e409bca2f748515fd0328f3160eb7",
    ("adder4", 1, False): "9e732eea9c724e60428a3c7e4dada6abb014452de78d3b407af74c90dde8b7cb",
    ("adder4", 1, True): "acef29607255c58789ba2d4160137d7f104e409bca2f748515fd0328f3160eb7",
    ("adder4", 2, False): "9e732eea9c724e60428a3c7e4dada6abb014452de78d3b407af74c90dde8b7cb",
    ("adder4", 2, True): "acef29607255c58789ba2d4160137d7f104e409bca2f748515fd0328f3160eb7",
    ("adder4", 3, False): "9e732eea9c724e60428a3c7e4dada6abb014452de78d3b407af74c90dde8b7cb",
    ("adder4", 3, True): "acef29607255c58789ba2d4160137d7f104e409bca2f748515fd0328f3160eb7",
    ("bv5", 0, False): "d7ebe7079e6da80ee9ee40fc5dcd81d5d9c351dd8b5d135bb415ba8014c0f94b",
    ("bv5", 0, True): "5197b7ffa467a3af9746ed0f879e8622fed15bee657dac662da2b3e98dc1ad5d",
    ("bv5", 1, False): "2c3032607b5e989eb59a7fd6c6f15675c493b5a432a43ff24eadddf6ac42eb6c",
    ("bv5", 1, True): "7f27fc4e3fc38399b27326bed39cfc0b058b909d5ec6ba307e9f43d13b2584a8",
    ("bv5", 2, False): "2c3032607b5e989eb59a7fd6c6f15675c493b5a432a43ff24eadddf6ac42eb6c",
    ("bv5", 2, True): "7f27fc4e3fc38399b27326bed39cfc0b058b909d5ec6ba307e9f43d13b2584a8",
    ("bv5", 3, False): "2c3032607b5e989eb59a7fd6c6f15675c493b5a432a43ff24eadddf6ac42eb6c",
    ("bv5", 3, True): "7f27fc4e3fc38399b27326bed39cfc0b058b909d5ec6ba307e9f43d13b2584a8",
    ("ghz3", 0, False): "472a000e5b42513e216b3bb463a05c1ac4c5103bed7061021c4d1dad9d362e8e",
    ("ghz3", 0, True): "b4cb428c69750bed4a72f1cde58b51c204be3aff80884d74e85da1f44f20294d",
    ("ghz3", 1, False): "472a000e5b42513e216b3bb463a05c1ac4c5103bed7061021c4d1dad9d362e8e",
    ("ghz3", 1, True): "b4cb428c69750bed4a72f1cde58b51c204be3aff80884d74e85da1f44f20294d",
    ("ghz3", 2, False): "472a000e5b42513e216b3bb463a05c1ac4c5103bed7061021c4d1dad9d362e8e",
    ("ghz3", 2, True): "b4cb428c69750bed4a72f1cde58b51c204be3aff80884d74e85da1f44f20294d",
    ("ghz3", 3, False): "472a000e5b42513e216b3bb463a05c1ac4c5103bed7061021c4d1dad9d362e8e",
    ("ghz3", 3, True): "b4cb428c69750bed4a72f1cde58b51c204be3aff80884d74e85da1f44f20294d",
    ("ghz5", 0, False): "51a404fb38299a5c568b76e31adae483186ca7e08a575ef0e4869206e267a22d",
    ("ghz5", 0, True): "51bc45a756b64c3b1a1b95ee57425b3ab3298788640e27aaed695a048ee0364d",
    ("ghz5", 1, False): "51a404fb38299a5c568b76e31adae483186ca7e08a575ef0e4869206e267a22d",
    ("ghz5", 1, True): "51bc45a756b64c3b1a1b95ee57425b3ab3298788640e27aaed695a048ee0364d",
    ("ghz5", 2, False): "51a404fb38299a5c568b76e31adae483186ca7e08a575ef0e4869206e267a22d",
    ("ghz5", 2, True): "51bc45a756b64c3b1a1b95ee57425b3ab3298788640e27aaed695a048ee0364d",
    ("ghz5", 3, False): "51a404fb38299a5c568b76e31adae483186ca7e08a575ef0e4869206e267a22d",
    ("ghz5", 3, True): "51bc45a756b64c3b1a1b95ee57425b3ab3298788640e27aaed695a048ee0364d",
    ("hs_chain", 0, False): "4dc181ec30256dad1a48767887302d67af4671500c05a6c13a126adbcfd47751",
    ("hs_chain", 0, True): "8e308da7d19920a2c7ad809d119e1939af802edf463cb4465e0f62da5c765604",
    ("hs_chain", 1, False): "6e2e22b815e74b328071b35696bc823c248ef022311566e399249cd4bfd613bb",
    ("hs_chain", 1, True): "ac720932f707c097b1bc481bc97a012b12909720157ff21a18184e0669fbac81",
    ("hs_chain", 2, False): "6e2e22b815e74b328071b35696bc823c248ef022311566e399249cd4bfd613bb",
    ("hs_chain", 2, True): "ac720932f707c097b1bc481bc97a012b12909720157ff21a18184e0669fbac81",
    ("hs_chain", 3, False): "6e2e22b815e74b328071b35696bc823c248ef022311566e399249cd4bfd613bb",
    ("hs_chain", 3, True): "ac720932f707c097b1bc481bc97a012b12909720157ff21a18184e0669fbac81",
    ("qft4", 0, False): "b53a6d8703017e6f1916486db09ec6ae26f4a5dd97c6f7877de8dd20d4826cbf",
    ("qft4", 0, True): "206daae7dd88612540167d607713c0d43c2482bd48e25356e8a7034dd5f14426",
    ("qft4", 1, False): "b53a6d8703017e6f1916486db09ec6ae26f4a5dd97c6f7877de8dd20d4826cbf",
    ("qft4", 1, True): "206daae7dd88612540167d607713c0d43c2482bd48e25356e8a7034dd5f14426",
    ("qft4", 2, False): "b53a6d8703017e6f1916486db09ec6ae26f4a5dd97c6f7877de8dd20d4826cbf",
    ("qft4", 2, True): "206daae7dd88612540167d607713c0d43c2482bd48e25356e8a7034dd5f14426",
    ("qft4", 3, False): "b53a6d8703017e6f1916486db09ec6ae26f4a5dd97c6f7877de8dd20d4826cbf",
    ("qft4", 3, True): "206daae7dd88612540167d607713c0d43c2482bd48e25356e8a7034dd5f14426",
    ("random_a", 0, False): "f9a7c900a1fc9feefdc375a1e5308113eb6bb939988c244575f7930073e84fc6",
    ("random_a", 0, True): "c3773af73afe3c29a20e298e74334d7eaf8a215cc16de55877c2669853b6767b",
    ("random_a", 1, False): "6d4b11731cc70424b601ee88438793c521bf29b60dff08dfd540a909ab0d9729",
    ("random_a", 1, True): "48c5d343ee8d061b411432cd3556ab081b23013ef56bc878e9dc5ce3a388f9c2",
    ("random_a", 2, False): "6d4b11731cc70424b601ee88438793c521bf29b60dff08dfd540a909ab0d9729",
    ("random_a", 2, True): "48c5d343ee8d061b411432cd3556ab081b23013ef56bc878e9dc5ce3a388f9c2",
    ("random_a", 3, False): "6d4b11731cc70424b601ee88438793c521bf29b60dff08dfd540a909ab0d9729",
    ("random_a", 3, True): "48c5d343ee8d061b411432cd3556ab081b23013ef56bc878e9dc5ce3a388f9c2",
    ("random_b", 0, False): "0e558b37301b98645626db6fb02d8327ae59e15994a257939177c179f2827538",
    ("random_b", 0, True): "1201ae77e26d145706dc49d70563e969fdb88ee869234d6fbfbbd732a9fe7a15",
    ("random_b", 1, False): "59a4576152ce5fef1b463e678788c3f9c79967c7597f7c6d92246c73805b93dc",
    ("random_b", 1, True): "21975849228473cc12928798c7f8735c2f52605d8dae8a5157fcfc64b8ea8c8b",
    ("random_b", 2, False): "59a4576152ce5fef1b463e678788c3f9c79967c7597f7c6d92246c73805b93dc",
    ("random_b", 2, True): "21975849228473cc12928798c7f8735c2f52605d8dae8a5157fcfc64b8ea8c8b",
    ("random_b", 3, False): "59a4576152ce5fef1b463e678788c3f9c79967c7597f7c6d92246c73805b93dc",
    ("random_b", 3, True): "21975849228473cc12928798c7f8735c2f52605d8dae8a5157fcfc64b8ea8c8b",
    ("toffoli_pair", 0, False): "ac5befaf81114b51e814b9bb7d832bec2d676c14047965a17d31beb29200f9ce",
    ("toffoli_pair", 0, True): "4488f2db8d3b95f5bca902e3dee9719f1e7cead9dbd5602a0d2b9a0a3b5838b9",
    ("toffoli_pair", 1, False): "fc9d4283dc27404c414398739ed99f4166b57675288f06f7ed97c0653d6159ce",
    ("toffoli_pair", 1, True): "5ab7bf069427981f4e9c8ca02a6139177f07a60128b5a84321a21dc487de6394",
    ("toffoli_pair", 2, False): "fc9d4283dc27404c414398739ed99f4166b57675288f06f7ed97c0653d6159ce",
    ("toffoli_pair", 2, True): "5ab7bf069427981f4e9c8ca02a6139177f07a60128b5a84321a21dc487de6394",
    ("toffoli_pair", 3, False): "fc9d4283dc27404c414398739ed99f4166b57675288f06f7ed97c0653d6159ce",
    ("toffoli_pair", 3, True): "5ab7bf069427981f4e9c8ca02a6139177f07a60128b5a84321a21dc487de6394",
}


# The same benchmarks and line under the native set rz,ry,cx, routed with
# seed 0: swap is not native, so every inserted swap is expanded to cx gates.
SWAPS_EXPANDED_QIR_GOLDEN = {
    ("adder4", 0): "87ee1c9c04752c11376232d5f0aaa81f79a119b15356215deebe2bcf46005af4",
    ("adder4", 1): "ceaf88ddef67618456482dc70847ebc294996971ac90e9ab57774a359b84fa94",
    ("adder4", 2): "ceaf88ddef67618456482dc70847ebc294996971ac90e9ab57774a359b84fa94",
    ("adder4", 3): "ceaf88ddef67618456482dc70847ebc294996971ac90e9ab57774a359b84fa94",
    ("bv5", 0): "c9d70c14a416eb76640b68bbc8a6252ea2129cf46d26f95294f237656183fb0e",
    ("bv5", 1): "14a270c6576d48ce2370498d5b44c8043e560c848ef109d49230f666f1c003ad",
    ("bv5", 2): "14a270c6576d48ce2370498d5b44c8043e560c848ef109d49230f666f1c003ad",
    ("bv5", 3): "14a270c6576d48ce2370498d5b44c8043e560c848ef109d49230f666f1c003ad",
    ("ghz3", 0): "393a46d49fcf8e7a0bad53d247aa3821e1311933741dd0dcb1ae2455ba2d57ab",
    ("ghz3", 1): "393a46d49fcf8e7a0bad53d247aa3821e1311933741dd0dcb1ae2455ba2d57ab",
    ("ghz3", 2): "393a46d49fcf8e7a0bad53d247aa3821e1311933741dd0dcb1ae2455ba2d57ab",
    ("ghz3", 3): "393a46d49fcf8e7a0bad53d247aa3821e1311933741dd0dcb1ae2455ba2d57ab",
    ("ghz5", 0): "f5fa7f3d91e3fa51e4154696fcbbf1ad0553cf129c912750d4ccd7bbb1370938",
    ("ghz5", 1): "f5fa7f3d91e3fa51e4154696fcbbf1ad0553cf129c912750d4ccd7bbb1370938",
    ("ghz5", 2): "f5fa7f3d91e3fa51e4154696fcbbf1ad0553cf129c912750d4ccd7bbb1370938",
    ("ghz5", 3): "f5fa7f3d91e3fa51e4154696fcbbf1ad0553cf129c912750d4ccd7bbb1370938",
    ("hs_chain", 0): "04b22a8b5e912d9685e789fbda02674bafd6ded73e93acf3f91e43d937e46270",
    ("hs_chain", 1): "a513e35a3ac139bf06c685983b1a674ae0b528bdeaf88ac7b2c79a5c8a9d985c",
    ("hs_chain", 2): "a513e35a3ac139bf06c685983b1a674ae0b528bdeaf88ac7b2c79a5c8a9d985c",
    ("hs_chain", 3): "a513e35a3ac139bf06c685983b1a674ae0b528bdeaf88ac7b2c79a5c8a9d985c",
    ("qft4", 0): "5513265df4a416787067a3c555c4098256a10f1d6581133657e739f930103330",
    ("qft4", 1): "5513265df4a416787067a3c555c4098256a10f1d6581133657e739f930103330",
    ("qft4", 2): "5513265df4a416787067a3c555c4098256a10f1d6581133657e739f930103330",
    ("qft4", 3): "5513265df4a416787067a3c555c4098256a10f1d6581133657e739f930103330",
    ("random_a", 0): "1afeaefebe15e48ef68aa0f174fa105f56c901798a6304e3cc968e8b3d4a087b",
    ("random_a", 1): "c27cb6aef28d22b3563281266c8a6d1abf3cb6ba4412cbee35a586634423686f",
    ("random_a", 2): "c27cb6aef28d22b3563281266c8a6d1abf3cb6ba4412cbee35a586634423686f",
    ("random_a", 3): "c27cb6aef28d22b3563281266c8a6d1abf3cb6ba4412cbee35a586634423686f",
    ("random_b", 0): "b80e14e6b871d1032c1c5c66e0bca45493c75e012cb526dc3403df4603c29834",
    ("random_b", 1): "28e9fc0888e60e04f08f6f85429e57e9ef2705adf609623c422cc909b6812544",
    ("random_b", 2): "28e9fc0888e60e04f08f6f85429e57e9ef2705adf609623c422cc909b6812544",
    ("random_b", 3): "28e9fc0888e60e04f08f6f85429e57e9ef2705adf609623c422cc909b6812544",
    ("toffoli_pair", 0): "6137510a15f86fd87b41e8592d9fd55df4033705ccedfd627fe35b7cca8bca41",
    ("toffoli_pair", 1): "8868e8ebdcdb727cfada80c75a32640eff4b5ea7395eeaf52215dad9c30cbf02",
    ("toffoli_pair", 2): "8868e8ebdcdb727cfada80c75a32640eff4b5ea7395eeaf52215dad9c30cbf02",
    ("toffoli_pair", 3): "8868e8ebdcdb727cfada80c75a32640eff4b5ea7395eeaf52215dad9c30cbf02",
}


def test_emitted_qir_is_pinned():
    line10 = CouplingGraph.from_edges(10, [[i, i + 1] for i in range(9)])
    digests = {}
    for name in list_benchmarks():
        for level in range(4):
            for routed in (False, True):
                prog = optimize(qasm_program(benchmark_source(name)), level)
                try:
                    if routed:
                        prog, _ = route_program(prog, line10, seed=0)
                    digests[(name, level, routed)] = hashlib.sha256(emit_qir(prog).text.encode()).hexdigest()
                except CapacityError:
                    digests[(name, level, routed)] = "CapacityError"
    assert digests == EMITTED_QIR_GOLDEN

    native = NativeGateSet.from_names(["rz", "ry", "cx"])
    expanded = {}
    for name in list_benchmarks():
        for level in range(4):
            prog = optimize(qasm_program(benchmark_source(name)), level, native)
            prog, _ = route_program(prog, line10, seed=0, native=native)
            expanded[(name, level)] = hashlib.sha256(emit_qir(prog).text.encode()).hexdigest()
    assert expanded == SWAPS_EXPANDED_QIR_GOLDEN


LLVM_AS = shutil.which("llvm-as")

MIXED = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
qreg r[2];
creg c[2];
creg d[1];
h q[0];
cx q[0],r[1];
barrier q, r[0];
measure q[0] -> c[0];
reset q[1];
if (c==1) x q[1];
if (c==1) cz q[1],r[0];
if (c==0) measure q[2] -> d[0];
if (d==1) u3(0.1,0.2,0.3) r[1];
measure r -> c;
"""


def assert_assembles(text: str) -> None:
    done = subprocess.run([LLVM_AS, "-", "-o", "/dev/null"], input=text, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


@pytest.mark.skipif(LLVM_AS is None, reason="llvm-as is not installed")
@pytest.mark.parametrize("name", list_benchmarks())
def test_bundled_benchmark_qir_assembles_with_llvm_as(name):
    line10 = CouplingGraph.from_edges(10, [[i, i + 1] for i in range(9)])
    for level in (0, 2):
        prog = optimize(qasm_program(benchmark_source(name)), level)
        routed, _ = route_program(prog, line10, seed=0)
        assert_assembles(emit_qir(prog).text)
        assert_assembles(emit_qir(routed).text)


@pytest.mark.skipif(LLVM_AS is None, reason="llvm-as is not installed")
@pytest.mark.parametrize("level", [0, 2])
def test_conditional_qir_assembles_with_llvm_as(level):
    prog = optimize(qasm_program(MIXED), level)
    conditions = [op.condition for op in prog.ops if isinstance(op, Inst) and op.condition is not None]
    assert len(conditions) > 3 and (0, 0) in conditions
    text = emit_qir(prog).text
    assert text.count("call i1 @__quantum__rt__creg_equal(") == len(conditions)
    assert "__quantum__qis__barrier" in text and "__quantum__qis__reset" in text
    assert_assembles(text)
    line5 = CouplingGraph.from_edges(5, [[i, i + 1] for i in range(4)])
    routed, _ = route_program(prog, line5, seed=0)
    assert len([op for op in routed.ops if isinstance(op, Inst) and op.condition is not None]) == len(conditions)
    assert_assembles(emit_qir(routed).text)
