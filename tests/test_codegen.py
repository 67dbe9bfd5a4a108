"""Textual QIR emission: golden module, formatting rules, verifier."""

import hashlib
import math
import shutil
import struct
import subprocess

import pytest

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.errors import CapacityError, EmitError
from qcc.ir import CRegister, FusedUnitary, Inst, QRegister, QuantumProgram, QubitRef
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


@pytest.mark.parametrize("condition", [None, (0, 1)])
def test_gate_name_without_a_qis_symbol_cannot_be_emitted(condition):
    prog = QuantumProgram(
        registers=[QRegister(size=1, name="q")],
        cregs=[CRegister(size=1, name="c")],
        ops=[Inst("x", (), (QubitRef(0),)), Inst("bad-name", (0.5,), (QubitRef(0),), condition=condition)],
    )
    with pytest.raises(EmitError, match="^gate name 'bad-name' has no QIS mapping$"):
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


def test_reader_takes_an_aggregate_constant_whole():
    assert reader._operands("<2 x i32> <i32 %a, i32 %b>") == (("<2 x i32>", "<i32 %a, i32 %b>"),)
    assert reader._operands("[2 x i8] [i8 1, i8 2], i64 %n") == (("[2 x i8]", "[i8 1, i8 2]"), ("i64", "%n"))
    assert reader._operands("{ i32, i64 } { i32 1, i64 %m }") == (("{ i32, i64 }", "{ i32 1, i64 %m }"),)
    # One bracketed group is a bare type, or else a value that takes the first operand's type.
    assert reader._operands("<2 x i32>, { i8*, i64 }, [4 x i8]") == (
        ("<2 x i32>", None),
        ("{ i8*, i64 }", None),
        ("[4 x i8]", None),
    )
    assert reader._operands("<2 x i32> %a, <i32 1, i32 %c>") == (("<2 x i32>", "%a"), ("", "<i32 1, i32 %c>"))


VECTOR_ADD = """define <2 x i32> @f(i32 %a, i32 %b) {
  %v = add <2 x i32> <i32 %a, i32 %b>, <i32 1, i32 1>
  ret <2 x i32> %v
}
"""


def test_verifier_checks_the_names_inside_an_aggregate_constant():
    assert verify_qir_text(VECTOR_ADD) == []
    assert verify_qir_text(VECTOR_ADD.replace("i32 %b>", "i32 %c>")) == ["line 2: use of undefined value %c"]
    assert verify_qir_text(VECTOR_ADD.replace("<i32 1, i32 1>", "<i32 1, i32 %c>")) == [
        "line 2: use of undefined value %c"
    ]


def test_verifier_checks_a_repeated_line_again_until_it_passes():
    # Line 5 uses %x before line 6 defines it; its repeats after that pass.  A
    # repeated line with a result is a second definition, and a repeated call
    # to an undeclared symbol is reported each time.
    text = """declare void @g(i64)

define void @f() {
entry:
  call void @g(i64 %x)
  %x = add i64 1, 2
  call void @g(i64 %x)
  call void @g(i64 %x)
  %x = add i64 1, 2
  call void @h(i64 %x)
  call void @h(i64 %x)
  ret void
}
"""
    assert verify_qir_text(text) == [
        "line 5: use of undefined value %x",
        "line 9: duplicate SSA definition %x",
        "line 10: call to undeclared symbol @h",
        "line 11: call to undeclared symbol @h",
    ]


TWO_FUNCTIONS = """declare void @g(i64)

define void @f(i64 %x) {
entry:
  call void @g(i64 %x)
  call void @g(i64 %x)
  ret void
}

define void @k() {
entry:
  call void @g(i64 %x)
  ret void
}
"""


def test_equal_lines_share_a_record_only_within_a_function():
    pairs = reader.read_qir(TWO_FUNCTIONS)
    calls = {line: record for line, record in pairs if record.opcode == "call"}
    assert sorted(calls) == [5, 6, 12]
    assert calls[5] is calls[6]
    assert calls[12] is not calls[5] and calls[12] != calls[5]
    assert (calls[5].function, calls[12].function) == (3, 10)
    assert "line" not in reader.Record._fields


def test_a_line_that_passed_in_one_function_is_checked_again_in_another():
    # @f's parameter defines %x, so its calls pass; @k never defines %x.
    assert verify_qir_text(TWO_FUNCTIONS) == ["line 12: use of undefined value %x"]


REPEATS = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[1];
rz(0.0) q[0];
rz(-0.0) q[0];
rz(0.0) q[0];
measure q[0] -> c[0];
measure q[0] -> c[0];
if (c==1) x q[1];
if (c==1) x q[1];
x q[1];
"""


def test_repeated_ops_emit_each_line_in_full():
    # A signed zero is its own line; a repeated measurement defines a new
    # result and a repeated conditioned op opens its own branch.
    text = emit_qir(qasm_program(REPEATS)).text
    body = text[text.index("  %4 = bitcast") :].splitlines()[1:-4]
    assert body == [
        "  call void @__quantum__qis__rz(double 0.000000e+00, %Qubit* %2)",
        "  call void @__quantum__qis__rz(double -0.000000e+00, %Qubit* %2)",
        "  call void @__quantum__qis__rz(double 0.000000e+00, %Qubit* %2)",
        "  %5 = call %Result* @__quantum__qis__m(%Qubit* %2)",
        "  %6 = call %Result* @__quantum__qis__m(%Qubit* %2)",
        "  %7 = call i1 @__quantum__rt__creg_equal(i64 0, i64 1)",
        "  br i1 %7, label %then.0, label %endif.0",
        "then.0:",
        "  call void @__quantum__qis__x(%Qubit* %4)",
        "  br label %endif.0",
        "endif.0:",
        "  %8 = call i1 @__quantum__rt__creg_equal(i64 0, i64 1)",
        "  br i1 %8, label %then.1, label %endif.1",
        "then.1:",
        "  call void @__quantum__qis__x(%Qubit* %4)",
        "  br label %endif.1",
        "endif.1:",
        "  call void @__quantum__qis__x(%Qubit* %4)",
        "  call void @__quantum__rt__qubit_release_array(%Array* %0)",
        "  call void @__quantum__rt__finalize()",
    ]
    declares = [line for line in text.splitlines() if line.startswith("declare void @__quantum__qis__")]
    assert declares == [
        "declare void @__quantum__qis__rz(double, %Qubit*)",
        "declare void @__quantum__qis__x(%Qubit*)",
    ]
    assert verify_qir_text(text) == []


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
    ("adder4", 0, False): "30de2974ffe8ac64c20e5c00e1d638ad81cdbfbdbac66e65c74f389d789af64e",
    ("adder4", 0, True): "c6485b5a824f65d96f90d2122f144ba2a21d282a0a7be41bce5eac8f747ff7f7",
    ("adder4", 1, False): "30de2974ffe8ac64c20e5c00e1d638ad81cdbfbdbac66e65c74f389d789af64e",
    ("adder4", 1, True): "c6485b5a824f65d96f90d2122f144ba2a21d282a0a7be41bce5eac8f747ff7f7",
    ("adder4", 2, False): "30de2974ffe8ac64c20e5c00e1d638ad81cdbfbdbac66e65c74f389d789af64e",
    ("adder4", 2, True): "c6485b5a824f65d96f90d2122f144ba2a21d282a0a7be41bce5eac8f747ff7f7",
    ("adder4", 3, False): "30de2974ffe8ac64c20e5c00e1d638ad81cdbfbdbac66e65c74f389d789af64e",
    ("adder4", 3, True): "c6485b5a824f65d96f90d2122f144ba2a21d282a0a7be41bce5eac8f747ff7f7",
    ("bv5", 0, False): "05ba4bb085b61e2d490d2d25cea7a6608b382fe11fd666383b75ef55c376b995",
    ("bv5", 0, True): "f7545ef09294b802bf341ea9b9e84007a4207da9bf86b5033e04ecbbee8354ad",
    ("bv5", 1, False): "4c501997830f8854b180921ad747233a837ec112883fe6fa25d8dc51cb49e53a",
    ("bv5", 1, True): "6dcba7d896c023b51d4cce15398aa6378dc577bceed41c67576532b7bb1861ef",
    ("bv5", 2, False): "4c501997830f8854b180921ad747233a837ec112883fe6fa25d8dc51cb49e53a",
    ("bv5", 2, True): "6dcba7d896c023b51d4cce15398aa6378dc577bceed41c67576532b7bb1861ef",
    ("bv5", 3, False): "4c501997830f8854b180921ad747233a837ec112883fe6fa25d8dc51cb49e53a",
    ("bv5", 3, True): "6dcba7d896c023b51d4cce15398aa6378dc577bceed41c67576532b7bb1861ef",
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
    ("hs_chain", 1, False): "1c39d49196c1d1784bc9551f74bcd7214969ee36f9fd475aa7867243bd4f17fe",
    ("hs_chain", 1, True): "01c1e62d42363027d1ecf868d5d97fe81f684a27b567f0c5eb1c89c1d5018d7e",
    ("hs_chain", 2, False): "1c39d49196c1d1784bc9551f74bcd7214969ee36f9fd475aa7867243bd4f17fe",
    ("hs_chain", 2, True): "01c1e62d42363027d1ecf868d5d97fe81f684a27b567f0c5eb1c89c1d5018d7e",
    ("hs_chain", 3, False): "1c39d49196c1d1784bc9551f74bcd7214969ee36f9fd475aa7867243bd4f17fe",
    ("hs_chain", 3, True): "01c1e62d42363027d1ecf868d5d97fe81f684a27b567f0c5eb1c89c1d5018d7e",
    ("qft4", 0, False): "35744f06ef02cb83ca6ee8c76d5875a58309d3ff00b5b5c3ed11861479f4208f",
    ("qft4", 0, True): "2f7faa299348e83a157c4ff7116ad31c6bdc4417563589af7235d35470733b10",
    ("qft4", 1, False): "35744f06ef02cb83ca6ee8c76d5875a58309d3ff00b5b5c3ed11861479f4208f",
    ("qft4", 1, True): "2f7faa299348e83a157c4ff7116ad31c6bdc4417563589af7235d35470733b10",
    ("qft4", 2, False): "35744f06ef02cb83ca6ee8c76d5875a58309d3ff00b5b5c3ed11861479f4208f",
    ("qft4", 2, True): "2f7faa299348e83a157c4ff7116ad31c6bdc4417563589af7235d35470733b10",
    ("qft4", 3, False): "35744f06ef02cb83ca6ee8c76d5875a58309d3ff00b5b5c3ed11861479f4208f",
    ("qft4", 3, True): "2f7faa299348e83a157c4ff7116ad31c6bdc4417563589af7235d35470733b10",
    ("random_a", 0, False): "21d58a828dc45879e70c5e72816af6ecb9f484f1f7711b8dcdc8846d61866620",
    ("random_a", 0, True): "1a0fd169312ed9aedb80dd8611338967201edd58357ffbd0fc4e3d7bf91ef3de",
    ("random_a", 1, False): "d30399537cf5eb1736895e2d247eaac6bf7dd96bb4ab9cf24fbad6d47fea4eba",
    ("random_a", 1, True): "5988941dc4d0e819db2ba340e7a79fd0d7e7d70640d528d01c3ee66de9927685",
    ("random_a", 2, False): "d30399537cf5eb1736895e2d247eaac6bf7dd96bb4ab9cf24fbad6d47fea4eba",
    ("random_a", 2, True): "5988941dc4d0e819db2ba340e7a79fd0d7e7d70640d528d01c3ee66de9927685",
    ("random_a", 3, False): "d30399537cf5eb1736895e2d247eaac6bf7dd96bb4ab9cf24fbad6d47fea4eba",
    ("random_a", 3, True): "5988941dc4d0e819db2ba340e7a79fd0d7e7d70640d528d01c3ee66de9927685",
    ("random_b", 0, False): "2b39312b1d37b62d9202a5b3802715cac60b3d2578ce213929ef813af8ca1179",
    ("random_b", 0, True): "5f87eaab5479c49cd9aaee2d80953bc913e319eef3636b36c8206807d8db5143",
    ("random_b", 1, False): "f143a96b7476a0f944a7a94ebab9cfe4adc90d53e2545cd5a7962db88096b6e8",
    ("random_b", 1, True): "2dfc7fef2a5dc66dd26868d68373b9cfc0e9cb2583e5d9ac34580b859b1b2534",
    ("random_b", 2, False): "f143a96b7476a0f944a7a94ebab9cfe4adc90d53e2545cd5a7962db88096b6e8",
    ("random_b", 2, True): "2dfc7fef2a5dc66dd26868d68373b9cfc0e9cb2583e5d9ac34580b859b1b2534",
    ("random_b", 3, False): "f143a96b7476a0f944a7a94ebab9cfe4adc90d53e2545cd5a7962db88096b6e8",
    ("random_b", 3, True): "2dfc7fef2a5dc66dd26868d68373b9cfc0e9cb2583e5d9ac34580b859b1b2534",
    ("toffoli_pair", 0, False): "8aa991347cacf374ee59a2b80f6e99d62e2467ee041b813c655869317c320e35",
    ("toffoli_pair", 0, True): "853c4bd428a0a4e574a1365c41b35c472f004adb2749c0f3547c397c623ec4d8",
    ("toffoli_pair", 1, False): "f1607264ccf39314922cc160b2ec2295df15cc1bfab49dfb1333733fc1b784d6",
    ("toffoli_pair", 1, True): "b8eb34a150c7b12aa170145cd0dc9d7da04dab4e97bd98ec55315b83491b9786",
    ("toffoli_pair", 2, False): "f1607264ccf39314922cc160b2ec2295df15cc1bfab49dfb1333733fc1b784d6",
    ("toffoli_pair", 2, True): "b8eb34a150c7b12aa170145cd0dc9d7da04dab4e97bd98ec55315b83491b9786",
    ("toffoli_pair", 3, False): "f1607264ccf39314922cc160b2ec2295df15cc1bfab49dfb1333733fc1b784d6",
    ("toffoli_pair", 3, True): "b8eb34a150c7b12aa170145cd0dc9d7da04dab4e97bd98ec55315b83491b9786",
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
    ("hs_chain", 1): "408f8bb2d9647b3858d241c3d419130c803d3782edcef0555b17ef10b61bd94f",
    ("hs_chain", 2): "408f8bb2d9647b3858d241c3d419130c803d3782edcef0555b17ef10b61bd94f",
    ("hs_chain", 3): "408f8bb2d9647b3858d241c3d419130c803d3782edcef0555b17ef10b61bd94f",
    ("qft4", 0): "48187a1411fe08577880cea1234b3153bf3262d4e8b339201f02427f591712ff",
    ("qft4", 1): "48187a1411fe08577880cea1234b3153bf3262d4e8b339201f02427f591712ff",
    ("qft4", 2): "48187a1411fe08577880cea1234b3153bf3262d4e8b339201f02427f591712ff",
    ("qft4", 3): "48187a1411fe08577880cea1234b3153bf3262d4e8b339201f02427f591712ff",
    ("random_a", 0): "73d627ebe47923aee349a303389d95d665baf8ef79a6298cfd0c7c4486fa9ed5",
    ("random_a", 1): "aab9936a2fa2b34fc53dc797e1b775209c028b73f610b07b2dded0535049808c",
    ("random_a", 2): "aab9936a2fa2b34fc53dc797e1b775209c028b73f610b07b2dded0535049808c",
    ("random_a", 3): "aab9936a2fa2b34fc53dc797e1b775209c028b73f610b07b2dded0535049808c",
    ("random_b", 0): "0134c04cbf2decf838115a0d62c38f2d9b97d7615dcb577feb436ec618b0b49b",
    ("random_b", 1): "e82aa5fa3df06f939412fdd1d6998c2f7f7f34393f8887dea2c12356908022c1",
    ("random_b", 2): "e82aa5fa3df06f939412fdd1d6998c2f7f7f34393f8887dea2c12356908022c1",
    ("random_b", 3): "e82aa5fa3df06f939412fdd1d6998c2f7f7f34393f8887dea2c12356908022c1",
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
