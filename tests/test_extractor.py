"""QIR kernel discovery and circuit extraction, including the emit round-trip."""

import hashlib
import math
import re
import time

import pytest

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.cli import main
from qcc.driver import read_program
from qcc.errors import ExtractionError
from qcc.ir import Barrier, build_dag
from qcc.optimizer import NativeGateSet, optimize
from qcc.qasm.parser import MAX_PROGRAM_QUBITS
from qcc.qir import emit_qir, extract_circuit, extract_program, extractor, find_quantum_kernels, reader
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


def test_ghz_roundtrip_gates():
    mod = emit_qir(qasm_program(GHZ))
    gates, program = extract_program(mod.text)
    dag = build_dag(program)
    assert [(g.kind, g.name, g.operands) for g in gates] == [
        ("single-qubit", "h", (0,)),
        ("two-qubit", "cx", (0, 1)),
        ("two-qubit", "cx", (1, 2)),
        ("measure", "m", (0,)),
        ("measure", "m", (1,)),
        ("measure", "m", (2,)),
    ]
    assert [n.node_id for n in dag.nodes if not dag.predecessors[n.node_id]] == [0]


def test_roundtrip_dag_is_isomorphic_to_source():
    prog = qasm_program(GHZ)
    original = build_dag(prog)
    extracted = build_dag(extract_program(emit_qir(prog).text)[1])
    # node ids, names, qubits and edges must line up one to one
    assert len(extracted.nodes) == len(original.nodes)
    for a, b in zip(extracted.nodes, original.nodes):
        assert (a.node_id, a.name, a.qubits) == (b.node_id, b.name, b.qubits)
    assert extracted.successors == original.successors


def test_roundtrip_parameters_and_hex_doubles():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
        "rz(0.5) q[0];\nrz(pi/2) q[0];\nu3(0.1,-0.2,0.3) q[0];\n"
    )
    gates, _ = extract_circuit(emit_qir(qasm_program(src)).text)
    assert gates[0].params == (0.5,)
    assert gates[1].params == (math.pi / 2,)  # exact: hex bits round-trip
    assert gates[2].params == (0.1, -0.2, 0.3)


def test_find_kernels_returns_bodies_in_order():
    a = emit_qir(qasm_program(GHZ), kernel_name="first").text
    b = emit_qir(
        qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n'),
        kernel_name="second",
    ).text
    # a module with two kernels: keep the declares of one copy, append the
    # other define block
    second_define = b[b.index("define") :]
    combined = a + "\n" + second_define
    kernels = find_quantum_kernels(combined)
    assert len(kernels) == 2
    assert "__quantum__qis__h" in {r.name for r in kernels[0]}
    assert "__quantum__qis__x" in {r.name for r in kernels[1]}


def test_module_text_must_hold_exactly_one_kernel():
    bell = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[2];\nh q[0];\ncx q[0],q[1];\nmeasure q -> c;\n'
    first = emit_qir(qasm_program(bell), kernel_name="first").text
    second = emit_qir(qasm_program(bell), kernel_name="second").text
    # the second kernel's SSA names moved past the first's, so that no name is bound twice
    text = first + re.sub(r"%(\d+)", lambda m: f"%{int(m[1]) + 10}", second[second.index("define") :])
    kernels = find_quantum_kernels(text)
    assert [(len(gates), program.n_qubits) for gates, program in map(extract_program, kernels)] == [(4, 2), (4, 2)]
    # not one kernel of 8 gates on 4 qubits
    with pytest.raises(ExtractionError, match="^expected exactly one quantum kernel, found 2$"):
        extract_program(text)
    with pytest.raises(ExtractionError, match="^expected exactly one quantum kernel, found 0$"):
        extract_program(first[: first.index("define")])


READ_PATHS = {
    "read_program": lambda one, two: read_program(str(one)).n_qubits == 3,
    "extract": lambda one, two: main(["extract", str(two)]) == 0,
    "simulate": lambda one, two: main(["simulate", str(one)]) == 0,
    "metrics": lambda one, two: main(["metrics", str(one)]) == 0,
    "find-then-extract": lambda one, two: len(extract_circuit(find_quantum_kernels(one.read_text())[0])[0]) == 6,
}


@pytest.mark.parametrize("path", READ_PATHS)
def test_every_qir_input_path_reads_its_module_once(tmp_path, monkeypatch, path):
    one = tmp_path / "x.ll"
    one.write_text(emit_qir(qasm_program(GHZ)).text)
    second = emit_qir(qasm_program('OPENQASM 2.0;\nqreg q[1];\nU(0,0,0) q[0];\n'), kernel_name="second").text
    two = tmp_path / "two_kernels.ll"
    u3 = "declare void @__quantum__qis__u3(double, double, double, %Qubit*)\n"  # after the body: no line moves
    two.write_text(emit_qir(qasm_program(GHZ), kernel_name="first").text + second[second.index("define") :] + u3)
    reads = []
    real = extractor.read_qir
    monkeypatch.setattr(extractor, "read_qir", lambda text: reads.append(text) or real(text))
    assert READ_PATHS[path](one, two)
    assert len(reads) == 1


def test_each_distinct_gate_line_is_decoded_once(monkeypatch):
    source = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\n'
        "h q[0];\nrz(0.25) q[1];\ncx q[0],q[1];\nbarrier q;\nu3(0.1,-0.2,0.3) q[2];\nccx q[0],q[1],q[2];\n"
        "measure q[2] -> c[0];\nreset q[2];\n"
    )
    text = emit_qir(qasm_program(source)).text
    once, program = extract_program(text)
    # every gate line three times: as written, with a tail marker, as written
    lines = []
    for line in text.splitlines():
        times = 3 if line.startswith("  call void @__quantum__qis__") else 1
        lines += [line, line.replace("call", "tail call", 1), line][:times]
    parsed = []
    real = reader._operands
    monkeypatch.setattr(reader, "_operands", lambda args: parsed.append(args) or real(args))
    gates, tripled = extract_program("\n".join(lines) + "\n")
    # preamble, gates, barrier and measurement alike: one operand split per distinct line
    assert sorted(parsed) == sorted(r.args for r in reader.read_qir(text) if r.kind == "inst" and r.opcode != "ret")
    assert all(f"@__quantum__qis__{g.name}(" in lines[g.line - 1] for g in gates)
    assert len({g.line for g in gates}) == len(gates)
    copies = [3 if g.kind != "measure" else 1 for g in once]
    assert [g[:4] for g in gates] == [g[:4] for g, n in zip(once, copies) for _ in range(n)]
    assert tripled.ops == [op for op in program.ops for _ in range(1 if isinstance(op, Barrier) or op.result else 3)]


def test_classical_only_module_has_no_kernels():
    classical = (
        "define i32 @add(i32 %a, i32 %b) {\nentry:\n  %0 = add i32 %a, %b\n  ret i32 %0\n}\n"
    )
    assert find_quantum_kernels(classical) == []


def test_malformed_define_rejected():
    with pytest.raises(ExtractionError, match="malformed"):
        find_quantum_kernels("define void @broken( {\nentry:\n")


def test_unterminated_body_rejected():
    text = 'define void @k() #0 {\nentry:\n  call void @__quantum__qis__h(%Qubit* %2)\n'
    with pytest.raises(ExtractionError, match="unterminated"):
        find_quantum_kernels(text)


def test_branching_kernel_rejected():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "measure q[0] -> c[0];\nif (c == 1) x q[0];\n"
    )
    mod = emit_qir(qasm_program(src))
    with pytest.raises(ExtractionError, match="straight-line"):
        extract_circuit(mod.text)


def test_ssa_renumbering_is_harmless():
    mod = emit_qir(qasm_program(GHZ))
    renumbered = re.sub(r"%(\d+)\b", lambda m: f"%{int(m.group(1)) + 17}", mod.text)
    gates, _ = extract_circuit(renumbered)
    assert [(g.name, g.operands) for g in gates] == [
        ("h", (0,)),
        ("cx", (0, 1)),
        ("cx", (1, 2)),
        ("m", (0,)),
        ("m", (1,)),
        ("m", (2,)),
    ]


def test_two_allocations_get_dense_ids():
    body = """define void @k() #0 {
entry:
  call void @__quantum__rt__initialize(i8* null)
  %0 = call %Array* @__quantum__rt__qubit_allocate_array(i64 2)
  %1 = call %Array* @__quantum__rt__qubit_allocate_array(i64 2)
  %2 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 0)
  %3 = bitcast i8* %2 to %Qubit*
  %4 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %1, i64 1)
  %5 = bitcast i8* %4 to %Qubit*
  call void @__quantum__qis__cx(%Qubit* %3, %Qubit* %5)
  call void @__quantum__rt__finalize()
  ret void
}
declare void @__quantum__rt__initialize(i8*)
declare void @__quantum__rt__finalize()
declare %Array* @__quantum__rt__qubit_allocate_array(i64)
declare i8* @__quantum__rt__array_get_element_ptr(%Array*, i64)
declare void @__quantum__qis__cx(%Qubit*, %Qubit*)
"""
    gates, _ = extract_circuit(body)
    # first array holds ids 0..1, second 2..3; element 1 of the second is 3
    assert gates[0].operands == (0, 3)


def test_each_array_is_released_once_in_either_order():
    text = emit_qir(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[2];\nqreg b[3];\nx b[1];\n')).text
    gates, program = extract_program(text)
    assert [(g.name, g.operands) for g in gates] == [("x", (3,))] and program.n_qubits == 5
    release_a, release_b = (f"  call void @__quantum__rt__qubit_release_array(%Array* %{i})\n" for i in (0, 1))
    assert release_b + release_a in text
    assert extract_program(text.replace(release_b + release_a, release_a + release_b)) == (gates, program)


def test_untracked_operand_rejected():
    mod = emit_qir(qasm_program(GHZ))
    broken = mod.text.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* %99)",
    )
    with pytest.raises(ExtractionError, match="never extracted"):
        extract_circuit(broken)


def test_constant_expression_qubit_is_named_whole(tmp_path, capsys):
    text = emit_qir(qasm_program(GHZ)).text.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* inttoptr (i64 1 to %Qubit*))",
    )
    message = "qubit operand inttoptr (i64 1 to %Qubit*) was never extracted from an array"
    with pytest.raises(ExtractionError, match=re.escape(message)):
        extract_program(text)
    path = tmp_path / "static.qir.ll"
    path.write_text(text)
    assert main(["extract", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_constant_expression_with_commas_is_named_whole(tmp_path, capsys):
    text = emit_qir(qasm_program(GHZ)).text.replace(
        "call void @__quantum__qis__h(%Qubit* %2)",
        "call void @__quantum__qis__h(%Qubit* getelementptr (%Qubit, %Qubit* null, i64 1))",
    )
    message = "qubit operand getelementptr (%Qubit, %Qubit* null, i64 1) was never extracted from an array"
    with pytest.raises(ExtractionError, match=re.escape(message)):
        extract_program(text)
    path = tmp_path / "gep.qir.ll"
    path.write_text(text)
    assert main(["extract", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_out_of_range_index_rejected():
    body = """define void @k() #0 {
entry:
  %0 = call %Array* @__quantum__rt__qubit_allocate_array(i64 2)
  %1 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 5)
  %2 = bitcast i8* %1 to %Qubit*
  call void @__quantum__qis__h(%Qubit* %2)
  ret void
}
"""
    with pytest.raises(ExtractionError, match="range"):
        extract_circuit(body)


def test_repeated_operand_rejected():
    mod = emit_qir(
        qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\n')
    )
    broken = mod.text.replace(
        "call void @__quantum__qis__cx(%Qubit* %2, %Qubit* %4)",
        "call void @__quantum__qis__cx(%Qubit* %2, %Qubit* %2)",
    )
    with pytest.raises(ExtractionError, match="repeats"):
        extract_circuit(broken)


def test_barriers_roundtrip_as_fences():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "h q[0];\nbarrier q;\nh q[1];\n"
    )
    prog = qasm_program(src)
    original = build_dag(prog)
    extracted = build_dag(extract_program(emit_qir(prog).text)[1])
    assert len(extracted.nodes) == 2
    assert extracted.successors == original.successors


def test_roundtrip_on_corpus_sample(corpus_programs):
    from qcc.ir import Inst

    for prog, _ in corpus_programs[:40]:
        mod = emit_qir(prog)
        gates, extracted = extract_program(mod.text)
        dag = build_dag(extracted)
        insts = [op for op in prog.ops if isinstance(op, Inst)]
        assert len(gates) == len(insts)
        for g, inst in zip(gates, insts):
            assert g.name == inst.name
            assert g.operands == tuple(q.logical_id for q in inst.qubits)
            assert g.params == pytest.approx(inst.params, abs=1e-15)
        original = build_dag(prog)
        assert dag.successors == original.successors


def test_extracted_kernels_emit_again(corpus_programs):
    # One emit of an extracted kernel reaches the fixpoint of emit after extract.
    sources = [qasm_program(benchmark_source(name)) for name in list_benchmarks()]
    sources += [prog for prog, _ in corpus_programs[:100]]
    for prog in sources:
        once = emit_qir(extract_program(emit_qir(optimize(prog, 1)).text)[1]).text
        assert emit_qir(extract_program(once)[1]).text == once


def allocating_kernel(count):
    return f"""define void @k() #0 {{
entry:
  %0 = call %Array* @__quantum__rt__qubit_allocate_array(i64 {count})
  %1 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 0)
  %2 = bitcast i8* %1 to %Qubit*
  call void @__quantum__qis__h(%Qubit* %2)
  ret void
}}
"""


def test_allocation_beyond_the_qubit_cap_is_rejected_fast():
    start = time.perf_counter()
    with pytest.raises(ExtractionError, match=f"^line 3: kernel allocates more than {MAX_PROGRAM_QUBITS} qubits$"):
        extract_circuit(allocating_kernel(1_000_000_000))
    assert time.perf_counter() - start < 0.5


def test_allocations_are_capped_in_total():
    body = allocating_kernel(MAX_PROGRAM_QUBITS).replace(
        "  ret void", "  %3 = call %Array* @__quantum__rt__qubit_allocate_array(i64 1)\n  ret void"
    )
    with pytest.raises(ExtractionError, match="^line 7: kernel allocates more than"):
        extract_circuit(body)


def test_allocation_at_the_qubit_cap_is_accepted():
    declares = (
        "declare %Array* @__quantum__rt__qubit_allocate_array(i64)\n"
        "declare i8* @__quantum__rt__array_get_element_ptr(%Array*, i64)\n"
        "declare void @__quantum__qis__h(%Qubit*)\n"
    )
    gates, _ = extract_circuit(allocating_kernel(MAX_PROGRAM_QUBITS) + declares)
    assert [(g.name, g.operands) for g in gates] == [("h", (0,))]


@pytest.mark.parametrize("count, index", [("9" * 5000, "0"), ("2", "9" * 5000)])
def test_overlong_integer_literal_is_rejected(count, index):
    body = allocating_kernel(count).replace("(%Array* %0, i64 0)", f"(%Array* %0, i64 {index})")
    with pytest.raises(ExtractionError, match="^line [34]: integer literal longer than 19 digits$"):
        extract_circuit(body)


def test_tail_call_marker_is_read():
    text = emit_qir(qasm_program(GHZ)).text
    marked = text.replace("  call void @__quantum__qis__", "  tail call void @__quantum__qis__")
    assert marked != text
    assert extract_circuit(marked)[0] == extract_circuit(text)[0]


def test_unknown_instruction_names_its_module_line():
    text = emit_qir(qasm_program(GHZ)).text
    broken = text.replace("call void @__quantum__qis__cx", "cal void @__quantum__qis__cx", 1)
    line = broken.splitlines().index("  cal void @__quantum__qis__cx(%Qubit* %2, %Qubit* %4)") + 1
    (kernel,) = find_quantum_kernels(broken)
    with pytest.raises(ExtractionError, match=f"^line {line}: unknown instruction 'cal'$"):
        extract_circuit(kernel)


def test_instruction_outside_the_subset_is_rejected():
    body = allocating_kernel(1).replace("  ret void", "  %9 = add i64 1, 2\n  ret void")
    with pytest.raises(ExtractionError, match="^line 7: add instruction is outside the extractable subset"):
        extract_circuit(body)


@pytest.mark.parametrize("literal", ["nan", "1e999", "-inf", "0x7FF0000000000000", "0x7FF8000000000000"])
def test_non_finite_double_is_rejected(literal):
    body = allocating_kernel(1).replace(
        "call void @__quantum__qis__h(%Qubit* %2)", f"call void @__quantum__qis__rz(double {literal}, %Qubit* %2)"
    )
    with pytest.raises(ExtractionError, match=f"^line 6: non-finite double '{literal}'$"):
        extract_circuit(body)


def _digest(modules):
    digest = hashlib.sha256()
    for text in modules:
        digest.update(repr(extract_program(find_quantum_kernels(text)[0])).encode())
    return digest.hexdigest()


def _with_measures_and_barriers(source, n_qubits):
    """The source with a classical register, a barrier and a mid-circuit measurement halfway, and a final measure."""
    head, *gates = source.splitlines()[2:]
    middle = len(gates) // 2
    return "\n".join(
        ['OPENQASM 2.0;', 'include "qelib1.inc";', head, f"creg c[{n_qubits}];"]
        + gates[:middle]
        + ["barrier q;", "measure q[0] -> c[0];", f"barrier q[{n_qubits - 1}],q[0];"]
        + gates[middle:]
        + ["measure q -> c;"]
    ) + "\n"


# sha256 over the repr of `extract_program` of every module's found kernel:
# the bundled benchmarks at levels 0-3, unrouted (False) and routed on a 5x5
# grid (True), with the default and with the rz,ry,cx native set; and 100
# corpus circuits with barriers and measurements added.
EXTRACTION_GOLDEN = {
    ("default", False): "7782750a5e6ec8c1ec39d402336829653e15893b89f857ed9edf93d31ed7d77a",
    ("default", True): "b8eb85e8817045081165427c230f2dfc539951f1e940031774dfc1b71aac9ca6",
    ("rz,ry,cx", False): "03b0c81425f2bef2852088987c148634ba2425133dde7d9c0a13d81f8c7ed4a9",
    ("rz,ry,cx", True): "37cb4c72f4442d46cdb81a157a6d3fb7cea7a3461247c7e359b6fc0c28498332",
    "corpus": "7ebd11ed155f61a7b1f5ee3669fe0111da96920908a59ed72509853c35825f12",
}


def test_extraction_is_pinned(corpus_sources):
    grid = CouplingGraph.from_edges(
        25, [[r * 5 + c, r * 5 + c + 1] for r in range(5) for c in range(4)]
        + [[r * 5 + c, r * 5 + c + 5] for r in range(4) for c in range(5)]
    )
    digests = {}
    for natives in ("default", "rz,ry,cx"):
        native = None if natives == "default" else NativeGateSet.from_names(natives.split(","))
        for routed in (False, True):
            modules = []
            for name in list_benchmarks():
                for level in range(4):
                    prog = optimize(qasm_program(benchmark_source(name)), level, native)
                    if routed:
                        prog, _ = route_program(prog, grid, seed=0, native=native)
                    modules.append(emit_qir(prog).text)
            digests[(natives, routed)] = _digest(modules)
    sources = [_with_measures_and_barriers(src, n) for src, n in corpus_sources[:100]]
    digests["corpus"] = _digest(emit_qir(qasm_program(src)).text for src in sources)
    assert digests == EXTRACTION_GOLDEN
