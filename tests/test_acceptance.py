"""Acceptance gate: one test per release criterion, one printed verdict line each.

The verdict lines are written to the real stdout so they survive pytest's
capture and show up in piped logs.
"""

import json
import math
import stat
import sys
import time

import numpy as np
import pytest

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.driver import QuantumOptions, ToolchainConfig, classify_inputs, execute_plan
from qcc.errors import ToolFailure
from qcc.gates import unitary
from qcc.ir import Inst, build_dag, circuit_depth, gate_counts
from qcc.optimizer import decompose_unsupported, euler_decompose, optimize
from qcc.qasm import lower_ast_to_ir, parse_qasm
from qcc.qir import emit_qir, extract_circuit
from qcc.routing import Layout, route_program, sabre_layout, sabre_swap
from qcc.simulator import equiv_up_to_global_phase, permute_qubits, simulate

from conftest import qasm_program
from test_codegen import GHZ_QIR
from test_optimizer import AXIS, random_unitaries, reconstruct

GHZ3_OPEN = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
)

# regression table: benchmark -> (level-0 gates, level-0 depth, level-3 gates, level-3 depth)
EXPECTED_BENCHMARKS = {
    "adder4": (140, 100, 140, 100),
    "bv5": (13, 7, 11, 7),
    "ghz3": (3, 4, 3, 4),
    "ghz5": (5, 5, 5, 5),
    "hs_chain": (23, 10, 13, 6),
    "qft4": (36, 22, 36, 22),
    "random_a": (98, 60, 90, 59),
    "random_b": (76, 40, 62, 38),
    "toffoli_pair": (32, 23, 30, 23),
}


@pytest.fixture
def verdict(capfd):
    """Reporter that prints one PASS/FAIL line straight to the terminal."""

    def report(name: str, ok: bool, detail: str = "") -> None:
        tail = f" ({detail})" if detail else ""
        with capfd.disabled():
            sys.stdout.write(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}\n")
            sys.stdout.flush()
        assert ok, f"{name} failed: {detail}"

    return report


def test_semantic_preservation(corpus_programs, verdict):
    started = time.monotonic()
    failures = 0
    for prog, _ in corpus_programs:
        reference = simulate(prog)
        for level in (1, 2, 3):
            if not equiv_up_to_global_phase(reference, simulate(optimize(prog, level))):
                failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 60.0
    verdict(
        "semantic-preservation",
        ok,
        f"{len(corpus_programs)} circuits x levels 1-3, {failures} mismatches, {elapsed:.1f}s",
    )


def test_routing_validity(corpus_programs, topologies, verdict):
    off_edge = 0
    mismatched = 0
    for prog, _ in corpus_programs:
        flat = decompose_unsupported(prog)
        reference = simulate(prog, n_qubits=5)
        for graph in topologies.values():
            routed, result = route_program(flat, graph, seed=11)
            for op in routed.ops:
                if isinstance(op, Inst) and len(op.qubits) == 2:
                    if not graph.adjacent(op.qubits[0].logical_id, op.qubits[1].logical_id):
                        off_edge += 1
            perm = list(result.final_layout.log_to_phys)
            perm += sorted(set(range(5)) - set(perm))
            if not equiv_up_to_global_phase(permute_qubits(reference, perm), simulate(routed)):
                mismatched += 1
    ok = off_edge == 0 and mismatched == 0
    verdict(
        "routing-validity",
        ok,
        f"{len(corpus_programs)} circuits x 3 topologies, {off_edge} off-edge gates, "
        f"{mismatched} statevector mismatches",
    )


def test_euler_reconstruction(verdict):
    worst = 0.0
    for matrix in random_unitaries(500, seed=424242):
        for basis in ("zyz", "zxz", "xyx"):
            decomp = euler_decompose(matrix, basis)
            worst = max(worst, float(np.max(np.abs(reconstruct(decomp) - matrix))))
    h = unitary("h", ())
    hd = euler_decompose(h, "zyz")
    h_err = float(np.max(np.abs(reconstruct(hd) - h)))
    ok = worst <= 1e-9 and h_err <= 1e-12
    verdict(
        "euler-reconstruction",
        ok,
        f"500 unitaries x 3 bases, worst {worst:.2e}; H zyz {h_err:.2e}",
    )


def test_round_trip_fidelity(corpus_programs, verdict):
    bad = 0
    worst_param = 0.0
    for prog, _ in corpus_programs:
        gates, _ = extract_circuit(emit_qir(prog).text)
        insts = [op for op in prog.ops if isinstance(op, Inst)]
        if len(gates) != len(insts):
            bad += 1
            continue
        for extracted, inst in zip(gates, insts):
            name_ok = extracted.name == inst.name or (
                extracted.name == "m" and inst.name == "measure"
            )
            operands_ok = extracted.operands == tuple(q.logical_id for q in inst.qubits)
            if not (name_ok and operands_ok and len(extracted.params) == len(inst.params)):
                bad += 1
                break
            for a, b in zip(extracted.params, inst.params):
                worst_param = max(worst_param, abs(a - b))
        if worst_param > 1e-12:
            bad += 1
    golden_gates, _ = extract_circuit(GHZ_QIR)
    golden_ok = [(g.name, g.operands) for g in golden_gates] == [
        ("h", (0,)),
        ("cx", (0, 1)),
        ("cx", (1, 2)),
        ("m", (0,)),
        ("m", (1,)),
        ("m", (2,)),
    ]
    ok = bad == 0 and golden_ok
    verdict(
        "round-trip-fidelity",
        ok,
        f"{len(corpus_programs)} circuits, {bad} mismatches, worst param {worst_param:.1e}, "
        f"golden {'ok' if golden_ok else 'BROKEN'}",
    )


def test_sabre_sanity(topologies, verdict):
    lin3_edges = [[0, 1], [1, 2]]
    from qcc.routing import CouplingGraph

    lin3 = CouplingGraph.from_edges(3, lin3_edges)

    far = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[2];\n')
    far_result = sabre_swap(build_dag(far), Layout.identity(3, 3), lin3)
    one_swap = far_result.swap_count == 1

    ghz_dag = build_dag(qasm_program(GHZ3_OPEN))
    layout = sabre_layout(ghz_dag, lin3, seed=42).initial_layout
    zero_swaps = sabre_swap(ghz_dag, layout, lin3).swap_count == 0

    probe = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n'
        "cx q[0],q[4];\ncx q[1],q[3];\ncx q[0],q[2];\ncx q[2],q[4];\n"
    )
    probe_dag = build_dag(probe)
    snapshots = set()
    for _ in range(10):
        lay = sabre_layout(probe_dag, topologies["tshape5"], seed=7).initial_layout
        res = sabre_swap(probe_dag, lay, topologies["tshape5"])
        snapshots.add(
            repr(
                (
                    lay.log_to_phys,
                    res.swap_count,
                    [(g.name, g.qubits, g.inserted) for g in res.routed_gates],
                    res.final_layout.log_to_phys,
                )
            ).encode()
        )
    deterministic = len(snapshots) == 1
    ok = one_swap and zero_swaps and deterministic
    verdict(
        "sabre-sanity",
        ok,
        f"cx(0,2) swaps={far_result.swap_count}, ghz layout swaps="
        f"{0 if zero_swaps else 'nonzero'}, {len(snapshots)} distinct runs of 10",
    )


def test_optimization_monotonicity_regression(verdict):
    names = list_benchmarks()
    assert sorted(EXPECTED_BENCHMARKS) == names
    mismatch = []
    for name in names:
        prog = lower_ast_to_ir(parse_qasm(benchmark_source(name)))
        c0 = gate_counts(optimize(prog, 0))
        c3 = gate_counts(optimize(prog, 3))
        got = (c0["total_gates"], c0["depth"], c3["total_gates"], c3["depth"])
        if got != EXPECTED_BENCHMARKS[name] or c3["total_gates"] > c0["total_gates"]:
            mismatch.append(f"{name}: expected {EXPECTED_BENCHMARKS[name]}, got {got}")
    verdict(
        "optimization-regression",
        not mismatch,
        "; ".join(mismatch) if mismatch else f"{len(names)} benchmarks match recorded counts",
    )


MOCK_CC = """#!/bin/sh
out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then out="$2"; shift; fi
  shift
done
echo built > "$out"
"""

FAIL_CC = "#!/bin/sh\necho boom >&2\nexit 1\n"

SENTINEL_CC = "#!/bin/sh\ntouch {sentinel}\nexit 0\n"


def test_driver_workflow(tmp_path, verdict):
    def script(name, text):
        p = tmp_path / name
        p.write_text(text)
        p.chmod(p.stat().st_mode | stat.S_IXUSR)
        return str(p)

    mock = script("mockcc.sh", MOCK_CC)
    config = ToolchainConfig(
        cxx_cmd=f"{mock} -c {{flags}} {{input}} -o {{output}}",
        cuda_cmd=f"{mock} -c -arch={{arch}} {{flags}} {{input}} -o {{output}}",
        mpi_cmd=f"{mock} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{mock} {{inputs}} -o {{output}}",
    )
    (tmp_path / "main.cc").write_text("int main(){}\n")
    (tmp_path / "kern.cu").write_text("// device\n")
    (tmp_path / "circ.qasm").write_text(GHZ3_OPEN)
    inputs = [str(tmp_path / n) for n in ("main.cc", "kern.cu", "circ.qasm")]

    plan = classify_inputs(inputs, output=str(tmp_path / "app"), build_dir=str(tmp_path))
    report_obj = execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    built = (
        len(report_obj.steps) == 4
        and (tmp_path / "app").exists()
    )

    bad = script("badcc.sh", FAIL_CC)
    bad_config = ToolchainConfig(
        cxx_cmd=f"{bad} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{mock} {{inputs}} -o {{output}}",
    )
    (tmp_path / "app2app").mkdir(exist_ok=True)
    plan2 = classify_inputs(
        [str(tmp_path / "main.cc"), str(tmp_path / "circ.qasm")],
        output=str(tmp_path / "app2app" / "app2"),
        build_dir=str(tmp_path / "app2app"),
    )
    aborted = False
    try:
        execute_plan(plan2, bad_config, QuantumOptions(), log=lambda s: None)
    except ToolFailure:
        aborted = not (tmp_path / "app2app" / "app2").exists()

    sentinel = tmp_path / "SPAWNED"
    spy = script("spycc.sh", SENTINEL_CC.format(sentinel=sentinel))
    spy_config = ToolchainConfig(
        cxx_cmd=f"{spy} -c {{flags}} {{input}} -o {{output}}",
        cuda_cmd=f"{spy} -c -arch={{arch}} {{flags}} {{input}} -o {{output}}",
        mpi_cmd=f"{spy} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{spy} {{inputs}} -o {{output}}",
    )
    dry = execute_plan(plan, spy_config, QuantumOptions(), dry_run=True, log=lambda s: None)
    silent = dry.steps == [] and not sentinel.exists()

    ok = built and aborted and silent
    verdict(
        "driver-workflow",
        ok,
        f"build={'ok' if built else 'BROKEN'}, abort-before-link="
        f"{'ok' if aborted else 'BROKEN'}, dry-run-spawns-zero={'ok' if silent else 'BROKEN'}",
    )


def _brute_force_depth(dag) -> int:
    memo: dict[int, int] = {}

    def down(nid: int) -> int:
        if nid not in memo:
            memo[nid] = 1 + max((down(s) for s in dag.successors[nid]), default=0)
        return memo[nid]

    return max((down(n.node_id) for n in dag.nodes), default=0)


def test_metrics_correctness(corpus_programs, verdict):
    wrong = 0
    for prog, _ in corpus_programs:
        counts = gate_counts(prog)
        dag = build_dag(prog)

        total = single = two = swaps = measures = 0
        for gate in prog.ops:
            if not isinstance(gate, Inst):
                continue
            if gate.name == "measure":
                measures += 1
                continue
            total += 1
            if len(gate.qubits) == 1:
                single += 1
            elif len(gate.qubits) == 2:
                two += 1
            if gate.name == "swap":
                swaps += 1

        expected = {
            "total_gates": total,
            "single_qubit_gates": single,
            "two_qubit_gates": two,
            "swap_gates": swaps,
            "measure_ops": measures,
            "depth": _brute_force_depth(dag),
        }
        if counts != expected or circuit_depth(dag) != expected["depth"]:
            wrong += 1
    verdict(
        "metrics-correctness",
        wrong == 0,
        f"{len(corpus_programs)} circuits, {wrong} metric mismatches",
    )
