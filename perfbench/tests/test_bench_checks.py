"""The benchmark's output checks must pass good output and reject corrupted output.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import chain  # noqa: E402
import checks  # noqa: E402
from qcc.ir import Inst  # noqa: E402
from spans import plain_call  # noqa: E402
from workloads import WORKLOADS, ring  # noqa: E402

RING5 = ring(5)
SOURCE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[5];
u3(0.3,0.2,0.1) q[0];
u3(0.7,0.4,0.5) q[1];
u3(1.1,0.6,0.9) q[2];
u3(1.3,0.8,1.2) q[3];
u3(0.5,1.0,0.2) q[4];
h q[0];
cx q[0],q[2];
t q[1];
cx q[1],q[3];
cx q[4],q[0];
rz(0.25) q[2];
cx q[2],q[4];
cx q[3],q[0];
"""


@pytest.fixture
def compiled(tmp_path):
    device = tmp_path / "ring5.json"
    device.write_text('{"n_qubits": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]}')
    return chain.compile_chain(SOURCE, 2, str(device), plain_call)


def test_good_output_passes_every_check(compiled):
    assert compiled.routing.swap_count > 0
    assert chain.check_stage(compiled, RING5[1], plain_call) == []


def _drop_first_routed_2q_gate(compiled):
    routing = compiled.routing
    position = next(i for i, g in enumerate(routing.routed_gates) if len(g.qubits) == 2 and not g.inserted)
    gates = routing.routed_gates[:position] + routing.routed_gates[position + 1 :]
    insts = [op for op in compiled.final.ops if isinstance(op, Inst)]
    dropped = insts[position]
    ops = [op for op in compiled.final.ops if op is not dropped]
    return compiled.final.with_ops(ops), dataclasses.replace(routing, routed_gates=gates)


def test_unroute_rejects_a_dropped_gate(compiled):
    routed, routing = _drop_first_routed_2q_gate(compiled)
    failures = checks.unroute_failures(compiled.optimized, routed, routing, RING5[1])
    assert any("sequence differs" in f for f in failures)


def test_unroute_rejects_an_off_edge_cx(compiled):
    routing = compiled.routing
    position = next(i for i, g in enumerate(routing.routed_gates) if g.name == "cx")
    gate = routing.routed_gates[position]
    # On the 5-ring, q and q+2 are never adjacent.
    moved = dataclasses.replace(gate, qubits=(gate.qubits[0], (gate.qubits[0] + 2) % 5))
    gates = list(routing.routed_gates)
    gates[position] = moved
    failures = checks.unroute_failures(
        compiled.optimized, compiled.final, dataclasses.replace(routing, routed_gates=gates), RING5[1]
    )
    assert any("off the coupling graph" in f for f in failures)


def test_unroute_rejects_a_wrong_final_layout(compiled):
    routing = compiled.routing
    final = routing.final_layout.copy()
    final.swap_physical(*final.log_to_phys[:2])
    failures = checks.unroute_failures(
        compiled.optimized, compiled.final, dataclasses.replace(routing, final_layout=final), RING5[1]
    )
    assert any("final layout" in f for f in failures)


def test_roundtrip_rejects_swapped_qir_operands(compiled):
    pattern = re.compile(r"(call void @__quantum__qis__cx\(%Qubit\* )(%\d+)(, %Qubit\* )(%\d+)\)")
    corrupted, count = pattern.subn(r"\1\4\3\2)", compiled.qir_text, count=1)
    assert count == 1
    failures = checks.roundtrip_failures(compiled.final, corrupted, [])
    assert any("differs" in f for f in failures)


def test_roundtrip_rejects_a_dropped_qir_gate(compiled):
    lines = compiled.qir_text.splitlines()
    position = next(i for i, line in enumerate(lines) if "@__quantum__qis__cx(" in line and "declare" not in line)
    corrupted = "\n".join(lines[:position] + lines[position + 1 :])
    assert any("extracted" in f for f in checks.roundtrip_failures(compiled.final, corrupted, []))


def test_roundtrip_reports_verifier_diagnostics(compiled):
    failures = checks.roundtrip_failures(compiled.final, compiled.qir_text, ["line 3: unbalanced braces"])
    assert failures == ["verify_qir_text: line 3: unbalanced braces"]


def test_oracle_rejects_a_dropped_gate(compiled):
    routed, routing = _drop_first_routed_2q_gate(compiled)
    failures = checks.oracle_failures(compiled.source, compiled.optimized, routed, routing)
    assert failures == ["routed statevector differs from the source under the final layout"]
    insts = [op for op in compiled.optimized.ops if isinstance(op, Inst) and len(op.qubits) == 2]
    broken = compiled.optimized.with_ops([op for op in compiled.optimized.ops if op is not insts[0]])
    failures = checks.oracle_failures(compiled.source, broken, None, None)
    assert failures == ["optimized statevector differs from the source"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_product_path_matches_the_chain(name, tmp_path):
    workload = WORKLOADS[name]
    small = dataclasses.replace(workload, params=dict(workload.params, gates=60, statements=150, max_gates=20))
    coupling = None
    if workload.device is not None:
        n, edges = workload.device
        coupling = tmp_path / "device.json"
        coupling.write_text('{"n_qubits": %d, "edges": %s}' % (n, [list(e) for e in edges]))
        coupling = str(coupling)
    source = small.circuit(5, 0).source
    assert chain.product_path_failures(source, workload.opt_level, coupling, str(tmp_path)) == []


def test_circuits_repeat_for_a_seed():
    for workload in WORKLOADS.values():
        assert workload.circuit(3, 2) == workload.circuit(3, 2)
        assert workload.circuit(3, 2).source != workload.circuit(4, 2).source
