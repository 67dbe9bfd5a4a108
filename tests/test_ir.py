"""Gate DAG construction and circuit metrics."""

import pytest

from qcc.ir import GateDag, build_dag, circuit_depth, gate_counts, instruction_kind, Inst

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


def test_ghz_dag_structure():
    dag = build_dag(qasm_program(GHZ))
    assert [(n.node_id, n.name, n.qubits) for n in dag.nodes] == [
        (0, "h", (0,)),
        (1, "cx", (0, 1)),
        (2, "cx", (1, 2)),
        (3, "measure", (0,)),
        (4, "measure", (1,)),
        (5, "measure", (2,)),
    ]
    assert dag.successors == {0: [1], 1: [2, 3], 2: [4, 5], 3: [], 4: [], 5: []}
    assert [n.node_id for n in dag.nodes if not dag.predecessors[n.node_id]] == [0]
    assert circuit_depth(dag) == 4


def test_ghz_gate_counts():
    counts = gate_counts(qasm_program(GHZ))
    assert counts == {
        "total_gates": 3,
        "single_qubit_gates": 1,
        "two_qubit_gates": 2,
        "swap_gates": 0,
        "measure_ops": 3,
        "depth": 4,
    }


def test_empty_program_counts():
    prog = qasm_program("OPENQASM 2.0;\n")
    assert gate_counts(prog) == {
        "total_gates": 0,
        "single_qubit_gates": 0,
        "two_qubit_gates": 0,
        "swap_gates": 0,
        "measure_ops": 0,
        "depth": 0,
    }
    assert circuit_depth(build_dag(prog)) == 0


def test_parallel_gates_have_depth_one():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nh q[1];\n')
    dag = build_dag(prog)
    assert circuit_depth(dag) == 1
    assert dag.predecessors == {0: [], 1: []}
    assert dag.successors == {0: [], 1: []}


def test_swap_counts_in_both_buckets():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "swap q[0],q[1];\nccx q[0],q[1],q[2];\nreset q[0];\n"
    )
    counts = gate_counts(prog)
    assert counts["total_gates"] == 3
    assert counts["swap_gates"] == 1
    assert counts["two_qubit_gates"] == 1  # the swap; ccx is three-qubit
    assert counts["single_qubit_gates"] == 1  # the reset


def test_instruction_kinds():
    assert instruction_kind("h", 1) == "single-qubit"
    assert instruction_kind("cx", 2) == "two-qubit"
    assert instruction_kind("ccx", 3) == "three-qubit"
    assert instruction_kind("measure", 1) == "measure"


def test_barrier_is_a_fence_not_a_node():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nbarrier q;\nh q[1];\n'
    )
    dag = build_dag(prog)
    assert len(dag.nodes) == 2  # barrier contributes no node
    assert dag.successors == {0: [1], 1: []}
    assert circuit_depth(dag) == 2


def test_barrier_on_an_already_fenced_qubit_joins_the_fences():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\n'
        "barrier q[0],q[1];\nbarrier q[1],q[2];\nx q[0];\nx q[1];\nx q[2];\n"
    )
    dag = build_dag(prog)
    # q[1] is fenced by the first barrier, so the second one fences h q[0] as well.
    assert dag.successors == {0: [3, 4, 5], 1: [3, 4, 5], 2: [4, 5], 3: [], 4: [], 5: []}
    assert circuit_depth(dag) == 2


def test_conditionals_chain_classically():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[1];\n'
        "measure q[0] -> c[0];\nif (c == 1) x q[1];\nif (c == 0) z q[1];\n"
        "measure q[1] -> c[0];\n"
    )
    dag = build_dag(prog)
    assert [n.name for n in dag.nodes] == ["measure", "x", "z", "measure"]
    assert dag.nodes[1].condition == (0, 1)
    assert dag.nodes[2].condition == (0, 0)
    # the measure feeds both conditionals; the conditionals execute in order
    assert 1 in dag.successors[0]
    assert dag.successors[1] == [2]
    assert 3 in dag.successors[2]


def test_conditioned_measurement_writes_its_creg():
    # The measurement reads c and writes d, so the x that reads d follows it.
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\ncreg d[1];\n'
        "cx q[0],q[2];\nif (c==0) measure q[0] -> d[0];\nif (d==1) x q[1];\nmeasure q[2] -> d[0];\n"
    )
    dag = build_dag(prog)
    assert [(n.name, n.result is not None, n.condition) for n in dag.nodes] == [
        ("cx", False, None),
        ("measure", True, (0, 0)),
        ("x", False, (1, 1)),
        ("measure", True, None),
    ]
    assert dag.successors[1] == [2, 3]
    assert dag.successors[2] == [3]


def test_conditioned_measurement_into_its_own_creg_has_no_self_edge():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "measure q[0] -> c[0];\nif (c==0) measure q[0] -> c[0];\nif (c==1) x q[0];\n"
    )
    dag = build_dag(prog)
    assert all(nid not in succ for nid, succ in dag.successors.items())
    assert dag.successors == {0: [1], 1: [2], 2: []}
    assert circuit_depth(dag) == 3
    assert gate_counts(prog)["measure_ops"] == 2


def test_sequential_chain_depth():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nh q[0];\nh q[0];\n'
    )
    assert circuit_depth(build_dag(prog)) == 3


def test_topological_order_respects_edges():
    # The node list is the topological order circuit_depth walks, forward and reversed.
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[2];\n'
        "h q[0];\ncx q[0],q[1];\nbarrier q[0],q[2];\nmeasure q[0] -> c[0];\n"
        "if (c == 1) x q[2];\nbarrier q;\nmeasure q[1] -> c[1];\nh q[2];\nmeasure q[2] -> c[0];\n"
    )
    dag = build_dag(prog)
    for d in (dag, dag.reversed()):
        pos = {node.node_id: i for i, node in enumerate(d.nodes)}
        edges = [(src, dst) for src, dsts in d.successors.items() for dst in dsts]
        assert len(edges) >= len(d.nodes)
        for src, dst in edges:
            assert pos[src] < pos[dst]


def test_reversed_dag_flips_edges():
    dag = build_dag(qasm_program(GHZ))
    rev = dag.reversed()
    assert [n.node_id for n in rev.nodes] == [5, 4, 3, 2, 1, 0]
    for src, dsts in dag.successors.items():
        for dst in dsts:
            assert src in rev.successors[dst]


def _reversed_edge_by_edge(dag) -> GateDag:
    """The reversed DAG built one add_node and one add_edge at a time."""
    rev = GateDag()
    for node in reversed(dag.nodes):
        rev.add_node(node)
    for src, dsts in dag.successors.items():
        for dst in dsts:
            rev.add_edge(dst, src)
    return rev


@pytest.mark.parametrize(
    "body",
    [
        GHZ.split("creg c[3];\n")[1],
        # a barrier fences gates whose ids do not follow one another
        "h q[2];\ncx q[0],q[1];\nbarrier q;\nx q[1];\ncx q[2],q[0];\nbarrier q[0],q[2];\nh q[0];\n",
        # measurements into one creg, a conditional reading it, a later measurement
        "h q[0];\nmeasure q[1] -> c[1];\nmeasure q[0] -> c[0];\nif (c == 1) x q[2];\n"
        "barrier q[1],q[2];\nmeasure q[2] -> c[2];\ncx q[1],q[0];\nif (c == 3) h q[1];\n",
    ],
    ids=["ghz", "barriers", "measurements-and-conditionals"],
)
def test_reversed_matches_an_edge_by_edge_build(body):
    dag = build_dag(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n' + body))
    for forward in (dag, dag.reversed()):
        rev, reference = forward.reversed(), _reversed_edge_by_edge(forward)
        assert rev.nodes == reference.nodes
        assert list(rev.successors.items()) == list(reference.successors.items())
        assert list(rev.predecessors.items()) == list(reference.predecessors.items())


def _brute_force_depth(dag) -> int:
    # longest path by memoised DFS, independent of the production implementation
    memo: dict[int, int] = {}

    def down(nid: int) -> int:
        if nid not in memo:
            succ = dag.successors[nid]
            memo[nid] = 1 + max((down(s) for s in succ), default=0)
        return memo[nid]

    return max((down(n.node_id) for n in dag.nodes), default=0)


def test_depth_matches_brute_force_on_corpus(corpus_programs):
    for prog, _ in corpus_programs[:120]:
        dag = build_dag(prog)
        assert circuit_depth(dag) == _brute_force_depth(dag)


def test_counts_totals_on_corpus(corpus_programs):
    for prog, _ in corpus_programs[:120]:
        counts = gate_counts(prog)
        gates = [op for op in prog.ops if isinstance(op, Inst) and op.name != "measure"]
        assert counts["total_gates"] == len(gates)
        assert counts["total_gates"] >= counts["single_qubit_gates"] + counts["two_qubit_gates"]


def test_qubits_are_logical_ids():
    dag = build_dag(
        qasm_program(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[2];\nqreg b[1];\ncx a[1], b[0];\n'
        )
    )
    assert dag.nodes[0].qubits == (1, 2)
