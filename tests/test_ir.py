"""Gate DAG construction and circuit metrics."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.ir import GateDag, build_dag, circuit_depth, gate_counts, instruction_kind, Inst
from qcc.optimizer import optimize
from qcc.routing import CouplingGraph, route_program

from conftest import qasm_program
from test_routing_properties import classical_circuits

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
    prog = qasm_program(GHZ)
    dag = build_dag(prog)
    assert [(n.node_id, n.name, n.qubits) for n in dag.nodes] == [
        (0, "h", (0,)),
        (1, "cx", (0, 1)),
        (2, "cx", (1, 2)),
        (3, "measure", (0,)),
        (4, "measure", (1,)),
        (5, "measure", (2,)),
    ]
    assert dag.successors == [[1], [2, 3], [4, 5], [], [], []]
    assert [n.node_id for n in dag.nodes if not dag.predecessors[n.node_id]] == [0]
    assert circuit_depth(prog) == 4


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
    assert circuit_depth(prog) == 0


def test_parallel_gates_have_depth_one():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nh q[1];\n')
    dag = build_dag(prog)
    assert circuit_depth(prog) == 1
    assert dag.predecessors == [[], []]
    assert dag.successors == [[], []]


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
    assert dag.successors == [[1], []]
    assert circuit_depth(prog) == 2


def test_barrier_on_an_already_fenced_qubit_joins_the_fences():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\nh q[1];\nh q[2];\n'
        "barrier q[0],q[1];\nbarrier q[1],q[2];\nx q[0];\nx q[1];\nx q[2];\n"
    )
    dag = build_dag(prog)
    # q[1] is fenced by the first barrier, so the second one fences h q[0] as well.
    assert dag.successors == [[3, 4, 5], [3, 4, 5], [4, 5], [], [], []]
    assert circuit_depth(prog) == 2


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
    assert all(nid not in succ for nid, succ in enumerate(dag.successors))
    assert dag.successors == [[1], [2], []]
    assert circuit_depth(prog) == 3
    assert gate_counts(prog)["measure_ops"] == 2


def test_sequential_chain_depth():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nh q[0];\nh q[0];\n'
    )
    assert circuit_depth(prog) == 3


def test_topological_order_respects_edges():
    # Id order is topological for the DAG, and its reverse for the reversal.
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[2];\n'
        "h q[0];\ncx q[0],q[1];\nbarrier q[0],q[2];\nmeasure q[0] -> c[0];\n"
        "if (c == 1) x q[2];\nbarrier q;\nmeasure q[1] -> c[1];\nh q[2];\nmeasure q[2] -> c[0];\n"
    )
    dag = build_dag(prog)
    for d, ascending in ((dag, True), (dag.reversed(), False)):
        edges = [(src, dst) for src, dsts in enumerate(d.successors) for dst in dsts]
        assert len(edges) >= len(d.nodes)
        for src, dst in edges:
            assert (src < dst) == ascending


def test_reversed_dag_flips_edges():
    dag = build_dag(qasm_program(GHZ))
    rev = dag.reversed()
    assert rev.nodes == dag.nodes
    for src, dsts in enumerate(dag.successors):
        for dst in dsts:
            assert src in rev.successors[dst]
    assert rev.reversed() == dag


def _reversed_edge_by_edge(dag) -> GateDag:
    """The reversed DAG built one flipped edge at a time, in id order."""
    successors = [[] for _ in dag.nodes]
    predecessors = [[] for _ in dag.nodes]
    for src, dsts in enumerate(dag.successors):
        for dst in dsts:
            successors[dst].append(src)
            predecessors[src].append(dst)
    return GateDag(dag.nodes, successors, predecessors)


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
        assert forward.reversed() == _reversed_edge_by_edge(forward)


def _brute_force_depth(dag) -> int:
    # longest path by memoised DFS, independent of the production implementation
    memo: dict[int, int] = {}

    def down(nid: int) -> int:
        if nid not in memo:
            succ = dag.successors[nid]
            memo[nid] = 1 + max((down(s) for s in succ), default=0)
        return memo[nid]

    return max((down(n.node_id) for n in dag.nodes), default=0)


@settings(max_examples=200)
@given(classical_circuits(5))
def test_dag_invariants(program):
    dag = build_dag(program)
    n = len(dag.nodes)
    assert [node.node_id for node in dag.nodes] == list(range(n))
    assert n == sum(isinstance(op, Inst) for op in program.ops)
    assert len(dag.successors) == len(dag.predecessors) == n
    transpose = [[] for _ in range(n)]
    for nid, (succ, pred) in enumerate(zip(dag.successors, dag.predecessors)):
        assert all(nid < s for s in succ) and all(p < nid for p in pred)
        assert succ == sorted(set(succ)) and pred == sorted(set(pred))
        for s in succ:
            transpose[s].append(nid)
    assert transpose == dag.predecessors
    assert dag.reversed().reversed() == dag
    assert circuit_depth(program) == _brute_force_depth(dag)


def test_depth_matches_brute_force_on_corpus(corpus_programs):
    for prog, _ in corpus_programs[:120]:
        assert circuit_depth(prog) == _brute_force_depth(build_dag(prog))


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


def _with_classical_ops(source: str, rng) -> str:
    """The source with a 2-bit creg, and barriers, measurements and ifs
    scattered among its gates."""
    lines = source.splitlines()
    header, body = lines[:3], lines[3:]
    n = int(header[2][len("qreg q[") : -len("];")])
    lines = header + ["creg c[2];"]
    for line in body:
        roll = int(rng.integers(6))
        if roll == 0:
            lines.append(f"if (c=={int(rng.integers(4))}) {line}")
        else:
            lines.append(line)
        a, b = (int(x) for x in rng.choice(n, size=2, replace=False))
        if roll == 1:
            lines.append(f"barrier q[{a}],q[{b}];")
        elif roll == 2:
            lines.append("barrier q;")
        elif roll == 3:
            lines.append(f"{'if (c==1) ' * int(rng.integers(2))}measure q[{a}] -> c[{b % 2}];")
    return "\n".join(lines) + "\n"


def _dag_digest(dags) -> str:
    """sha256 over each DAG's nodes in id order, its successor lists as they
    stand and its predecessor lists sorted."""
    digest = hashlib.sha256()
    for dag in dags:
        ids = range(len(dag.nodes))
        nodes = sorted(dag.nodes, key=lambda node: node.node_id)
        succ = [dag.successors[i] for i in ids]
        pred = [sorted(dag.predecessors[i]) for i in ids]
        digest.update(repr((nodes, succ, pred)).encode())
    return digest.hexdigest()


DAG_GOLDEN = {
    ("benchmarks", "forward"): "cc2c0ddbc9756a27640d40e171fc621c97a292af338c56722056396e67ed8bf5",
    ("benchmarks", "reversed"): "ae42c9430a1aeb617d0c0726754c3f4eae371740fc56228aec31a024ffa04c40",
    ("corpus", "forward"): "209e6a9bd29a0a43f97d32b7790c7c7c8f08ea5d386a82de6d6d20a7fb796652",
    ("corpus", "reversed"): "62bc7059181623f13d657c678f2677629683f58dfe1a32471821e5995ffef3ab",
}


@pytest.mark.parametrize("direction", ["forward", "reversed"])
@pytest.mark.parametrize("inputs", ["benchmarks", "corpus"])
def test_dag_edges_are_pinned(corpus_sources, inputs, direction):
    if inputs == "benchmarks":
        sources = [benchmark_source(name) for name in list_benchmarks()]
    else:
        rng = np.random.default_rng(20)
        sources = [_with_classical_ops(src, rng) for src, _ in corpus_sources[:200]]
    dags = [build_dag(qasm_program(src)) for src in sources]
    if direction == "reversed":
        dags = [dag.reversed() for dag in dags]
    assert _dag_digest(dags) == DAG_GOLDEN[(inputs, direction)]


def _counts_digest(programs) -> str:
    digest = hashlib.sha256()
    for prog in programs:
        digest.update(repr(gate_counts(prog)).encode())
    return digest.hexdigest()


# sha256 over the repr of `gate_counts` (depth included) of: the bundled
# benchmarks at levels 0-3, unrouted (False) and routed on a 5x5 grid (True);
# and 100 corpus circuits with barriers, measurements and ifs added.
COUNTS_GOLDEN = {
    ("benchmarks", False): "999527ef6b11240b228cc7351ab291afb7f6b57f5208ae1731e10ff15ab58387",
    ("benchmarks", True): "70ea551b44d41e1f7d3af75890ccd5b62490ecbca26cd4662a90d54e2e6d0777",
    "corpus": "20aa96a8551a162ba12158f253c5b48835f55d9b9dc8236be3dd8d2330463a05",
}


def test_gate_counts_are_pinned(corpus_sources):
    grid = CouplingGraph.from_edges(
        25, [[r * 5 + c, r * 5 + c + 1] for r in range(5) for c in range(4)]
        + [[r * 5 + c, r * 5 + c + 5] for r in range(4) for c in range(5)]
    )
    digests = {}
    for routed in (False, True):
        programs = []
        for name in list_benchmarks():
            for level in range(4):
                prog = optimize(qasm_program(benchmark_source(name)), level)
                programs.append(route_program(prog, grid, seed=0)[0] if routed else prog)
        digests[("benchmarks", routed)] = _counts_digest(programs)
    rng = np.random.default_rng(25)
    digests["corpus"] = _counts_digest(qasm_program(_with_classical_ops(src, rng)) for src, _ in corpus_sources[:100])
    assert digests == COUNTS_GOLDEN
