"""Property test: random circuits routed onto random connected coupling graphs.

The checks read only the routing result and the input program's DAG: the
routed two-qubit gates sit on device edges, replaying the inserted swaps on
the initial layout reaches the reported final layout, and the routed gates,
mapped back to logical qubits through that replay, execute the input DAG.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcc.ir import Inst, build_dag
from qcc.optimizer import NativeGateSet
from qcc.routing import CouplingGraph, route_program, sabre_layout

from conftest import qasm_program

ONE_QUBIT = ["h", "t", "rz(0.5)", "x"]
TWO_QUBIT = ["cx", "cz", "swap"]


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 2-7 qubits plus random extra edges."""
    n = draw(st.integers(2, 7))
    edges = [[draw(st.integers(0, i - 1)), i] for i in range(1, n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges += [list(p) for p in draw(st.lists(pairs, max_size=n))]
    return CouplingGraph.from_edges(n, edges)


@st.composite
def circuits(draw, n_physical):
    n = draw(st.integers(2, n_physical))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];"]
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.booleans()):
            lines.append(f"{draw(st.sampled_from(ONE_QUBIT))} q[{draw(st.integers(0, n - 1))}];")
        else:
            a, b = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            lines.append(f"{draw(st.sampled_from(TWO_QUBIT))} q[{a}],q[{b}];")
    return qasm_program("\n".join(lines) + "\n")


def replay(result):
    """Walk the routed gates from the initial layout, following each inserted
    swap; returns the final physical-to-logical map and the other gates as
    (name, params, logical qubits)."""
    phys_to_log = {p: l for l, p in enumerate(result.initial_layout.log_to_phys)}
    gates = []
    for gate in result.routed_gates:
        if gate.inserted:
            u, v = gate.qubits
            lu, lv = phys_to_log.pop(u, None), phys_to_log.pop(v, None)
            if lu is not None:
                phys_to_log[v] = lu
            if lv is not None:
                phys_to_log[u] = lv
        else:
            gates.append((gate.name, gate.params, tuple(phys_to_log[p] for p in gate.qubits)))
    return phys_to_log, gates


def executes_dag(program, gates) -> bool:
    """True when ``gates`` runs every node of the program's DAG once, each
    after its predecessors."""
    dag = build_dag(program)
    by_id = {node.node_id: node for node in dag.nodes}
    indegree = {nid: len(preds) for nid, preds in dag.predecessors.items()}
    ready = {nid for nid, d in indegree.items() if d == 0}
    for name, params, qubits in gates:
        # Ready nodes never share a qubit, so the qubits pick at most one.
        match = [nid for nid in ready if by_id[nid].qubits == qubits]
        if len(match) != 1 or (by_id[match[0]].name, by_id[match[0]].params) != (name, params):
            return False
        ready.remove(match[0])
        for succ in dag.successors[match[0]]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.add(succ)
    return not ready and all(d == 0 for d in indegree.values())


@settings(
    max_examples=200,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(st.data())
def test_routing_respects_edges_layouts_and_dependencies(data):
    graph = data.draw(connected_graphs())
    program = data.draw(circuits(graph.n_physical))
    native = data.draw(st.sampled_from([None, NativeGateSet.from_names(["rz", "ry", "rx", "cx", "h"])]))
    routed, result = route_program(
        program,
        graph,
        seed=data.draw(st.integers(0, 2**32 - 1)),
        native=native,
        sabre_iterations=data.draw(st.integers(1, 3)),
    )

    for op in routed.ops:
        if isinstance(op, Inst) and len(op.qubits) == 2:
            assert graph.adjacent(op.qubits[0].logical_id, op.qubits[1].logical_id)

    phys_to_log, gates = replay(result)
    assert {l: p for p, l in phys_to_log.items()} == dict(enumerate(result.final_layout.log_to_phys))
    assert executes_dag(program, gates)


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.data())
def test_route_program_routes_from_its_layout_search(data):
    """Without a layout, the routing is the one a final pass from sabre_layout's
    layout would give."""
    graph = data.draw(connected_graphs())
    program = data.draw(circuits(graph.n_physical))
    seed = data.draw(st.integers(0, 2**32 - 1))
    iterations = data.draw(st.integers(1, 3))
    dag = build_dag(program)
    layout = sabre_layout(dag, graph, iterations, seed, program.n_qubits).initial_layout
    routed, result = route_program(program, graph, seed=seed, sabre_iterations=iterations)
    again, reference = route_program(program, graph, layout=layout)
    assert routed.ops == again.ops
    assert result.routed_gates == reference.routed_gates
    assert result.swap_count == reference.swap_count
    assert (result.initial_layout, result.final_layout) == (layout, reference.final_layout)
