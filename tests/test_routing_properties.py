"""Property test: random circuits routed onto random connected coupling graphs.

The checks read only the routing result and the input program's DAG: the
routed two-qubit gates sit on device edges, replaying the inserted swaps on
the initial layout reaches the reported final layout, and the routed gates,
mapped back to logical qubits through that replay, execute the input DAG.
On circuits that measure into two cregs and condition gates and measurements
on them, every read (condition) and write (result) of a creg keeps its source
order wherever the two do not commute.  With the release valve forced open
early, routing still passes the routing-validity checks: no two-qubit gate
off an edge, and the statevector of the input up to the final layout.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qcc import routing
from qcc.ir import Inst, build_dag
from qcc.optimizer import NativeGateSet, decompose_unsupported
from qcc.routing import CouplingGraph, route_program, sabre_layout
from qcc.simulator import equiv_up_to_global_phase, permute_qubits, simulate

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
    (name, params, logical qubits, result, condition)."""
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
            qubits = tuple(phys_to_log[p] for p in gate.qubits)
            gates.append((gate.name, gate.params, qubits, gate.result, gate.condition))
    return phys_to_log, gates


def executes_dag(program, gates) -> bool:
    """True when ``gates`` runs every node of the program's DAG once, each
    after its predecessors."""
    dag = build_dag(program)
    nodes = dag.nodes
    indegree = [len(preds) for preds in dag.predecessors]
    ready = {nid for nid, d in enumerate(indegree) if d == 0}
    for name, params, qubits, _, _ in gates:
        # Ready nodes never share a qubit, so the qubits pick at most one.
        match = [nid for nid in ready if nodes[nid].qubits == qubits]
        if len(match) != 1 or (nodes[match[0]].name, nodes[match[0]].params) != (name, params):
            return False
        ready.remove(match[0])
        for succ in dag.successors[match[0]]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.add(succ)
    return not ready and all(d == 0 for d in indegree)


@settings(max_examples=200)
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


@settings(max_examples=100)
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


@st.composite
def classical_circuits(draw, n_physical):
    """Gates, measurements into c[2] and d[2], ifs on 1q and 2q gates and
    measurements, and barriers."""
    n = draw(st.integers(2, n_physical))
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", "creg c[2];", "creg d[2];"]
    qubits = st.integers(0, n - 1)
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(["1q", "2q", "measure", "if 1q", "if 2q", "if measure", "barrier"]))
        condition = f"if ({draw(st.sampled_from('cd'))}=={draw(st.integers(0, 3))}) " if kind.startswith("if") else ""
        if kind == "barrier":
            fenced = draw(st.lists(qubits, min_size=1, unique=True))
            lines.append("barrier " + ",".join(f"q[{q}]" for q in fenced) + ";")
        elif kind.endswith("2q"):
            a, b = draw(st.lists(qubits, min_size=2, max_size=2, unique=True))
            lines.append(f"{condition}{draw(st.sampled_from(TWO_QUBIT))} q[{a}],q[{b}];")
        elif kind.endswith("measure"):
            bit = f"{draw(st.sampled_from('cd'))}[{draw(st.integers(0, 1))}]"
            lines.append(f"{condition}measure q[{draw(qubits)}] -> {bit};")
        else:
            lines.append(f"{condition}{draw(st.sampled_from(ONE_QUBIT))} q[{draw(qubits)}];")
    return qasm_program("\n".join(lines) + "\n")


def creg_accesses(ops):
    """Per creg id, its reads and writes in order as (op key, written bit or None).

    ops are (qubits, result, condition) triples.  An op's key is its first
    qubit and how many ops came before it on that qubit, which routing keeps,
    so the same op has the same key in the source and in the routed order.
    """
    seen: dict[int, int] = {}
    accesses: dict[int, list] = {}
    for qubits, result, condition in ops:
        key = (qubits[0], seen.get(qubits[0], 0))
        for q in qubits:
            seen[q] = seen.get(q, 0) + 1
        if result is not None:
            accesses.setdefault(result.creg_id, []).append((key, result.index))
        if condition is not None:
            accesses.setdefault(condition[0], []).append((key, None))
    return accesses


@settings(max_examples=200)
@given(st.data())
def test_routing_keeps_the_order_of_creg_reads_and_writes(data):
    graph = data.draw(connected_graphs())
    program = data.draw(classical_circuits(graph.n_physical))
    _, result = route_program(
        program, graph, seed=data.draw(st.integers(0, 2**32 - 1)), sabre_iterations=data.draw(st.integers(1, 3))
    )
    insts = [op for op in program.ops if isinstance(op, Inst)]
    source = creg_accesses([(tuple(q.logical_id for q in op.qubits), op.result, op.condition) for op in insts])
    _, gates = replay(result)
    routed = creg_accesses([(qubits, res, cond) for _, _, qubits, res, cond in gates])
    for creg, accesses in source.items():
        position = {key: i for i, (key, _) in enumerate(routed[creg])}
        for i, (key_a, bit_a) in enumerate(accesses):
            for key_b, bit_b in accesses[i + 1 :]:
                # Two reads commute, and so do writes into distinct bits.
                both_read = bit_a is None and bit_b is None
                distinct_writes = None not in (bit_a, bit_b) and bit_a != bit_b
                if key_a == key_b or both_read or distinct_writes:
                    continue
                assert position[key_a] < position[key_b], (creg, key_a, key_b)


@settings(max_examples=100)
@given(st.data())
def test_forced_release_valve_routes_validly(data):
    graph = data.draw(connected_graphs())
    program = decompose_unsupported(data.draw(circuits(graph.n_physical)))
    # 0 opens the valve at every blocked step; 0.5 after a swap or three.
    factor = data.draw(st.sampled_from([0, 0.5]))
    with mock.patch.object(routing, "RELEASE_VALVE_FACTOR", factor):
        routed, result = route_program(
            program, graph, seed=data.draw(st.integers(0, 2**32 - 1)), sabre_iterations=data.draw(st.integers(1, 3))
        )
    for op in routed.ops:
        if isinstance(op, Inst) and len(op.qubits) == 2:
            assert graph.adjacent(op.qubits[0].logical_id, op.qubits[1].logical_id)
    perm = list(result.final_layout.log_to_phys)
    perm += sorted(set(range(graph.n_physical)) - set(perm))
    expected = permute_qubits(simulate(program, n_qubits=graph.n_physical), perm)
    assert equiv_up_to_global_phase(expected, simulate(routed, n_qubits=graph.n_physical))
    assert result.swap_count == sum(g.inserted for g in result.routed_gates)
    if factor == 0:  # every swap is the valve's
        assert (result.valve_firings > 0) == (result.swap_count > 0)
