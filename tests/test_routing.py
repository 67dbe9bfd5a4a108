"""Coupling graphs, layouts, SABRE swap insertion, and full-program routing."""

import dataclasses
import hashlib
import json
import time

import numpy as np
import pytest

from qcc.errors import CapacityError, CouplingFormatError, RoutingError
from qcc.ir import Barrier, Inst, build_dag, gate_counts
from qcc import routing
from qcc.optimizer import NativeGateSet, optimize
from qcc.routing import (
    CouplingGraph,
    Layout,
    load_coupling_graph,
    route_program,
    sabre_layout,
    sabre_swap,
)
from qcc.simulator import equiv_up_to_global_phase, permute_qubits, simulate

from conftest import qasm_program

GHZ3 = (
    'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
    "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
)


def linear(n):
    return CouplingGraph.from_edges(n, [[i, i + 1] for i in range(n - 1)])


# ------------------------------------------------------------- graphs


def test_linear3_distances():
    g = linear(3)
    assert g.distance == ((0, 1, 2), (1, 0, 1), (2, 1, 0))
    assert g.adjacency == ((1,), (0, 2), (1,))
    assert g.adjacent(0, 1) and g.adjacent(2, 1)
    assert not g.adjacent(0, 2)


def test_complete_graph_distances():
    k4 = CouplingGraph.from_edges(4, [[i, j] for i in range(4) for j in range(i + 1, 4)])
    for u in range(4):
        for v in range(4):
            assert k4.distance[u][v] == (0 if u == v else 1)


def test_tshape_distance():
    # 0-1-2 with 1-3-4 hanging off the middle
    g = CouplingGraph.from_edges(5, [[0, 1], [1, 2], [1, 3], [3, 4]])
    assert g.distance[0][4] == 3
    assert g.distance[2][4] == 3
    assert g.distance[0][2] == 2


def _floyd_warshall(n, edges):
    inf = n + 10
    d = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def test_distances_match_floyd_warshall(topologies):
    for g in topologies.values():
        edges = [(u, v) for u, neighbors in enumerate(g.adjacency) for v in neighbors]
        ref = _floyd_warshall(g.n_physical, edges)
        for u in range(g.n_physical):
            for v in range(g.n_physical):
                assert g.distance[u][v] == ref[u][v]


def test_graph_format_errors():
    with pytest.raises(CouplingFormatError):
        CouplingGraph.from_edges(2, [[0, 0]])  # self loop
    with pytest.raises(CouplingFormatError):
        CouplingGraph.from_edges(2, [[0, 5]])  # out of range
    with pytest.raises(CouplingFormatError):
        CouplingGraph.from_edges(0, [])
    with pytest.raises(CouplingFormatError, match="n_qubits must be a positive integer"):
        CouplingGraph.from_edges(True, [])
    with pytest.raises(CouplingFormatError, match="is not a pair of qubit indices"):
        CouplingGraph.from_edges(3, [[True, 2], [0, 1]])


def test_disconnected_graph_rejected():
    with pytest.raises(RoutingError, match="disconnected"):
        CouplingGraph.from_edges(4, [[0, 1], [2, 3]])


def test_too_few_edges_are_rejected_before_allocating():
    # A million qubits and one edge: a set per qubit took over a second
    # before the breadth-first search saw the graph is disconnected (at 10^8
    # it took gigabytes), though no connected graph has fewer than n - 1 edges.
    start = time.process_time()
    with pytest.raises(RoutingError, match="disconnected"):
        CouplingGraph.from_edges(1_000_000, [[0, 1]])
    assert time.process_time() - start < 0.5
    with pytest.raises(CouplingFormatError, match="out of range"):
        CouplingGraph.from_edges(1_000_000, [[0, 1_000_000]])  # a malformed edge is named first


def test_a_device_above_the_cap_is_rejected_before_its_distance_table(monkeypatch):
    # The table is quadratic: 0.9 s for a 2,048-qubit line, 4.4 s at 4,096.
    line = [[i, i + 1] for i in range(4095)]
    start = time.process_time()
    with pytest.raises(CouplingFormatError, match="^device has 4096 qubits, more than the 2048-qubit cap$"):
        CouplingGraph.from_edges(4096, line)
    assert time.process_time() - start < 0.5
    # malformed and too few edges are named first, as below the cap
    with pytest.raises(CouplingFormatError, match="out of range"):
        CouplingGraph.from_edges(4096, line + [[0, 4096]])
    with pytest.raises(RoutingError, match="disconnected"):
        CouplingGraph.from_edges(4096, line[1:])
    monkeypatch.setattr(routing, "MAX_DEVICE_QUBITS", 4)
    assert CouplingGraph.from_edges(4, line[:3]).distance[0][3] == 3
    with pytest.raises(CouplingFormatError, match="^device has 5 qubits, more than the 4-qubit cap$"):
        CouplingGraph.from_edges(5, line[:4])


def test_load_coupling_graph(tmp_path):
    path = tmp_path / "device.json"
    path.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    g = load_coupling_graph(path)
    assert g.n_physical == 3
    assert g.distance[0][2] == 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": [[0, 1]]}))
    with pytest.raises(CouplingFormatError):
        load_coupling_graph(bad)
    boolean = tmp_path / "bool.json"
    boolean.write_text(json.dumps({"n_qubits": True, "edges": []}))
    with pytest.raises(CouplingFormatError, match="n_qubits must be a positive integer"):
        load_coupling_graph(boolean)


# ------------------------------------------------------------- layouts


def test_identity_layout():
    lay = Layout.identity(2, 4)
    assert lay.log_to_phys == [0, 1]
    assert lay.phys_to_log == [0, 1, None, None]
    assert lay.log_to_phys[1] == 1


def test_layout_rejects_duplicates():
    with pytest.raises(RoutingError):
        Layout([0, 0], 3)
    with pytest.raises(RoutingError):
        Layout([0, 5], 3)


def test_swap_physical_updates_both_maps():
    lay = Layout([0, 1, 2], 3)
    lay.swap_physical(0, 2)
    assert lay.log_to_phys == [2, 1, 0]
    assert lay.phys_to_log == [2, 1, 0]
    # swapping a spare slot works too
    lay2 = Layout([1], 3)
    lay2.swap_physical(1, 2)
    assert lay2.log_to_phys == [2]
    assert lay2.phys_to_log == [None, None, 0]


def test_layout_copy_is_independent():
    lay = Layout([0, 1], 2)
    dup = lay.copy()
    dup.swap_physical(0, 1)
    assert lay.log_to_phys == [0, 1]


# ------------------------------------------------------------- sabre_swap


def test_ghz_on_linear_needs_no_swaps():
    dag = build_dag(qasm_program(GHZ3))
    res = sabre_swap(dag, Layout.identity(3, 3), linear(3))
    assert res.swap_count == 0
    assert [g.name for g in res.routed_gates] == ["h", "cx", "cx"]
    assert res.final_layout.log_to_phys == [0, 1, 2]


def test_distant_cx_needs_exactly_one_swap():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[2];\n'
    dag = build_dag(qasm_program(src))
    res = sabre_swap(dag, Layout.identity(3, 3), linear(3))
    assert res.swap_count == 1
    swap, cx = res.routed_gates
    assert swap.name == "swap" and swap.inserted
    assert cx.name == "cx" and not cx.inserted
    assert linear(3).adjacent(*cx.qubits)


def test_routed_gates_are_built_once_from_the_trace():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[2];\nh q[0];\n'
    res = sabre_swap(build_dag(qasm_program(src)), Layout.identity(3, 3), linear(3))
    # The swap of physical 0 and 1 on 3 qubits, then node 0 (the cx) and node 1 (the h).
    assert res.trace == [~(0 * 3 + 1), 0, 1]
    gates = res.routed_gates
    assert res.routed_gates is gates
    assert [(g.name, g.qubits, g.inserted) for g in gates] == [
        ("swap", (0, 1), True),
        ("cx", (1, 2), False),
        ("h", (1,), False),
    ]
    assert dataclasses.replace(res).routed_gates is gates
    given = gates[1:]
    assert dataclasses.replace(res, routed_gates=given).routed_gates is given
    assert res.routed_gates is gates


def test_reversed_ghz_also_zero_swaps():
    dag = build_dag(qasm_program(GHZ3)).reversed()
    res = sabre_swap(dag, Layout.identity(3, 3), linear(3))
    assert res.swap_count == 0


def test_empty_dag_routes_to_nothing():
    dag = build_dag(qasm_program("OPENQASM 2.0;\nqreg q[2];\n"))
    res = sabre_swap(dag, Layout.identity(2, 2), linear(2))
    assert res.routed_gates == []
    assert res.swap_count == 0
    assert res.final_layout.log_to_phys == res.initial_layout.log_to_phys


def test_sabre_swap_is_deterministic(corpus_programs, topologies):
    prog = next(p for p, n in corpus_programs if n == 5)
    flat = optimize(prog, 1)
    dag = build_dag(flat)
    reference = None
    for _ in range(10):
        res = sabre_swap(dag, Layout.identity(5, 5), topologies["linear5"])
        snapshot = (
            res.swap_count,
            [(g.name, g.qubits, g.inserted) for g in res.routed_gates],
            res.final_layout.log_to_phys,
        )
        if reference is None:
            reference = snapshot
        assert snapshot == reference


def test_all_output_two_qubit_gates_on_edges(corpus_programs, topologies):
    graph = topologies["tshape5"]
    checked = 0
    for prog, n in corpus_programs:
        if checked >= 15:
            break
        if n > 5:
            continue
        checked += 1
        flat = optimize(prog, 1)
        dag = build_dag(flat)
        res = sabre_swap(dag, Layout.identity(n, 5), graph)
        for g in res.routed_gates:
            if len(g.qubits) == 2:
                assert graph.adjacent(*g.qubits)


# ------------------------------------------------------------- sabre_layout


def test_layout_finds_zero_swap_embedding():
    dag = build_dag(qasm_program(GHZ3))
    lay = sabre_layout(dag, linear(3), seed=42).initial_layout
    assert sabre_swap(dag, lay, linear(3)).swap_count == 0


def test_layout_deterministic_for_fixed_seed():
    dag = build_dag(qasm_program(GHZ3))
    layouts = {tuple(sabre_layout(dag, linear(3), seed=42).initial_layout.log_to_phys) for _ in range(10)}
    assert len(layouts) == 1


def test_layout_seeds_differ():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\n'
        "cx q[0],q[3];\ncx q[1],q[2];\ncx q[0],q[1];\n"
    )
    dag = build_dag(qasm_program(src))
    seen = {
        tuple(sabre_layout(dag, linear(4), seed=s).initial_layout.log_to_phys) for s in range(12)
    }
    assert len(seen) > 1  # different seeds explore different permutations


@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
def test_layout_skips_the_last_backward_pass(monkeypatch, iterations):
    # A cx between every pair of 5 qubits needs swaps on a line from any
    # start, so no round stops early and every round runs its forward pass.
    pairs = "".join(f"cx q[{a}],q[{b}];\n" for a in range(5) for b in range(a + 1, 5))
    dag = build_dag(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n' + pairs))
    calls = []

    def counting(*args):
        calls.append(args[0] is dag)
        return sabre_swap(*args)

    monkeypatch.setattr(routing, "sabre_swap", counting)
    sabre_layout(dag, linear(5), iterations=iterations)
    assert len(calls) == 2 * iterations - 1
    assert calls.count(True) == iterations  # one forward pass per round


def test_layout_of_an_empty_dag_routes_nothing(monkeypatch):
    calls = []
    monkeypatch.setattr(routing, "sabre_swap", lambda *args: calls.append(args))
    dag = build_dag(qasm_program('OPENQASM 2.0;\nqreg q[2];\n'))
    assert len(sabre_layout(dag, linear(3), n_logical=2).initial_layout.log_to_phys) == 2
    assert calls == []


def test_layout_capacity_error():
    dag = build_dag(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nh q[0];\n'))
    with pytest.raises(CapacityError):
        sabre_layout(dag, linear(3), n_logical=4)


# ------------------------------------------------------------- pinned output


def grid(rows, cols):
    edges = [[r * cols + c, r * cols + c + 1] for r in range(rows) for c in range(cols - 1)]
    edges += [[r * cols + c, (r + 1) * cols + c] for r in range(rows - 1) for c in range(cols)]
    return CouplingGraph.from_edges(rows * cols, edges)


def golden_source(seed):
    """16 qubits, 400 gates: 60% cx on two random qubits, the rest h."""
    rng = np.random.default_rng(seed)
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[16];"]
    for _ in range(400):
        if rng.random() < 0.6:
            a, b = (int(q) for q in rng.choice(16, size=2, replace=False))
            lines.append(f"cx q[{a}],q[{b}];")
        else:
            lines.append(f"h q[{int(rng.integers(16))}];")
    return "\n".join(lines) + "\n"


# (seed, direction) -> (swap count, sabre_layout result, sha256 of the routed
# gate list).  Recorded from the full-re-sum scorer; incremental scoring must
# pick exactly the same swaps.  The reversed entries route the reversed DAG,
# whose own reversal is the forward DAG again.
ROUTING_GOLDEN = {
    (11, "forward"): (
        216,
        (9, 11, 8, 12, 1, 3, 0, 2, 5, 4, 15, 6, 10, 13, 14, 7),
        "0f326f9a98edb19f946b6a563452eef7ad27108d2ab05d75689b13f4e2b9ede3",
    ),
    (11, "reversed"): (
        211,
        (10, 14, 8, 3, 9, 0, 5, 2, 11, 4, 1, 7, 12, 15, 13, 6),
        "22a63ef570245e3722c3d504cfa34dc4c0aa9e4b358e6f26913a79c41d46f393",
    ),
    (12, "forward"): (
        182,
        (0, 4, 3, 12, 2, 11, 10, 1, 8, 7, 5, 6, 15, 14, 9, 13),
        "75755705821cfbed0d6ab775972b11534e158b8933fcff7cdbaee8e2c19b027b",
    ),
    (12, "reversed"): (
        202,
        (6, 4, 10, 5, 1, 7, 11, 14, 9, 0, 13, 3, 2, 15, 12, 8),
        "825e340b429cb0335974df32f92af674d3e5e385bc42f68a9458fef30ddf0d66",
    ),
    (13, "forward"): (
        223,
        (7, 5, 4, 6, 8, 0, 15, 12, 3, 1, 9, 2, 14, 11, 13, 10),
        "e22ef4ffa785844b56c0e0b4e4e005c39e2bb2564c2b9d69255c0171a27438de",
    ),
    (13, "reversed"): (
        215,
        (8, 2, 3, 4, 10, 15, 0, 5, 13, 11, 7, 14, 1, 12, 9, 6),
        "7286e45a37e2afa2e3f9920ba48bd76cbbf11c6270aa3344c49e381ce1572f31",
    ),
}


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_routing_output_is_pinned(seed):
    graph = grid(4, 4)
    dag = build_dag(qasm_program(golden_source(seed)))
    for direction, d in (("forward", dag), ("reversed", dag.reversed())):
        layout = sabre_layout(d, graph, iterations=3, seed=seed).initial_layout
        res = sabre_swap(d, layout, graph)
        gates = [(g.name, g.params, g.qubits, g.inserted) for g in res.routed_gates]
        digest = hashlib.sha256(repr(gates).encode()).hexdigest()
        assert (res.swap_count, tuple(layout.log_to_phys), digest) == ROUTING_GOLDEN[
            (seed, direction)
        ]


# ------------------------------------------------------------- route_program


def routing_permutation(result, n_physical):
    """Logical-to-physical assignment extended with spare slots, ascending."""
    perm = list(result.final_layout.log_to_phys)
    free = sorted(set(range(n_physical)) - set(perm))
    return perm + free


def test_route_program_preserves_semantics(corpus_programs, topologies):
    graph = topologies["ring5"]
    checked = 0
    for prog, n in corpus_programs:
        if checked >= 12:
            break
        checked += 1
        flat = optimize(prog, 1)
        routed, result = route_program(flat, graph, seed=3)
        expected = permute_qubits(simulate(prog, n_qubits=5), routing_permutation(result, 5))
        assert equiv_up_to_global_phase(expected, simulate(routed))


def test_route_program_forced_identity_layout():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[2];\n'
    prog = qasm_program(src)
    routed, result = route_program(prog, linear(3), layout=Layout.identity(3, 3))
    assert result.swap_count == 1
    expected = permute_qubits(simulate(prog), routing_permutation(result, 3))
    assert equiv_up_to_global_phase(expected, simulate(routed))


def test_route_program_gate_multiset_preserved():
    prog = optimize(qasm_program(GHZ3), 1)
    routed, result = route_program(prog, linear(3), seed=0)
    original = sorted(op.name for op in prog.ops if isinstance(op, Inst))
    output = [op for op in routed.ops if isinstance(op, Inst)]
    kept = sorted(op.name for op in output if op.name != "swap")
    assert kept == original or sorted(op.name for op in output) == original


def test_route_program_too_many_qubits():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\nh q[0];\n')
    with pytest.raises(CapacityError, match="^4 logical qubits exceed 3 physical$"):
        route_program(prog, linear(3))
    with pytest.raises(RoutingError, match="layout does not cover"):
        route_program(prog, linear(3), layout=Layout.identity(3, 3))


def test_route_program_rejects_three_qubit_gates():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nccx q[0],q[1],q[2];\n'
    )
    with pytest.raises(RoutingError, match="decompose"):
        route_program(prog, linear(3))


def test_route_program_swap_decomposition_without_native_swap():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncx q[0],q[2];\n'
    prog = qasm_program(src)
    native = NativeGateSet.from_names(["rz", "ry", "rx", "cx", "h"])
    routed, result = route_program(
        prog, linear(3), layout=Layout.identity(3, 3), native=native
    )
    assert result.swap_count == 1
    assert result.swap_cx_count == 3
    names = [op.name for op in routed.ops if isinstance(op, Inst)]
    assert names == ["cx", "cx", "cx", "cx"]  # 3 for the swap, then the gate
    expected = permute_qubits(simulate(prog), routing_permutation(result, 3))
    assert equiv_up_to_global_phase(expected, simulate(routed))


def test_route_program_drops_barriers():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "h q[0];\nbarrier q;\nh q[1];\n"
    )
    routed, _ = route_program(qasm_program(src), linear(2))
    assert not any(isinstance(op, Barrier) for op in routed.ops)


def test_route_program_keeps_measures_and_conditionals():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[1];\n'
        "h q[0];\nmeasure q[0] -> c[0];\nif (c == 1) x q[1];\n"
    )
    routed, _ = route_program(qasm_program(src), linear(2))
    insts = [op for op in routed.ops if isinstance(op, Inst)]
    conditioned = [op for op in insts if op.condition is not None]
    assert any(op.name == "measure" and op.result is not None for op in insts)
    assert len(conditioned) == 1


def test_conditioned_measurement_precedes_a_reader_of_its_creg():
    # cx q[0],q[2] needs a swap on the line, which holds back the measurement
    # of q[0]; the x that reads d must still wait for it.
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\ncreg d[1];\n'
        "cx q[0],q[2];\nif (c==0) measure q[0] -> d[0];\nif (d==1) x q[1];\n"
    )
    routed, result = route_program(qasm_program(src), linear(3), layout=Layout.identity(3, 3))
    assert result.swap_count == 1
    assert [(op.name, op.condition) for op in routed.ops] == [
        ("swap", None),
        ("cx", None),
        ("measure", (0, 0)),
        ("x", (1, 1)),
    ]


def test_conditioned_measurement_into_its_own_creg_routes():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[1];\n'
        "h q[0];\nif (c==0) measure q[0] -> c[0];\ncx q[0],q[1];\n"
    )
    routed, result = route_program(qasm_program(src), linear(2))
    assert [(op.name, op.condition) for op in routed.ops] == [("h", None), ("measure", (0, 0)), ("cx", None)]
    assert routed.ops[1].result is not None
    assert gate_counts(routed)["depth"] == 3


@pytest.mark.parametrize("layout", [None, Layout.identity(3, 3)], ids=["sabre", "identity"])
def test_conditioned_two_qubit_gate_routes_after_the_write_of_its_creg(layout):
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\n'
        "measure q[0] -> c[0];\nif (c==1) cx q[0],q[2];\n"
    )
    graph = linear(3)
    routed, _ = route_program(qasm_program(src), graph, layout=layout)
    names = [op.name for op in routed.ops]
    cx = routed.ops[names.index("cx")]
    assert names.count("cx") == 1 and ("swap" in names) == (layout is not None)
    assert cx.condition == (0, 1)
    assert graph.adjacent(*(q.logical_id for q in cx.qubits))
    assert names.index("measure") < names.index("cx")


def test_route_program_output_register_is_device_sized(topologies):
    prog = qasm_program(GHZ3)
    routed, _ = route_program(prog, topologies["linear5"], seed=1)
    assert len(routed.registers) == 1
    assert routed.registers[0].size == 5
    counts = gate_counts(routed)
    assert counts["total_gates"] >= 3


def all_pairs_program(n):
    """A cx between every pair of n qubits: a line needs swaps from any start."""
    pairs = "".join(f"cx q[{a}],q[{b}];\n" for a in range(n) for b in range(a + 1, n))
    return qasm_program(f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{n}];\n' + pairs)


def assert_routes_like_its_layout(program, graph, seed, iterations=3):
    """route_program routes exactly as a final pass from sabre_layout's layout would."""
    dag = build_dag(program)
    layout = sabre_layout(dag, graph, iterations, seed, program.n_qubits).initial_layout
    routed, result = route_program(program, graph, seed=seed, sabre_iterations=iterations)
    again, reference = route_program(program, graph, layout=layout)
    assert routed.ops == again.ops
    assert result.routed_gates == reference.routed_gates
    assert result.swap_count == reference.swap_count
    assert result.initial_layout == reference.initial_layout == layout
    assert result.final_layout == reference.final_layout


def test_route_program_reuses_the_best_layout_pass(corpus_programs, topologies):
    for index, (prog, _) in enumerate(corpus_programs[:60]):
        assert_routes_like_its_layout(optimize(prog, 1), topologies["ring5"], seed=index)
    for seed in (11, 12, 13):
        assert_routes_like_its_layout(qasm_program(golden_source(seed)), grid(4, 4), seed=seed)
    assert_routes_like_its_layout(all_pairs_program(5), linear(5), seed=0, iterations=4)


def test_a_routed_compile_builds_only_the_kept_pass_gates(monkeypatch):
    built, passes = [], []
    real_gate, real_swap = routing.RoutedGate, routing.sabre_swap

    def counting_gate(*args):
        built.append(args)
        return real_gate(*args)

    def counting_swap(*args):
        passes.append(args)
        return real_swap(*args)

    monkeypatch.setattr(routing, "RoutedGate", counting_gate)
    monkeypatch.setattr(routing, "sabre_swap", counting_swap)
    routed, result = route_program(all_pairs_program(5), linear(5), sabre_iterations=3)
    assert len(passes) == 5 and result.swap_count > 0
    assert len(built) == len(result.routed_gates) == len(routed.ops)


@pytest.mark.parametrize("iterations", [1, 2, 3, 4])
def test_route_program_makes_no_pass_beyond_the_layout_search(monkeypatch, iterations):
    calls, searches = [], []

    def counting(*args):
        calls.append(args)
        return sabre_swap(*args)

    def searching(*args):
        searches.append(args)
        return sabre_layout(*args)

    monkeypatch.setattr(routing, "sabre_swap", counting)
    monkeypatch.setattr(routing, "sabre_layout", searching)
    program = all_pairs_program(5)
    route_program(program, linear(5), sabre_iterations=iterations)
    assert len(calls) == 2 * iterations - 1
    assert len(searches) == 1  # the search is reached through the module attribute
    calls.clear()
    route_program(program, linear(5), layout=Layout.identity(5, 5))
    assert len(calls) == 1
    assert len(searches) == 1
