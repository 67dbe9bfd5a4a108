"""Hardware-aware qubit mapping and routing.

The device is an undirected coupling graph over physical qubits.  Routing
processes the gate dependency DAG in topological order, keeping a front layer
of ready gates.  Front-layer two-qubit gates whose operands sit on adjacent
physical qubits execute immediately; when every front gate is blocked, the
swap minimizing a distance heuristic is inserted and the layout updated.
The heuristic is scored incrementally: each candidate swap adds only the
distance changes of the gates on the two qubits it moves, yet picks exactly
the swap a full re-sum of every distance would pick.

Initial placement (``sabre_layout``) runs the same router forward and
backward over the circuit a few times (SABRE) and returns the forward pass
that needed the fewest swaps.  With ``iterations`` rounds that is at most
``2 * iterations - 1`` router passes (the last round has no backward pass);
``route_program`` takes its routing from that pass, adding none.  A pass
records a trace of ints, and only the kept pass's gates are ever built.

Conventions: inserted swaps are tagged, barriers order the DAG but do not
appear in routed output, and a conditioned op is placed like an unconditioned
one, keeping its condition and coming after every op that writes its creg.
"""

import json
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, CouplingFormatError, RoutingError
from .ir import (
    GateDag,
    Inst,
    QRegister,
    QuantumProgram,
    QubitRef,
    build_dag,
)
from .optimizer import NativeGateSet, decompose_unsupported

EXTENDED_SET_SIZE = 20
EXTENDED_SET_WEIGHT = 0.5
DECAY_FACTOR = 1.001
DECAY_RESET_INTERVAL = 5
SABRE_ITERATIONS = 3
# Each round is up to two router passes over the whole circuit.
MAX_SABRE_ITERATIONS = 100
SABRE_SEED = 0
# Largest device accepted, about twice today's largest hardware.  The
# all-pairs distance table grows with its square: 0.9 s at 2,048 qubits.
MAX_DEVICE_QUBITS = 2048


@dataclass(frozen=True)
class CouplingGraph:
    n_physical: int
    adjacency: tuple[tuple[int, ...], ...]
    distance: tuple[tuple[int, ...], ...]

    def adjacent(self, u: int, v: int) -> bool:
        return self.distance[u][v] == 1

    @classmethod
    def from_edges(cls, n_qubits: int, edges) -> "CouplingGraph":
        # JSON true is a Python int; a qubit count or index must not be one.
        if type(n_qubits) is not int or n_qubits < 1:
            raise CouplingFormatError("n_qubits must be a positive integer")
        pairs: list[tuple[int, int]] = []
        for edge in edges:
            pair = tuple(edge) if isinstance(edge, (list, tuple)) else ()
            if len(pair) != 2 or not all(type(x) is int for x in pair):
                raise CouplingFormatError(f"edge {edge!r} is not a pair of qubit indices")
            u, v = pair
            if not (0 <= u < n_qubits and 0 <= v < n_qubits):
                raise CouplingFormatError(f"edge {edge!r} out of range for {n_qubits} qubits")
            if u == v:
                raise CouplingFormatError(f"edge {edge!r} is a self-loop")
            pairs.append(pair)
        # A connected graph has at least n - 1 edges; say so before allocating per qubit.
        if len(pairs) < n_qubits - 1:
            raise RoutingError("disconnected coupling graph")
        if n_qubits > MAX_DEVICE_QUBITS:
            raise CouplingFormatError(f"device has {n_qubits} qubits, more than the {MAX_DEVICE_QUBITS}-qubit cap")
        neighbor_sets: list[set[int]] = [set() for _ in range(n_qubits)]
        for u, v in pairs:
            neighbor_sets[u].add(v)
            neighbor_sets[v].add(u)
        adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
        distance = tuple(_bfs_distances(adjacency, source) for source in range(n_qubits))
        return cls(n_qubits, adjacency, distance)


def _bfs_distances(adjacency, source: int) -> tuple[int, ...]:
    n = len(adjacency)
    dist = [-1] * n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    if any(d < 0 for d in dist):
        raise RoutingError("disconnected coupling graph")
    return tuple(dist)


def load_coupling_graph(path) -> CouplingGraph:
    """Load a device description: JSON {"n_qubits": N, "edges": [[u, v], ...]}."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise CouplingFormatError(f"cannot read coupling graph {path}: {exc}") from exc
    if not isinstance(data, dict) or "n_qubits" not in data or "edges" not in data:
        raise CouplingFormatError('coupling graph needs "n_qubits" and "edges" keys')
    if not isinstance(data["edges"], list):
        raise CouplingFormatError('"edges" must be a list of pairs')
    return CouplingGraph.from_edges(data["n_qubits"], data["edges"])


def _check_capacity(n_logical: int, n_physical: int) -> None:
    if n_logical > n_physical:
        raise CapacityError(f"{n_logical} logical qubits exceed {n_physical} physical")


class Layout:
    """Bijection between logical qubits and a subset of physical qubits."""

    def __init__(self, log_to_phys: list[int], n_physical: int):
        if len(set(log_to_phys)) != len(log_to_phys):
            raise RoutingError("layout maps two logical qubits to one physical qubit")
        if any(not (0 <= p < n_physical) for p in log_to_phys):
            raise RoutingError("layout references a physical qubit outside the device")
        self.log_to_phys = list(log_to_phys)
        self.phys_to_log: list[int | None] = [None] * n_physical
        for logical, phys in enumerate(log_to_phys):
            self.phys_to_log[phys] = logical

    @classmethod
    def identity(cls, n_logical: int, n_physical: int) -> "Layout":
        _check_capacity(n_logical, n_physical)
        return cls(list(range(n_logical)), n_physical)

    @property
    def n_physical(self) -> int:
        return len(self.phys_to_log)

    def copy(self) -> "Layout":
        return Layout(self.log_to_phys, self.n_physical)

    def swap_physical(self, u: int, v: int) -> None:
        lu, lv = self.phys_to_log[u], self.phys_to_log[v]
        self.phys_to_log[u], self.phys_to_log[v] = lv, lu
        if lu is not None:
            self.log_to_phys[lu] = v
        if lv is not None:
            self.log_to_phys[lv] = u

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Layout)
            and self.log_to_phys == other.log_to_phys
            and self.n_physical == other.n_physical
        )

    def __repr__(self) -> str:
        return f"Layout({self.log_to_phys}, n_physical={self.n_physical})"


@dataclass(slots=True)
class RoutedGate:
    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]  # physical indices
    result: object = None
    condition: tuple[int, int] | None = None
    inserted: bool = False


class _GatesFromTrace:
    """``RoutingResult.routed_gates``: the list given, or for None the trace's gates, built on first read."""

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("routed_gates")  # so the field has no default
        if result._gates is None:
            layout, gates = result.initial_layout.copy(), []
            for entry in result.trace:
                if entry < 0:
                    pair = divmod(~entry, layout.n_physical)
                    layout.swap_physical(*pair)
                    gates.append(RoutedGate("swap", (), pair, None, None, True))
                else:
                    node = result.nodes[entry]
                    phys = tuple([layout.log_to_phys[q] for q in node.qubits])
                    gates.append(RoutedGate(node.name, node.params, phys, node.result, node.condition))
            result._gates = gates
        return result._gates

    def __set__(self, result, gates) -> None:
        result._gates = gates


@dataclass
class RoutingResult:
    routed_gates: list[RoutedGate] = _GatesFromTrace()
    initial_layout: Layout
    final_layout: Layout
    swap_count: int
    # Count of cx gates that replace inserted swaps when the native set has
    # no swap; 0 when swaps are emitted as-is.
    swap_cx_count: int = 0
    # The pass in order: a ``nodes`` id per placed gate, ~(u * n + v) per swap of u and v on n qubits.
    trace: list[int] = field(default_factory=list, repr=False, compare=False)
    nodes: list = field(default_factory=list, repr=False, compare=False)


def sabre_swap(
    dag: GateDag,
    initial: Layout,
    graph: CouplingGraph,
) -> RoutingResult:
    """Route a gate DAG, inserting swaps when the front layer is blocked.

    The candidate score is the mean front-layer distance plus a weighted mean
    over an extended lookahead set, scaled by a per-qubit decay that
    discourages immediately reusing the same physical qubits.  Ties break on
    the lexicographically smallest edge, so routing is deterministic.

    Scoring is incremental.  At each blocked step the front and extended
    distance sums are taken once, as integers.  A candidate swap changes only
    the gates on the two qubits it moves, so each candidate adds just those
    changes before the mean, weight and decay are applied.  The floats, and
    so the chosen swaps, are bit-identical to re-summing every distance per
    candidate.
    """
    for node in dag.nodes:
        if len(node.qubits) > 2:
            raise RoutingError(f"gate {node.name} acts on {len(node.qubits)} qubits; decompose before routing")

    # Per-node lists indexed by node id, as the DAG's own are.
    nodes, successors = dag.nodes, dag.successors
    n_nodes = len(nodes)
    qubits_of = [node.qubits for node in nodes]
    indegree = [len(pred) for pred in dag.predecessors]
    two_qubit = [len(q) == 2 for q in qubits_of]

    layout = initial.copy()
    log_to_phys = layout.log_to_phys
    n_physical = graph.n_physical
    dist, adjacency = graph.distance, graph.adjacency
    trace: list[int] = []
    swap_count = 0
    decay = [1.0] * n_physical
    swap_budget = 10 * max(n_nodes, 1) * n_physical

    # Ready nodes not yet examined under the current layout; ready nodes that
    # were examined and are blocked.  Ready nodes never share a qubit.
    pending = [i for i in range(n_nodes) if indegree[i] == 0]
    blocked: list[int] = []
    extended_of: list[int] = []
    extended: list[int] = []
    while True:
        # Each sweep emits, in node-id order, every examined node that can run
        # here (one qubit, or two on adjacent physical qubits); the nodes it
        # releases form the next sweep.
        while pending:
            sweep, pending = sorted(pending), []
            for node_id in sweep:
                if two_qubit[node_id]:
                    a, b = qubits_of[node_id]
                    if dist[log_to_phys[a]][log_to_phys[b]] != 1:
                        blocked.append(node_id)
                        continue
                trace.append(node_id)
                for succ in successors[node_id]:
                    indegree[succ] -= 1
                    if indegree[succ] == 0:
                        pending.append(succ)
        if not blocked:
            break

        # Per physical qubit: the position of its front-gate partner, and the
        # positions of its extended-gate partners.
        blocked.sort()
        front_other: list[int | None] = [None] * n_physical
        front_qubits: list[int] = []
        front_sum = 0
        for node_id in blocked:
            a, b = qubits_of[node_id]
            pa, pb = log_to_phys[a], log_to_phys[b]
            front_other[pa], front_other[pb] = pb, pa
            front_qubits += (pa, pb)
            front_sum += dist[pa][pb]
        if blocked != extended_of:
            # A swap that executed nothing leaves the front, and so the
            # extended set, as it was.
            extended_of = blocked
            extended = _extended_set(successors, two_qubit, blocked)
        ext_others: list[tuple[int, ...]] = [()] * n_physical
        ext_sum = 0
        for node_id in extended:
            a, b = qubits_of[node_id]
            pa, pb = log_to_phys[a], log_to_phys[b]
            ext_others[pa] += (pb,)
            ext_others[pb] += (pa,)
            ext_sum += dist[pa][pb]
        n_front, n_ext = len(blocked), len(extended)

        # Score each edge touching a front qubit once; keys are distinct, so order is moot.
        best = None
        for p in front_qubits:
            for q in adjacency[p]:
                if q < p and front_other[q] is not None:
                    continue  # scored from q
                u, v = (p, q) if p < q else (q, p)
                # The swap moves the qubit on u to v and the one on v to u.  Only
                # gates on u or v change distance, and a gate joining them does not.
                fu, fv = front_other[u], front_other[v]
                du, dv = dist[u], dist[v]
                front_delta = ext_delta = 0
                if fu is not None and fu != v:
                    front_delta += dv[fu] - du[fu]
                if fv is not None and fv != u:
                    front_delta += du[fv] - dv[fv]
                for w in ext_others[u]:
                    if w != v:
                        ext_delta += dv[w] - du[w]
                for w in ext_others[v]:
                    if w != u:
                        ext_delta += du[w] - dv[w]
                cost = (front_sum + front_delta) / n_front
                if extended:
                    cost += EXTENDED_SET_WEIGHT * (ext_sum + ext_delta) / n_ext
                decay_u, decay_v = decay[u], decay[v]
                cost *= decay_u if decay_u >= decay_v else decay_v
                # The least (cost, u, v), compared without building the tuple.
                if best is None or cost < best_cost or (cost == best_cost and (u, v) < best):
                    best_cost, best = cost, (u, v)
        if best is None:
            raise RoutingError("no candidate swaps touch the blocked front layer")
        u, v = best
        layout.swap_physical(u, v)
        trace.append(~(u * layout.n_physical + v))
        swap_count += 1
        if swap_count > swap_budget:
            raise RoutingError(f"routing exceeded the safety bound of {swap_budget} swaps")
        decay[u] *= DECAY_FACTOR
        decay[v] *= DECAY_FACTOR
        if swap_count % DECAY_RESET_INTERVAL == 0:
            decay = [1.0] * n_physical
        pending, blocked = blocked, []

    return RoutingResult(None, initial.copy(), layout, swap_count, trace=trace, nodes=nodes)


def _extended_set(successors, two_qubit, front) -> list[int]:
    """Up to EXTENDED_SET_SIZE two-qubit node ids reachable from the front layer."""
    out = []
    seen = set(front)
    queue = list(front)  # breadth-first: the loop below also visits what it appends
    for node_id in queue:
        for succ in successors[node_id]:
            if succ in seen:
                continue
            seen.add(succ)
            if two_qubit[succ]:
                out.append(succ)
                if len(out) >= EXTENDED_SET_SIZE:
                    return out
            queue.append(succ)
    return out


def sabre_layout(
    dag: GateDag,
    graph: CouplingGraph,
    iterations: int = SABRE_ITERATIONS,
    seed: int = SABRE_SEED,
    n_logical: int | None = None,
) -> RoutingResult:
    """Search for an initial layout by alternating forward and reverse routing.

    Starts from a seeded random permutation; each round routes the circuit
    forward, then routes the reversed circuit starting from the forward
    pass's final layout to seed the next round.  Returns the forward pass
    that inserted the fewest swaps, stopping early on a zero-swap pass; its
    ``initial_layout`` is the chosen layout.  The last round skips its
    backward pass, so this makes at most ``2 * iterations - 1``
    ``sabre_swap`` calls (``iterations`` below 1 count as 1).
    """
    if n_logical is None:
        n_logical = max((q + 1 for n in dag.nodes for q in n.qubits), default=0)
    _check_capacity(n_logical, graph.n_physical)
    rng = np.random.default_rng(seed)
    perm = [int(p) for p in rng.permutation(graph.n_physical)[:n_logical]]
    current = Layout(perm, graph.n_physical)
    if not dag.nodes:
        return RoutingResult([], current, current.copy(), 0)

    reversed_dag = dag.reversed()
    rounds = max(iterations, 1)
    best = None
    for round_index in range(rounds):
        forward = sabre_swap(dag, current, graph)
        if best is None or forward.swap_count < best.swap_count:
            best = forward
        # The last round's backward pass would only seed a round that never runs.
        if forward.swap_count == 0 or round_index == rounds - 1:
            break
        current = sabre_swap(reversed_dag, forward.final_layout, graph).final_layout
    return best


def route_program(
    program: QuantumProgram,
    graph: CouplingGraph,
    layout: Layout | None = None,
    seed: int = SABRE_SEED,
    native: NativeGateSet | None = None,
    sabre_iterations: int = SABRE_ITERATIONS,
) -> tuple[QuantumProgram, RoutingResult]:
    """Map a program onto a device and insert the swaps routing requires.

    Returns the rewritten program over physical qubit indices together with
    the routing report.  When the native gate set lacks swap, the routed
    program goes through ``decompose_unsupported``, which expands each swap
    by its qelib1 body of 3 cx (the report keeps both counts).  Barriers
    constrain routing order but are dropped from the routed program.
    """
    n_logical = program.n_qubits
    dag = build_dag(program)
    if layout is None:
        result = sabre_layout(dag, graph, sabre_iterations, seed, n_logical)
    elif len(layout.log_to_phys) < n_logical or layout.n_physical != graph.n_physical:
        raise RoutingError("layout does not cover the program and device")
    else:
        result = sabre_swap(dag, layout, graph)

    device = QRegister(size=graph.n_physical, name="device")
    refs = [QubitRef(p) for p in range(graph.n_physical)]
    ops = [
        Inst(gate.name, gate.params, tuple(refs[p] for p in gate.qubits), gate.result, gate.condition)
        for gate in result.routed_gates
    ]
    routed = QuantumProgram(registers=[device], cregs=list(program.cregs), ops=ops)
    if result.swap_count and native is not None and "swap" not in native:
        routed = decompose_unsupported(routed, native)
        result.swap_cx_count = 3 * result.swap_count
    return routed, result
