"""Quantum intermediate representation.

A QuantumProgram is a flat list of runtime and gate operations over logical
qubits.  Logical qubit ids are contiguous across all quantum registers in
declaration order, so a program with qreg a[2]; qreg b[3]; numbers its qubits
a[0]=0, a[1]=1, b[0]=2, b[1]=3, b[2]=4.

The module also builds the gate dependency DAG used by scheduling, routing
and metrics.  Barriers are not DAG nodes: they contribute ordering edges only,
so node counts and depth reflect actual gates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QubitRef:
    """A single qubit: its register, index within it, and global logical id."""

    register_id: int
    index: int
    logical_id: int


@dataclass(frozen=True)
class QRegister:
    register_id: int
    size: int
    name: str = ""


@dataclass(frozen=True)
class CRegister:
    creg_id: int
    size: int
    name: str = ""


@dataclass(frozen=True)
class ResultRef:
    """Destination bit of a measurement."""

    creg_id: int
    index: int


# --- program operations ----------------------------------------------------


@dataclass(frozen=True)
class QRTInit:
    pass


@dataclass(frozen=True)
class QRTFinalize:
    pass


@dataclass(frozen=True)
class Qalloc:
    register: QRegister


@dataclass(frozen=True)
class Dealloc:
    register: QRegister


@dataclass(frozen=True)
class Inst:
    """A gate application, measurement (result set) or reset."""

    name: str
    params: tuple[float, ...]
    qubits: tuple[QubitRef, ...]
    result: ResultRef | None = None


@dataclass(frozen=True, eq=False)
class FusedUnitary:
    """Optimizer-internal stand-in for a run of single-qubit gates.

    Never survives an optimize() call; carries the accumulated 2x2 matrix
    (ordered product, later gates on the left) and the original run so
    resynthesis can fall back to it.
    """

    qubit: QubitRef
    matrix: np.ndarray
    source: tuple = ()


@dataclass(frozen=True)
class Barrier:
    qubits: tuple[QubitRef, ...]


@dataclass(frozen=True)
class ConditionalRegion:
    """A single op executed iff the named creg equals a constant."""

    creg_id: int
    value: int
    body: Inst


IrOp = (
    QRTInit
    | QRTFinalize
    | Qalloc
    | Dealloc
    | Inst
    | FusedUnitary
    | Barrier
    | ConditionalRegion
)


def op_qubits(op: IrOp) -> tuple[int, ...]:
    """Logical ids of the qubits an op touches; () for runtime and allocation ops."""
    # tuple([...]) rather than a generator: this runs once per op in several passes.
    if isinstance(op, (Inst, Barrier)):
        return tuple([q.logical_id for q in op.qubits])
    if isinstance(op, ConditionalRegion):
        return tuple([q.logical_id for q in op.body.qubits])
    if isinstance(op, FusedUnitary):
        return (op.qubit.logical_id,)
    return ()


@dataclass
class QuantumProgram:
    registers: list[QRegister]
    cregs: list[CRegister]
    ops: list[IrOp]

    @property
    def n_qubits(self) -> int:
        return sum(r.size for r in self.registers)

    def qubit(self, logical_id: int) -> QubitRef:
        """QubitRef for a global logical id."""
        base = 0
        for reg in self.registers:
            if logical_id < base + reg.size:
                return QubitRef(reg.register_id, logical_id - base, logical_id)
            base += reg.size
        raise IndexError(f"logical qubit {logical_id} out of range")

    def with_ops(self, ops: list[IrOp]) -> "QuantumProgram":
        return QuantumProgram(self.registers, self.cregs, ops)

    def finalized(self) -> "QuantumProgram":
        """Wrap the op list in QRTInit/QRTFinalize if not already present."""
        ops = list(self.ops)
        if not ops or not isinstance(ops[0], QRTInit):
            ops.insert(0, QRTInit())
        if not isinstance(ops[-1], QRTFinalize):
            ops.append(QRTFinalize())
        return self.with_ops(ops)


def instruction_kind(name: str, n_qubits: int) -> str:
    if name == "measure":
        return "measure"
    return {1: "single-qubit", 2: "two-qubit", 3: "three-qubit"}.get(n_qubits, f"{n_qubits}-qubit")


# --- gate dependency DAG ----------------------------------------------------


@dataclass
class DagNode:
    node_id: int
    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]
    kind: str
    origin: int
    result: ResultRef | None = None
    condition: tuple[int, int] | None = None


class GateDag:
    """Def-use dependency graph over gate instructions.

    Nodes are Inst ops (gates, measures, resets, conditional bodies); edges
    connect each gate to the next gate on every shared qubit.  Barriers add
    edges from every gate before the barrier on its qubit set to every gate
    after it, without becoming nodes themselves.
    """

    def __init__(self) -> None:
        self.nodes: list[DagNode] = []
        self.successors: dict[int, list[int]] = {}
        self.predecessors: dict[int, list[int]] = {}

    def add_node(self, node: DagNode) -> int:
        self.nodes.append(node)
        self.successors[node.node_id] = []
        self.predecessors[node.node_id] = []
        return node.node_id

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.successors[src]:
            self.successors[src].append(dst)
            self.predecessors[dst].append(src)

    def front_layer(self) -> list[int]:
        """Node ids with no unexecuted predecessors, in node order."""
        return [n.node_id for n in self.nodes if not self.predecessors[n.node_id]]

    def topological_order(self) -> list[int]:
        indeg = {n.node_id: len(self.predecessors[n.node_id]) for n in self.nodes}
        # Iterating while appending visits nodes in FIFO order, like a queue.
        order = [nid for nid, d in sorted(indeg.items()) if d == 0]
        for nid in order:
            for succ in self.successors[nid]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    order.append(succ)
        return order

    def reversed(self) -> "GateDag":
        """The DAG of the reversed gate sequence (for backward routing passes).

        Node ids are preserved; only edge directions flip and the node list
        order is reversed so iteration follows the reversed program.
        """
        rev = GateDag()
        for node in reversed(self.nodes):
            rev.add_node(node)
        for src, dsts in self.successors.items():
            for dst in dsts:
                rev.add_edge(dst, src)
        return rev


def build_dag(program: QuantumProgram) -> GateDag:
    """Build the def-use DAG for a program's gate instructions.

    Conditional regions become nodes for their body gate, serialized against
    the classical register they read: a conditional depends on every earlier
    measurement into that creg, and later measurements into the creg depend on
    the conditional.  Measurements into distinct bits are otherwise independent.
    """
    dag = GateDag()
    # Per qubit: its last node, or after a barrier the list of nodes any later
    # gate on that qubit must follow.
    last: dict[int, int | list[int]] = {}
    last_bit_writer: dict[tuple[int, int], int] = {}
    creg_writers: dict[int, list[int]] = {}
    creg_barrier: dict[int, int] = {}

    def link(node_id: int, qubits: tuple[int, ...]) -> None:
        for q in qubits:
            prev = last.get(q)
            if isinstance(prev, list):
                for p in prev:
                    dag.add_edge(p, node_id)
            elif prev is not None:
                dag.add_edge(prev, node_id)
            last[q] = node_id

    def add_inst(inst: Inst, origin: int, condition: tuple[int, int] | None = None) -> int:
        qubits = tuple(q.logical_id for q in inst.qubits)
        node = DagNode(
            node_id=len(dag.nodes),
            name=inst.name,
            params=inst.params,
            qubits=qubits,
            kind=instruction_kind(inst.name, len(qubits)),
            origin=origin,
            result=inst.result,
            condition=condition,
        )
        dag.add_node(node)
        link(node.node_id, qubits)
        return node.node_id

    for index, op in enumerate(program.ops):
        if isinstance(op, Inst):
            nid = add_inst(op, index)
            if op.result is not None:
                creg = op.result.creg_id
                bit = (creg, op.result.index)
                if bit in last_bit_writer:
                    dag.add_edge(last_bit_writer[bit], nid)
                if creg in creg_barrier:
                    dag.add_edge(creg_barrier[creg], nid)
                last_bit_writer[bit] = nid
                creg_writers.setdefault(creg, []).append(nid)
        elif isinstance(op, ConditionalRegion):
            nid = add_inst(op.body, index, condition=(op.creg_id, op.value))
            for writer in creg_writers.get(op.creg_id, []):
                dag.add_edge(writer, nid)
            if op.creg_id in creg_barrier:
                dag.add_edge(creg_barrier[op.creg_id], nid)
            creg_barrier[op.creg_id] = nid
            creg_writers[op.creg_id] = []
        elif isinstance(op, Barrier):
            qubits = op_qubits(op)
            fence: list[int] = []
            for q in qubits:
                prev = last.get(q)
                if isinstance(prev, list):
                    fence.extend(p for p in prev if p not in fence)
                elif prev is not None and prev not in fence:
                    fence.append(prev)
            for q in qubits:
                last[q] = fence
        elif isinstance(op, FusedUnitary):
            inst = Inst("fused", (), (op.qubit,))
            add_inst(inst, index)
        # Alloc/dealloc and runtime init/finalize carry no gate dependencies.
    return dag


def circuit_depth(dag: GateDag) -> int:
    """Length in gates of the longest dependency chain; 0 for no gates."""
    depth: dict[int, int] = {}
    for nid in dag.topological_order():
        preds = dag.predecessors[nid]
        depth[nid] = 1 + max((depth[p] for p in preds), default=0)
    return max(depth.values(), default=0)


def gate_counts(program: QuantumProgram) -> dict[str, int]:
    """Metrics record over a program's instructions.

    Counts exclude barriers, allocations and runtime ops.  Measurements are
    reported separately from gates; swaps are counted twice on purpose, once
    as two-qubit gates and once in their own bucket.
    """
    total = 0
    single = 0
    two = 0
    swap = 0
    measure = 0

    def tally(inst: Inst) -> None:
        nonlocal total, single, two, swap, measure
        if inst.result is not None or inst.name == "measure":
            measure += 1
            return
        total += 1
        n = len(inst.qubits)
        if n == 1:
            single += 1
        elif n == 2:
            two += 1
        if inst.name == "swap":
            swap += 1

    for op in program.ops:
        if isinstance(op, Inst):
            tally(op)
        elif isinstance(op, ConditionalRegion):
            tally(op.body)
        elif isinstance(op, FusedUnitary):
            total += 1
            single += 1

    return {
        "total_gates": total,
        "single_qubit_gates": single,
        "two_qubit_gates": two,
        "swap_gates": swap,
        "measure_ops": measure,
        "depth": circuit_depth(build_dag(program)),
    }
