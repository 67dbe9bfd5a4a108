"""Quantum intermediate representation.

A QuantumProgram is a flat list of gate operations (Inst and Barrier) over
logical qubits; its register lists alone say which registers exist, and a
register's id is its position in them.  A qubit is its logical id,
contiguous across all quantum registers in declaration order, so a program
with qreg a[2]; qreg b[3]; numbers its qubits a[0]=0, a[1]=1, b[0]=2,
b[1]=3, b[2]=4.  A classical condition is a field of the Inst it guards:
``condition=(creg_id, value)`` runs the op iff that creg equals the value.

The module also builds the gate dependency DAG used by scheduling, routing
and metrics.  Barriers are not DAG nodes: they contribute ordering edges only,
so node counts and depth reflect actual gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class QubitRef:
    """A single qubit, named by its global logical id; the register lists
    say which register and index that is."""

    logical_id: int


@dataclass(frozen=True)
class QRegister:
    size: int
    name: str = ""


@dataclass(frozen=True)
class CRegister:
    size: int
    name: str = ""


@dataclass(frozen=True)
class ResultRef:
    """Destination bit of a measurement; creg_id indexes the program's cregs."""

    creg_id: int
    index: int


# --- program operations ----------------------------------------------------


@dataclass(frozen=True)
class Inst:
    """A gate application, measurement (result set) or reset.

    With a condition (creg_id, value) it runs only when the creg at position
    creg_id equals value.
    """

    name: str
    params: tuple[float, ...]
    qubits: tuple[QubitRef, ...]
    result: ResultRef | None = None
    condition: tuple[int, int] | None = None


@dataclass(frozen=True, eq=False)
class FusedUnitary:
    """The optimizer's record of a run of single-qubit gates, never a program op.

    Carries the qubit and the original run; resynthesis multiplies the run
    out when it solves it, and falls back to the run when that is shorter.
    """

    qubit: QubitRef
    source: tuple = ()


@dataclass(frozen=True)
class Barrier:
    qubits: tuple[QubitRef, ...]


@dataclass(frozen=True)
class ConditionalRegion:
    """The former wrapper form of a conditioned op, never a program op.

    Programs state a condition as ``Inst.condition``; this class stays only
    because perfbench's checks import it.
    """

    creg_id: int
    value: int
    body: Inst


IrOp = Inst | Barrier


def op_qubits(op: IrOp) -> tuple[int, ...]:
    """Logical ids of the qubits an op touches, in operand order."""
    # tuple([...]) rather than a generator: this runs once per op in several passes.
    return tuple([q.logical_id for q in op.qubits])


@dataclass
class QuantumProgram:
    registers: list[QRegister]
    cregs: list[CRegister]
    ops: list[IrOp]

    @property
    def n_qubits(self) -> int:
        return sum(r.size for r in self.registers)

    def with_ops(self, ops: list[IrOp]) -> "QuantumProgram":
        return QuantumProgram(self.registers, self.cregs, ops)


def instruction_kind(name: str, n_qubits: int) -> str:
    if name == "measure":
        return "measure"
    return {1: "single-qubit", 2: "two-qubit", 3: "three-qubit"}.get(n_qubits, f"{n_qubits}-qubit")


# --- gate dependency DAG ----------------------------------------------------


class DagNode(NamedTuple):
    node_id: int
    name: str
    params: tuple[float, ...]
    qubits: tuple[int, ...]
    result: ResultRef | None = None
    condition: tuple[int, int] | None = None


class GateDag:
    """Def-use dependency graph over gate instructions.

    Nodes are Inst ops (gates, measures, resets, conditioned or not); edges
    connect each gate to the next gate on every shared qubit.  Barriers add
    edges from every gate before the barrier on its qubit set to every gate
    after it, without becoming nodes themselves.
    """

    def __init__(self) -> None:
        self.nodes: list[DagNode] = []
        self.successors: dict[int, list[int]] = {}
        self.predecessors: dict[int, list[int]] = {}

    def add_node(self, node: DagNode) -> None:
        self.nodes.append(node)
        self.successors[node.node_id] = []
        self.predecessors[node.node_id] = []

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.successors[src]:
            self.successors[src].append(dst)
            self.predecessors[dst].append(src)

    def reversed(self) -> "GateDag":
        """The DAG of the reversed gate sequence (for backward routing passes).

        Node ids are preserved; only edge directions flip and the node list
        order is reversed so iteration follows the reversed program.
        """
        position = {node.node_id: i for i, node in enumerate(self.nodes)}
        rev = GateDag()
        rev.nodes = self.nodes[::-1]
        # The lists add_edge(dst, src) over the forward edges, sources in node
        # order, would build: forward predecessors by node position, successors as is.
        for node in rev.nodes:
            nid = node.node_id
            rev.successors[nid] = sorted(self.predecessors[nid], key=position.__getitem__)
            rev.predecessors[nid] = list(self.successors[nid])
        return rev


def build_dag(program: QuantumProgram) -> GateDag:
    """Build the def-use DAG for a program's gate instructions.

    A conditioned op is serialized against the classical register it reads:
    it depends on every earlier measurement into that creg, and later
    measurements into the creg depend on it.  A measurement's result is
    registered before its own condition, so a conditioned measurement orders
    after earlier readers of its bit and before later ones, and one that reads
    the creg it writes gets no edge to itself.  Measurements into distinct
    bits are otherwise independent.
    """
    dag = GateDag()
    # Per qubit: its last node, or after a barrier the list of nodes any later
    # gate on that qubit must follow.
    last: dict[int, int | list[int]] = {}
    last_bit_writer: dict[tuple[int, int], int] = {}
    creg_writers: dict[int, list[int]] = {}
    creg_barrier: dict[int, int] = {}

    for op in program.ops:
        if isinstance(op, Inst):
            qubits = op_qubits(op)
            nid = len(dag.nodes)
            dag.add_node(DagNode(nid, op.name, op.params, qubits, op.result, op.condition))
            for q in qubits:
                prev = last.get(q)
                if isinstance(prev, list):
                    for p in prev:
                        dag.add_edge(p, nid)
                elif prev is not None:
                    dag.add_edge(prev, nid)
                last[q] = nid
            if op.result is not None:
                creg = op.result.creg_id
                bit = (creg, op.result.index)
                if bit in last_bit_writer:
                    dag.add_edge(last_bit_writer[bit], nid)
                if creg in creg_barrier:
                    dag.add_edge(creg_barrier[creg], nid)
                last_bit_writer[bit] = nid
                creg_writers.setdefault(creg, []).append(nid)
            if op.condition is not None:
                creg = op.condition[0]
                for writer in creg_writers.get(creg, []):
                    if writer != nid:
                        dag.add_edge(writer, nid)
                if creg in creg_barrier:
                    dag.add_edge(creg_barrier[creg], nid)
                creg_barrier[creg] = nid
                creg_writers[creg] = []
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
    return dag


def circuit_depth(dag: GateDag) -> int:
    """Length in gates of the longest dependency chain; 0 for no gates."""
    depth: dict[int, int] = {}
    # Every edge points forward in the node list, so it is a topological order.
    for node in dag.nodes:
        nid = node.node_id
        depth[nid] = 1 + max((depth[p] for p in dag.predecessors[nid]), default=0)
    return max(depth.values(), default=0)


def gate_counts(program: QuantumProgram) -> dict[str, int]:
    """Metrics record over a program's instructions.

    Counts exclude barriers.  Measurements are reported separately from
    gates; swaps are counted twice on purpose, once as two-qubit gates and
    once in their own bucket.
    """
    total = 0
    single = 0
    two = 0
    swap = 0
    measure = 0

    for op in program.ops:
        if not isinstance(op, Inst):
            continue
        if op.result is not None or op.name == "measure":
            measure += 1
            continue
        total += 1
        n = len(op.qubits)
        if n == 1:
            single += 1
        elif n == 2:
            two += 1
        if op.name == "swap":
            swap += 1

    return {
        "total_gates": total,
        "single_qubit_gates": single,
        "two_qubit_gates": two,
        "swap_gates": swap,
        "measure_ops": measure,
        "depth": circuit_depth(build_dag(program)),
    }
