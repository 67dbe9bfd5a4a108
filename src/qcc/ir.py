"""Quantum intermediate representation.

A QuantumProgram is a flat list of gate operations (Inst and Barrier) over
logical qubits; its register lists alone say which registers exist, and a
register's id is its position in them.  A qubit is its logical id,
contiguous across all quantum registers in declaration order, so a program
with qreg a[2]; qreg b[3]; numbers its qubits a[0]=0, a[1]=1, b[0]=2,
b[1]=3, b[2]=4.  A classical condition is a field of the Inst it guards:
``condition=(creg_id, value)`` runs the op iff that creg equals the value.

The module also builds the gate dependency DAG that routing reads:
three lists indexed by node id, built once and reversed by swapping its two
edge lists.  Node ids follow program order, so in a DAG that ``build_dag``
made, id order is topological; in its reversal it is the reverse.  Barriers
are not DAG nodes: they contribute ordering edges only, so node counts and
depth reflect actual gates.
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

    Carries the qubit and the original run: a fused run, or a lone gate
    outside the native set.  The optimizer's splice solves the run and puts
    back its rotations, or the run itself when it is native and no longer.
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


class GateDag(NamedTuple):
    """Def-use dependency graph over gate instructions, as three lists indexed
    by node id.

    Nodes are Inst ops (gates, measures, resets, conditioned or not); edges
    connect each gate to the next gate on every shared qubit.  Barriers add
    edges from every gate before the barrier on its qubit set to every gate
    after it, without becoming nodes themselves.

    ``nodes[i].node_id == i``, and ``successors[i]`` and ``predecessors[i]``
    are ascending and hold no duplicates.  In a DAG that ``build_dag`` made
    every edge goes to a higher id, so id order is a topological order; in
    its reversal every edge goes to a lower id.
    """

    nodes: list[DagNode]
    successors: list[list[int]]
    predecessors: list[list[int]]

    def reversed(self) -> "GateDag":
        """The DAG of the reversed gate sequence (for backward routing passes).

        The same nodes and ids with every edge flipped, sharing this DAG's
        lists; reversing it again gives this DAG back.
        """
        return GateDag(self.nodes, self.predecessors, self.successors)


def build_dag(program: QuantumProgram) -> GateDag:
    """Build the def-use DAG for a program's gate instructions.

    A conditioned op is serialized against the classical register it reads:
    it depends on every earlier measurement into that creg, and later
    measurements into the creg depend on it.  A measurement's result is
    registered before its own condition, so a conditioned measurement orders
    after earlier readers of its bit and before later ones, and one that reads
    the creg it writes gets no edge to itself.  Measurements into distinct
    bits are otherwise independent.  Node ids follow program order.
    """
    nodes: list[DagNode] = []
    successors: list[list[int]] = []
    predecessors: list[list[int]] = []
    # Per qubit: the nodes any later gate on that qubit must follow, which is
    # its last node or, after a barrier, the barrier's fence.
    last: dict[int, tuple[int, ...] | set[int]] = {}
    last_bit_writer: dict[tuple[int, int], int] = {}
    creg_writers: dict[int, list[int]] = {}
    creg_barrier: dict[int, int] = {}

    for op in program.ops:
        qubits = op_qubits(op)
        if isinstance(op, Barrier):
            fence = set().union(*(last.get(q, ()) for q in qubits))
            for q in qubits:
                last[q] = fence
            continue
        nid = len(nodes)
        preds: set[int] = set()
        for q in qubits:
            preds.update(last.get(q, ()))
            last[q] = (nid,)
        if op.result is not None:
            creg = op.result.creg_id
            bit = (creg, op.result.index)
            if bit in last_bit_writer:
                preds.add(last_bit_writer[bit])
            if creg in creg_barrier:
                preds.add(creg_barrier[creg])
            last_bit_writer[bit] = nid
            creg_writers.setdefault(creg, []).append(nid)
        if op.condition is not None:
            creg = op.condition[0]
            preds.update(creg_writers.get(creg, ()))
            preds.discard(nid)
            if creg in creg_barrier:
                preds.add(creg_barrier[creg])
            creg_barrier[creg] = nid
            creg_writers[creg] = []
        nodes.append(DagNode(nid, op.name, op.params, qubits, op.result, op.condition))
        predecessors.append(sorted(preds))
        successors.append([])
        for p in predecessors[nid]:
            successors[p].append(nid)
    return GateDag(nodes, successors, predecessors)


def circuit_depth(program: QuantumProgram) -> int:
    """Length in gates of the longest dependency chain of ``build_dag(program)``; 0 for no gates.

    One pass over the ops, without the DAG: each wire keeps the level (the
    longest chain ending there) of the nodes a later op on it must follow,
    and an op's level is one more than the highest level among its wires.
    The wires are ``build_dag``'s edges: each qubit, each classical bit's
    last writer, each creg's writers since its last reader, and each
    creg's last reader.  A barrier adds no level; it fences its qubits at
    their highest one.
    """
    qubit: dict[int, int] = {}
    bit: dict[tuple[int, int], int] = {}
    writers: dict[int, int] = {}
    reader: dict[int, int] = {}
    depth = 0
    for op in program.ops:
        qubits = op_qubits(op)
        level = max([qubit.get(q, 0) for q in qubits], default=0)
        if isinstance(op, Inst):
            result, condition = op.result, op.condition
            if result is not None:
                written = (result.creg_id, result.index)
                level = max(level, bit.get(written, 0), reader.get(result.creg_id, 0))
            if condition is not None:
                # writers as they stand before this op's own write: a measurement
                # into the creg it reads follows earlier writers only
                level = max(level, writers.get(condition[0], 0), reader.get(condition[0], 0))
            level += 1
            if result is not None:
                bit[written] = level
                writers[result.creg_id] = max(writers.get(result.creg_id, 0), level)
            if condition is not None:
                reader[condition[0]] = level
                writers[condition[0]] = 0
            if level > depth:
                depth = level
        for q in qubits:
            qubit[q] = level
    return depth


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
        "depth": circuit_depth(program),
    }
