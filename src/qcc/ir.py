"""Quantum intermediate representation.

A QuantumProgram is a flat list of gate operations (Inst and Barrier) over
logical qubits; its register lists alone say which registers exist, and a
register's id is its position in them.  A qubit is its logical id,
contiguous across all quantum registers in declaration order, so a program
with qreg a[2]; qreg b[3]; numbers its qubits a[0]=0, a[1]=1, b[0]=2,
b[1]=3, b[2]=4.  A classical condition is a field of the Inst it guards:
``condition=(creg_id, value)`` runs the op iff that creg equals the value.
Per-op records (Inst, Barrier, QubitRef, ResultRef, DagNode) are NamedTuples, equal by value.

One walk, ``_dependencies``, states what each op must wait for; the gate
dependency DAG that routing reads and the circuit depth both come from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple


class QubitRef(NamedTuple):
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


class ResultRef(NamedTuple):
    """Destination bit of a measurement; creg_id indexes the program's cregs."""

    creg_id: int
    index: int


# --- program operations ----------------------------------------------------


class Inst(NamedTuple):
    """A gate application, measurement (result set) or reset.

    With a condition (creg_id, value) it runs only when the creg at position
    creg_id equals value.
    """

    name: str
    params: tuple[float, ...]
    qubits: tuple[QubitRef, ...]
    result: ResultRef | None = None
    condition: tuple[int, int] | None = None


class FusedUnitary(NamedTuple):
    """The optimizer's record of a run of single-qubit gates, never a program op.

    Carries the qubit and the original run: a fused run, or a lone gate
    outside the native set.  The optimizer's splice solves the run and puts
    back its rotations, or the run itself when it is native and no longer.
    """

    qubit: QubitRef
    source: tuple = ()


class Barrier(NamedTuple):
    qubits: tuple[QubitRef, ...]


class ConditionalRegion(NamedTuple):
    """The former wrapper of a conditioned op, never a program op: programs state
    a condition as ``Inst.condition``, and this stays for perfbench's checks."""

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

    Nodes are Inst ops (gates, measures, resets, conditioned or not), and
    the edges are ``_dependencies``'.  ``nodes[i].node_id == i``, and
    ``successors[i]`` and ``predecessors[i]`` are ascending and hold no
    duplicates.  In a DAG that ``build_dag`` made every edge goes to a
    higher id, so id order is a topological order; in its reversal every
    edge goes to a lower id.
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


def _dependencies(program: QuantumProgram) -> Iterator[tuple[IrOp, tuple[int, ...], set[int]]]:
    """Yield each op in program order with its qubit ids and the ids of the earlier ops it must follow.

    An op's id is its position in ``program.ops``; it follows the last op on
    each of its qubits, one id per qubit.  A barrier stands for its fence:
    what follows it follows every Inst the barrier follows, directly or
    through earlier barriers, and it adds no gate to a chain.  A conditioned
    op is serialized against the classical register it reads: it follows
    every earlier measurement into that creg, and later measurements into
    the creg follow it.  A measurement's result is registered before its own
    condition, so a conditioned measurement orders after earlier readers of
    its bit and before later ones, and one that reads the creg it writes
    gets no edge to itself.  Measurements into distinct bits are otherwise
    independent.
    """
    last: dict[int, int] = {}
    last_bit_writer: dict[tuple[int, int], int] = {}
    creg_writers: dict[int, list[int]] = {}
    creg_barrier: dict[int, int] = {}
    for i, op in enumerate(program.ops):
        qubits = op_qubits(op)
        preds = {last[q] for q in qubits if q in last}
        for q in qubits:
            last[q] = i
        if isinstance(op, Inst):
            if op.result is not None:
                creg = op.result.creg_id
                bit = (creg, op.result.index)
                if bit in last_bit_writer:
                    preds.add(last_bit_writer[bit])
                if creg in creg_barrier:
                    preds.add(creg_barrier[creg])
                last_bit_writer[bit] = i
                creg_writers.setdefault(creg, []).append(i)
            if op.condition is not None:
                creg = op.condition[0]
                preds.update(creg_writers.get(creg, ()))
                preds.discard(i)
                if creg in creg_barrier:
                    preds.add(creg_barrier[creg])
                creg_barrier[creg] = i
                creg_writers[creg] = []
        yield op, qubits, preds


def build_dag(program: QuantumProgram) -> GateDag:
    """Build the def-use DAG of a program's Insts; node ids follow program order."""
    nodes: list[DagNode] = []
    successors: list[list[int]] = []
    predecessors: list[list[int]] = []
    # Per op: what an op that follows it must follow, an Inst's node or a barrier's fence.
    ends: list[tuple[int, ...] | set[int]] = []
    for op, qubits, preds in _dependencies(program):
        deps: set[int] = set()
        for p in preds:
            deps.update(ends[p])
        if isinstance(op, Barrier):
            ends.append(deps)
            continue
        nid = len(nodes)
        ends.append((nid,))
        nodes.append(DagNode(nid, op.name, op.params, qubits, op.result, op.condition))
        predecessors.append(sorted(deps))
        successors.append([])
        for p in predecessors[nid]:
            successors[p].append(nid)
    return GateDag(nodes, successors, predecessors)


def circuit_depth(program: QuantumProgram) -> int:
    """Length in gates of the longest dependency chain, the longest path of
    ``build_dag(program)`` without building it; 0 for no gates."""
    levels: list[int] = []
    for op, _, preds in _dependencies(program):
        level = max([levels[p] for p in preds]) if preds else 0
        levels.append(level + 1 if isinstance(op, Inst) else level)
    return max(levels, default=0)


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
