"""Single-qubit fusion, Euler-angle resynthesis and native-set rewriting.

The optimizer never invents entanglement: two-qubit structure is left alone
except for the cancellation of adjacent identical cx pairs at levels 2 and 3.
All single-qubit rewriting happens through one funnel: accumulate a run into
a 2x2 unitary, decompose it in the ZYZ, ZXZ and XYX Euler bases, and keep the
shortest native rotation sequence.  Global phase is discarded at resynthesis;
every conditioned gate is classically controlled, so the phase is never
observable downstream.

The funnel does each piece of work once per matrix.  Unitarity is checked
only at the public boundary (``select_decomposition`` and
``euler_decompose``), never again in the private helpers behind it.  One ZYZ
solve of U serves both zyz and zxz (zxz only shifts the outer angles), and one
ZYZ solve of H.U.H serves xyx.  A parameterless single-qubit gate outside the
native set (``t``, ``s``, ``x``, ...) is resynthesized once per native set and
memoized; the memo is bounded by the gate vocabulary.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    NoValidBasisError,
    NotUnitaryError,
    QasmSemanticError,
    UnknownGateError,
    UnsupportedGateError,
)
from .ir import (
    FusedUnitary,
    Inst,
    IrOp,
    QuantumProgram,
    QubitRef,
    op_qubits,
)
from .qasm import qelib1
from .qasm.lower import instantiate, primitive

ANGLE_EPS = 1e-10
UNITARY_TOL = 1e-10
MAX_PASSES = 10

# Euler basis name -> (outer axis a, inner axis b) with U = e^{ia} Ra Rb Ra.
_BASES = {"zyz": ("z", "y"), "zxz": ("z", "x"), "xyx": ("x", "y")}
_BASIS_ORDER = ("zyz", "zxz", "xyx")
_AXIS_GATE = {"x": "rx", "y": "ry", "z": "rz"}
_H = gates.gate_matrix("h")


@dataclass(frozen=True)
class NativeGateSet:
    """The gate vocabulary a target executes directly.

    Must contain rotations about at least two distinct axes (so one Euler
    basis is expressible) and at least one entangling two-qubit gate.
    """

    names: frozenset[str]

    def __post_init__(self) -> None:
        axes = {g for g in ("rx", "ry", "rz") if g in self.names}
        if len(axes) < 2:
            raise UnsupportedGateError("native set needs rotations about two distinct axes")
        if not self.names & {"cx", "cz", "cy", "ch"}:
            raise UnsupportedGateError("native set needs a two-qubit entangling gate")

    def __contains__(self, name: str) -> bool:
        return name in self.names

    @classmethod
    def default(cls) -> "NativeGateSet":
        return cls(frozenset(["rz", "ry", "rx", "cx", "h", "swap", "measure", "reset"]))

    @classmethod
    def from_names(cls, names: list[str]) -> "NativeGateSet":
        return cls(frozenset(names) | {"measure", "reset"})


@dataclass(frozen=True)
class EulerDecomposition:
    """U = e^{i global_phase} R_a(beta) R_b(gamma) R_a(delta) in the named basis."""

    basis: str
    beta: float
    gamma: float
    delta: float
    global_phase: float


def _require_unitary(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (2, 2):
        raise NotUnitaryError(f"expected a 2x2 matrix, got shape {matrix.shape}")
    if not gates.is_unitary(matrix, UNITARY_TOL):
        raise NotUnitaryError("matrix is not unitary within 1e-10")
    return matrix


def _zyz_angles(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with U = e^{ia} Rz(beta) Ry(gamma) Rz(delta)."""
    det = np.linalg.det(matrix)
    alpha = cmath.phase(det) / 2
    v = cmath.exp(-1j * alpha) * matrix  # special unitary now
    gamma = 2 * math.atan2(abs(v[1, 0]), abs(v[0, 0]))
    if abs(v[1, 0]) < 1e-14:
        # gamma ~ 0: only beta+delta is determined; put it all in beta.
        return alpha, 2 * cmath.phase(v[1, 1]), gamma, 0.0
    if abs(v[0, 0]) < 1e-14:
        # gamma ~ pi: only beta-delta is determined.
        return alpha, 2 * cmath.phase(v[1, 0]), gamma, 0.0
    plus = 2 * cmath.phase(v[1, 1])  # beta + delta
    minus = 2 * cmath.phase(v[1, 0])  # beta - delta
    return alpha, (plus + minus) / 2, gamma, (plus - minus) / 2


def euler_decompose(matrix: np.ndarray, basis: str = "zyz") -> EulerDecomposition:
    """Decompose a 2x2 unitary into Euler angles in the given basis.

    The inner angle gamma is chosen in [0, pi] for the ZYZ-style solution the
    other bases are derived from; reconstruction matches the input to 1e-9.
    """
    if basis not in _BASES:
        raise ValueError(f"unknown Euler basis '{basis}'")
    u = _require_unitary(matrix)
    zyz = _zyz_angles(_H @ u @ _H if basis == "xyx" else u)
    return EulerDecomposition(basis, *_basis_angles(basis, zyz))


def _basis_angles(basis: str, zyz: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Normalized (beta, gamma, delta, alpha) in basis, from the ZYZ angles of
    U for zyz and zxz, or of H.U.H for xyx."""
    alpha, beta, gamma, delta = zyz
    if basis == "zxz":
        # Rx(g) = Rz(-pi/2) Ry(g) Rz(pi/2), so shift the outer angles.
        beta, delta = beta + math.pi / 2, delta - math.pi / 2
    elif basis == "xyx":
        # Conjugating by H swaps the x and z axes and flips y.
        gamma = -gamma
        if gamma < 0:
            # Ry(-g) = Rx(pi) Ry(g) Rx(-pi): fold the sign into the outer angles.
            gamma = -gamma
            beta += math.pi
            delta -= math.pi
    return _normalize(beta, gamma, delta, alpha)


def _wrap(angle: float) -> float:
    """Normalize to (-pi, pi]."""
    wrapped = math.remainder(angle, 2 * math.pi)
    if wrapped <= -math.pi:
        wrapped += 2 * math.pi
    return wrapped


def _normalize(beta: float, gamma: float, delta: float, alpha: float) -> tuple[float, float, float, float]:
    """Wrap the rotation angles to (-pi, pi], folding sign flips into the phase.

    Shifting a rotation angle by 2*pi negates its matrix (half-angle
    periodicity), so every odd wrap is compensated with a pi shift of the
    global phase to keep the reconstruction exact.
    """
    two_pi = 2.0 * math.pi
    wrapped = []
    for angle in (beta, gamma, delta):
        w = _wrap(angle)
        if round((angle - w) / two_pi) % 2:
            alpha += math.pi
        wrapped.append(w)
    return wrapped[0], wrapped[1], wrapped[2], _wrap(alpha)


def _is_zero_rotation(angle: float) -> bool:
    return abs(_wrap(angle)) <= ANGLE_EPS


def select_decomposition(matrix: np.ndarray, native: NativeGateSet) -> list[tuple[str, float]]:
    """Shortest native rotation sequence implementing the unitary up to phase.

    Returns (gate name, angle) pairs in application order.  All three Euler
    bases are tried; zero rotations are dropped and same-axis neighbours
    created by the drop are merged.  Ties go to zyz, then zxz, then xyx.
    """
    u = _require_unitary(matrix)
    zyz = _zyz_angles(u)
    hzyz = _zyz_angles(_H @ u @ _H)
    best: list[tuple[str, float]] | None = None
    for basis in _BASIS_ORDER:
        beta, gamma, delta, _ = _basis_angles(basis, hzyz if basis == "xyx" else zyz)
        outer, inner = _BASES[basis]
        # Application order: delta first (rightmost factor acts first).
        seq = [
            (_AXIS_GATE[outer], delta),
            (_AXIS_GATE[inner], gamma),
            (_AXIS_GATE[outer], beta),
        ]
        merged: list[tuple[str, float]] = []
        for name, angle in seq:
            if _is_zero_rotation(angle):
                continue
            if merged and merged[-1][0] == name:
                combined = _wrap(merged[-1][1] + angle)
                merged.pop()
                if not _is_zero_rotation(combined):
                    merged.append((name, combined))
                continue
            merged.append((name, angle))
        if any(name not in native for name, _ in merged):
            continue
        if best is None or len(merged) < len(best):
            best = merged
    if best is None:
        raise NoValidBasisError("no Euler basis is expressible in the native gate set")
    return best


# --- fusion -------------------------------------------------------------------


def _is_plain_gate(op: IrOp) -> bool:
    return isinstance(op, Inst) and op.result is None and op.condition is None and op.name not in ("measure", "reset")


def _single_qubit_matrix(op: IrOp) -> np.ndarray | None:
    if _is_plain_gate(op) and len(op.qubits) == 1:
        try:
            return gates.gate_matrix(op.name, op.params)
        except UnknownGateError:
            return None
    return None


def fuse_single_qubit_runs(program: QuantumProgram) -> list[IrOp | FusedUnitary]:
    """The program's ops with each maximal run of single-qubit gates collapsed
    into a FusedUnitary record.

    Runs end at two-qubit gates, measures, resets, barriers and conditioned
    gates.  Runs of length 1 pass through unchanged.  The fused matrix is
    the ordered product of the run, later gates on the left; the run itself
    rides along in FusedUnitary.source.  The records exist only between this
    pass and resynthesis, which turns each back into gates.
    """
    new_ops: list[IrOp | FusedUnitary | None] = []
    # Per logical qubit: (position, op, matrix) triples of the open run.
    runs: dict[int, list[tuple[int, Inst, np.ndarray]]] = {}

    def close_run(logical: int) -> None:
        run = runs.pop(logical, None)
        if not run or len(run) == 1:
            return
        product = run[0][2]
        for _, _, m in run[1:]:
            product = m @ product
        first_pos, first_op, _ = run[0]
        for pos, _, _ in run:
            new_ops[pos] = None
        new_ops[first_pos] = FusedUnitary(first_op.qubits[0], product, tuple(op for _, op, _ in run))

    for op in program.ops:
        matrix = _single_qubit_matrix(op)
        if matrix is not None:
            new_ops.append(op)
            runs.setdefault(op.qubits[0].logical_id, []).append((len(new_ops) - 1, op, matrix))
            continue
        for logical in op_qubits(op):
            close_run(logical)
        new_ops.append(op)
    for logical in list(runs):
        close_run(logical)
    return [op for op in new_ops if op is not None]


# --- native-set rewriting ------------------------------------------------------


def _rotation_insts(
    pairs: Iterable[tuple[str, float]], qubit: QubitRef, condition: tuple[int, int] | None = None
) -> list[Inst]:
    return [Inst(name, (angle,), (qubit,), None, condition) for name, angle in pairs]


def _stranger_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    try:
        return gates.gate_matrix(name, params)
    except UnknownGateError:
        raise UnsupportedGateError(f"unknown gate '{name}'") from None


@functools.lru_cache(maxsize=256)
def _fixed_gate_rotations(name: str, native: NativeGateSet) -> tuple[tuple[str, float], ...]:
    """Native rotation pairs of a parameterless single-qubit gate.

    Only parameterless names reach the memo, so it holds one entry per fixed
    gate of the vocabulary and native set in use, and no float key can alias
    0.0 with -0.0.
    """
    return tuple(select_decomposition(_stranger_matrix(name), native))


def decompose_unsupported(program: QuantumProgram, native: NativeGateSet | None = None) -> QuantumProgram:
    """Rewrite every gate outside the native set into native gates.

    Single-qubit strangers go through Euler resynthesis of their matrix;
    multi-qubit strangers are expanded through their standard-library bodies
    and the result is rewritten again until it is fully native.  Every gate
    expanded from a conditioned gate carries that gate's condition.
    """
    native = native or NativeGateSet.default()

    def rewrite(op: Inst, sink: list[IrOp]) -> None:
        if op.name in native or op.result is not None or op.name in ("measure", "reset"):
            sink.append(op)
            return
        if len(op.qubits) == 1:
            if op.params:
                pairs = select_decomposition(_stranger_matrix(op.name, op.params), native)
            else:
                pairs = _fixed_gate_rotations(op.name, native)
            sink.extend(_rotation_insts(pairs, op.qubits[0], op.condition))
            return
        gdef = qelib1.gate_defs().get(op.name)
        if gdef is None or op.name == "cx":  # cx's body is the CX builtin, cx again
            raise UnsupportedGateError(f"gate '{op.name}' cannot be lowered to the native set")
        try:
            body = instantiate(gdef, op.params, op.qubits, op.condition)
        except QasmSemanticError as err:  # its span would point into qelib1, not the program
            raise UnsupportedGateError(f"gate '{op.name}' cannot be lowered to the native set: {err.message}") from None
        for sub in body:
            rewrite(primitive(sub), sink)

    new_ops: list[IrOp] = []
    for op in program.ops:
        if isinstance(op, Inst):
            rewrite(op, new_ops)
        else:
            new_ops.append(op)
    return program.with_ops(new_ops)


def _resynthesize(program: QuantumProgram, native: NativeGateSet) -> QuantumProgram:
    """Fuse runs and replace each fused matrix by its best rotation sequence,
    keeping the original run whenever resynthesis would not shorten it."""
    new_ops: list[IrOp] = []
    for op in fuse_single_qubit_runs(program):
        if not isinstance(op, FusedUnitary):
            new_ops.append(op)
            continue
        pairs = select_decomposition(op.matrix, native)
        if len(pairs) < len(op.source):
            new_ops.extend(_rotation_insts(pairs, op.qubit))
        else:
            new_ops.extend(op.source)
    return program.with_ops(new_ops)


def _cancel_cx_pairs(program: QuantumProgram) -> QuantumProgram:
    """Remove adjacent identical unconditioned cx pairs (same control and
    target, nothing touching either qubit in between)."""
    ops = list(program.ops)
    last_on_qubit: dict[int, int] = {}
    removed: set[int] = set()

    for i, op in enumerate(ops):
        qubits = op_qubits(op)
        if isinstance(op, Inst) and op.name == "cx" and op.condition is None:
            a, b = qubits
            prev_a = last_on_qubit.get(a)
            if prev_a is not None and prev_a == last_on_qubit.get(b) and prev_a not in removed and ops[prev_a] == op:
                removed.add(prev_a)
                removed.add(i)
                # The qubits fall back to whatever preceded the cancelled pair.
                for q in (a, b):
                    last_on_qubit.pop(q, None)
                continue
        for q in qubits:
            last_on_qubit[q] = i
    if not removed:
        return program
    return program.with_ops([op for i, op in enumerate(ops) if i not in removed])


def optimize(program: QuantumProgram, level: int = 1, native: NativeGateSet | None = None) -> QuantumProgram:
    """Run the gate-level pipeline at the given level.

    Level 0 only rewrites foreign gates into the native set.  Level 1 adds
    fusion and Euler resynthesis, iterated to a fixpoint.  Levels 2 and 3
    additionally cancel adjacent identical cx pairs between passes.
    """
    if not 0 <= level <= 3:
        raise ValueError(f"optimization level must be 0..3, got {level}")
    native = native or NativeGateSet.default()
    program = decompose_unsupported(program, native)
    if level == 0:
        return program
    for _ in range(MAX_PASSES):
        previous = program.ops
        program = _resynthesize(program, native)
        if level >= 2:
            program = _cancel_cx_pairs(program)
        if program.ops == previous:
            break
    return program
