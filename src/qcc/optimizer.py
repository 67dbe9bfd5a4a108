"""Single-qubit fusion, Euler-angle resynthesis and native-set rewriting.

The optimizer never invents entanglement: two-qubit structure is left alone
except for the cancellation of adjacent identical cx pairs at levels 2 and 3.
All single-qubit rewriting happens through one funnel: accumulate a run into
a 2x2 unitary, decompose it in the ZYZ, ZXZ and XYX Euler bases, and keep the
shortest native rotation sequence.  Global phase is discarded at resynthesis;
every conditioned gate is classically controlled, so the phase is never
observable downstream.

The funnel works on batches, and in closed form.  ``select_decomposition``
takes a list of closed-form 2x2 matrices (``gates.Mat2``), as resynthesis
passes it, as well as one numpy matrix or a (k, 2, 2) stack, and checks
unitarity once per batch.  Each matrix is then solved alone in scalar
arithmetic: det = ad - bc, the removal of its phase, H.U.H and the ZYZ
angles, so no bit of the output depends on the BLAS or LAPACK build.  One ZYZ
solve of U serves both zyz and zxz (zxz only shifts the outer angles), one
ZYZ solve of H.U.H serves xyx, and ``euler_decompose`` uses the same solver.

Every single-qubit rewrite uses one record and one splice: fusion makes a
``FusedUnitary`` of each run, ``decompose_unsupported`` one of each
single-qubit gate outside the native set, and ``_splice`` solves a pass's
records in one call and puts back each one's rotations or its own gates.
A run, keyed by its gate names and parameter bit patterns (so 0.0 and -0.0
stay apart), is multiplied out only if its key is not memoized yet.  The
memo lives for one ``optimize`` call, or one ``decompose_unsupported``
call, so no run is solved twice in it; no solve is made for an empty batch.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import gates
from .errors import (
    NotUnitaryError,
    QasmSemanticError,
    UnsupportedGateError,
)
from .ir import (
    FusedUnitary,
    Inst,
    IrOp,
    QuantumProgram,
    op_qubits,
    param_bits,
)
from .qasm import qelib1
from .qasm.lower import instantiate, primitive

ANGLE_EPS = 1e-10
UNITARY_TOL = 1e-10
MAX_PASSES = 10
# Gates whose matrix sums two parameters: a finite phi and lambda can still
# overflow, so a native one is rejected here rather than emitted unchecked.
_PHASE_SUM_GATES = frozenset({"u2", "u3", "cu3"})

# Euler basis name -> (outer gate, inner gate) with U = e^{ia} Ra Rb Ra, in
# the order that ties are broken.
_BASES = {"zyz": ("rz", "ry"), "zxz": ("rz", "rx"), "xyx": ("rx", "ry")}

# (gate name, angle) pairs in application order.
Rotations = list[tuple[str, float]]


@dataclass(frozen=True)
class NativeGateSet:
    """The gate vocabulary a target executes directly.

    Must contain rotations about at least two distinct axes (so one Euler
    basis is expressible) and at least one entangling two-qubit gate, and
    no name outside qelib1.  Measure and reset are always native.
    """

    names: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", self.names | {"measure", "reset"})
        unknown = sorted(self.names - qelib1.gate_table().keys() - {"measure", "reset"})
        if unknown:
            raise UnsupportedGateError(f"unknown native gate {unknown[0]!r}")
        axes = {g for g in ("rx", "ry", "rz") if g in self.names}
        if len(axes) < 2:
            raise UnsupportedGateError("native set needs rotations about two distinct axes")
        if not self.names & {"cx", "cz", "cy", "ch"}:
            raise UnsupportedGateError("native set needs a two-qubit entangling gate")

    def __contains__(self, name: str) -> bool:
        return name in self.names

    @classmethod
    def default(cls) -> "NativeGateSet":
        return cls(frozenset(["rz", "ry", "rx", "cx", "h", "swap"]))

    @classmethod
    def from_names(cls, names: list[str]) -> "NativeGateSet":
        return cls(frozenset(names))


@dataclass(frozen=True)
class EulerDecomposition:
    """U = e^{i global_phase} R_a(beta) R_b(gamma) R_a(delta) in the named basis."""

    basis: str
    beta: float
    gamma: float
    delta: float
    global_phase: float


def _closed_forms(matrix, stack_ok: bool = False) -> list[gates.Mat2]:
    """The input as a list of closed-form 2x2 matrices.

    A list is taken as it is.  A 2x2 matrix is a list of one; a (k, 2, 2)
    stack is accepted only when stack_ok.  Every matrix must be unitary.
    """
    if not isinstance(matrix, list):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape == (2, 2):
            matrix = matrix[None]
        elif not (stack_ok and matrix.ndim == 3 and matrix.shape[1:] == (2, 2)):
            expected = "a 2x2 matrix or a (k, 2, 2) stack" if stack_ok else "a 2x2 matrix"
            raise NotUnitaryError(f"expected {expected}, got shape {matrix.shape}")
        matrix = matrix.tolist()
    if not gates.is_unitary(matrix, UNITARY_TOL):
        raise NotUnitaryError("matrix is not unitary within 1e-10")
    return matrix


def _zyz_angles(alpha: float, v00: complex, v10: complex, v11: complex) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with U = e^{ia} Rz(beta) Ry(gamma) Rz(delta),
    from the entries of the special unitary e^{-ia} U."""
    gamma = 2 * math.atan2(abs(v10), abs(v00))
    if abs(v10) < 1e-14:
        # gamma ~ 0: only beta+delta is determined; put it all in beta.
        return alpha, 2 * cmath.phase(v11), gamma, 0.0
    if abs(v00) < 1e-14:
        # gamma ~ pi: only beta-delta is determined.
        return alpha, 2 * cmath.phase(v10), gamma, 0.0
    plus = 2 * cmath.phase(v11)  # beta + delta
    minus = 2 * cmath.phase(v10)  # beta - delta
    return alpha, (plus + minus) / 2, gamma, (plus - minus) / 2


def _zyz_pair(m: gates.Mat2) -> tuple[tuple, tuple]:
    """The ZYZ angles of U and of H.U.H, whose determinants are equal."""
    (a, b), (c, d) = m
    alpha = cmath.phase(a * d - b * c) / 2
    phase = cmath.exp(-1j * alpha)
    half = 0.5 * phase  # H.U.H = ((a+b+c+d, a-b+c-d), (a+b-c-d, a-b-c+d)) / 2
    return (
        _zyz_angles(alpha, phase * a, phase * c, phase * d),
        _zyz_angles(alpha, half * (a + b + c + d), half * (a + b - c - d), half * (a - b - c + d)),
    )


def euler_decompose(matrix, basis: str = "zyz") -> EulerDecomposition:
    """Decompose a 2x2 unitary into Euler angles in the given basis.

    The inner angle gamma is chosen in [0, pi] for the ZYZ-style solution the
    other bases are derived from; reconstruction matches the input to 1e-9.
    """
    if basis not in _BASES:
        raise ValueError(f"unknown Euler basis '{basis}'")
    (m,) = _closed_forms(matrix)
    zyz, hzyz = _zyz_pair(m)
    return EulerDecomposition(basis, *_normalize(*_basis_angles(basis, hzyz if basis == "xyx" else zyz)))


def _basis_angles(basis: str, zyz: tuple[float, float, float, float]) -> tuple[float, float, float, float]:
    """Unwrapped (beta, gamma, delta, alpha) in basis, from the ZYZ angles of
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
    return beta, gamma, delta, alpha


def _wrap(angle: float) -> float:
    """Normalize to (-pi, pi], where it is the identity."""
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


def _shortest_sequence(zyz: tuple, hzyz: tuple, names: frozenset[str]) -> Rotations:
    """The shortest sequence of gates in names over the three bases, from the
    ZYZ angles of U and of H.U.H.  The global phase is never wrapped: nothing
    reads it."""
    best: Rotations | None = None
    for basis, (outer, inner) in _BASES.items():
        beta, gamma, delta, _ = _basis_angles(basis, hzyz if basis == "xyx" else zyz)
        # Application order: delta first (rightmost factor acts first).
        beta, gamma, delta = _wrap(beta), _wrap(gamma), _wrap(delta)
        if abs(gamma) > ANGLE_EPS:
            seq = [(outer, delta)] if abs(delta) > ANGLE_EPS else []
            seq.append((inner, gamma))
            if abs(beta) > ANGLE_EPS:
                seq.append((outer, beta))
        elif abs(delta) > ANGLE_EPS and abs(beta) > ANGLE_EPS:
            # The outer rotations meet and merge; both angles are wrapped.
            combined = _wrap(delta + beta)
            seq = [(outer, combined)] if abs(combined) > ANGLE_EPS else []
        else:
            seq = [(outer, angle) for angle in (delta, beta) if abs(angle) > ANGLE_EPS]
        if (best is None or len(seq) < len(best)) and names.issuperset([name for name, _ in seq]):
            best = seq
            if not best:
                break
    return best  # a native set has rotations about two axes, and each pair of axes is a basis


def select_decomposition(matrix, native: NativeGateSet) -> Rotations | list[Rotations]:
    """Shortest native rotation sequence implementing the unitary up to phase.

    Returns (gate name, angle) pairs in application order.  All three Euler
    bases are tried; zero rotations are dropped and same-axis neighbours
    created by the drop are merged.  Ties go to zyz, then zxz, then xyx.

    Given a (k, 2, 2) stack, or a list of k closed-form 2x2 matrices, it
    returns the k sequences, each the one its matrix gives alone; unitarity
    is then checked once for the whole batch.
    """
    forms = _closed_forms(matrix, stack_ok=True)
    sequences = [_shortest_sequence(*_zyz_pair(m), native.names) for m in forms]
    return sequences if isinstance(matrix, list) or np.ndim(matrix) == 3 else sequences[0]


# --- fusion -------------------------------------------------------------------


def _is_one_qubit_gate(op: Inst) -> bool:
    """Whether op applies a one-qubit gate of the standard table with the
    table's parameter count: exactly the ops that have a 2x2 matrix."""
    return len(op.qubits) == 1 and qelib1.gate_table().get(op.name) == (len(op.params), 1)


def fuse_single_qubit_runs(program: QuantumProgram) -> list[IrOp | FusedUnitary]:
    """The program's ops with each maximal run of single-qubit gates collapsed
    into a FusedUnitary record.

    Runs end at two-qubit gates, measures, resets, barriers and conditioned
    gates.  Runs of length 1 pass through unchanged.  Fusion only groups:
    a gate joins a run by its arity in the standard table, and no matrix is
    built here; resynthesis multiplies out the runs it has not solved yet.
    The records exist only between this pass and ``_splice``, which turns
    each back into gates.
    """
    new_ops: list[IrOp | FusedUnitary | None] = []
    # Per logical qubit: the positions of the open run's gates.
    runs: dict[int, list[int]] = {}

    def close_run(logical: int) -> None:
        run = runs.pop(logical, ())
        if len(run) < 2:
            return
        source = tuple(new_ops[pos] for pos in run)
        for pos in run[1:]:
            new_ops[pos] = None
        new_ops[run[0]] = FusedUnitary(source[0].qubits[0], source)

    for op in program.ops:
        if isinstance(op, Inst) and op.result is None and op.condition is None and _is_one_qubit_gate(op):
            runs.setdefault(op.qubits[0].logical_id, []).append(len(new_ops))
        else:
            for logical in op_qubits(op):
                close_run(logical)
        new_ops.append(op)
    for logical in list(runs):
        close_run(logical)
    return [op for op in new_ops if op is not None]


# --- native-set rewriting ------------------------------------------------------


def decompose_unsupported(program: QuantumProgram, native: NativeGateSet | None = None) -> QuantumProgram:
    """Rewrite every gate outside the native set into native gates.

    Single-qubit strangers go through Euler resynthesis of their matrix;
    multi-qubit strangers are expanded through their standard-library bodies
    and the result is rewritten again until it is fully native.  Every gate
    expanded from a conditioned gate carries that gate's condition.  A u2, u3
    or cu3 whose phi + lambda overflows is a diagnostic naming that overflow,
    whether it is native or not.
    """
    native = native or NativeGateSet.default()

    def rewrite(op: Inst, sink: list[IrOp | FusedUnitary]) -> None:
        # Native or not, the overflow is named the same way; a one-qubit
        # stranger meets this check when its run is multiplied out.
        if op.name in _PHASE_SUM_GATES and (op.name in native or len(op.qubits) > 1):
            gates.unitary(op.name, op.params)  # raises when phi + lambda overflows
        if op.name in native:
            sink.append(op)
            return
        if len(op.qubits) == 1:
            if not _is_one_qubit_gate(op):
                raise UnsupportedGateError(f"unknown gate '{op.name}'")
            sink.append(FusedUnitary(op.qubits[0], (op,)))  # a run of one, solved with the rest
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

    walked: list[IrOp | FusedUnitary] = []
    for op in program.ops:
        if isinstance(op, Inst):
            rewrite(op, walked)
        else:
            walked.append(op)
    return program.with_ops(_splice(walked, native, {}))


def _run_key(run: tuple[Inst, ...]) -> tuple[tuple[str, ...], bytes]:
    """The gate names of a run and the ``param_bits`` of its parameters,
    which together fix its fused matrix."""
    return tuple(op.name for op in run), param_bits([p for op in run for p in op.params])


def _run_matrix(run: tuple[Inst, ...]) -> gates.Mat2:
    """The closed-form 2x2 product of a run of one-qubit gates, later gates
    on the left."""
    (a, b), (c, d) = gates.unitary2(run[0].name, run[0].params)
    for op in run[1:]:
        (e, f), (g, h) = gates.unitary2(op.name, op.params)
        a, b, c, d = e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d
    return (a, b), (c, d)


def _solve(runs: list[tuple[Inst, ...]], native: NativeGateSet, memo: dict[tuple, Rotations]) -> list[Rotations]:
    """The native rotation pairs of each run of one-qubit gates.  memo maps the
    key of every run solved so far to its pairs; the distinct runs not in it
    are multiplied out, solved in one batched call and added to it."""
    keys = [_run_key(run) for run in runs]
    unsolved = {key: run for key, run in zip(keys, runs) if key not in memo}
    if unsolved:
        matrices = [_run_matrix(run) for run in unsolved.values()]
        memo.update(zip(unsolved, select_decomposition(matrices, native)))
    return [memo[key] for key in keys]


def _splice(ops: list[IrOp | FusedUnitary], native: NativeGateSet, memo: dict[tuple, Rotations]) -> list[IrOp]:
    """ops with each FusedUnitary record, all solved in one batch, put back as
    its rotations when they are fewer than its gates or one of its gates is
    not native, and as its gates otherwise.  The rotations carry the first
    gate's condition: a stranger's own, None for a fused run."""
    solved = iter(_solve([op.source for op in ops if isinstance(op, FusedUnitary)], native, memo))
    new_ops: list[IrOp] = []
    for op in ops:
        if not isinstance(op, FusedUnitary):
            new_ops.append(op)
            continue
        pairs = next(solved)
        if len(pairs) < len(op.source) or not native.names.issuperset([g.name for g in op.source]):
            condition = op.source[0].condition
            new_ops.extend([Inst(name, (angle,), (op.qubit,), None, condition) for name, angle in pairs])
        else:
            new_ops.extend(op.source)
    return new_ops


def _resynthesize(program: QuantumProgram, native: NativeGateSet, memo: dict[tuple, Rotations]) -> QuantumProgram:
    """Fuse runs and splice each back as its best rotation sequence or as
    itself.  memo is the optimize call's, so a run is solved once per call."""
    return program.with_ops(_splice(fuse_single_qubit_runs(program), native, memo))


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
    memo: dict[tuple, Rotations] = {}
    for _ in range(MAX_PASSES):
        previous = program.ops
        program = _resynthesize(program, native, memo)
        if level >= 2:
            program = _cancel_cx_pairs(program)
        if program.ops == previous:
            break
    return program
