"""Dense statevector simulation for equivalence checking.

This is the verification oracle for the optimizer, the router and the QIR
round trip.  It is deliberately unitary-only: measurements, resets and
classically conditioned gates raise OracleError, and the qubit count is capped
at 20 so a forgotten register size cannot allocate gigabytes.

State indexing convention: qubit 0 is the least significant bit of the
amplitude index, so |q2 q1 q0> = |110> has index 6.

Each gate is one matrix product.  The state, viewed as a tensor with one
axis per qubit, is transposed so the gate's axes come first (the order and
its inverse are cached per operand tuple and width), viewed as a
(2^k, 2^(n-k)) matrix and multiplied by the gate's matrix with np.dot.
np.tensordot forms this same product on this same layout, so every
amplitude has the bits of the tensordot/moveaxis kernel this one replaced.

Up to MAX_GATHER_QUBITS qubits the reshapes and transposes, a handful of
numpy calls that cost more than the arithmetic on a few dozen amplitudes,
become two gathers through index arrays cached per operand tuple and width:
np.arange(2^n) put through the same reshape/transpose/reshape, once each
way.  The gathered operand holds the transposed view's values in the same
order, so np.dot gets the same numbers, and its product is moved back the
way the transposes move it.  Each index costs 8 * 2^n bytes, so wider
states keep the transposes.

simulate builds each gate's matrix once per gate name and parameter bits
(0.0 and -0.0 are different keys) and keeps it, read-only, in a memo of at
most MATRIX_MEMO_SIZE entries that is emptied when full.
"""

from __future__ import annotations

import functools
import struct

import numpy as np

from . import gates
from .errors import DimensionMismatchError, InvalidPermutationError, OracleError
from .ir import Barrier, Inst, QuantumProgram

MAX_QUBITS = 20
# Widest state applied through cached gather indices (two of 8 KB at 10 qubits).
MAX_GATHER_QUBITS = 10
MATRIX_MEMO_SIZE = 1024

# (gate name, packed parameter bits) -> read-only matrix; see _gate_matrix.
_matrices: dict[tuple[str, bytes], np.ndarray] = {}


@functools.lru_cache(maxsize=4096)
def _axis_order(qubits: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Tensor shape of an n-qubit state, the axis order that puts the gate's
    axes first (the rest keep their order), and the inverse of that order."""
    # Axis j of the reshaped state holds qubit n-1-j.
    front = [n - 1 - q for q in qubits]
    order = front + [axis for axis in range(n) if axis not in front]
    inverse = sorted(range(len(order)), key=order.__getitem__)
    return (2,) * n, tuple(order), tuple(inverse)


@functools.lru_cache(maxsize=4096)
def _gather_indices(qubits: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """_axis_order's moves as index arrays: gathering the state through the
    first gives the (2^k, 2^(n-k)) operand-major matrix, and gathering that
    matrix's flat product through the second gives the new state."""
    shape, order, inverse = _axis_order(qubits, n)
    positions = np.arange(2**n)
    forward = positions.reshape(shape).transpose(order).reshape(2 ** len(qubits), -1)
    back = positions.reshape(shape).transpose(inverse).reshape(-1)
    forward.flags.writeable = back.flags.writeable = False
    return forward, back


def apply_gate(state: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit matrix to the named qubits of an n-qubit state.

    Matrix rows index operand 0 as the most significant bit, matching the
    tables in gates.py.  k is len(qubits): a matrix that does not hold
    2^k x 2^k entries raises ValueError, and so does a state that does not
    hold 2^n amplitudes.  The result equals the old tensordot/moveaxis form
    bit for bit (see the module docstring).
    """
    dim = 2 ** len(qubits)
    op = np.asarray(matrix, dtype=complex).reshape(dim, dim)
    if n <= MAX_GATHER_QUBITS:
        forward, back = _gather_indices(tuple(qubits), n)
        if len(state) != len(back):
            raise ValueError(f"a {n}-qubit state holds {len(back)} amplitudes, got {len(state)}")
        return np.dot(op, state[forward]).reshape(-1)[back]
    shape, order, inverse = _axis_order(tuple(qubits), n)
    psi = state.reshape(shape).transpose(order).reshape(dim, -1)
    return np.dot(op, psi).reshape(shape).transpose(inverse).reshape(-1)


def _gate_matrix(name: str, params: tuple[float, ...]) -> np.ndarray:
    """gates.unitary(name, params), built once per name and parameter bits.
    Keying on bits, as optimizer._run_key does, keeps 0.0 and -0.0 apart:
    their matrices can differ in the sign of a zero.  A gate that has no
    matrix raises here every time, since nothing is stored for it."""
    key = (name, struct.pack(f"{len(params)}d", *params))
    matrix = _matrices.get(key)
    if matrix is None:
        matrix = gates.unitary(name, params)
        matrix.flags.writeable = False
        if len(_matrices) >= MATRIX_MEMO_SIZE:
            _matrices.clear()
        _matrices[key] = matrix
    return matrix


def simulate(program: QuantumProgram, n_qubits: int | None = None) -> np.ndarray:
    """Statevector of a program applied to |0...0>.

    n_qubits may widen the register beyond the program's qubits (extra
    qubits stay |0>); it may not shrink it.
    """
    needed = program.n_qubits
    n = needed if n_qubits is None else n_qubits
    if n < needed:
        raise OracleError(f"program touches {needed} qubits, got n_qubits={n}")
    if n > MAX_QUBITS:
        raise OracleError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit simulation cap")

    state = np.zeros(2**n, dtype=complex)
    state[0] = 1.0
    for op in program.ops:
        if isinstance(op, Barrier):
            continue
        if not isinstance(op, Inst):
            raise OracleError(f"cannot simulate op {op!r}")
        if op.condition is not None:
            raise OracleError("conditional regions are not simulable in unitary mode")
        if op.result is not None or op.name in ("measure", "reset"):
            raise OracleError(f"'{op.name}' is not simulable in unitary mode")
        matrix, qubits = _gate_matrix(op.name, op.params), tuple([q.logical_id for q in op.qubits])
        if len(matrix) != 2 ** len(qubits):
            width = len(matrix).bit_length() - 1
            raise OracleError(f"gate '{op.name}' acts on {width} qubit(s) but is given {len(qubits)}")
        state = apply_gate(state, matrix, qubits, n)
    return state


def equiv_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff two unit-norm statevectors agree up to a global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"statevector sizes differ: {a.shape} vs {b.shape}")
    return bool(abs(np.vdot(a, b)) >= 1.0 - tol)


def permute_qubits(state: np.ndarray, perm: list[int]) -> np.ndarray:
    """Relabel qubits: bit l of each index moves to bit perm[l].

    perm must be a bijection on 0..n-1 where the state has 2^n amplitudes.
    """
    size = len(state)
    if size == 0 or size & (size - 1):
        raise DimensionMismatchError(f"state length {size} is not a power of two")
    n = size.bit_length() - 1
    if sorted(perm) != list(range(n)):
        raise InvalidPermutationError(f"{perm} is not a permutation of 0..{n - 1}")
    idx = np.arange(len(state))
    target = np.zeros_like(idx)
    for src, dst in enumerate(perm):
        target |= ((idx >> src) & 1) << dst
    out = np.empty_like(np.asarray(state, dtype=complex))
    out[target] = state
    return out
