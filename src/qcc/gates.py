"""Gate matrix definitions.

Rotation conventions, fixed for the whole toolchain:

    Rz(t) = diag(e^{-it/2}, e^{it/2})
    Ry(t) = [[cos t/2, -sin t/2], [sin t/2, cos t/2]]
    Rx(t) = cos(t/2) I - i sin(t/2) X
    u3(t, p, l) = e^{i(p+l)/2} Rz(p) Ry(t) Rz(l)

Multi-qubit matrices index their rows with operand 0 as the most significant
bit, so cx acts on basis (control, target) and flips the target on the
|1x> block.  This is a property of the matrices only; statevector indexing
places qubit 0 in the least significant bit.
"""

from __future__ import annotations

import cmath
import inspect
import math

import numpy as np

from .errors import UnknownGateError

_I2 = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)


def rx(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * _I2 - 1j * math.sin(theta / 2) * _X


def ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rz(theta: float) -> np.ndarray:
    return np.array([[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]])


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return cmath.exp(1j * (phi + lam) / 2) * (rz(phi) @ ry(theta) @ rz(lam))


def u2(phi: float, lam: float) -> np.ndarray:
    return u3(math.pi / 2, phi, lam)


def u1(lam: float) -> np.ndarray:
    return u3(0.0, 0.0, lam)


def _controlled(target: np.ndarray) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = target
    return m


def _fixed(matrix: np.ndarray):
    return lambda: matrix.copy()


# Every qelib1 gate: name -> function from its parameters to its matrix.  The
# parameter count is the function's signature, the qubit count the matrix
# shape; qelib1.gate_table() derives the same arity from the gate bodies.
_MATRICES = {
    "id": _fixed(_I2),
    "x": _fixed(_X),
    "y": _fixed(_Y),
    "z": _fixed(_Z),
    "h": _fixed(_H),
    "s": _fixed(np.diag([1, 1j]).astype(complex)),
    "sdg": _fixed(np.diag([1, -1j]).astype(complex)),
    "t": _fixed(np.diag([1, cmath.exp(1j * math.pi / 4)])),
    "tdg": _fixed(np.diag([1, cmath.exp(-1j * math.pi / 4)])),
    "rx": rx,
    "ry": ry,
    "rz": rz,
    "u1": u1,
    "u2": u2,
    "u3": u3,
    "cx": _fixed(_controlled(_X)),
    "cz": _fixed(_controlled(_Z)),
    "cy": _fixed(_controlled(_Y)),
    "ch": _fixed(_controlled(_H)),
    "crz": lambda lam: _controlled(rz(lam)),
    "cu1": lambda lam: _controlled(u1(lam)),
    "cu3": lambda theta, phi, lam: _controlled(u3(theta, phi, lam)),
    "swap": _fixed(np.eye(4, dtype=complex)[[0, 2, 1, 3]]),
    "ccx": _fixed(np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]]),
}


def unitary(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of any gate in the vocabulary, including multi-qubit ones."""
    fn = _MATRICES.get(name)
    if fn is None:
        raise UnknownGateError(f"no matrix known for gate '{name}'")
    try:
        return fn(*params)
    except TypeError:
        arity = len(inspect.signature(fn).parameters)
        raise UnknownGateError(f"gate '{name}' takes {arity} parameter(s), got {len(params)}") from None


def gate_matrix(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """2x2 matrix of a single-qubit gate from the known table."""
    matrix = unitary(name, params)
    if matrix.shape != (2, 2):
        raise UnknownGateError(f"gate '{name}' is not a single-qubit gate")
    return matrix


def is_unitary(matrix: np.ndarray, tol: float = 1e-10) -> bool:
    """Frobenius-norm unitarity check."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return False
    eye = np.eye(matrix.shape[0])
    return bool(np.linalg.norm(matrix.conj().T @ matrix - eye) <= tol)
