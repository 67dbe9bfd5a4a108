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

Each one-qubit gate's matrix is written down once, as a closed form
((a, b), (c, d)) of Python complex numbers (``unitary2``).  ``unitary``,
the public rotation builders and the controlled gates turn it into numpy
arrays; the optimizer multiplies and solves the closed forms directly, so
its bits do not depend on the BLAS kernel numpy picks at run time.
"""

from __future__ import annotations

import cmath
import inspect
import math

import numpy as np

from .errors import UnknownGateError

# A one-qubit matrix in closed form: its rows ((a, b), (c, d)) of Python complex numbers.
Mat2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_R = 1 / math.sqrt(2)
_I: Mat2 = ((1 + 0j, 0j), (0j, 1 + 0j))
_X: Mat2 = ((0j, 1 + 0j), (1 + 0j, 0j))
_Y: Mat2 = ((0j, -1j), (1j, 0j))
_Z: Mat2 = ((1 + 0j, 0j), (0j, -1 + 0j))
_H: Mat2 = ((_R + 0j, _R + 0j), (_R + 0j, -_R + 0j))


def _diag(phase: complex) -> Mat2:
    return ((1 + 0j, 0j), (0j, phase))


def _rx(theta: float) -> Mat2:
    c, s = complex(math.cos(theta / 2)), complex(0.0, -math.sin(theta / 2))
    return ((c, s), (s, c))


def _ry(theta: float) -> Mat2:
    c, s = complex(math.cos(theta / 2)), math.sin(theta / 2)
    return ((c, complex(-s)), (complex(s), c))


def _rz(theta: float) -> Mat2:
    return ((cmath.exp(-1j * theta / 2), 0j), (0j, cmath.exp(1j * theta / 2)))


def _u3(theta: float, phi: float, lam: float) -> Mat2:
    if not math.isfinite(phi + lam):  # finite parameters whose sum overflows
        raise OverflowError("phi + lambda overflows")
    # e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam), multiplied out.  Every
    # factor stays on the unit circle, so the product is unitary even where
    # phi + lambda rounds away a huge phase's low bits.
    (p0, _), (_, p1) = _rz(phi)
    (l0, _), (_, l1) = _rz(lam)
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    g = cmath.exp(1j * (phi + lam) / 2)
    return ((g * (p0 * c * l0), g * (p0 * -s * l1)), (g * (p1 * s * l0), g * (p1 * c * l1)))


def _u2(phi: float, lam: float) -> Mat2:
    return _u3(math.pi / 2, phi, lam)


def _u1(lam: float) -> Mat2:
    return _u3(0.0, 0.0, lam)


def _controlled(target: Mat2) -> np.ndarray:
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = target
    return m


# Every one-qubit qelib1 gate: name -> function from its parameters to its
# closed form.  The parameter count is the function's signature.
_ONE_QUBIT = {
    "id": lambda: _I,
    "x": lambda: _X,
    "y": lambda: _Y,
    "z": lambda: _Z,
    "h": lambda: _H,
    "s": lambda: _diag(1j),
    "sdg": lambda: _diag(-1j),
    "t": lambda: _diag(cmath.exp(1j * math.pi / 4)),
    "tdg": lambda: _diag(cmath.exp(-1j * math.pi / 4)),
    "rx": _rx,
    "ry": _ry,
    "rz": _rz,
    "u1": _u1,
    "u2": _u2,
    "u3": _u3,
}

# Every qelib1 gate: name -> function from its parameters to its matrix, a
# closed form for one qubit and a numpy array otherwise.  The qubit count is
# the matrix shape; qelib1.gate_table() derives the same arity from the gate
# bodies.
_MATRICES = {
    **_ONE_QUBIT,
    "cx": lambda: _controlled(_X),
    "cz": lambda: _controlled(_Z),
    "cy": lambda: _controlled(_Y),
    "ch": lambda: _controlled(_H),
    "crz": lambda lam: _controlled(_rz(lam)),
    "cu1": lambda lam: _controlled(_u1(lam)),
    "cu3": lambda theta, phi, lam: _controlled(_u3(theta, phi, lam)),
    "swap": lambda: np.eye(4, dtype=complex)[[0, 2, 1, 3]],
    "ccx": lambda: np.eye(8, dtype=complex)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def _build(table: dict, name: str, params: tuple[float, ...]):
    fn = table.get(name)
    if fn is None:
        raise UnknownGateError(f"no matrix known for gate '{name}'")
    try:
        return fn(*params)
    except TypeError:
        arity = len(inspect.signature(fn).parameters)
        raise UnknownGateError(f"gate '{name}' takes {arity} parameter(s), got {len(params)}") from None
    except OverflowError as err:
        raise UnknownGateError(f"gate '{name}' has no finite matrix: {err}") from None


def unitary(name: str, params: tuple[float, ...] = ()) -> np.ndarray:
    """Matrix of any gate in the vocabulary, including multi-qubit ones."""
    return np.array(_build(_MATRICES, name, params), dtype=complex)


def unitary2(name: str, params: tuple[float, ...] = ()) -> Mat2:
    """Closed form of a one-qubit gate's matrix; the same entries as unitary()."""
    return _build(_ONE_QUBIT, name, params)


def rx(theta: float) -> np.ndarray:
    return np.array(_rx(theta))


def ry(theta: float) -> np.ndarray:
    return np.array(_ry(theta))


def rz(theta: float) -> np.ndarray:
    return np.array(_rz(theta))


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    return np.array(_u3(theta, phi, lam))


def _deviation2(m: Mat2) -> float:
    """Frobenius norm of m^dagger m - I for a closed-form 2x2."""
    (a, b), (c, d) = m
    cross = abs(a.conjugate() * b + c.conjugate() * d)
    return math.hypot(abs(a) ** 2 + abs(c) ** 2 - 1, abs(b) ** 2 + abs(d) ** 2 - 1, cross, cross)


def is_unitary(matrix, tol: float = 1e-10) -> bool:
    """Frobenius-norm unitarity check.

    A list is a batch of closed-form 2x2 matrices, each checked in scalar
    arithmetic.  Anything else is read as a numpy square matrix, or a stack
    of shape (..., n, n) whose every matrix is checked at once.
    """
    if isinstance(matrix, list):
        return all(_deviation2(m) <= tol for m in matrix)
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
        return False
    eye = np.eye(matrix.shape[-1])
    deviation = np.swapaxes(matrix.conj(), -1, -2) @ matrix - eye
    return bool(np.all(np.linalg.norm(deviation, axis=(-2, -1)) <= tol))
