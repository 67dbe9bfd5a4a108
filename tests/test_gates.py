"""Gate matrix conventions and unitarity."""

import cmath
import math

import numpy as np
import pytest

from qcc.gates import UnknownGateError, gate_matrix, is_unitary, rx, ry, rz, u3, unitary
from qcc.qasm import ast, qelib1
from qcc.simulator import apply_gate

INV_SQRT2 = 1.0 / math.sqrt(2.0)

ALL_GATES = sorted(qelib1.gate_table())


def test_h_matrix():
    expected = INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex)
    assert np.allclose(unitary("h", ()), expected, atol=1e-15)


def test_pauli_matrices():
    assert np.array_equal(unitary("x", ()), np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(unitary("y", ()), np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(unitary("z", ()), np.array([[1, 0], [0, -1]], dtype=complex))
    assert np.array_equal(unitary("id", ()), np.eye(2, dtype=complex))


def test_phase_family():
    assert np.allclose(unitary("s", ()), np.diag([1, 1j]))
    assert np.allclose(unitary("sdg", ()), np.diag([1, -1j]))
    assert np.allclose(unitary("t", ()), np.diag([1, cmath.exp(1j * math.pi / 4)]))
    assert np.allclose(unitary("tdg", ()), np.diag([1, cmath.exp(-1j * math.pi / 4)]))
    assert np.allclose(unitary("u1", (0.3,)), np.diag([1, cmath.exp(0.3j)]))


def test_rotation_conventions():
    theta = 0.7
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert np.allclose(rz(theta), np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)]))
    assert np.allclose(ry(theta), np.array([[c, -s], [s, c]]))
    assert np.allclose(rx(theta), np.array([[c, -1j * s], [-1j * s, c]]))


def test_rotation_zero_is_identity():
    for fn in (rx, ry, rz):
        assert np.allclose(fn(0.0), np.eye(2), atol=1e-15)


def test_u3_against_zyz_formula():
    # u3(theta, phi, lam) = e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam)
    rng = np.random.default_rng(7)
    for _ in range(100):
        theta, phi, lam = rng.uniform(-math.pi, math.pi, 3)
        expected = cmath.exp(1j * (phi + lam) / 2) * (rz(phi) @ ry(theta) @ rz(lam))
        assert np.allclose(u3(theta, phi, lam), expected, atol=1e-12)


def test_u3_special_cases():
    # u3 has 1 in the top-left corner: no global phase on |0> when theta=0, lam=0
    m = u3(0.0, 0.4, 0.0)
    assert abs(m[0, 0] - 1.0) < 1e-12
    assert np.allclose(u3(math.pi / 2, 0.0, math.pi), unitary("h", ()), atol=1e-12)


def test_cx_is_msb_controlled():
    # operand 0 is the most significant bit of the basis index
    expected = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert np.array_equal(unitary("cx", ()), expected)


def test_swap_matrix():
    expected = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.array_equal(unitary("swap", ()), expected)


def test_controlled_block_structure():
    # top-left 2x2 block identity, bottom-right holds the target unitary
    for name, params, target in [
        ("cz", (), unitary("z", ())),
        ("cy", (), unitary("y", ())),
        ("ch", (), unitary("h", ())),
        ("crz", (0.5,), rz(0.5)),
    ]:
        m = unitary(name, params)
        assert np.allclose(m[:2, :2], np.eye(2), atol=1e-15)
        assert np.allclose(m[:2, 2:], 0, atol=1e-15)
        assert np.allclose(m[2:, :2], 0, atol=1e-15)
        assert np.allclose(m[2:, 2:], target, atol=1e-12)


def test_ccx_flips_only_when_both_controls_set():
    m = unitary("ccx", ())
    expected = np.eye(8, dtype=complex)
    expected[6, 6] = expected[7, 7] = 0
    expected[6, 7] = expected[7, 6] = 1
    assert np.array_equal(m, expected)


def test_cu1_is_symmetric_phase():
    m = unitary("cu1", (0.9,))
    assert np.allclose(m, np.diag([1, 1, 1, cmath.exp(0.9j)]), atol=1e-12)


@pytest.mark.parametrize("name", ALL_GATES)
def test_every_gate_is_unitary(name):
    n_params, n_qubits = qelib1.gate_table()[name]
    params = tuple(0.37 * (k + 1) for k in range(n_params))
    m = unitary(name, params)
    assert m.shape == (2**n_qubits, 2**n_qubits)
    assert is_unitary(m)


def test_is_unitary_rejects_non_unitary():
    assert not is_unitary(np.array([[1, 1], [0, 1]], dtype=complex))
    assert not is_unitary(2 * np.eye(2, dtype=complex))


def test_unknown_gate_rejected():
    with pytest.raises(UnknownGateError):
        unitary("frobnicate", ())
    with pytest.raises(UnknownGateError):
        gate_matrix("cx", ())  # two-qubit gates have no 2x2 matrix


def test_wrong_parameter_count_rejected():
    with pytest.raises(UnknownGateError):
        unitary("rz", ())
    with pytest.raises(UnknownGateError):
        unitary("h", (0.1,))
    with pytest.raises(UnknownGateError):
        unitary("crz", ())


def test_gate_arity_table():
    table = qelib1.gate_table()
    assert len(table) == 24
    assert table["u3"] == (3, 1)
    assert table["cx"] == (0, 2)
    assert table["ccx"] == (0, 3)
    assert table["cu3"] == (3, 2)
    assert "nope" not in table


def _qasm_u(theta, phi, lam):
    # U(theta, phi, lambda) as the OpenQASM 2.0 specification writes it.
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s], [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]]
    )


_QASM_CX = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _expand_to_primitives(name, params, operands):
    """(matrix, operands) pairs of a qelib1 gate's body, expanded down to U and CX."""
    if name == "U":
        return [(_qasm_u(*params), operands)]
    if name == "CX":
        return [(_QASM_CX, operands)]
    gdef = qelib1.gate_defs()[name]
    env = dict(zip(gdef.params, params))
    qmap = dict(zip(gdef.qubits, operands))
    out = []
    for stmt in gdef.body:
        values = tuple(ast.evaluate(p, env) for p in stmt.params)
        out += _expand_to_primitives(stmt.name, values, tuple(qmap[a.reg] for a in stmt.qargs))
    return out


@pytest.mark.parametrize("name", ALL_GATES)
def test_matrix_table_matches_qelib1_body(name):
    # The matrix table and the qelib1 bodies are two encodings of each gate;
    # compare the full 2^n x 2^n unitaries, not states reached from |0...0>.
    n_params, n_qubits = qelib1.gate_table()[name]
    params = tuple(0.37 * (k + 1) for k in range(n_params))
    # Gate operand i sits on qubit n-1-i so operand 0 is the most significant
    # bit of the statevector index, as in the matrix table.
    steps = _expand_to_primitives(name, params, tuple(range(n_qubits - 1, -1, -1)))
    dim = 2**n_qubits
    columns = []
    for col in range(dim):
        state = np.zeros(dim, dtype=complex)
        state[col] = 1.0
        for matrix, qubits in steps:
            state = apply_gate(state, matrix, qubits, n_qubits)
        columns.append(state)
    from_body = np.array(columns).T
    expected = unitary(name, params)
    assert expected.shape == (dim, dim)
    overlap = np.trace(expected.conj().T @ from_body) / dim
    assert abs(abs(overlap) - 1.0) < 1e-12
    assert np.allclose(from_body, overlap * expected, atol=1e-12)
