"""Statevector oracle: simulation, equivalence checks, qubit permutation."""

import math

import numpy as np
import pytest

from qcc.errors import DimensionMismatchError, InvalidPermutationError, OracleError
from qcc.gates import unitary
from qcc.ir import Inst
from qcc.simulator import apply_gate, equiv_up_to_global_phase, permute_qubits, simulate

from conftest import qasm_program

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_single_hadamard():
    state = simulate(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n'))
    assert np.allclose(state, [INV_SQRT2, INV_SQRT2], atol=1e-12)


def test_empty_program_is_all_zeros_state():
    state = simulate(qasm_program("OPENQASM 2.0;\nqreg q[2];\n"))
    assert np.allclose(state, [1, 0, 0, 0], atol=0)


def test_ghz_state():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n'
        "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
    )
    state = simulate(qasm_program(src))
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[7] = INV_SQRT2
    assert np.allclose(state, expected, atol=1e-12)


def test_qubit_zero_is_least_significant():
    state = simulate(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[0];\n'))
    assert np.allclose(state, [0, 1, 0, 0], atol=0)
    state = simulate(qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nx q[1];\n'))
    assert np.allclose(state, [0, 0, 1, 0], atol=0)


def test_barriers_are_ignored():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nbarrier q;\nh q[0];\n'
    assert np.allclose(simulate(qasm_program(src)), [1, 0], atol=1e-12)


def test_widening_to_more_qubits():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nx q[0];\n')
    state = simulate(prog, n_qubits=3)
    assert state.shape == (8,)
    assert state[1] == 1.0


def test_measure_rejected():
    prog = qasm_program("OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nmeasure q[0] -> c[0];\n")
    with pytest.raises(OracleError, match="measure"):
        simulate(prog)


def test_reset_rejected():
    with pytest.raises(OracleError, match="reset"):
        simulate(qasm_program("OPENQASM 2.0;\nqreg q[1];\nreset q[0];\n"))


def test_conditional_rejected():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\nif(c==0) x q[0];\n'
    )
    with pytest.raises(OracleError, match="conditional"):
        simulate(prog)


def test_qubit_cap():
    with pytest.raises(OracleError, match="20"):
        simulate(qasm_program("OPENQASM 2.0;\nqreg q[21];\n"))


def test_norm_preserved_on_corpus(corpus_programs):
    for prog, _ in corpus_programs[:60]:
        state = simulate(prog)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)


def test_gate_then_inverse_is_identity():
    pairs = [("s", "sdg"), ("t", "tdg")]
    for a, b in pairs:
        src = (
            f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n{a} q[0];\n{b} q[0];\nh q[0];\n'
        )
        assert np.allclose(simulate(qasm_program(src)), [1, 0], atol=1e-12)


# ------------------------------------------------------------- equivalence


def test_equiv_accepts_global_phase():
    a = np.array([INV_SQRT2, INV_SQRT2], dtype=complex)
    assert equiv_up_to_global_phase(a, np.exp(0.83j) * a)
    assert equiv_up_to_global_phase(a, -a)
    assert equiv_up_to_global_phase(a, 1j * a)


def test_equiv_rejects_different_states():
    zero = np.array([1, 0], dtype=complex)
    one = np.array([0, 1], dtype=complex)
    assert not equiv_up_to_global_phase(zero, one)


def test_equiv_rejects_partial_hadamard():
    # H on one leg of a GHZ state is not a phase change
    ghz = simulate(
        qasm_program(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n'
        )
    )
    other = simulate(
        qasm_program(
            'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nh q[2];\n'
        )
    )
    assert not equiv_up_to_global_phase(ghz, other)


def test_equiv_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        equiv_up_to_global_phase(np.array([1, 0], dtype=complex), np.ones(4, dtype=complex))


# ------------------------------------------------------------- permutation


def test_permute_identity():
    state = np.arange(8, dtype=complex)
    assert np.array_equal(permute_qubits(state, [0, 1, 2]), state)


def test_permute_swaps_positions():
    # |q1 q0> = |01>, send logical 0 to position 1
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    out = permute_qubits(state, [1, 0])
    assert np.array_equal(out, [0, 0, 1, 0])


def test_permute_roundtrip_is_exact():
    rng = np.random.default_rng(23)
    state = rng.normal(size=16) + 1j * rng.normal(size=16)
    state /= np.linalg.norm(state)
    perm = [2, 0, 3, 1]
    inverse = [perm.index(k) for k in range(4)]
    back = permute_qubits(permute_qubits(state, perm), inverse)
    assert np.array_equal(back, state)  # bit-exact: pure reindexing


def test_permute_rejects_non_permutation():
    state = np.zeros(4, dtype=complex)
    with pytest.raises(InvalidPermutationError):
        permute_qubits(state, [0, 0])
    with pytest.raises(InvalidPermutationError):
        permute_qubits(state, [0, 2])


def test_permute_matches_swap_gate():
    src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nrz(0.5) q[0];\n'
    state = simulate(qasm_program(src))
    swapped = simulate(
        qasm_program(src + "swap q[0],q[1];\n")
    )
    assert np.allclose(permute_qubits(state, [1, 0]), swapped, atol=1e-12)


# ------------------------------------------------------------- reference oracle


def _apply_reference(state, matrix, qubits, n):
    """Bit-arithmetic gate application, independent of the tensordot path."""
    k = len(qubits)
    out = np.zeros_like(state)
    for idx in range(2**n):
        row = 0
        for q in qubits:
            row = (row << 1) | ((idx >> q) & 1)
        base = idx
        for q in qubits:
            base &= ~(1 << q)
        for col in range(2**k):
            src = base
            for pos, q in enumerate(qubits):
                src |= ((col >> (k - 1 - pos)) & 1) << q
            out[idx] += matrix[row, col] * state[src]
    return out


def test_apply_gate_matches_reference_oracle(corpus_programs):
    for prog, n in corpus_programs[:25]:
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        for op in prog.ops:
            if not isinstance(op, Inst) or op.name in ("measure", "reset"):
                continue
            matrix = unitary(op.name, op.params)
            qubits = tuple(q.logical_id for q in op.qubits)
            state = _apply_reference(state, matrix, qubits, n)
        fast = simulate(prog)
        assert np.max(np.abs(state - fast)) < 1e-10


def test_apply_gate_multi_qubit_direct():
    state = np.zeros(8, dtype=complex)
    state[0] = 1.0
    state = apply_gate(state, unitary("h", ()), (2,), 3)
    state = apply_gate(state, unitary("cx", ()), (2, 0), 3)
    expected = np.zeros(8, dtype=complex)
    expected[0] = expected[5] = INV_SQRT2  # |000> + |101>
    assert np.allclose(state, expected, atol=1e-12)
