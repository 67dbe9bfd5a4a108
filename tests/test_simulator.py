"""Statevector oracle: simulation, equivalence checks, qubit permutation."""

import hashlib
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.cli import main
from qcc.errors import DimensionMismatchError, InvalidPermutationError, OracleError, UnknownGateError
from qcc.gates import unitary
from qcc.ir import Inst, QRegister, QuantumProgram, QubitRef
from qcc import gates, simulator
from qcc.simulator import (
    MATRIX_MEMO_SIZE,
    MAX_GATHER_QUBITS,
    apply_gate,
    equiv_up_to_global_phase,
    permute_qubits,
    simulate,
)

from conftest import QELIB1_POOL, qasm_program

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


@pytest.mark.parametrize("name, operands", [("cx", 1), ("h", 2), ("ccx", 2)])
def test_gate_arity_must_match_its_matrix(name, operands):
    qubits = tuple(QubitRef(i) for i in range(operands))
    prog = QuantumProgram([QRegister(2)], [], [Inst(name, (), qubits)])
    with pytest.raises(OracleError, match=f"gate '{name}' acts on"):
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


@pytest.mark.parametrize("length", [0, 3, 6])
def test_permute_rejects_a_length_that_is_not_a_power_of_two(length):
    # an empty state once went through log2(0) and ended in an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DimensionMismatchError, match=f"state length {length} is not a power of two"):
            permute_qubits(np.zeros(length, dtype=complex), [])


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


# ------------------------------------------------------------- output pins


def _without_trailing_measurements(program):
    kept, tail = [], True
    for op in reversed(program.ops):
        if tail and isinstance(op, Inst) and op.result is not None:
            continue
        tail = tail and not isinstance(op, Inst)
        kept.append(op)
    return program.with_ops(kept[::-1])


def _state_digest(states):
    h = hashlib.sha256()
    for state in states:
        h.update(state.tobytes())
    return h.hexdigest()


# sha256 over simulate(...).tobytes(), recorded from the tensordot/moveaxis
# kernel; any rewrite of the kernel must keep every bit of every amplitude.
SIMULATE_GOLDEN = {
    "benchmarks": "5c57e63423ae97f037b9d74ec04244534755913a9f3a630d5584f1cdfc48f215",
    "benchmarks-wide": "b2a9a1275b8316215f726cd66b571fbd271fce61233b1aba6a762c44f1c41c73",
    "corpus": "537078e90fd9d68be6d6630edd2d0f944a8dd5f685a6505bd77940733c44e0dd",
    "corpus-wide": "5ccdeacb196f97eb439e727bc58c18a886592a44d34cf841c06ab6fe60d86ec7",
    "cli": "f57470a4a59de5ffdc26f58359f6bdc92c1b30a6db58da7e394080be5e1536b5",
}


def test_simulate_output_is_pinned(corpus_programs, tmp_path, capsys):
    bundled = [_without_trailing_measurements(qasm_program(benchmark_source(name))) for name in list_benchmarks()]
    corpus = [prog for prog, _ in corpus_programs[:200]]
    cli_out = hashlib.sha256()
    for name in list_benchmarks():
        path = tmp_path / f"{name}.qasm"
        path.write_text(benchmark_source(name))
        assert main(["simulate", str(path)]) == 0
        cli_out.update(capsys.readouterr().out.encode())
    digests = {
        "benchmarks": _state_digest(simulate(prog) for prog in bundled),
        "benchmarks-wide": _state_digest(simulate(prog, max(8, prog.n_qubits)) for prog in bundled),
        "corpus": _state_digest(simulate(prog) for prog in corpus),
        "corpus-wide": _state_digest(simulate(prog, 5) for prog in corpus),
        "cli": cli_out.hexdigest(),
    }
    assert digests == SIMULATE_GOLDEN


# ------------------------------------------------------------- kernel


def _apply_gate_tensordot(state, matrix, qubits, n):
    """The tensordot/moveaxis kernel apply_gate replaced, kept as its bit-level reference."""
    k = len(qubits)
    psi = state.reshape([2] * n)
    state_axes = [n - 1 - q for q in qubits]
    op = np.asarray(matrix, dtype=complex).reshape([2] * (2 * k))
    out = np.tensordot(op, psi, axes=(list(range(k, 2 * k)), state_axes))
    out = np.moveaxis(out, list(range(k)), state_axes)
    return out.reshape(-1)


# Signed zeros, the floats next to +-pi and huge finite angles, beside plain ones.
ANGLES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, math.pi, -math.pi, 1e300, -1e300]
        + [float(np.nextafter(sign * math.pi, sign * to)) for sign in (1, -1) for to in (0, math.inf)]
    ),
    st.floats(-4.0, 4.0),
    st.floats(-1e300, 1e300),
)


@st.composite
def gate_sequences(draw):
    # Up to 12 qubits, so both kernels run: the gather one up to MAX_GATHER_QUBITS, the transposes above it.
    n = draw(st.integers(1, 12))
    pool = [entry for entry in QELIB1_POOL if entry[1] <= n]
    sequence = []
    for _ in range(draw(st.integers(1, 12))):
        name, arity, n_params = draw(st.sampled_from(pool))
        params = tuple(draw(st.lists(ANGLES, min_size=n_params, max_size=n_params)))
        qubits = tuple(draw(st.permutations(range(n)))[:arity])
        form = draw(st.sampled_from(["array", "list", "fortran"]))
        sequence.append((name, params, qubits, form))
    return n, draw(st.integers(0, 2**32 - 1)), sequence


@settings(max_examples=300)
@given(gate_sequences())
def test_apply_gate_keeps_the_bits_of_the_tensordot_kernel(case):
    n, seed, sequence = case
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    for name, params, qubits, form in sequence:
        matrix = unitary(name, params)
        given_matrix = {"array": matrix, "list": matrix.tolist(), "fortran": np.asfortranarray(matrix)}[form]
        expected = _apply_gate_tensordot(state, given_matrix, qubits, n)
        state = apply_gate(state, given_matrix, qubits, n)
        assert state.tobytes() == expected.tobytes()
    if n >= 2:
        # the qubit count comes from the operands; a matrix of another size raises
        with pytest.raises(ValueError):
            apply_gate(state, unitary("h"), (0, 1), n)
        with pytest.raises(ValueError):
            apply_gate(state, unitary("cx"), (1,), n)


# Gates on the lowest, highest and scattered qubits, in and out of order, so
# the operand-major view is a copy, a C view and an F view of the state.
WIDE_SEQUENCE = [
    ("h", (), (0,)),
    ("u3", (0.3, -0.0, 1e300), (9,)),
    ("cx", (), (0, 9)),
    ("cu3", (1.1, -2.2, 0.7), (9, 0)),
    ("ccx", (), (2, 7, 4)),
    ("swap", (), (1, 0)),
    ("ccx", (), (2, 1, 0)),
    ("crz", (-0.0,), (5, 3)),
]


@pytest.mark.parametrize("form", ["array", "list", "fortran"])
@pytest.mark.parametrize("n", [10, 11])
def test_both_kernels_keep_the_bits_of_the_tensordot_kernel(n, form):
    rng = np.random.default_rng(n)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    simulator._gather_indices.cache_clear()
    for name, params, qubits in WIDE_SEQUENCE + [("h", (), (n - 1,)), ("cx", (), (n - 1, 3))]:
        matrix = unitary(name, params)
        given_matrix = {"array": matrix, "list": matrix.tolist(), "fortran": np.asfortranarray(matrix)}[form]
        expected = _apply_gate_tensordot(state, given_matrix, qubits, n)
        state = apply_gate(state, given_matrix, qubits, n)
        assert state.tobytes() == expected.tobytes()
    # 10 qubits gather through cached indices; 11 keep the transposes and cache none
    assert (simulator._gather_indices.cache_info().currsize > 0) == (n <= MAX_GATHER_QUBITS)


def test_apply_gate_rejects_a_state_of_another_width():
    with pytest.raises(ValueError):
        apply_gate(np.eye(16, dtype=complex)[0], unitary("x"), (0,), 3)
    with pytest.raises(ValueError):
        apply_gate(np.eye(4, dtype=complex)[0], unitary("x"), (0,), 3)


@pytest.mark.parametrize("name, qubits", [("x", (3,)), ("x", (5,)), ("x", (-1,)), ("cx", (1, 1))])
def test_apply_gate_rejects_operands_outside_the_state(name, qubits):
    # the tensordot kernel wrapped qubits 3..5 of a 3-qubit state round to 0..2
    with pytest.raises(ValueError):
        apply_gate(np.eye(8, dtype=complex)[0], unitary(name), qubits, 3)


def test_simulate_needs_neither_tensordot_nor_moveaxis(monkeypatch, corpus_programs):
    expected = [simulate(prog) for prog, _ in corpus_programs[:20]]

    def forbidden(*args, **kwargs):
        raise AssertionError("the kernel must not call np.tensordot or np.moveaxis")

    monkeypatch.setattr(np, "tensordot", forbidden)
    monkeypatch.setattr(np, "moveaxis", forbidden)
    for (prog, _), state in zip(corpus_programs[:20], expected):
        assert simulate(prog).tobytes() == state.tobytes()
    # |011>: control q0 is set, so cx flips target q2, giving |111>
    state = apply_gate(np.eye(8, dtype=complex)[3], unitary("cx"), (0, 2), 3)
    assert np.array_equal(state, np.eye(8, dtype=complex)[7])


# ------------------------------------------------------------- matrix memo


def _program(n, gate_list):
    ops = [Inst(name, params, tuple(QubitRef(q) for q in qubits)) for name, params, qubits in gate_list]
    return QuantumProgram([QRegister(n)], [], ops)


def _fresh_state(n, gate_list):
    """The state from matrices gates.unitary builds anew for every gate."""
    state = np.eye(2**n, dtype=complex)[0]
    for name, params, qubits in gate_list:
        state = apply_gate(state, unitary(name, params), qubits, n)
    return state


@pytest.mark.parametrize("gate", ["rz", "ry"])
def test_signed_zero_angles_keep_their_own_matrices(monkeypatch, gate):
    monkeypatch.setattr(simulator, "_matrices", {})
    plus = [("h", (), (0,)), (gate, (0.0,), (0,)), ("cx", (), (0, 1)), (gate, (0.0,), (1,))]
    minus = [("h", (), (0,)), (gate, (-0.0,), (0,)), ("cx", (), (0, 1)), (gate, (-0.0,), (1,))]
    for gate_list in (plus, minus, plus):
        assert simulate(_program(2, gate_list)).tobytes() == _fresh_state(2, gate_list).tobytes()
    stored = {key: matrix.tobytes() for key, matrix in simulator._matrices.items() if key[0] == gate}
    assert stored == {(gate, struct.pack("d", z)): unitary(gate, (z,)).tobytes() for z in (0.0, -0.0)}
    # the two matrices differ in the sign of a zero; for ry the states do too
    assert len(set(stored.values())) == 2
    if gate == "ry":
        assert simulate(_program(2, plus)).tobytes() != simulate(_program(2, minus)).tobytes()


def test_memo_entries_are_read_only(monkeypatch):
    monkeypatch.setattr(simulator, "_matrices", {})
    simulate(_program(2, [("u3", (0.1, 0.2, 0.3), (0,)), ("cx", (), (0, 1))]))
    assert len(simulator._matrices) == 2
    for matrix in simulator._matrices.values():
        assert matrix.shape == (len(matrix), len(matrix))
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0


def test_memo_holds_at_most_its_bound(monkeypatch):
    monkeypatch.setattr(simulator, "_matrices", {})
    gate_list = [("rz", (0.001 * i,), (i % 3,)) for i in range(MATRIX_MEMO_SIZE + 50)]
    assert simulate(_program(3, gate_list)).tobytes() == _fresh_state(3, gate_list).tobytes()
    assert 0 < len(simulator._matrices) <= MATRIX_MEMO_SIZE


def test_each_distinct_gate_is_built_once(monkeypatch):
    monkeypatch.setattr(simulator, "_matrices", {})
    built = []
    real = gates.unitary

    def counting(name, params=()):
        built.append((name, struct.pack(f"{len(params)}d", *params)))
        return real(name, params)

    monkeypatch.setattr(gates, "unitary", counting)
    gate_list = [
        ("h", (), (0,)), ("rz", (0.5,), (1,)), ("rz", (0.5,), (2,)), ("rz", (-0.0,), (0,)), ("rz", (0.0,), (0,)),
        ("cx", (), (0, 1)), ("cx", (), (2, 1)), ("u3", (0.1, 0.2, 0.3), (2,)), ("h", (), (2,)),
    ]
    first = simulate(_program(3, gate_list))
    assert simulate(_program(3, gate_list)).tobytes() == first.tobytes()
    assert sorted(built) == sorted(set(built))
    assert len(built) == 6  # h, rz(0.5), rz(-0.0), rz(0.0), cx, u3


@pytest.mark.parametrize(
    "gate, message",
    [
        (("nope", (), (0,)), "no matrix known for gate 'nope'"),
        (("rz", (), (0,)), "gate 'rz' takes 1 parameter(s), got 0"),
        (("u3", (0.0, 1.7e308, 1.7e308), (0,)), "gate 'u3' has no finite matrix: phi + lambda overflows"),
    ],
)
def test_a_gate_without_a_matrix_raises_every_time(monkeypatch, gate, message):
    monkeypatch.setattr(simulator, "_matrices", {})
    for _ in range(2):
        with pytest.raises(UnknownGateError) as err:
            simulate(_program(1, [("h", (), (0,)), gate]))
        assert str(err.value) == message
    assert list(simulator._matrices) == [("h", b"")]


BELL = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'


@pytest.mark.parametrize("case", ["unknown-gate", "overflowing-u3"])
def test_cli_gate_without_a_matrix_is_a_diagnostic_every_time(tmp_path, capsys, case):
    if case == "unknown-gate":
        # The parser rejects a gate it does not know, but the extractor keeps a
        # declared QIS call it has no arity for, so the QIR path reaches simulate.
        circ = tmp_path / "bell.qasm"
        circ.write_text(BELL)
        assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
        path = tmp_path / "nope.qir.ll"
        path.write_text((tmp_path / "bell.qir.ll").read_text().replace("@__quantum__qis__h(", "@__quantum__qis__nope("))
        message = "no matrix known for gate 'nope'"
    else:
        path = tmp_path / "ov.qasm"
        path.write_text(BELL.replace("h q[0];", "u3(0,1.7e308,1.7e308) q[0];"))
        message = "gate 'u3' has no finite matrix: phi + lambda overflows"
    capsys.readouterr()
    for _ in range(2):
        assert main(["simulate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == f"{path}: error: {message}"
