"""Euler decomposition, gate fusion, resynthesis, and the optimization pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcc import gates, optimizer
from qcc.errors import NotUnitaryError, UnknownGateError, UnsupportedGateError
from qcc.gates import rx, ry, rz, unitary
from qcc.ir import FusedUnitary, Inst, QRegister, QuantumProgram, QubitRef
from qcc.optimizer import (
    ANGLE_EPS,
    NativeGateSet,
    decompose_unsupported,
    euler_decompose,
    fuse_single_qubit_runs,
    optimize,
    select_decomposition,
)
from qcc.qir import emit_qir
from qcc.simulator import equiv_up_to_global_phase, simulate

from conftest import QELIB1_POOL, qasm_program

AXIS = {"rx": rx, "ry": ry, "rz": rz}


def random_unitaries(n, seed):
    """Haar-ish random 2x2 unitaries via QR of complex Gaussians."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(m)
        out.append(q @ np.diag(np.diag(r) / np.abs(np.diag(r))))
    return out


def reconstruct(decomp):
    a, b = decomp.basis[0], decomp.basis[1]
    first, middle = AXIS[f"r{a}"], AXIS[f"r{b}"]
    m = first(decomp.beta) @ middle(decomp.gamma) @ first(decomp.delta)
    return np.exp(1j * decomp.global_phase) * m


def sequence_matrix(seq):
    m = np.eye(2, dtype=complex)
    for name, angle in seq:
        m = AXIS[name](angle) @ m
    return m


def gate_names(program):
    return [op.name for op in program.ops if isinstance(op, Inst)]


# ---------------------------------------------------------------- euler


def test_hadamard_zyz_angles():
    d = euler_decompose(unitary("h", ()), "zyz")
    assert d.basis == "zyz"
    assert d.beta == pytest.approx(0.0, abs=1e-12)
    assert d.gamma == pytest.approx(math.pi / 2, abs=1e-12)
    assert d.delta == pytest.approx(math.pi, abs=1e-12)
    assert d.global_phase == pytest.approx(math.pi / 2, abs=1e-12)


def test_identity_decomposes_to_zero_angles():
    d = euler_decompose(np.eye(2, dtype=complex), "zyz")
    assert abs(d.beta) < 1e-12 and abs(d.gamma) < 1e-12 and abs(d.delta) < 1e-12
    assert abs(d.global_phase) < 1e-12
    # other bases may split the zero rotation differently but must reconstruct
    for basis in ("zxz", "xyx"):
        d = euler_decompose(np.eye(2, dtype=complex), basis)
        assert np.max(np.abs(reconstruct(d) - np.eye(2))) < 1e-12


@pytest.mark.parametrize("basis", ["zyz", "zxz", "xyx"])
def test_reconstruction_accuracy(basis):
    worst = 0.0
    for m in random_unitaries(150, seed=52):
        d = euler_decompose(m, basis)
        worst = max(worst, float(np.max(np.abs(reconstruct(d) - m))))
    assert worst <= 1e-9


@pytest.mark.parametrize("basis", ["zyz", "zxz", "xyx"])
def test_angle_ranges(basis):
    for m in random_unitaries(60, seed=9):
        d = euler_decompose(m, basis)
        assert 0.0 <= d.gamma <= math.pi + 1e-12
        for angle in (d.beta, d.delta, d.global_phase):
            assert -math.pi - 1e-12 < angle <= math.pi + 1e-12


def test_degenerate_gamma_cases():
    # gamma = 0 (diagonal) and gamma = pi (antidiagonal) hit the branch cuts
    for m in (rz(1.1), unitary("x", ()), unitary("z", ()), ry(math.pi)):
        for basis in ("zyz", "zxz", "xyx"):
            d = euler_decompose(m, basis)
            assert np.max(np.abs(reconstruct(d) - m)) <= 1e-9


def test_non_unitary_rejected():
    with pytest.raises(NotUnitaryError):
        euler_decompose(np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(NotUnitaryError):
        euler_decompose(np.eye(3, dtype=complex))


def test_unknown_basis_rejected():
    with pytest.raises(ValueError):
        euler_decompose(np.eye(2, dtype=complex), "xyz")


# ---------------------------------------------------------------- select


def test_select_identity_is_empty():
    assert select_decomposition(np.eye(2, dtype=complex), NativeGateSet.default()) == []


def test_select_single_rz_passthrough():
    seq = select_decomposition(rz(0.7), NativeGateSet.default())
    assert len(seq) == 1
    assert seq[0][0] == "rz"
    assert seq[0][1] == pytest.approx(0.7, abs=1e-12)


def test_select_hadamard_two_gates():
    seq = select_decomposition(unitary("h", ()), NativeGateSet.default())
    assert len(seq) == 2
    assert equiv_m(sequence_matrix(seq), unitary("h", ()))


def equiv_m(a, b, tol=1e-9):
    # matrices equal up to global phase
    k = np.argmax(np.abs(b))
    idx = np.unravel_index(k, b.shape)
    phase = a[idx] / b[idx]
    return abs(abs(phase) - 1.0) < tol and bool(np.max(np.abs(a - phase * b)) < tol)


def test_select_never_exceeds_three_gates():
    native = NativeGateSet.default()
    for m in random_unitaries(200, seed=31):
        seq = select_decomposition(m, native)
        assert len(seq) <= 3
        assert equiv_m(sequence_matrix(seq), m)


def test_select_single_axis_rotations_stay_single():
    # rz and rx each appear as the outer axis of some basis, so any angle
    # collapses to one gate; ry is only ever the middle axis, whose range
    # is [0, pi], so negative ry angles need the full three-gate form
    native = NativeGateSet.default()
    rng = np.random.default_rng(3)
    for _ in range(50):
        angle = float(rng.uniform(-math.pi, math.pi))
        assert len(select_decomposition(rz(angle), native)) <= 1
        assert len(select_decomposition(rx(angle), native)) <= 1
        seq = select_decomposition(ry(abs(angle)), native)
        assert len(seq) <= 1
        neg = select_decomposition(ry(-abs(angle)), native)
        assert equiv_m(sequence_matrix(neg), ry(-abs(angle)))


def _reference_min_length(matrix):
    # independent reimplementation: prune near-zero angles, merge same-axis
    # neighbours, re-prune, per basis; the selector must match the minimum
    best = None
    for basis in ("zyz", "zxz", "xyx"):
        d = euler_decompose(matrix, basis)
        seq = [
            (f"r{basis[0]}", d.delta),
            (f"r{basis[1]}", d.gamma),
            (f"r{basis[0]}", d.beta),
        ]
        changed = True
        while changed:
            changed = False
            seq = [(n, a) for n, a in seq if abs(a) > 1e-10]
            for i in range(len(seq) - 1):
                if seq[i][0] == seq[i + 1][0]:
                    seq = seq[:i] + [(seq[i][0], seq[i][1] + seq[i + 1][1])] + seq[i + 2 :]
                    changed = True
                    break
        if best is None or len(seq) < best:
            best = len(seq)
    return best


def test_select_is_optimal_among_bases():
    native = NativeGateSet.default()
    for m in random_unitaries(200, seed=77):
        seq = select_decomposition(m, native)
        assert len(seq) == _reference_min_length(m)


def test_select_respects_restricted_axes():
    native = NativeGateSet.from_names(["rz", "ry", "cx"])
    for m in random_unitaries(50, seed=5):
        seq = select_decomposition(m, native)
        assert all(name in ("rz", "ry") for name, _ in seq)
        assert equiv_m(sequence_matrix(seq), m)


def test_select_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        select_decomposition(np.array([[1, 1], [0, 1]], dtype=complex), NativeGateSet.default())
    with pytest.raises(NotUnitaryError):
        select_decomposition(np.eye(3, dtype=complex), NativeGateSet.default())


def counting(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_select_checks_unitarity_once(monkeypatch):
    calls = counting(monkeypatch, gates, "is_unitary")
    select_decomposition(random_unitaries(1, seed=9)[0], NativeGateSet.default())
    assert len(calls) == 1


def test_fixed_gates_are_resynthesized_once_per_native_set(monkeypatch):
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + "t q[0];\nt q[1];\n" * 20)
    calls = counting(monkeypatch, optimizer, "select_decomposition")
    for names in (None, ["rz", "rx", "cx"], ["rx", "ry", "cx"]):
        native = NativeGateSet.from_names(names) if names else NativeGateSet.default()
        before = len(calls)
        out = decompose_unsupported(prog, native)
        # one call per decompose_unsupported, one row for the one distinct stranger
        assert [len(args[0]) for args in calls[before:]] == [1]
        assert set(gate_names(out)) <= native.names
        assert equiv_up_to_global_phase(simulate(prog), simulate(out))


def test_equal_strangers_are_solved_once(monkeypatch):
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + "t q[0];\nt q[1];\n" * 20 + "u1(0.4) q[0];\n" * 3
    )
    calls = counting(monkeypatch, optimizer, "select_decomposition")
    out = decompose_unsupported(prog)
    assert [len(args[0]) for args in calls] == [2]
    assert equiv_up_to_global_phase(simulate(prog), simulate(out))


def test_parameterized_strangers_are_solved_in_one_batch(monkeypatch):
    # u1, u2 and u3 are outside the default set; cu3's qelib1 body has four more.
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "u3(0.1,0.2,0.3) q[0];\nh q[1];\nu1(0.4) q[1];\ncu3(0.5,0.6,0.7) q[0],q[1];\nu2(0.8,0.9) q[0];\n"
    )
    calls = counting(monkeypatch, optimizer, "select_decomposition")
    out = decompose_unsupported(prog)
    assert [len(args[0]) for args in calls] == [7]
    assert set(gate_names(out)) <= NativeGateSet.default().names
    assert equiv_up_to_global_phase(simulate(prog), simulate(out))


def _wrap_reference(angle):
    wrapped = math.remainder(angle, 2 * math.pi)
    return wrapped + 2 * math.pi if wrapped <= -math.pi else wrapped


def _reference_selection(matrix, native):
    """select_decomposition from the public euler_decompose, one call per basis."""
    best = None
    for basis in ("zyz", "zxz", "xyx"):
        d = euler_decompose(matrix, basis)
        outer, inner = f"r{basis[0]}", f"r{basis[1]}"
        merged = []
        for name, angle in ((outer, d.delta), (inner, d.gamma), (outer, d.beta)):
            if abs(_wrap_reference(angle)) <= ANGLE_EPS:
                continue
            if merged and merged[-1][0] == name:
                combined = _wrap_reference(merged.pop()[1] + angle)
                if abs(_wrap_reference(combined)) > ANGLE_EPS:
                    merged.append((name, combined))
            else:
                merged.append((name, angle))
        if all(name in native for name, _ in merged) and (best is None or len(merged) < len(best)):
            best = merged
    return best


_special_angles = st.sampled_from([0.0, -0.0, math.pi / 4, math.pi / 2, math.pi, -math.pi, 2 * math.pi])
_angles = st.one_of(_special_angles, st.floats(-2 * math.pi, 2 * math.pi))


@st.composite
def unitaries_2x2(draw):
    """Haar-ish QR unitaries, plus Euler products that hit the branch cuts."""
    if draw(st.booleans()):
        entries = draw(st.lists(st.floats(-1, 1), min_size=8, max_size=8))
        m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
        assume(abs(np.linalg.det(m)) > 1e-3)
        q, r = np.linalg.qr(m)
        return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    phase, beta, gamma, delta = (draw(_angles) for _ in range(4))
    first, middle = draw(st.sampled_from([(rz, ry), (rz, rx), (rx, ry)]))
    return np.exp(1j * phase) * first(beta) @ middle(gamma) @ first(delta)


@st.composite
def native_sets(draw):
    axes = draw(st.lists(st.sampled_from(["rx", "ry", "rz"]), min_size=2, max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(["h", "s", "t", "x", "swap"]), unique=True))
    return NativeGateSet.from_names(axes + extra + ["cx"])


@settings(max_examples=300)
@given(unitaries_2x2(), native_sets())
def test_select_matches_per_basis_reference(matrix, native):
    seq = select_decomposition(matrix, native)
    assert seq == _reference_selection(matrix, native)
    assert equiv_m(sequence_matrix(seq), matrix)


def _bits(seq):
    return [(name, float.hex(angle)) for name, angle in seq]


@settings(max_examples=150)
@given(st.lists(unitaries_2x2(), min_size=1, max_size=6), native_sets())
def test_select_on_a_stack_matches_one_call_per_matrix(matrices, native):
    stacked = select_decomposition(np.array(matrices), native)
    assert [_bits(seq) for seq in stacked] == [_bits(select_decomposition(m, native)) for m in matrices]


def test_select_on_a_stack_returns_one_sequence_per_matrix():
    native = NativeGateSet.default()
    h = unitary("h", ())
    assert select_decomposition(h[None], native) == [select_decomposition(h, native)]
    assert select_decomposition(np.empty((0, 2, 2), dtype=complex), native) == []
    with pytest.raises(NotUnitaryError):
        select_decomposition(np.array([h, [[1, 1], [0, 1]]]), native)
    with pytest.raises(NotUnitaryError):
        select_decomposition(np.zeros((2, 3, 3), dtype=complex), native)
    with pytest.raises(NotUnitaryError):
        euler_decompose(h[None])


# ---------------------------------------------------------------- native set


def test_native_set_needs_two_axes():
    with pytest.raises(UnsupportedGateError):
        NativeGateSet(frozenset(["rz", "cx"]))


def test_native_set_needs_entangler():
    with pytest.raises(UnsupportedGateError):
        NativeGateSet(frozenset(["rz", "ry", "rx"]))


def test_from_names_adds_measurement_ops():
    native = NativeGateSet.from_names(["rz", "rx", "cz"])
    assert "measure" in native and "reset" in native
    built = NativeGateSet(frozenset(["rz", "ry", "cx"]))
    assert "measure" in built and "reset" in built
    assert NativeGateSet.default() == NativeGateSet.from_names(["rz", "ry", "rx", "cx", "h", "swap"])


# ---------------------------------------------------------------- fusion


def test_fuse_hh_to_identity():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nh q[0];\n')
    fused = fuse_single_qubit_runs(prog)
    units = [op for op in fused if isinstance(op, FusedUnitary)]
    assert len(units) == 1
    assert len(units[0].source) == 2
    assert np.allclose(optimizer._run_matrix(units[0].source), np.eye(2), atol=1e-12)


def test_fuse_rz_angles_add():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(0.3) q[0];\nrz(0.4) q[0];\n'
    )
    fused = fuse_single_qubit_runs(prog)
    units = [op for op in fused if isinstance(op, FusedUnitary)]
    assert np.allclose(optimizer._run_matrix(units[0].source), rz(0.7), atol=1e-12)


def test_fusion_builds_no_matrix(monkeypatch):
    calls = counting(monkeypatch, gates, "unitary")
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
        "h q[0];\nt q[0];\nu3(0.1,0.2,0.3) q[1];\ncx q[0],q[1];\nrz(0.4) q[1];\nsdg q[1];\n"
    )
    fused = fuse_single_qubit_runs(prog)
    assert [len(op.source) for op in fused if isinstance(op, FusedUnitary)] == [2, 2]
    assert calls == []


def test_equal_runs_are_multiplied_out_once(monkeypatch):
    # Six qubits, each with the same three-rotation run, which no basis shortens.
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[6];\n'
        + "".join(f"rx(0.1) q[{i}];\nry(0.2) q[{i}];\nrz(0.3) q[{i}];\n" for i in range(6))
    )
    matrices = counting(monkeypatch, gates, "unitary")
    solves = counting(monkeypatch, optimizer, "select_decomposition")
    out = optimize(prog, level=1)
    assert len(matrices) == 3
    assert [len(args[0]) for args in solves] == [1]
    assert out.ops == prog.ops


def test_fuse_leaves_short_runs_alone():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nh q[1];\n'
    )
    fused = fuse_single_qubit_runs(prog)
    assert not any(isinstance(op, FusedUnitary) for op in fused)
    assert [op.name for op in fused if isinstance(op, Inst)] == ["h", "cx", "h"]


def test_fuse_is_blocked_by_measure_and_barrier():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "h q[0];\nbarrier q[0];\nh q[0];\nmeasure q[0] -> c[0];\nh q[0];\n"
    )
    fused = fuse_single_qubit_runs(prog)
    assert not any(isinstance(op, FusedUnitary) for op in fused)


def test_fusion_product_matches_run():
    rng = np.random.default_rng(11)
    for _ in range(30):
        angles = rng.uniform(-math.pi, math.pi, 6)
        src = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n' + "".join(
            f"u3({angles[3*k]},{angles[3*k+1]},{angles[3*k+2]}) q[0];\n" for k in range(2)
        )
        prog = qasm_program(src)
        fused = fuse_single_qubit_runs(prog)
        unit = [op for op in fused if isinstance(op, FusedUnitary)][0]
        expected = unitary("u3", tuple(angles[3:])) @ unitary("u3", tuple(angles[:3]))
        assert np.max(np.abs(optimizer._run_matrix(unit.source) - expected)) < 1e-12


# ---------------------------------------------------------------- decompose


def test_ccx_decomposes_to_fifteen_gates():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nccx q[0],q[1],q[2];\n'
    )
    out = decompose_unsupported(prog)
    names = gate_names(out)
    assert len(names) == 15
    assert names.count("cx") == 6
    assert names.count("h") == 2
    assert names.count("rz") == 7
    assert equiv_up_to_global_phase(simulate(prog), simulate(out))


def test_native_gates_pass_through():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\nswap q[0],q[1];\n'
    )
    out = decompose_unsupported(prog)
    assert gate_names(out) == ["h", "cx", "swap"]


def test_t_becomes_rz():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nt q[0];\n')
    out = decompose_unsupported(prog)
    gates = [op for op in out.ops if isinstance(op, Inst)]
    assert len(gates) == 1 and gates[0].name == "rz"
    assert gates[0].params[0] == pytest.approx(math.pi / 4, abs=1e-14)


def test_unknown_inst_rejected():
    prog = QuantumProgram(
        registers=[QRegister(size=1, name="q")],
        cregs=[],
        ops=[Inst(name="mygate", params=(), qubits=(QubitRef(0),))],
    )
    with pytest.raises(UnsupportedGateError):
        decompose_unsupported(prog)


@pytest.mark.parametrize("gate", ["cx q[0],q[1];", "swap q[0],q[1];", "ccx q[0],q[1],q[2];"])
def test_cx_outside_the_native_set_is_unsupported(gate):
    # cx's qelib1 body is the CX builtin, which lowers to cx again.
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n' + gate + "\n")
    with pytest.raises(UnsupportedGateError, match="^gate 'cx' cannot be lowered to the native set$"):
        decompose_unsupported(prog, NativeGateSet.from_names(["rz", "rx", "cz"]))


def test_body_parameter_overflow_names_the_gate_not_a_qelib1_line():
    # phi + lambda is 0 here, but cu3's body subtracts them, which overflows to inf.
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncu3(0,-1.7e308,1.7e308) q[0],q[1];\n')
    with pytest.raises(UnsupportedGateError) as exc:
        decompose_unsupported(prog)
    assert exc.value.diagnostic() == (
        "<input>: error: gate 'cu3' cannot be lowered to the native set: parameter expression is not finite"
    )


@pytest.mark.parametrize(
    "gate", ["u2(-1.7e308,-1.7e308) q[0];", "u3(0,1.7e308,1.7e308) q[0];", "cu3(0,1.7e308,1.7e308) q[0],q[1];"]
)
def test_native_gate_whose_phase_overflows_names_the_gate(gate):
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n' + gate + "\n")
    name = gate.split("(")[0]
    # the default set, where the gate is not native, names the same overflow
    for native in (NativeGateSet.from_names(["rz", "ry", "u2", "u3", "cu3", "cx"]), NativeGateSet.default()):
        with pytest.raises(UnknownGateError, match=f"^gate '{name}' has no finite matrix: phi \\+ lambda overflows$"):
            decompose_unsupported(prog, native)


def test_two_qubit_decompositions_preserve_semantics(corpus_programs):
    for prog, _ in corpus_programs[:40]:
        out = decompose_unsupported(prog)
        assert equiv_up_to_global_phase(simulate(prog), simulate(out))


# ---------------------------------------------------------------- optimize


def test_level_out_of_range():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\n')
    with pytest.raises(ValueError):
        optimize(prog, 4)
    with pytest.raises(ValueError):
        optimize(prog, -1)


def test_level0_only_decomposes():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nh q[0];\n')
    assert gate_names(optimize(prog, 0)) == ["h", "h"]


def test_level1_cancels_hh():
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nh q[0];\n')
    assert gate_names(optimize(prog, 1)) == []


def test_level2_cancels_adjacent_cx():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\ncx q[0],q[1];\n'
    )
    assert gate_names(optimize(prog, 1)) == ["cx", "cx"]
    assert gate_names(optimize(prog, 2)) == []


def test_cx_pairs_on_different_operands_survive():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncx q[0],q[1];\ncx q[1],q[0];\n'
    )
    assert gate_names(optimize(prog, 2)) == ["cx", "cx"]


def test_ghz_is_already_optimal():
    src = (
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
        "h q[0];\ncx q[0],q[1];\ncx q[1],q[2];\nmeasure q -> c;\n"
    )
    prog = qasm_program(src)
    for level in (1, 2, 3):
        out = optimize(prog, level)
        names = [op.name for op in out.ops if isinstance(op, Inst)]
        assert names == ["h", "cx", "cx", "measure", "measure", "measure"]


def test_barrier_blocks_cancellation():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nbarrier q[0];\nh q[0];\n'
    )
    assert gate_names(optimize(prog, 2)) == ["h", "h"]


def test_rz_run_merges_to_one_gate():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(0.3) q[0];\nrz(0.4) q[0];\n'
    )
    out = optimize(prog, 1)
    gates = [op for op in out.ops if isinstance(op, Inst)]
    assert len(gates) == 1
    assert gates[0].name == "rz"
    assert gates[0].params[0] == pytest.approx(0.7, abs=1e-12)


def test_resynthesis_never_inflates_single_rotations():
    rng = np.random.default_rng(17)
    for _ in range(25):
        angle = float(rng.uniform(-math.pi, math.pi))
        axis = ("rx", "ry", "rz")[int(rng.integers(3))]
        prog = qasm_program(
            f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n{axis}({angle}) q[0];\n'
        )
        assert len(gate_names(optimize(prog, 3))) <= 1


def test_optimize_monotone_in_level(corpus_programs):
    from qcc.ir import gate_counts

    for prog, _ in corpus_programs[:30]:
        totals = [gate_counts(optimize(prog, lvl))["total_gates"] for lvl in (0, 1, 2, 3)]
        assert totals[1] <= totals[0]
        assert totals[2] <= totals[1]
        assert totals[3] <= totals[2]


def test_optimize_preserves_semantics_sample(corpus_programs):
    for prog, _ in corpus_programs[:30]:
        ref = simulate(prog)
        for level in (1, 2, 3):
            assert equiv_up_to_global_phase(ref, simulate(optimize(prog, level)))


def test_optimize_is_a_fixpoint(corpus_programs):
    from qcc.ir import gate_counts

    for prog, _ in corpus_programs[:15]:
        once = optimize(prog, 2)
        twice = optimize(once, 2)
        assert gate_counts(once) == gate_counts(twice)


def test_conditional_bodies_survive():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "h q[0];\nif (c == 1) x q[0];\nh q[0];\n"
    )
    out = optimize(prog, 2)
    conditioned = [op for op in out.ops if isinstance(op, Inst) and op.condition is not None]
    assert len(conditioned) == 1
    # the h gates on either side of the conditional must not fuse together
    assert [(op.name, op.condition) for op in out.ops] == [("h", None), ("rx", (0, 1)), ("h", None)]


@pytest.mark.parametrize(
    "body",
    [
        "if (c == 1) cx q[0],q[1];\ncx q[0],q[1];\n",
        "cx q[0],q[1];\nif (c == 1) cx q[0],q[1];\n",
        # a measurement may change c between two conditioned cx
        "if (c == 1) cx q[0],q[1];\nmeasure q[2] -> c[0];\nif (c == 1) cx q[0],q[1];\n",
    ],
)
def test_conditioned_cx_is_not_cancelled(body):
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[1];\n' + body)
    assert optimize(prog, 2).ops == prog.ops


def test_conditioned_gate_ends_a_fused_run():
    prog = qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\ncreg c[1];\n'
        "rz(0.1) q[0];\nrz(0.2) q[0];\nif (c == 1) rz(0.3) q[0];\nrz(0.4) q[0];\nrz(0.5) q[0];\n"
    )
    fused = fuse_single_qubit_runs(prog)
    assert len(fused) == 3
    assert [tuple(op.params[0] for op in fused[i].source) for i in (0, 2)] == [(0.1, 0.2), (0.4, 0.5)]
    assert fused[1] == prog.ops[2]
    assert [(op.name, op.condition) for op in optimize(prog, 1).ops] == [
        ("rz", None),
        ("rz", (0, 1)),
        ("rz", None),
    ]


def test_conditioned_gate_expands_under_its_condition():
    native = NativeGateSet.from_names(["rz", "ry", "cx"])
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\ncreg c[1];\nif (c == 1) cz q[0],q[1];\n')
    out = decompose_unsupported(prog, native)
    assert len(out.ops) > 1
    assert all(op.name in native and op.condition == (0, 1) for op in out.ops)
    plain = decompose_unsupported(prog.with_ops([prog.ops[0]._replace(condition=None)]), native)
    assert [op._replace(condition=None) for op in out.ops] == plain.ops


def test_optimize_solves_once_per_pass(monkeypatch, corpus_programs):
    programs = [prog for prog, _ in corpus_programs[:30]]
    for prog in programs:
        optimize(prog, 2)  # fills the fixed-gate memo, whose misses are calls of their own
    calls = counting(monkeypatch, optimizer, "select_decomposition")
    passes = counting(monkeypatch, optimizer, "fuse_single_qubit_runs")
    rows = []
    for prog in programs:
        del calls[:], passes[:]
        optimize(prog, 2)
        # one call for decompose_unsupported, one per fixpoint pass, none empty
        assert len(calls) <= 1 + len(passes)
        assert all(np.ndim(args[0]) == 3 and len(args[0]) > 0 for args in calls)
        rows += [len(args[0]) for args in calls]
    assert max(rows) > 1


def test_each_distinct_run_is_solved_once(monkeypatch):
    body = "".join(f"h q[{k}];\nrz(0.3) q[{k}];\nh q[{k}];\n" for k in range(3))
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\n' + body + "barrier q;\n" + body)
    calls = counting(monkeypatch, optimizer, "select_decomposition")
    out = optimize(prog, 1)
    # Six equal runs are one row; the second pass finds no run left to solve.
    assert [len(args[0]) for args in calls] == [1]
    assert gate_names(out) == ["rx"] * 6


def _op_bits(program):
    return [(op.name, [p.hex() for p in op.params], op.qubits) for op in program.ops if isinstance(op, Inst)]


def test_memo_keeps_zero_and_negative_zero_apart():
    head = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'
    runs = ["h q[0];\nrz(0.0) q[0];\n", "h q[0];\nrz(-0.0) q[0];\n"]
    together = optimize(qasm_program(head + "barrier q[0];\n".join(runs)), 1)
    alone = [optimize(qasm_program(head + run), 1) for run in runs]
    assert _op_bits(together) == _op_bits(alone[0]) + _op_bits(alone[1])
    keys = [optimizer._run_key(tuple(qasm_program(head + run).ops)) for run in runs]
    assert keys[0] != keys[1]


def test_optimize_keeps_no_memo_between_calls():
    # The run is native in both sets, and only the default set has the one
    # rx it equals: a memo that outlived the first call would hand it on.
    prog = qasm_program('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nrz(-pi/2) q[0];\nry(0.3) q[0];\nrz(pi/2) q[0];\n')
    narrow = NativeGateSet.from_names(["rz", "ry", "cx"])
    wide_alone = optimize(prog, 1)
    assert gate_names(wide_alone) == ["rx"]
    assert _op_bits(optimize(prog, 1, narrow)) == _op_bits(prog)
    assert _op_bits(optimize(prog, 1)) == _op_bits(wide_alone)


@st.composite
def mixed_programs(draw):
    """A program over the qelib1 pool, and whether it is plain: without
    measure, reset or condition, so that it has a statevector.  Barriers
    stand in both kinds."""
    n = draw(st.integers(1, 3))
    plain = draw(st.booleans())
    kinds = ["gate"] * 6 + ["barrier"] + ([] if plain else ["measure", "reset", "if"])
    pool = [entry for entry in QELIB1_POOL if entry[1] <= n]
    lines = ['OPENQASM 2.0;\ninclude "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        qubit = draw(st.integers(0, n - 1))
        if kind == "barrier":
            lines.append("barrier q;")
        elif kind == "measure":
            lines.append(f"measure q[{qubit}] -> c[{qubit}];")
        elif kind == "reset":
            lines.append(f"reset q[{qubit}];")
        else:
            name, arity, n_params = draw(st.sampled_from(pool))
            qubits = ",".join(f"q[{q}]" for q in draw(st.permutations(range(n)))[:arity])
            params = [repr(draw(_angles)) for _ in range(n_params)]
            call = f"{name}({','.join(params)}) {qubits};" if params else f"{name} {qubits};"
            lines.append(call if kind == "gate" else f"if (c=={draw(st.integers(0, 2**n - 1))}) {call}")
    return qasm_program("\n".join(lines) + "\n"), plain


@st.composite
def target_native_sets(draw):
    """Rotations about two or three axes, cx, and any of the other gates a
    target may execute directly."""
    axes = draw(st.lists(st.sampled_from(["rx", "ry", "rz"]), min_size=2, max_size=3, unique=True))
    extra = draw(st.lists(st.sampled_from(["h", "swap", "t", "s", "u1", "u2", "u3", "cz"]), unique=True))
    return NativeGateSet.from_names(axes + extra + ["cx"])


@settings(max_examples=300)
@given(mixed_programs(), target_native_sets())
def test_optimize_emits_only_native_gates_and_keeps_the_state(case, native):
    program, plain = case
    for level in range(4):
        out = optimize(program, level, native)
        assert all(op.name in native for op in out.ops if isinstance(op, Inst))
        if plain:
            assert equiv_up_to_global_phase(simulate(out, program.n_qubits), simulate(program))


# ---------------------------------------------------------------- pinned output

PINNED_NATIVE_SETS = {
    "default": NativeGateSet.default(),
    "rz,rx,cx": NativeGateSet.from_names(["rz", "rx", "cx"]),
    "rx,ry,cx": NativeGateSet.from_names(["rx", "ry", "cx"]),
}

# (native set, level) -> sha256 of the emitted QIR of the first 50 corpus
# circuits.  Recorded from the funnel that solved ZYZ once per basis and
# resynthesized every fixed gate afresh; the shared solve and the fixed-gate
# memo must not move a single bit.
OPTIMIZER_GOLDEN = {
    ("default", 0): "ba8ee9198b7cff620afa0fe42c7ea5dcfa3b1c47155099bd71b15e7ca25aefeb",
    ("default", 1): "109856ca51f3606c06e6f223801a18413118bba99d3ee0f3bb171c2444e78772",
    ("default", 2): "a7c38b8e196b54d64fb8cfe7c9023fae1a171644801dad5c85971fd4020391d4",
    ("default", 3): "a7c38b8e196b54d64fb8cfe7c9023fae1a171644801dad5c85971fd4020391d4",
    ("rz,rx,cx", 0): "950ced9ea986416b5e36aa88305f87ddd53cf6b3f75a0a0ded32097a29593158",
    ("rz,rx,cx", 1): "1b7cf1efa6196c312f2c0ae88294241288bc21242a2c51500f95da2c649dc69e",
    ("rz,rx,cx", 2): "0ba0c07a4f98b3d3479a356b15593b2a26d5c61ae940ded24b575a34d67c022b",
    ("rz,rx,cx", 3): "0ba0c07a4f98b3d3479a356b15593b2a26d5c61ae940ded24b575a34d67c022b",
    ("rx,ry,cx", 0): "3c0d59742f6eb8847a535c42f2a52521aa7baf7264baf1f51d6806bda109cddd",
    ("rx,ry,cx", 1): "65d0f99588e093b01ed0112260ea1b37e7dc7def8cbd3b9c8bfefd9a5b7087a1",
    ("rx,ry,cx", 2): "dfd19e7b6afbde3777eb9cb8e1b53682aac0ce87131efd3ff909edd27ff085be",
    ("rx,ry,cx", 3): "dfd19e7b6afbde3777eb9cb8e1b53682aac0ce87131efd3ff909edd27ff085be",
}


def test_optimizer_output_is_pinned(corpus_programs):
    digests = {}
    for label, native in PINNED_NATIVE_SETS.items():
        for level in range(4):
            h = hashlib.sha256()
            for prog, _ in corpus_programs[:50]:
                h.update(emit_qir(optimize(prog, level, native)).text.encode())
            digests[(label, level)] = h.hexdigest()
    assert digests == OPTIMIZER_GOLDEN
