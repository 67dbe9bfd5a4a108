"""Property tests: random programs and hostile QIR text through the QIR reader.

The first property compiles random programs to QIR, which must verify clean
and extract back to a program with the same statevector up to global phase.
The second extracts each module's kernel as found by
``find_quantum_kernels`` and asks for the same gates, line numbers and
program as from the whole module.  The third mutates the lines of emitted
QIR (deletes, duplicates and swaps lines, adds a ``tail`` marker, changes an
opcode, writes a non-finite double or a wrong qubit count) and feeds the
file to ``qcc extract`` and ``qcc simulate``: each must print a result or a
diagnostic, with exit code 0 or 1, and never raise.  The fourth renames QIS
callees to other qelib1 gates and drops or adds a qubit or double operand,
then runs ``qcc extract``, ``qcc simulate`` and ``qcc metrics --opt-level
1`` on the file, which must exit 0 or 1 with no traceback.  The fifth copies
gate lines of an emitted module to later places, some with a ``tail`` marker
or a wrong return type: the copies must extract as the same gates at their own
lines, and the first wrong return type must be an error at its line even
though a copy with the right one came before.  The searches are
derandomized and bounded so the suite stays deterministic and fast.
"""

import contextlib
import io
import math
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qcc.cli import main
from qcc.errors import ExtractionError
from qcc.optimizer import optimize
from qcc.qasm.qelib1 import gate_table
from qcc.qir import emit_qir, extract_program, find_quantum_kernels, verify_qir_text
from qcc.simulator import equiv_up_to_global_phase, simulate

from conftest import QELIB1_POOL, qasm_program

ANGLE = st.one_of(
    st.sampled_from([0.0, math.pi / 2, -math.pi, 0.5]),
    st.floats(-math.pi, math.pi, allow_nan=False, allow_infinity=False),
)


@st.composite
def programs(draw):
    n_qubits = draw(st.integers(1, 4))
    pool = [entry for entry in QELIB1_POOL if entry[1] <= n_qubits]
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    for name, arity, n_params in draw(st.lists(st.sampled_from(pool), max_size=12)):
        qubits = draw(st.permutations(range(n_qubits)))[:arity]
        params = [repr(draw(ANGLE)) for _ in range(n_params)]
        call = f"{name}({','.join(params)})" if params else name
        lines.append(f"{call} {', '.join(f'q[{q}]' for q in qubits)};")
    return "\n".join(lines) + "\n"


@settings(max_examples=150)
@given(programs(), st.integers(0, 3))
def test_emitted_programs_verify_extract_and_simulate_like_the_source(source, level):
    program = qasm_program(source)
    if level:
        program = optimize(program, level=level)
    text = emit_qir(program).text
    assert verify_qir_text(text) == []
    (kernel,) = find_quantum_kernels(text)
    _, extracted = extract_program(kernel)
    assert extracted.n_qubits == program.n_qubits
    assert equiv_up_to_global_phase(simulate(qasm_program(source)), simulate(extracted))


@settings(max_examples=150)
@given(programs(), st.integers(0, 3))
def test_a_found_kernel_extracts_like_its_module(source, level):
    program = qasm_program(source)
    if level:
        program = optimize(program, level=level)
    text = emit_qir(program).text
    # gates keep their module line numbers either way
    assert extract_program(find_quantum_kernels(text)[0]) == extract_program(text)


BASE = emit_qir(
    qasm_program(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[2];\n'
        "h q[0];\nrz(0.5) q[1];\ncx q[0],q[1];\nbarrier q;\nu3(0.1,-0.2,0.3) q[2];\n"
        "ccx q[0],q[1],q[2];\nmeasure q[0] -> c[0];\n"
    )
).text.splitlines()

WORDS = ["cal", "call", "tail", "add", "br", "ret", "bitcast", "store", "%9 =", "define", "}", "declare"]
DOUBLES = ["nan", "-inf", "1e999", "0x7FF0000000000000", "0x7FF8000000000000", "0x3FF", "1_0", "."]


def _mutate(lines, mutation):
    op, i, j, word = mutation
    i %= len(lines)
    j %= len(lines)
    line = lines[i]
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, line)
    elif op == "swap":
        lines[i], lines[j] = lines[j], line
    elif op == "tail":
        lines[i] = line.replace("call ", "tail call ", 1)
    elif op == "opcode":
        head, sep, rest = line.partition("= ")
        body = rest if sep else line
        lines[i] = (head + sep if sep else "  ") + word + " " + body.strip().partition(" ")[2]
    elif op == "double":
        doubles = [k for k, text in enumerate(lines) if "double " in text and "declare" not in text]
        k = doubles[i % len(doubles)]
        lines[k] = re.sub(r"double [^,)]+", f"double {DOUBLES[j % len(DOUBLES)]}", lines[k], count=1)
    elif op == "arity":
        calls = [k for k, text in enumerate(lines) if "%Qubit* %" in text and "declare" not in text]
        k = calls[i % len(calls)]
        text = lines[k]
        if j % 2:
            cut = text.rindex("%Qubit* %")
            lines[k] = text[:cut].rstrip(", ") + ")"
        else:
            lines[k] = text[:-1] + ", %Qubit* %2)"


MUTATION = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap", "tail", "opcode", "double", "arity"]),
    st.integers(0, 200),
    st.integers(0, 200),
    st.sampled_from(WORDS),
)


@settings(max_examples=150)
@given(st.lists(MUTATION, min_size=1, max_size=3))
def test_mutated_qir_gives_a_result_or_a_diagnostic(tmp_path_factory, mutations):
    lines = list(BASE)
    for mutation in mutations:
        _mutate(lines, mutation)
    path = tmp_path_factory.getbasetemp() / "mutant.qir.ll"
    path.write_text("\n".join(lines) + "\n")
    for command in ("extract", "simulate"):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command, str(path)])
        assert code in (0, 1)
        assert time.perf_counter() - start < 10


QIS_CALLS = [k for k, text in enumerate(BASE) if "@__quantum__qis__" in text and "declare" not in text]
QUBIT_NAMES = [m[1] for text in BASE if (m := re.match(r"\s*(%\d+) = bitcast", text))]


def _mutate_call(lines, mutation):
    which, name, edit, k = mutation
    i = QIS_CALLS[which % len(QIS_CALLS)]
    head, callee, args = re.fullmatch(r"(.*@__quantum__qis__)(\w+)\((.*)\)", lines[i]).groups()
    operands = [arg.strip() for arg in args.split(",") if arg.strip()]
    if edit == "drop" and operands:
        del operands[k % len(operands)]
    elif edit == "add-qubit":
        operands.insert(k % (len(operands) + 1), f"%Qubit* {QUBIT_NAMES[k % len(QUBIT_NAMES)]}")
    elif edit == "add-double":
        operands.insert(k % (len(operands) + 1), "double 5.000000e-01")
    lines[i] = f"{head}{name or callee}({', '.join(operands)})"


CALL_MUTATION = st.tuples(
    st.integers(0, 20),
    st.one_of(st.none(), st.sampled_from(sorted(gate_table()))),
    st.sampled_from(["keep", "drop", "add-qubit", "add-double"]),
    st.integers(0, 20),
)


@settings(max_examples=100)
@given(st.lists(CALL_MUTATION, min_size=1, max_size=2))
def test_mutated_qis_calls_through_the_cli_give_a_result_or_a_diagnostic(tmp_path_factory, mutations):
    lines = list(BASE)
    for mutation in mutations:
        _mutate_call(lines, mutation)
    path = tmp_path_factory.getbasetemp() / "calls.qir.ll"
    path.write_text("\n".join(lines) + "\n")
    for argv in (["extract"], ["simulate"], ["metrics", "--opt-level", "1"]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], str(path), *argv[1:]])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()


# (call marker, return type) of a copied gate line; void is the only right type
COPY_FORMS = [("", "void"), ("tail ", "void"), ("", "void"), ("tail ", "%Result*"), ("", "i8*")]


@settings(max_examples=150)
@given(programs(), st.integers(0, 3), st.data())
def test_copied_gate_lines_extract_as_copied_gates(source, level, data):
    program = qasm_program(source)
    if level:
        program = optimize(program, level=level)
    emitted = emit_qir(program).text
    gates, extracted = extract_program(emitted)
    emitted_lines = emitted.splitlines()
    lines = list(emitted_lines)
    decoded = {g.line - 1: (g, op) for g, op in zip(gates, extracted.ops, strict=True)}
    assume(decoded)
    origins = list(range(len(lines)))  # the line of the emitted module that each line copies
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.sampled_from([k for k, i in enumerate(origins) if i in decoded]))
        to = data.draw(st.integers(at + 1, max(k for k, i in enumerate(origins) if i in decoded) + 1))
        marker, returns = data.draw(st.sampled_from(COPY_FORMS))
        origins.insert(to, origins[at])
        lines.insert(to, emitted_lines[origins[at]].replace("call void", f"{marker}call {returns}", 1))
    text = "\n".join(lines) + "\n"
    wrong = [k for k, i in enumerate(origins) if i in decoded and "call void" not in lines[k]]
    if wrong:
        # a gate line with the right return type came first, so the error must not come from a reused decode
        with pytest.raises(ExtractionError, match=rf"^line {wrong[0] + 1}: @__quantum__qis__\w+ must return void, not"):
            extract_program(text)
        return
    copied = [(decoded[i][0]._replace(line=k + 1), decoded[i][1]) for k, i in enumerate(origins) if i in decoded]
    got, got_program = extract_program(text)
    assert got == [g for g, _ in copied]
    assert got_program.ops == [op for _, op in copied]
