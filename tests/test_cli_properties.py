"""Property tests: hostile OpenQASM, device and toolchain files through the CLI.

Each property writes a random or mutated file and runs ``cli.main`` on it,
as a user would.  Every run must end in a result or a diagnostic: an exit
code of 0, 1 or 2, no ``Traceback`` on stderr, and no more than a few
seconds.  The first mutates an OpenQASM program that has a gate definition,
conditions, measurements, barriers and extreme angles, then runs
``metrics`` at every optimization level, an emit-only ``build`` routed on a
5-qubit ring or a 2x3 grid under three native sets, and ``simulate``, also
on the mutant without its measurements, resets and conditions.  The
second writes random JSON and mutated ring devices for ``build --coupling``,
among them lines just above the device-size cap, which must be refused.
The third writes random JSON and mutated toolchain configs for a dry-run
``build`` of a C++ and a CUDA input, with process spawning patched to fail,
since a dry run must start none.  The searches are derandomized and
bounded, like every property of the suite, so tier-1 stays deterministic
and fast.  The QIR input kind has its properties in ``test_qir_properties``.
"""

import contextlib
import io
import json
import os
import re
import time
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from qcc.cli import main
from qcc.driver import ToolchainConfig
from qcc.routing import MAX_DEVICE_QUBITS

SECONDS_PER_RUN = 5.0

QASM = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
gate g(t) a, b { cx a, b; rz(t) b; h a; }
h q[0];
g(pi/4) q[0], q[1];
u3(0.1, -0.2, 1e-300) q[2];
barrier q;
measure q[0] -> c[0];
if (c == 1) x q[1];
ccx q[0], q[1], q[2];
rz(2.5e17) q[1];
cu1(-pi) q[2], q[0];
reset q[2];
measure q -> c;""".splitlines()

QASM_TOKENS = [
    "0", "1", "2", "3", "-1", "99999999999999999999", "1e308", "1e999", "0.0", "-0.0", "pi", "nan",
    "q", "c", "a", "g", "h", "x", "cx", "U", "CX", "measure", "reset", "barrier", "if", "gate", "opaque",
    ";", ",", "[", "]", "(", ")", "{", "}", "->", "==", "+", "-", "*", "/", "^",
]
QASM_STATEMENTS = [
    "qreg r[2];", "creg d[1];", "creg e[0];", "h q;", "cx q, q;", "cx q[0], q[0];", "barrier q[0], q[0];",
    "measure q -> d;", "if (c == 99999999999999999999) h q[0];", "if (d == 1) measure q[1] -> c[1];",
    "U(1.7e308, 1.7e308, 1.7e308) q[0];", "u2(1e308, -1e308) q[1];", "gate rec a { rec a; }",
    "opaque o a;", "o q[0];", "g(sqrt(-1)) q[0], q[1];", "g(ln(0)) q[0], q[1];", "rz(pi/0) q[0];",
    "reset q;", "id q[1];", "swap q[0], q[2];", "cswap q[0], q[1], q[2];",
]
DEVICES = {
    "ring5": {"n_qubits": 5, "edges": [[i, (i + 1) % 5] for i in range(5)]},
    "grid2x3": {"n_qubits": 6, "edges": [[0, 1], [1, 2], [3, 4], [4, 5], [0, 3], [1, 4], [2, 5]]},
}
NATIVE_SETS = [None, "rz,ry,cx", "rx,rz,cz,h"]


def _run(argv) -> tuple[int, str]:
    """Run the CLI and check that it ends in time with a result or a diagnostic;
    returns the exit code and stderr."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < SECONDS_PER_RUN, argv
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue()


def _mutate_qasm(lines, mutation):
    op, i, j, word = mutation
    i %= len(lines)
    j %= len(lines)
    if op == "delete":
        del lines[i]
    elif op == "duplicate":
        lines.insert(i, lines[i])
    elif op == "swap":
        lines[i], lines[j] = lines[j], lines[i]
    elif op == "insert":
        lines.insert(i, QASM_STATEMENTS[j % len(QASM_STATEMENTS)])
    else:  # replace one token of line i
        tokens = re.findall(r"[\w.]+|->|==|\S", lines[i])
        if tokens:
            tokens[j % len(tokens)] = word
            lines[i] = " ".join(tokens)


QASM_MUTATION = st.tuples(
    st.sampled_from(["delete", "duplicate", "swap", "insert", "token", "token"]),
    st.integers(0, 100),
    st.integers(0, 100),
    st.sampled_from(QASM_TOKENS),
)


@settings(max_examples=150)
@given(
    st.lists(QASM_MUTATION, max_size=3),
    st.integers(0, 3),
    st.sampled_from(sorted(DEVICES)),
    st.sampled_from(NATIVE_SETS),
)
def test_mutated_qasm_through_the_cli_gives_a_result_or_a_diagnostic(
    tmp_path_factory, mutations, level, device, native
):
    base = tmp_path_factory.getbasetemp()
    lines = list(QASM)
    for mutation in mutations:
        _mutate_qasm(lines, mutation)
    path = base / "fuzz.qasm"
    path.write_text("\n".join(lines) + "\n")
    coupling = base / f"{device}.json"
    coupling.write_text(json.dumps(DEVICES[device]))
    native_args = ["--native-gates", native] if native else []
    _run(["metrics", str(path), "--opt-level", str(level), *native_args])
    build = ["build", str(path), "--build-dir", str(base / "fuzz-build"), "--opt-level", str(level)]
    _run(build + ["--coupling", str(coupling), "--emit", "qir", *native_args])
    _run(["simulate", str(path)])
    # the same mutant without the statements that a unitary simulation rejects
    unitary = base / "fuzz_unitary.qasm"
    unitary.write_text("\n".join(line for line in lines if not re.search(r"\b(measure|reset|if)\b", line)) + "\n")
    _run(["simulate", str(unitary)])


JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=10,
)
HOSTILE_COUNTS = [0, -1, 1, 2, 5, 6, 2**63, 10**30, 1.5, True, "5", None, [5]]
HOSTILE_EDGES = [[0, 0], [0, 5], [-1, 0], [0, 1, 2], [0], [], "01", [True, False], [0.0, 1.0], None, {"0": 1}]
# Lines of 1 to 3 qubits more than the cap: connected, well formed and refused.
OVERSIZED = [
    {"n_qubits": n, "edges": [[i, i + 1] for i in range(n - 1)]}
    for n in range(MAX_DEVICE_QUBITS + 1, MAX_DEVICE_QUBITS + 4)
]


def _mutate_device(device, mutation):
    op, i, value = mutation
    edges = device.get("edges")
    if op == "count":
        device["n_qubits"] = HOSTILE_COUNTS[i % len(HOSTILE_COUNTS)]
    elif op == "drop-key":
        if device:
            del device[sorted(device)[i % len(device)]]
    elif op == "value":
        device[["n_qubits", "edges"][i % 2]] = value
    elif op == "oversize":
        device.clear()
        device.update(json.loads(json.dumps(OVERSIZED[i % len(OVERSIZED)])))
    elif isinstance(edges, list) and edges:
        k = i % len(edges)
        if op == "edge":
            edges[k] = HOSTILE_EDGES[i % len(HOSTILE_EDGES)]
        elif op == "drop-edge":
            del edges[k]
        else:
            edges.append(edges[k])


DEVICE_MUTATION = st.tuples(
    st.sampled_from(["count", "drop-key", "value", "edge", "drop-edge", "duplicate-edge", "oversize"]),
    st.integers(0, 50),
    JSON,
)


@settings(max_examples=200)
@given(JSON, st.lists(DEVICE_MUTATION, max_size=3))
def test_hostile_coupling_json_through_the_cli_gives_a_result_or_a_diagnostic(tmp_path_factory, random, mutations):
    """The ring device under the mutations, or the random JSON when there are
    none; a line above the device cap is refused before its distance table."""
    base = tmp_path_factory.getbasetemp()
    device = json.loads(json.dumps(DEVICES["ring5"])) if mutations else random
    for mutation in mutations:
        _mutate_device(device, mutation)
    circ = base / "circ.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[2];\ncx q[2],q[1];\n')
    coupling = base / "device.json"
    coupling.write_text(json.dumps(device))
    code, err = _run(["build", str(circ), "--build-dir", str(base / "device-build"), "--coupling", str(coupling)])
    if device in OVERSIZED:
        assert code == 1
        cap = f"more than the {MAX_DEVICE_QUBITS}-qubit cap"
        assert err.strip() == f"error: device has {device['n_qubits']} qubits, {cap}"


TEMPLATE_PARTS = [
    "g++", "nvcc", "-c", "-o", "{input}", "{output}", "{flags}", "{arch}", "{inputs}", "-arch={arch}",
    "'", '"', "\\", "{", "}", "{{", "$(touch x)", "é", "a b", "",
]
KEYS = list(ToolchainConfig.__dataclass_fields__)


def _mutate_config(config, mutation):
    op, i, parts, value = mutation
    key = KEYS[i % len(KEYS)]
    if op == "template":
        config[key] = " ".join(TEMPLATE_PARTS[k % len(TEMPLATE_PARTS)] for k in parts)
    elif op == "value":
        config[key] = value
    elif op == "drop-key":
        config.pop(key, None)
    else:
        config[f"{key}_extra"] = "x"


CONFIG_MUTATION = st.tuples(
    st.sampled_from(["template", "template", "value", "drop-key", "unknown-key"]),
    st.integers(0, 50),
    st.lists(st.integers(0, 50), max_size=8),
    JSON,
)


@settings(max_examples=200)
@given(JSON, st.lists(CONFIG_MUTATION, max_size=3))
def test_hostile_toolchain_json_through_a_dry_run_gives_a_result_or_a_diagnostic(tmp_path_factory, random, mutations):
    """The default config under the mutations, or the random JSON when there are none."""
    base = tmp_path_factory.getbasetemp()
    config = {key: getattr(ToolchainConfig(), key) for key in KEYS} if mutations else random
    for mutation in mutations:
        _mutate_config(config, mutation)
    host, kernel, path = base / "host.cpp", base / "k.cu", base / "toolchain.json"
    host.write_text("int main() { return 0; }\n")
    kernel.write_text("")
    path.write_text(json.dumps(config))
    spawn = mock.Mock(side_effect=AssertionError("a dry run started a process"))
    with mock.patch.dict(os.environ), mock.patch("qcc.driver.subprocess.run", spawn):
        os.environ.pop("QCC_TOOLCHAIN", None)
        _run(["build", str(host), str(kernel), "--dry-run", "--toolchain-config", str(path)])
    assert not spawn.called
