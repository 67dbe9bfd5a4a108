"""Seeded input generators and compile settings for the three workloads.

Every workload turns a seed into an endless, reproducible stream of OpenQASM
2.0 sources: circuit ``i`` of seed ``s`` is always the same text.  The program
under test only ever sees that text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# (name, qubit arity, param count) of every qelib1 primitive; the same pool
# and draw order as the corpus fixture in tests/conftest.py.
QELIB1_POOL = [
    ("id", 1, 0),
    ("x", 1, 0),
    ("y", 1, 0),
    ("z", 1, 0),
    ("h", 1, 0),
    ("s", 1, 0),
    ("sdg", 1, 0),
    ("t", 1, 0),
    ("tdg", 1, 0),
    ("u1", 1, 1),
    ("u2", 1, 2),
    ("u3", 1, 3),
    ("rx", 1, 1),
    ("ry", 1, 1),
    ("rz", 1, 1),
    ("cx", 2, 0),
    ("cz", 2, 0),
    ("cy", 2, 0),
    ("ch", 2, 0),
    ("swap", 2, 0),
    ("crz", 2, 1),
    ("cu1", 2, 1),
    ("cu3", 2, 3),
    ("ccx", 3, 0),
]


@dataclass(frozen=True)
class Circuit:
    """One generated input: its QASM text and how many gate statements it holds."""

    index: int
    source: str
    gate_statements: int


@dataclass(frozen=True)
class Workload:
    name: str
    opt_level: int
    # Device for SABRE routing: (n_physical, edges), or None to skip routing.
    device: tuple[int, tuple[tuple[int, int], ...]] | None
    # Circuits whose output-quality counts are summed; a run always compiles
    # at least these, so the counts are a pure function of the seed.
    quality_set: int
    params: dict

    def circuit(self, seed: int, index: int) -> Circuit:
        rng = np.random.default_rng([seed, index])
        return _GENERATORS[self.name](rng, index, self.params)


def _gate_line(rng, name: str, arity: int, n_params: int, qubit_names: list[str]) -> str:
    picks = rng.choice(len(qubit_names), size=arity, replace=False)
    args = ", ".join(qubit_names[int(q)] for q in picks)
    if n_params:
        params = ",".join(repr(float(p)) for p in rng.uniform(-math.pi, math.pi, n_params))
        return f"{name}({params}) {args};"
    return f"{name} {args};"


def random_qasm_source(rng, n_qubits: int, n_gates: int) -> str:
    """Uniform draws from the qelib1 pool on one register, as in tests/conftest.py."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    pool = [entry for entry in QELIB1_POOL if entry[1] <= n_qubits]
    qubit_names = [f"q[{i}]" for i in range(n_qubits)]
    for _ in range(n_gates):
        name, arity, n_params = pool[rng.integers(len(pool))]
        lines.append(_gate_line(rng, name, arity, n_params, qubit_names))
    return "\n".join(lines) + "\n"


def _small_circuit(rng, index: int, params: dict) -> Circuit:
    n_qubits = int(rng.integers(params["min_qubits"], params["max_qubits"] + 1))
    n_gates = int(rng.integers(params["min_gates"], params["max_gates"] + 1))
    return Circuit(index, random_qasm_source(rng, n_qubits, n_gates), n_gates)


def _grid_circuit(rng, index: int, params: dict) -> Circuit:
    n, g = params["qubits"], params["gates"]
    return Circuit(index, random_qasm_source(rng, n, g), g)


_WIDE_HEADER = """\
OPENQASM 2.0;
include "qelib1.inc";
gate zz(theta) a, b { cx a, b; rz(theta) b; cx a, b; }
gate mix3(theta) a, b, c { h a; ccx a, b, c; crz(theta) c, a; t b; }
"""


def _wide_program(rng, index: int, params: dict) -> Circuit:
    """A straight-line program over two 32-qubit registers with no ``if``.

    Statement mix: qelib1 gates, calls to two user gates, measurements into
    eight 8-bit cregs, resets and barriers.
    """
    half = params["qubits"] // 2
    n_cregs, creg_bits = params["cregs"], params["creg_bits"]
    qubit_names = [f"a[{i}]" for i in range(half)] + [f"b[{i}]" for i in range(half)]
    lines = [_WIDE_HEADER.rstrip("\n"), f"qreg a[{half}];", f"qreg b[{half}];"]
    lines += [f"creg c{k}[{creg_bits}];" for k in range(n_cregs)]
    gate_statements = 0
    for _ in range(params["statements"]):
        roll = rng.random()
        if roll < 0.05:
            lines.append(_gate_line(rng, "zz", 2, 1, qubit_names))
            gate_statements += 1
        elif roll < 0.08:
            lines.append(_gate_line(rng, "mix3", 3, 1, qubit_names))
            gate_statements += 1
        elif roll < 0.12:
            q = qubit_names[int(rng.integers(len(qubit_names)))]
            k = int(rng.integers(n_cregs))
            lines.append(f"measure {q} -> c{k}[{int(rng.integers(creg_bits))}];")
        elif roll < 0.14:
            lines.append(f"reset {qubit_names[int(rng.integers(len(qubit_names)))]};")
        elif roll < 0.15:
            picks = rng.choice(len(qubit_names), size=4, replace=False)
            lines.append("barrier " + ", ".join(qubit_names[int(q)] for q in picks) + ";")
        else:
            name, arity, n_params = QELIB1_POOL[rng.integers(len(QELIB1_POOL))]
            lines.append(_gate_line(rng, name, arity, n_params, qubit_names))
            gate_statements += 1
    return Circuit(index, "\n".join(lines) + "\n", gate_statements)


_GENERATORS = {
    "small_corpus": _small_circuit,
    "grid_route": _grid_circuit,
    "wide_roundtrip": _wide_program,
}


def ring(n: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    return n, tuple((i, (i + 1) % n) for i in range(n))


def grid(rows: int, cols: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            q = r * cols + c
            if c + 1 < cols:
                edges.append((q, q + 1))
            if r + 1 < rows:
                edges.append((q, q + cols))
    return rows * cols, tuple(edges)


# Why each workload exists, and which layer it stresses, is recorded in
# BENCHMARK.json beside its name.  wide_roundtrip is not listed there, so that
# the listed ones can run 45 s each: on a shared 2-core machine shorter runs
# spread too widely.  It stays runnable by hand for front- and back-end work
# at scale, with routing and the oracle bypassed.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small_corpus",
            opt_level=2,
            device=ring(5),
            quality_set=1000,
            params={"min_qubits": 2, "max_qubits": 5, "min_gates": 5, "max_gates": 60},
        ),
        Workload(
            name="grid_route",
            opt_level=1,
            device=grid(5, 5),
            quality_set=10,
            params={"qubits": 25, "gates": 2000},
        ),
        Workload(
            name="wide_roundtrip",
            opt_level=0,
            device=None,
            quality_set=10,
            params={"qubits": 64, "statements": 5000, "cregs": 8, "creg_bits": 8},
        ),
    )
}

# Routing seed handed to SABRE layout; fixed so that only the workload seed
# changes the inputs.
ROUTING_SEED = 7
SABRE_ITERATIONS = 3
