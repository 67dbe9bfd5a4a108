"""Shared fixtures: seeded random-circuit corpus and device topologies."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, Phase, settings

from qcc.qasm import lower_ast_to_ir, parse_qasm
from qcc.routing import CouplingGraph

# Every property runs the same examples each time and replays none from a
# database, so tier-1 is deterministic; each test sets only max_examples.
# No explain phase: with it and shrink both on, hypothesis line-traces every
# run after a failure, about 20 times slower, and a time-bounded property then
# reports spurious time-bound failures beside the real one.
settings.register_profile(
    "tier1",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target, Phase.shrink],
)
settings.load_profile("tier1")

CORPUS_SEED = 1234
CORPUS_SIZE = 500

# (name, qubit arity, param count) for every qelib1 primitive
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


def random_qasm_source(rng, n_qubits: int, n_gates: int) -> str:
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n_qubits}];"]
    pool = [entry for entry in QELIB1_POOL if entry[1] <= n_qubits]
    for _ in range(n_gates):
        name, arity, n_params = pool[rng.integers(len(pool))]
        qubits = rng.choice(n_qubits, size=arity, replace=False)
        args = ", ".join(f"q[{int(q)}]" for q in qubits)
        if n_params:
            params = ",".join(repr(float(p)) for p in rng.uniform(-math.pi, math.pi, n_params))
            lines.append(f"{name}({params}) {args};")
        else:
            lines.append(f"{name} {args};")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def corpus_sources() -> list[tuple[str, int]]:
    rng = np.random.default_rng(CORPUS_SEED)
    out = []
    for _ in range(CORPUS_SIZE):
        n_qubits = int(rng.integers(2, 6))
        n_gates = int(rng.integers(5, 61))
        out.append((random_qasm_source(rng, n_qubits, n_gates), n_qubits))
    return out


@pytest.fixture(scope="session")
def corpus_programs(corpus_sources):
    return [(lower_ast_to_ir(parse_qasm(src)), n) for src, n in corpus_sources]


@pytest.fixture(scope="session")
def topologies() -> dict[str, CouplingGraph]:
    return {
        "linear5": CouplingGraph.from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4]]),
        "ring5": CouplingGraph.from_edges(5, [[0, 1], [1, 2], [2, 3], [3, 4], [4, 0]]),
        "tshape5": CouplingGraph.from_edges(5, [[0, 1], [1, 2], [1, 3], [3, 4]]),
    }


def qasm_program(source: str):
    return lower_ast_to_ir(parse_qasm(source))
