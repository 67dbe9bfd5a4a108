"""The bench's span wrappers see every layer of a routed compile.

``perfbench/spans.py::instrument`` wraps public module attributes that the
layers look up at call time.  A refactor that calls a private copy instead
hides that layer from the bench's per-layer table; this test fails then.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "perfbench"))

from spans import Tracer, instrument  # noqa: E402

from qcc.driver import QuantumOptions, Task, compile_quantum  # noqa: E402

CIRCUIT = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
h q[0];
t q[0];
h q[0];
cx q[0],q[2];
cx q[1],q[2];
"""


class NameRecordingTracer(Tracer):
    """A tracer that remembers the span name of every wrapper it makes."""

    def __init__(self) -> None:
        super().__init__()
        self.wrapped: set[str] = set()

    def wrap(self, name, fn, on_result=None):
        self.wrapped.add(name)
        return super().wrap(name, fn, on_result)


def test_every_instrumented_layer_is_called_by_a_routed_compile(tmp_path):
    circ = tmp_path / "circ.qasm"
    circ.write_text(CIRCUIT)
    device = tmp_path / "line3.json"
    device.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    task = Task(str(circ), "qasm", str(tmp_path / "circ.o"))
    tracer = NameRecordingTracer()
    with instrument(tracer):
        compile_quantum(task, QuantumOptions(opt_level=1, coupling_path=str(device)))
    calls = tracer.calls()
    assert tracer.wrapped
    assert sorted(name for name in tracer.wrapped if calls[name] == 0) == []
    # gate_counts takes its depth without a DAG, so routing builds the only one
    assert calls["ir.build_dag"] == 1
