"""Circuit reconstruction from textual QIR.

The extractor accepts the subset of LLVM IR text that the emitter produces
(plus whitespace and comments), so hand-written kernels following the same
allocation pattern work too.  Reconstruction runs in two stages: first a
value map is built from ``qubit_allocate_array`` / ``array_get_element_ptr``
/ ``bitcast`` chains, mapping SSA names to logical qubit indices assigned
densely in allocation order; then the ``__quantum__qis__`` calls are walked
in program order to produce the gate list and dependency DAG.

Kernels containing branch instructions are rejected: mapping operates on
straight-line code only, and partial extraction would silently drop gates.
"""

import re
import struct
from dataclasses import dataclass

from ..errors import ExtractionError, QirParseError
from ..ir import (
    Barrier, CRegister, GateDag, Inst, QRegister, QuantumProgram, QubitRef, ResultRef, build_dag, instruction_kind
)

_DEFINE_RE = re.compile(r"^define\b[^@]*@([\w.]+)\s*\([^)]*\)[^{]*\{")
_ALLOC_RE = re.compile(
    r"^(%[\w.]+)\s*=\s*call\s+%Array\*\s+@__quantum__rt__qubit_allocate_array\(i64\s+(\d+)\)$"
)
_GEP_RE = re.compile(
    r"^(%[\w.]+)\s*=\s*call\s+i8\*\s+@__quantum__rt__array_get_element_ptr\(%Array\*\s+(%[\w.]+),\s*i64\s+(\d+)\)$"
)
_BITCAST_RE = re.compile(r"^(%[\w.]+)\s*=\s*bitcast\s+i8\*\s+(%[\w.]+)\s+to\s+%Qubit\*$")
_CALL_RE = re.compile(r"^(?:(%[\w.]+)\s*=\s*)?call\s+[^@]*@([\w.]+)\s*\((.*)\)$")
_BRANCH_RE = re.compile(r"^(br|switch|indirectbr)\b")
_HEX_FLOAT_RE = re.compile(r"^0x[0-9A-Fa-f]{16}$")


@dataclass(frozen=True)
class ExtractedGate:
    kind: str  # single-qubit | two-qubit | three-qubit | measure
    name: str
    params: tuple[float, ...]
    operands: tuple[int, ...]
    origin_line: int


def find_quantum_kernels(module_text: str) -> list[str]:
    """Return the body text of every function that calls a QIS intrinsic."""
    kernels = []
    lines = module_text.splitlines()
    i = 0
    while i < len(lines):
        stripped = lines[i].split(";", 1)[0].strip()
        if stripped.startswith("define"):
            if not _DEFINE_RE.match(stripped):
                raise QirParseError(f"malformed function definition: {stripped!r}")
            body = []
            depth = stripped.count("{") - stripped.count("}")
            i += 1
            while i < len(lines):
                code = lines[i].split(";", 1)[0]
                depth += code.count("{") - code.count("}")
                if depth <= 0:
                    break
                body.append(lines[i])
                i += 1
            else:
                raise QirParseError("unterminated function body")
            text = "\n".join(body)
            if "__quantum__qis__" in text:
                kernels.append(text)
        i += 1
    return kernels


def _parse_double(token: str, line_number: int) -> float:
    if _HEX_FLOAT_RE.match(token):
        return struct.unpack(">d", struct.pack(">Q", int(token, 16)))[0]
    try:
        return float(token)
    except ValueError:
        raise ExtractionError(f"line {line_number}: bad double literal {token!r}") from None


def _split_args(arg_text: str) -> list[str]:
    args = []
    depth = 0
    current = ""
    for ch in arg_text:
        if ch == "," and depth == 0:
            args.append(current.strip())
            current = ""
            continue
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        current += ch
    if current.strip():
        args.append(current.strip())
    return args


def extract_circuit(kernel_body: str) -> tuple[list[ExtractedGate], GateDag]:
    qubit_of: dict[str, int] = {}  # %Qubit* SSA name -> logical index
    element_of: dict[str, int] = {}  # raw i8* element pointer -> logical index
    array_base: dict[str, int] = {}  # %Array* SSA name -> first logical index
    array_size: dict[str, int] = {}
    n_logical = 0
    gates: list[ExtractedGate] = []
    ops: list = []
    measure_count = 0

    for number, raw_line in enumerate(kernel_body.splitlines(), 1):
        line = raw_line.split(";", 1)[0].strip()
        if not line or line.endswith(":"):
            continue
        if _BRANCH_RE.match(line):
            raise ExtractionError(
                f"line {number}: control flow ({line.split()[0]}) is not extractable; "
                "mapping requires straight-line kernels"
            )
        m = _ALLOC_RE.match(line)
        if m:
            name, size = m.group(1), int(m.group(2))
            if name in array_base:
                raise ExtractionError(f"line {number}: SSA value {name} bound twice")
            array_base[name] = n_logical
            array_size[name] = size
            n_logical += size
            continue
        m = _GEP_RE.match(line)
        if m:
            name, array, index = m.group(1), m.group(2), int(m.group(3))
            if array not in array_base:
                raise ExtractionError(f"line {number}: element pointer from unknown array {array}")
            if index >= array_size[array]:
                raise ExtractionError(f"line {number}: index {index} out of range for {array}")
            element_of[name] = array_base[array] + index
            continue
        m = _BITCAST_RE.match(line)
        if m:
            name, source = m.group(1), m.group(2)
            if source not in element_of:
                raise ExtractionError(f"line {number}: bitcast of untracked value {source}")
            if name in qubit_of:
                raise ExtractionError(f"line {number}: SSA value {name} bound twice")
            qubit_of[name] = element_of[source]
            continue
        m = _CALL_RE.match(line)
        if m:
            result, callee, arg_text = m.groups()
            if not callee.startswith("__quantum__qis__"):
                continue  # runtime bookkeeping: init/finalize/release
            name = callee[len("__quantum__qis__"):]
            params: list[float] = []
            operands: list[int] = []
            for arg in _split_args(arg_text):
                if arg == "...":
                    continue
                parts = arg.split()
                if parts[0] == "double":
                    params.append(_parse_double(parts[1], number))
                elif parts[0] == "%Qubit*":
                    value = parts[1]
                    if value not in qubit_of:
                        raise ExtractionError(
                            f"line {number}: qubit operand {value} was never extracted from an array"
                        )
                    operands.append(qubit_of[value])
                else:
                    raise ExtractionError(f"line {number}: unsupported operand {arg!r}")
            if name == "barrier":
                ops.append((number, "barrier", (), tuple(operands), None))
                continue
            if result is not None or name == "m":
                if len(operands) != 1:
                    raise ExtractionError(f"line {number}: measure takes one qubit operand")
                kind = "measure"
                record = ResultRef(creg_id=0, index=measure_count)
                measure_count += 1
            else:
                if not 1 <= len(operands) <= 3:
                    raise ExtractionError(f"line {number}: gate {name} has {len(operands)} qubit operands")
                kind = instruction_kind(name, len(operands))
                if len(set(operands)) != len(operands):
                    raise ExtractionError(f"line {number}: gate {name} repeats a qubit operand")
                record = None
            gates.append(ExtractedGate(kind, name, tuple(params), tuple(operands), number))
            ops.append((number, name, tuple(params), tuple(operands), record))

    register = QRegister(name="q", size=max(n_logical, 1), register_id=0)
    creg = CRegister(name="c", size=max(measure_count, 1), creg_id=0)
    refs = {i: QubitRef(register_id=0, index=i, logical_id=i) for i in range(n_logical)}
    program_ops = []
    for number, name, params, operands, record in ops:
        try:
            qubits = tuple(refs[i] for i in operands)
        except KeyError:
            raise ExtractionError(f"line {number}: qubit index out of allocated range") from None
        if name == "barrier":
            program_ops.append(Barrier(qubits=qubits))
        elif record is not None:
            program_ops.append(Inst(name="measure", params=(), qubits=qubits, result=record))
        else:
            program_ops.append(Inst(name=name, params=params, qubits=qubits))
    program = QuantumProgram(registers=[register], cregs=[creg], ops=program_ops)
    return gates, build_dag(program)
