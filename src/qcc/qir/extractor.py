"""Circuit reconstruction from textual QIR.

``find_quantum_kernels`` reads a module once with ``reader.read_qir`` and
hands on each kernel as the records of its body.  The extractor takes those
records, or a module's text, and accepts the straight-line subset that
``codegen.py`` emits (its docstring lists the conventions), so hand-written
kernels following the same pattern work too.  Qubits get logical indices
densely in allocation order.  Any instruction outside the subset is an
ExtractionError naming its line, since partial extraction would silently
drop gates.

A routed kernel repeats most of its gate calls, so ``extract_program``
decodes each distinct one once per call: a line whose record matches an
earlier one in all but its line number, return type included, reuses that
decode's frozen ``Inst``, kind and operand ids.  Only clean decodes are kept,
so a bad line fails at its first occurrence; measurements (each writes the
next result) and barriers are decoded every time.  ``ExtractedGate`` is a
``NamedTuple``, cheap to build per gate.
"""

from typing import NamedTuple

from ..errors import ExtractionError
from ..ir import (
    Barrier, CRegister, Inst, QRegister, QuantumProgram, QubitRef, ResultRef, instruction_kind
)
from ..qasm import qelib1
from ..qasm.parser import MAX_PROGRAM_QUBITS
from .reader import Record, double_value, int_value, read_qir

_QIS = "__quantum__qis__"
_RT = "__quantum__rt__"
_ALLOCATE = "__quantum__rt__qubit_allocate_array"
_ELEMENT = "__quantum__rt__array_get_element_ptr"


class ExtractedGate(NamedTuple):
    kind: str  # single-qubit | two-qubit | three-qubit | measure
    name: str
    params: tuple[float, ...]
    operands: tuple[int, ...]
    line: int  # module line of the instruction


def find_quantum_kernels(module_text: str) -> list[list[Record]]:
    """The body records of every function that calls the quantum runtime or a QIS intrinsic, in module order.

    The records come from one read of the module, so they hold module lines.
    A malformed or unterminated define raises here; a bad body line is left to the extractor.
    """
    bodies: dict[int, list[Record]] = {}  # define line -> the records of its body
    for record in read_qir(module_text):
        if record.kind == "define" and record.problem is not None:
            raise ExtractionError(f"line {record.line}: {record.problem}")
        if record.function and record.kind != "close":
            bodies.setdefault(record.function, []).append(record)
    return [b for b in bodies.values() if any(r.opcode == "call" and r.name.startswith((_QIS, _RT)) for r in b)]


def extract_program(source: str | list[Record]) -> tuple[list[ExtractedGate], QuantumProgram]:
    """Gate records and the equivalent program of a module's text or a kernel's records.

    Text is read here; records from ``find_quantum_kernels`` are used as they
    are.  The program's register holds every allocated qubit, every measurement
    writes the next bit of classical register 0, a standard gate must have
    its qelib1 arity, and no SSA name is defined twice.
    """
    bound: set[str] = set()  # every SSA name a line has defined, whatever its kind
    qubit_of: dict[str, QubitRef] = {}  # %Qubit* SSA name -> its qubit
    element_of: dict[str, int] = {}  # raw i8* element pointer -> logical index
    arrays: dict[str, tuple[int, int]] = {}  # %Array* SSA name -> (first logical index, size)
    n_logical = 0
    n_measures = 0
    gates: list[ExtractedGate] = []
    ops: list = []
    # a gate call's record without its line -> (Inst, kind, operand ids); no SSA name is bound twice, so a decode holds
    decoded: dict[tuple, tuple[Inst, str, tuple[int, ...]]] = {}

    arity = qelib1.gate_table()
    for r in read_qir(source) if isinstance(source, str) else source:
        line = r.line
        if (hit := decoded.get(key := r[1:])) is not None:
            inst, kind, operands = hit
            ops.append(inst)
            gates.append(ExtractedGate(kind, inst.name, inst.params, operands, line))
            continue
        if r.problem is not None:
            raise ExtractionError(f"line {line}: {r.problem}")
        if r.kind != "inst" or r.opcode == "ret":
            continue
        if r.result is not None:
            if r.result in bound:
                raise ExtractionError(f"line {line}: SSA value {r.result} bound twice")
            bound.add(r.result)
        typed = r.operands()
        types = tuple([type_ for type_, _ in typed])
        values = [value for _, value in typed]
        if None in values:
            raise ExtractionError(f"line {line}: operand {types[values.index(None)]!r} has no value")
        if r.opcode == "call" and r.name.startswith(_QIS):
            name = r.name[len(_QIS):]
            params: list[float] = []
            qubits: list[QubitRef] = []
            for type_, value in typed:
                if type_ == "%Qubit*":
                    if value not in qubit_of:
                        raise ExtractionError(f"line {line}: qubit operand {value} was never extracted from an array")
                    qubits.append(qubit_of[value])
                elif type_ == "double":
                    params.append(double_value(value, line))
                else:
                    raise ExtractionError(f"line {line}: unsupported operand '{type_} {value}'")
            operands = tuple([q.logical_id for q in qubits])
            if (r.result is not None) != (name == "m"):
                raise ExtractionError(f"line {line}: only the measurement @{_QIS}m defines a value, and it must")
            returns = "%Result*" if name == "m" else "void"
            if r.type != returns:
                raise ExtractionError(f"line {line}: @{r.name} must return {returns}, not {r.type!r}")
            if name == "barrier":
                ops.append(Barrier(qubits=tuple(qubits)))
                continue
            if name in ("m", "reset") and (len(operands), len(params)) != (1, 0):
                raise ExtractionError(f"line {line}: @{r.name} takes one qubit operand and no parameter")
            if name == "m":
                kind = "measure"
                ops.append(Inst("measure", (), tuple(qubits), ResultRef(0, n_measures)))
                n_measures += 1
            else:
                if not 1 <= len(operands) <= 3:
                    raise ExtractionError(f"line {line}: gate {name} has {len(operands)} qubit operands")
                if len(set(operands)) != len(operands):
                    raise ExtractionError(f"line {line}: gate {name} repeats a qubit operand")
                n_params, n_qubits = arity.get(name, (len(params), len(operands)))
                if len(params) != n_params:
                    raise ExtractionError(
                        f"line {line}: gate '{name}' takes {n_params} parameter(s), got {len(params)}"
                    )
                if len(operands) != n_qubits:
                    raise ExtractionError(
                        f"line {line}: gate '{name}' acts on {n_qubits} qubit(s) but is given {len(operands)}"
                    )
                kind = instruction_kind(name, len(operands))
                inst = Inst(name, tuple(params), tuple(qubits))
                ops.append(inst)
                decoded[key] = (inst, kind, operands)
            gates.append(ExtractedGate(kind, name, tuple(params), operands, line))
        elif r.opcode == "call" and r.name == _ALLOCATE and r.result is not None and types == ("i64",):
            size = int_value(values[0], line)
            if n_logical + size > MAX_PROGRAM_QUBITS:
                raise ExtractionError(f"line {line}: kernel allocates more than {MAX_PROGRAM_QUBITS} qubits")
            arrays[r.result] = (n_logical, size)
            n_logical += size
        elif r.opcode == "call" and r.name == _ELEMENT and r.result is not None and types == ("%Array*", "i64"):
            array, index = values[0], int_value(values[1], line)
            if array not in arrays:
                raise ExtractionError(f"line {line}: element pointer from unknown array {array}")
            if index >= arrays[array][1]:
                raise ExtractionError(f"line {line}: index {index} out of range for {array}")
            element_of[r.result] = arrays[array][0] + index
        elif r.opcode == "bitcast" and r.result is not None and types == ("i8*",) and r.type == "%Qubit*":
            if values[0] not in element_of:
                raise ExtractionError(f"line {line}: bitcast of untracked value {values[0]}")
            logical = element_of[values[0]]
            qubit_of[r.result] = QubitRef(logical)
        elif not (r.opcode == "call" and r.name.startswith(_RT) and r.name not in (_ALLOCATE, _ELEMENT)):
            what = f"call to @{r.name}" if r.opcode == "call" else f"{r.opcode} instruction"
            raise ExtractionError(f"line {line}: {what} is outside the extractable subset of straight-line kernels")

    program = QuantumProgram(
        registers=[QRegister(name="q", size=n_logical)],
        cregs=[CRegister(name="c", size=n_measures)],
        ops=ops,
    )
    return gates, program


# The former name, kept only because perfbench's checks import it.
extract_circuit = extract_program
