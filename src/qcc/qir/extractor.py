"""Circuit reconstruction from textual QIR.

``find_quantum_kernels`` reads a module once with ``reader.read_qir`` and
hands on each kernel as the (line, record) pairs of its body.  The
extractor takes those pairs, or a module's text with one kernel, and
accepts the straight-line subset that ``codegen.py`` emits (its docstring
lists the conventions), so hand-written kernels following the same pattern
work too.  Qubits get logical indices densely in allocation order.  Any
instruction outside the subset is an ExtractionError naming its line, since
partial extraction would silently drop gates.

A routed kernel repeats most of its gate calls, and repeats share a record,
so ``extract_program`` decodes each distinct call once: a line whose record
equals one decoded before reuses that decode's frozen ``Inst``, kind and
operand ids.  Only clean decodes are kept, so a bad line fails at its first
occurrence; measurements (each writes the next result) and barriers are
decoded every time.  ``ExtractedGate`` is a ``NamedTuple``, cheap to build
per gate.
"""

from typing import NamedTuple

from ..errors import ExtractionError
from ..ir import Barrier, CRegister, Inst, QRegister, QuantumProgram, QubitRef, ResultRef, instruction_kind
from ..qasm import qelib1
from ..qasm.parser import MAX_PROGRAM_QUBITS
from .codegen import RUNTIME
from .reader import Record, double_value, int_value, read_qir

_QIS = "__quantum__qis__"
_RT = "__quantum__rt__"


class ExtractedGate(NamedTuple):
    kind: str  # single-qubit | two-qubit | three-qubit | measure
    name: str
    params: tuple[float, ...]
    operands: tuple[int, ...]
    line: int  # module line of the instruction


def find_quantum_kernels(module_text: str) -> list[list[tuple[int, Record]]]:
    """The (line, record) pairs of every function that calls the quantum runtime or a QIS intrinsic, in module order.

    Each holds the module's define and declare pairs, then its body's, from one read: they hold module lines.
    A malformed or unterminated define raises here; a bad body line is left to the extractor.
    """
    symbols: list[tuple[int, Record]] = []
    bodies: dict[int, list[tuple[int, Record]]] = {}  # define line -> the pairs of its body
    for line, record in read_qir(module_text):
        if record.kind == "define" and record.problem is not None:
            raise ExtractionError(f"line {line}: {record.problem}")
        if record.kind in ("define", "declare"):
            symbols.append((line, record))
        elif record.function and record.kind != "close":
            bodies.setdefault(record.function, []).append((line, record))
    kernels = [b for b in bodies.values() if any(r.opcode == "call" and r.name.startswith((_QIS, _RT)) for _, r in b)]
    return [symbols + body for body in kernels]


def extract_program(source: str | list[tuple[int, Record]]) -> tuple[list[ExtractedGate], QuantumProgram]:
    """Gate records and the equivalent program of a module's one kernel, or of a kernel's pairs.

    Text goes through ``find_quantum_kernels``.  The program's register holds
    every allocated qubit, every measurement writes the next bit of classical
    register 0, a standard gate must have its qelib1 arity, no SSA name is
    defined twice, and each runtime call matches its ``RUNTIME`` signature.
    Only releases of other arrays and ``finalize`` may follow a release.  Last, every callee must be declared.
    """
    kernels = find_quantum_kernels(source) if isinstance(source, str) else [source]
    if len(kernels) != 1:
        raise ExtractionError(f"expected exactly one quantum kernel, found {len(kernels)}")
    bound: set[str] = set()  # every SSA name a line has defined, whatever its kind
    qubit_of: dict[str, QubitRef] = {}  # %Qubit* SSA name -> its qubit
    element_of: dict[str, int] = {}  # raw i8* element pointer -> logical index
    arrays: dict[str, tuple[int, int]] = {}  # %Array* SSA name -> (first logical index, size)
    released: set[str] = set()  # %Array* SSA names
    symbols: set[str] = set()  # the functions the module declares or defines; a kernel may call only these
    callees: dict[str, int] = {}  # callee -> the line of its first call
    n_logical = 0
    n_measures = 0
    gates: list[ExtractedGate] = []
    ops: list = []
    # a gate call's record -> (Inst, kind, operand ids); no SSA name is bound twice, so a decode holds
    decoded: dict[Record, tuple[Inst, str, tuple[int, ...]]] = {}

    arity = qelib1.gate_table()
    for line, r in kernels[0]:
        if (hit := decoded.get(r)) is not None:
            inst, kind, operands = hit
            ops.append(inst)
            gates.append(ExtractedGate(kind, inst.name, inst.params, operands, line))
            continue
        if r.problem is not None:
            raise ExtractionError(f"line {line}: {r.problem}")
        if r.kind != "inst" or r.opcode == "ret":
            if r.kind in ("define", "declare"):
                symbols.add(r.name)
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
        matches = RUNTIME.get(r.name) == (r.type, types) and (r.result is None) == (r.type == "void")
        frame = r.name.removeprefix(_RT) if matches else ""  # a runtime call that matches its signature
        if released and frame != "finalize" and (frame != "qubit_release_array" or values[0] in released):
            raise ExtractionError(f"line {line}: only releases of other qubit arrays and finalize may follow a release")
        if r.opcode == "call":
            callees.setdefault(r.name, line)
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
                decoded[r] = (inst, kind, operands)
            gates.append(ExtractedGate(kind, name, tuple(params), operands, line))
        elif frame == "qubit_allocate_array":
            size = int_value(values[0], line)
            if n_logical + size > MAX_PROGRAM_QUBITS:
                raise ExtractionError(f"line {line}: kernel allocates more than {MAX_PROGRAM_QUBITS} qubits")
            arrays[r.result] = (n_logical, size)
            n_logical += size
        elif frame == "array_get_element_ptr":
            array, index = values[0], int_value(values[1], line)
            if array not in arrays:
                raise ExtractionError(f"line {line}: element pointer from unknown array {array}")
            if index >= arrays[array][1]:
                raise ExtractionError(f"line {line}: index {index} out of range for {array}")
            element_of[r.result] = arrays[array][0] + index
        elif r.opcode == "bitcast" and r.result is not None and types == ("i8*",) and r.type == "%Qubit*":
            if values[0] not in element_of:
                raise ExtractionError(f"line {line}: bitcast of untracked value {values[0]}")
            qubit_of[r.result] = QubitRef(element_of[values[0]])
        elif frame == "qubit_release_array" and values[0] in arrays:
            released.add(values[0])
            decoded.clear()  # so that a gate after the release reaches the check above
        elif not (frame == "finalize" or frame == "initialize" and values == ["null"]):
            what = f"call to @{r.name}" if r.opcode == "call" else f"{r.opcode} instruction"
            raise ExtractionError(f"line {line}: {what} is outside the extractable subset of straight-line kernels")

    for callee, first in callees.items():
        if callee not in symbols:
            raise ExtractionError(f"line {first}: call to undeclared symbol @{callee}")

    program = QuantumProgram(
        registers=[QRegister(name="q", size=n_logical)],
        cregs=[CRegister(name="c", size=n_measures)],
        ops=ops,
    )
    return gates, program


# The former name, kept only because perfbench's checks import it.
extract_circuit = extract_program
