"""Textual QIR emission.

Programs are lowered to LLVM-IR-style text where every quantum operation is a
call to a ``__quantum__rt__`` (runtime) or ``__quantum__qis__`` (instruction
set) function.  Only text is produced; there is no bitcode path and no LLVM
dependency.

Conventions fixed here and relied on by the extractor:

* the runtime frame comes from ``program.registers``, not from the op list:
  ``__quantum__rt__initialize`` first, then one
  ``__quantum__rt__qubit_allocate_array`` per register in declaration order,
  and at the end one ``__quantum__rt__qubit_release_array`` per register in
  reverse order followed by ``__quantum__rt__finalize``;
* every used qubit is extracted once, right after the allocations, via
  ``__quantum__rt__array_get_element_ptr`` followed by a ``bitcast`` to
  ``%Qubit*`` (the ``_1d`` spelling of the element accessor is not used);
* measurement is ``%Result* @__quantum__qis__m(%Qubit*)`` and the mapping
  from result values to classical register bits is recorded positionally in
  the module's comment header, which the extractor does not read;
* an op with ``condition=(creg, n)`` compares through an opaque runtime
  predicate ``i1 @__quantum__rt__creg_equal(i64, i64)`` and branches over
  the op.
  Branching kernels are deliberately outside what the extractor accepts.

This module only writes QIR; ``reader.py`` reads and verifies it.
"""

import re
import struct
from dataclasses import dataclass

from ..errors import EmitError
from ..ir import (
    Barrier,
    Inst,
    IrOp,
    QuantumProgram,
    op_qubits,
)

_SYMBOL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")

# Declarations are emitted in this order, so emission is byte-stable.
_RT_SIGNATURES = {
    "__quantum__rt__initialize": "declare void @__quantum__rt__initialize(i8*)",
    "__quantum__rt__finalize": "declare void @__quantum__rt__finalize()",
    "__quantum__rt__qubit_allocate_array": "declare %Array* @__quantum__rt__qubit_allocate_array(i64)",
    "__quantum__rt__qubit_release_array": "declare void @__quantum__rt__qubit_release_array(%Array*)",
    "__quantum__rt__array_get_element_ptr": "declare i8* @__quantum__rt__array_get_element_ptr(%Array*, i64)",
    "__quantum__rt__creg_equal": "declare i1 @__quantum__rt__creg_equal(i64, i64)",
}


@dataclass(frozen=True)
class QirModule:
    text: str
    kernel_name: str


def format_double(value: float) -> str:
    """Print a double the way LLVM does.

    Scientific notation with six fractional digits when that round-trips
    exactly, otherwise the raw IEEE-754 bit pattern in hex.
    """
    value = float(value)
    decimal = f"{value:.6e}"
    if float(decimal) == value:
        return decimal
    bits = struct.unpack(">Q", struct.pack(">d", value))[0]
    return f"0x{bits:016X}"


class _Emitter:
    def __init__(self, program: QuantumProgram, kernel_name: str):
        self.program = program
        self.kernel_name = kernel_name
        self.body: list[str] = []
        self.next_ssa = 0
        self.next_label = 0
        self.qis_used: list[str] = []  # first-use order, signature lines
        self.rt_used: set[str] = set()
        self.array_ssa: list[str] = []  # %Array* value per register
        self.qubit_ssa: dict[int, str] = {}  # logical id -> %Qubit* value
        self.result_lines: list[str] = []

    def ssa(self) -> str:
        name = f"%{self.next_ssa}"
        self.next_ssa += 1
        return name

    def rt(self, name: str) -> str:
        self.rt_used.add(name)
        return f"@{name}"

    def qis(self, name: str, signature: str) -> str:
        line = signature
        if line not in self.qis_used:
            self.qis_used.append(line)
        return f"@__quantum__qis__{name}"

    def emit_extracts(self) -> None:
        """Extract each used qubit once, register by register in logical order."""
        used: set[int] = set()
        for op in self.program.ops:
            if not isinstance(op, (Inst, Barrier)):
                raise EmitError(f"cannot emit op {type(op).__name__}")
            used.update(op_qubits(op))
        base = 0
        for array, reg in zip(self.array_ssa, self.program.registers):
            for index in range(reg.size):
                if base + index in used:
                    gep = self.rt("__quantum__rt__array_get_element_ptr")
                    raw = self.ssa()
                    self.body.append(f"  {raw} = call i8* {gep}(%Array* {array}, i64 {index})")
                    cast = self.ssa()
                    self.body.append(f"  {cast} = bitcast i8* {raw} to %Qubit*")
                    self.qubit_ssa[base + index] = cast
            base += reg.size

    def qubit(self, ref) -> str:
        value = self.qubit_ssa.get(ref.logical_id)
        if value is None:
            raise EmitError(f"qubit {ref.logical_id} has no extracted handle")
        return value

    def emit_inst(self, op: Inst) -> None:
        name = op.name
        if name == "measure":
            callee = self.qis("m", "declare %Result* @__quantum__qis__m(%Qubit*)")
            result = self.ssa()
            self.body.append(f"  {result} = call %Result* {callee}(%Qubit* {self.qubit(op.qubits[0])})")
            creg = self.program.cregs[op.result.creg_id].name
            self.result_lines.append(f"; result {len(self.result_lines)} ({result}) -> {creg}[{op.result.index}]")
            return
        if not _SYMBOL_RE.match(name):
            raise EmitError(f"gate name {name!r} has no QIS mapping")
        arg_types = ["double"] * len(op.params) + ["%Qubit*"] * len(op.qubits)
        signature = f"declare void @__quantum__qis__{name}({', '.join(arg_types)})"
        callee = self.qis(name, signature)
        args = [f"double {format_double(p)}" for p in op.params]
        args += [f"%Qubit* {self.qubit(q)}" for q in op.qubits]
        self.body.append(f"  call void {callee}({', '.join(args)})")

    def emit_op(self, op: IrOp) -> None:
        if isinstance(op, Barrier):
            callee = self.qis("barrier", "declare void @__quantum__qis__barrier(...)")
            args = ", ".join(f"%Qubit* {self.qubit(q)}" for q in op.qubits)
            self.body.append(f"  call void (...) {callee}({args})")
        elif op.condition is None:  # emit_extracts rejected every op but Inst and Barrier
            self.emit_inst(op)
        else:
            pred = self.rt("__quantum__rt__creg_equal")
            flag = self.ssa()
            creg_id, value = op.condition
            self.body.append(f"  {flag} = call i1 {pred}(i64 {creg_id}, i64 {value})")
            label = self.next_label
            self.next_label += 1
            self.body.append(f"  br i1 {flag}, label %then.{label}, label %endif.{label}")
            self.body.append(f"then.{label}:")
            self.emit_inst(op)
            self.body.append(f"  br label %endif.{label}")
            self.body.append(f"endif.{label}:")

    def run(self) -> QirModule:
        init = self.rt("__quantum__rt__initialize")
        self.body.append(f"  call void {init}(i8* null)")
        for reg in self.program.registers:
            alloc = self.rt("__quantum__rt__qubit_allocate_array")
            value = self.ssa()
            self.body.append(f"  {value} = call %Array* {alloc}(i64 {reg.size})")
            self.array_ssa.append(value)
        self.emit_extracts()
        for op in self.program.ops:
            self.emit_op(op)
        for array in reversed(self.array_ssa):
            release = self.rt("__quantum__rt__qubit_release_array")
            self.body.append(f"  call void {release}(%Array* {array})")
        fin = self.rt("__quantum__rt__finalize")
        self.body.append(f"  call void {fin}()")

        header = [f"; ModuleID = '{self.kernel_name}'", f"; quantum kernel: {self.kernel_name}"]
        header += self.result_lines
        header.append("")
        header += ["%Array = type opaque", "%Qubit = type opaque", "%Result = type opaque", ""]
        declares = [sig for name, sig in _RT_SIGNATURES.items() if name in self.rt_used]
        declares += self.qis_used
        lines = header + declares + [""]
        lines.append(f"define void @{self.kernel_name}() #0 {{")
        lines.append("entry:")
        lines += self.body
        lines += ["  ret void", "}", "", 'attributes #0 = { "quantum" }', ""]
        return QirModule("\n".join(lines), self.kernel_name)


def emit_qir(program: QuantumProgram, kernel_name: str = "main") -> QirModule:
    """Lower a program to a textual QIR module with one kernel function."""
    if not _SYMBOL_RE.match(kernel_name):
        raise EmitError(f"invalid kernel name {kernel_name!r}")
    return _Emitter(program, kernel_name).run()

