"""Textual QIR emission.

Programs are lowered to LLVM-IR-style text where every quantum operation is a
call to a ``__quantum__rt__`` (runtime) or ``__quantum__qis__`` (instruction
set) function.  Only text is produced; there is no bitcode path and no LLVM
dependency.

Conventions fixed here and relied on by the extractor:

* ``RUNTIME`` states the runtime frame, each ``__quantum__rt__`` function's
  return and operand types: every runtime ``declare`` and ``call`` line is
  written from it, and the extractor checks each runtime call against it.
  The calls come from ``program.registers``, not from the op list:
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
* an op with ``condition=(creg, n)`` compares through the opaque runtime
  predicate ``__quantum__rt__creg_equal`` and branches over the op.
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

# Runtime function -> (return type, operand types), in the order its declarations are emitted.
RUNTIME = {
    "__quantum__rt__initialize": ("void", ("i8*",)),
    "__quantum__rt__finalize": ("void", ()),
    "__quantum__rt__qubit_allocate_array": ("%Array*", ("i64",)),
    "__quantum__rt__qubit_release_array": ("void", ("%Array*",)),
    "__quantum__rt__array_get_element_ptr": ("i8*", ("%Array*", "i64")),
    "__quantum__rt__creg_equal": ("i1", ("i64", "i64")),
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
        self.qis_used: dict[str, None] = {}  # the declare line of each QIS function, in first-use order
        self.rt_used: set[str] = set()
        self.qubit_ssa: dict[int, str] = {}  # logical id -> %Qubit* value
        self.result_lines: list[str] = []

    def ssa(self) -> str:
        name = f"%{self.next_ssa}"
        self.next_ssa += 1
        return name

    def rt(self, name: str, *values) -> str | None:
        """Append a call of runtime function `name` on `values`; the value it defines, or None for a void one."""
        self.rt_used.add(name)
        returns, types = RUNTIME[name]
        call = f"call {returns} @{name}({', '.join(f'{t} {v}' for t, v in zip(types, values))})"
        result = None if returns == "void" else self.ssa()
        self.body.append(f"  {result} = {call}" if result else f"  {call}")
        return result

    def qis(self, name: str, signature: str) -> str:
        self.qis_used[signature] = None
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
                    raw = self.rt("__quantum__rt__array_get_element_ptr", array, index)
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
            flag = self.rt("__quantum__rt__creg_equal", *op.condition)
            label = self.next_label
            self.next_label += 1
            self.body.append(f"  br i1 {flag}, label %then.{label}, label %endif.{label}")
            self.body.append(f"then.{label}:")
            self.emit_inst(op)
            self.body.append(f"  br label %endif.{label}")
            self.body.append(f"endif.{label}:")

    def run(self) -> QirModule:
        self.rt("__quantum__rt__initialize", "null")
        self.array_ssa = [self.rt("__quantum__rt__qubit_allocate_array", reg.size) for reg in self.program.registers]
        self.emit_extracts()
        for op in self.program.ops:
            self.emit_op(op)
        for array in reversed(self.array_ssa):
            self.rt("__quantum__rt__qubit_release_array", array)
        self.rt("__quantum__rt__finalize")

        header = [f"; ModuleID = '{self.kernel_name}'", f"; quantum kernel: {self.kernel_name}"]
        header += self.result_lines
        header.append("")
        header += ["%Array = type opaque", "%Qubit = type opaque", "%Result = type opaque", ""]
        declares = [
            f"declare {ret} @{name}({', '.join(args)})" for name, (ret, args) in RUNTIME.items() if name in self.rt_used
        ]
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

