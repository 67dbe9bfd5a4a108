"""Textual QIR emission.

Programs are lowered to LLVM-IR-style text where every quantum operation is a
call to a ``__quantum__rt__`` (runtime) or ``__quantum__qis__`` (instruction
set) function.  Only text is produced; there is no bitcode path and no LLVM
dependency.

Conventions fixed here and relied on by the extractor:

* qubit registers are allocated with ``__quantum__rt__qubit_allocate_array``
  and every used qubit is extracted once, right after the allocations, via
  ``__quantum__rt__array_get_element_ptr`` followed by a ``bitcast`` to
  ``%Qubit*`` (the ``_1d`` spelling of the element accessor is not used);
* measurement is ``%Result* @__quantum__qis__m(%Qubit*)`` and the mapping
  from result values to classical register bits is recorded positionally in
  the module's comment header;
* ``if (creg == n)`` regions compare through an opaque runtime predicate
  ``i1 @__quantum__rt__creg_equal(i64, i64)`` and branch over the body.
  Branching kernels are deliberately outside what the extractor accepts.
"""

import re
import struct
from dataclasses import dataclass

from ..errors import EmitError
from ..ir import (
    Barrier,
    ConditionalRegion,
    Dealloc,
    FusedUnitary,
    Inst,
    Qalloc,
    QRTFinalize,
    QRTInit,
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
        self.array_ssa: dict[int, str] = {}  # register id -> %Array* value
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
        used: set[int] = set()
        for op in self.program.ops:
            used.update(op_qubits(op))
        for logical in sorted(used):
            self.extract_qubit(logical)

    def extract_qubit(self, logical: int) -> None:
        if logical in self.qubit_ssa:
            return
        ref = self.program.qubit(logical)
        array = self.array_ssa.get(ref.register_id)
        if array is None:
            raise EmitError(f"qubit {logical} used before its register is allocated")
        gep = self.rt("__quantum__rt__array_get_element_ptr")
        raw = self.ssa()
        self.body.append(f"  {raw} = call i8* {gep}(%Array* {array}, i64 {ref.index})")
        cast = self.ssa()
        self.body.append(f"  {cast} = bitcast i8* {raw} to %Qubit*")
        self.qubit_ssa[logical] = cast

    def qubit(self, ref) -> str:
        value = self.qubit_ssa.get(ref.logical_id)
        if value is None:
            raise EmitError(f"qubit {ref.logical_id} has no extracted handle")
        return value

    def emit_inst(self, op: Inst, indent: str = "  ") -> None:
        name = op.name
        if name == "measure":
            callee = self.qis("m", "declare %Result* @__quantum__qis__m(%Qubit*)")
            result = self.ssa()
            self.body.append(f"{indent}{result} = call %Result* {callee}(%Qubit* {self.qubit(op.qubits[0])})")
            creg = next(c.name for c in self.program.cregs if c.creg_id == op.result.creg_id)
            self.result_lines.append(f"; result {len(self.result_lines)} ({result}) -> {creg}[{op.result.index}]")
            return
        if not _SYMBOL_RE.match(name):
            raise EmitError(f"gate name {name!r} has no QIS mapping")
        arg_types = ["double"] * len(op.params) + ["%Qubit*"] * len(op.qubits)
        signature = f"declare void @__quantum__qis__{name}({', '.join(arg_types)})"
        callee = self.qis(name, signature)
        args = [f"double {format_double(p)}" for p in op.params]
        args += [f"%Qubit* {self.qubit(q)}" for q in op.qubits]
        self.body.append(f"{indent}call void {callee}({', '.join(args)})")

    def emit_op(self, op) -> None:
        if isinstance(op, QRTInit):
            init = self.rt("__quantum__rt__initialize")
            self.body.append(f"  call void {init}(i8* null)")
        elif isinstance(op, QRTFinalize):
            fin = self.rt("__quantum__rt__finalize")
            self.body.append(f"  call void {fin}()")
        elif isinstance(op, Qalloc):
            alloc = self.rt("__quantum__rt__qubit_allocate_array")
            value = self.ssa()
            self.body.append(f"  {value} = call %Array* {alloc}(i64 {op.register.size})")
            self.array_ssa[op.register.register_id] = value
        elif isinstance(op, Dealloc):
            release = self.rt("__quantum__rt__qubit_release_array")
            array = self.array_ssa.get(op.register.register_id)
            if array is None:
                raise EmitError(f"register {op.register.name!r} released before allocation")
            self.body.append(f"  call void {release}(%Array* {array})")
        elif isinstance(op, Inst):
            self.emit_inst(op)
        elif isinstance(op, Barrier):
            callee = self.qis("barrier", "declare void @__quantum__qis__barrier(...)")
            args = ", ".join(f"%Qubit* {self.qubit(q)}" for q in op.qubits)
            self.body.append(f"  call void (...) {callee}({args})")
        elif isinstance(op, ConditionalRegion):
            pred = self.rt("__quantum__rt__creg_equal")
            flag = self.ssa()
            self.body.append(f"  {flag} = call i1 {pred}(i64 {op.creg_id}, i64 {op.value})")
            label = self.next_label
            self.next_label += 1
            self.body.append(f"  br i1 {flag}, label %then.{label}, label %endif.{label}")
            self.body.append(f"then.{label}:")
            self.emit_inst(op.body)
            self.body.append(f"  br label %endif.{label}")
            self.body.append(f"endif.{label}:")
        elif isinstance(op, FusedUnitary):
            raise EmitError("fused unitary has no QIS mapping; decompose before emission")
        else:
            raise EmitError(f"cannot emit op {type(op).__name__}")

    def run(self) -> QirModule:
        alloc_ops = []
        rest = []
        seen_body = False
        for op in self.program.ops:
            if isinstance(op, (QRTInit, Qalloc)) and not seen_body:
                alloc_ops.append(op)
            else:
                seen_body = True
                rest.append(op)
        for op in alloc_ops:
            self.emit_op(op)
        self.emit_extracts()
        for op in rest:
            self.emit_op(op)

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
    return _Emitter(program.finalized(), kernel_name).run()


_DEF_RE = re.compile(r"^define\b.*@([\w.]+)\s*\(")
_DECLARE_RE = re.compile(r"^declare\b.*@([\w.]+)\s*\(")
_CALL_RE = re.compile(r"\bcall\b[^@]*@([\w.]+)\s*\(")
_SSA_DEF_RE = re.compile(r"^\s*(%[\w.]+)\s*=")
_SSA_USE_RE = re.compile(r"%[\w.]+")
_TYPE_NAMES = {"%Array", "%Qubit", "%Result"}


def verify_qir_text(module) -> list[str]:
    """Structural linter for emitted (or hand-written) QIR text.

    Returns a list of diagnostics; empty means the text is self-consistent.
    This is not an LLVM verifier, it only checks the properties downstream
    passes rely on: unique SSA definitions, no calls to undeclared symbols
    and balanced brackets.
    """
    text = module.text if isinstance(module, QirModule) else module
    diagnostics: list[str] = []
    declared: set[str] = set()
    defined: set[str] = set()
    lines = text.splitlines()
    for line in lines:
        code = line.split(";", 1)[0]
        m = _DECLARE_RE.match(code.strip())
        if m:
            declared.add(m.group(1))
        m = _DEF_RE.match(code.strip())
        if m:
            defined.add(m.group(1))

    depth = 0
    ssa_defined: set[str] = set()
    in_function = False
    for number, line in enumerate(lines, 1):
        code = line.split(";", 1)[0]
        if "(" in code or ")" in code:
            if code.count("(") != code.count(")"):
                diagnostics.append(f"line {number}: unbalanced parentheses")
        stripped = code.strip()
        if stripped.startswith("define"):
            in_function = True
            ssa_defined = set()
        m = _SSA_DEF_RE.match(code)
        if m:
            name = m.group(1)
            if name in ssa_defined:
                diagnostics.append(f"line {number}: duplicate SSA definition {name}")
            for use in _SSA_USE_RE.findall(code.split("=", 1)[1]):
                if use in _TYPE_NAMES or use.startswith(("%then", "%endif")):
                    continue
                if use not in ssa_defined:
                    diagnostics.append(f"line {number}: use of undefined value {use}")
            ssa_defined.add(name)
        elif in_function and stripped and not stripped.startswith(("define", "}", "declare")):
            if not stripped.endswith(":"):
                for use in _SSA_USE_RE.findall(code):
                    if use in _TYPE_NAMES or use.startswith(("%then", "%endif")):
                        continue
                    if use not in ssa_defined:
                        diagnostics.append(f"line {number}: use of undefined value {use}")
        m = _CALL_RE.search(code)
        if m and m.group(1) not in declared and m.group(1) not in defined:
            diagnostics.append(f"line {number}: call to undeclared symbol @{m.group(1)}")
        depth += code.count("{") - code.count("}")
        if depth == 0:
            in_function = False
        if depth < 0:
            diagnostics.append(f"line {number}: unbalanced braces")
            depth = 0
    if depth != 0:
        diagnostics.append("end of module: unbalanced braces")
    return diagnostics
