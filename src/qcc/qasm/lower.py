"""Lowering from the QASM AST to the quantum IR.

The parser has validated the program, so lowering only expands it.
Whole-register statements are expanded per index in ascending order, and
calls of user-defined gates are inlined recursively, one instantiate() per
call.  Every other name is a primitive: the standard-library gates keep
their names, U becomes u3 and CX becomes cx, and measure, reset and barriers
pass through.  Standard-library gates are not inlined here; turning them
into a hardware-native set is the optimizer's job.  The one diagnostic
left to lowering is a body's parameter expression that fails to evaluate
for the values of one call; it names the AST's file.

A conditioned statement lowers to its expanded gates, each carrying the
statement's condition as ``Inst.condition``.  The comparison is against a
classical register that no unitary body can modify, so splitting a
multi-gate expansion into individually conditioned gates preserves the
program's meaning.
"""

from __future__ import annotations

from ..errors import in_file
from ..ir import (
    Barrier,
    CRegister,
    Inst,
    IrOp,
    QRegister,
    QuantumProgram,
    QubitRef,
    ResultRef,
)
from . import ast

# IR names of the two builtins; every other primitive keeps its QASM name.
_BUILTIN_NAMES = {"U": "u3", "CX": "cx"}


def primitive(op: Inst) -> Inst:
    """op under its IR name: U becomes u3, CX becomes cx, the rest stay."""
    name = _BUILTIN_NAMES.get(op.name)
    return op if name is None else Inst(name, op.params, op.qubits, op.result, op.condition)


def instantiate(
    gdef: ast.GateDef,
    params: tuple[float, ...],
    qubits: tuple[QubitRef, ...],
    condition: tuple[int, int] | None = None,
) -> list[IrOp]:
    """The ops of one call of gdef, each gate still under the name its body uses.

    The body's parameter expressions are evaluated with the call's values
    bound to the formal names, formal qubits map to the call's qubits, every
    gate carries the call's condition, and barriers are kept.
    """
    env = dict(zip(gdef.params, params))
    qmap = dict(zip(gdef.qubits, qubits))
    ops: list[IrOp] = []
    for stmt in gdef.body:
        mapped = tuple(qmap[a.reg] for a in stmt.qargs)
        if isinstance(stmt, ast.BarrierStmt):
            ops.append(Barrier(mapped))
        else:
            values = tuple(ast.evaluate(p, env, stmt.span) for p in stmt.params)
            ops.append(Inst(stmt.name, values, mapped, None, condition))
    return ops


class _Lowering:
    def __init__(self, program_ast: ast.QasmAst):
        self.ast = program_ast
        decls = program_ast.declarations
        self.registers = [QRegister(d.size, d.name) for d in decls if d.kind == "qreg"]
        self.cregisters = [CRegister(d.size, d.name) for d in decls if d.kind == "creg"]
        self.qregs = {r.name: r for r in self.registers}
        self.creg_ids = {c.name: i for i, c in enumerate(self.cregisters)}
        self.bases: dict[str, int] = {}
        base = 0
        for reg in self.registers:
            self.bases[reg.name] = base
            base += reg.size
        self.user_defs = {g.name: g for g in program_ast.gate_defs}

    # --- statement expansion ---

    def qubit(self, arg: ast.Argument, i: int) -> QubitRef:
        """The qubit arg names in row i of a broadcast."""
        index = i if arg.index is None else arg.index
        return QubitRef(self.bases[arg.reg] + index)

    def broadcast(self, qargs: tuple[ast.Argument, ...]) -> list[tuple[QubitRef, ...]]:
        """Expand whole-register arguments index by index, ascending."""
        width = next((self.qregs[a.reg].size for a in qargs if a.index is None), 1)
        return [tuple(self.qubit(a, i) for a in qargs) for i in range(width)]

    def apply_gate(self, op: Inst, sink: list[IrOp]) -> None:
        """Inline a call of a user gate; emit anything else as a primitive."""
        gdef = self.user_defs.get(op.name)
        if gdef is None:
            sink.append(primitive(op))
            return
        for sub in instantiate(gdef, op.params, op.qubits):
            if isinstance(sub, Inst):
                self.apply_gate(sub, sink)
            else:
                sink.append(sub)

    def lower_statement(self, stmt: ast.Statement, sink: list[IrOp]) -> None:
        if isinstance(stmt, ast.GateCall):
            params = tuple(float(p) for p in stmt.params)
            for qubits in self.broadcast(stmt.qargs):
                self.apply_gate(Inst(stmt.name, params, qubits), sink)
        elif isinstance(stmt, ast.Measure):
            creg_id = self.creg_ids[stmt.carg.reg]
            for i, qubits in enumerate(self.broadcast((stmt.qarg,))):
                result = ResultRef(creg_id, i if stmt.carg.index is None else stmt.carg.index)
                sink.append(Inst("measure", (), qubits, result))
        elif isinstance(stmt, ast.Reset):
            sink.extend(Inst("reset", (), qubits) for qubits in self.broadcast((stmt.qarg,)))
        elif isinstance(stmt, ast.BarrierStmt):
            # A qubit named twice is fenced once, at its first position.
            qubits = dict.fromkeys(q for arg in stmt.qargs for (q,) in self.broadcast((arg,)))
            sink.append(Barrier(tuple(qubits)))
        elif isinstance(stmt, ast.IfStatement):
            condition = (self.creg_ids[stmt.creg], stmt.value)
            body_ops: list[IrOp] = []
            self.lower_statement(stmt.body, body_ops)
            # Barriers inside a conditioned macro stay unconditioned fences.
            sink.extend(op._replace(condition=condition) if isinstance(op, Inst) else op for op in body_ops)
        else:
            raise TypeError(f"not a statement: {stmt!r}")

    def run(self) -> QuantumProgram:
        ops: list[IrOp] = []
        for stmt in self.ast.statements:
            self.lower_statement(stmt, ops)
        return QuantumProgram(self.registers, self.cregisters, ops)


def lower_ast_to_ir(program_ast: ast.QasmAst) -> QuantumProgram:
    """Expand and inline a validated AST into a flat QuantumProgram."""
    with in_file(program_ast.filename):
        return _Lowering(program_ast).run()
