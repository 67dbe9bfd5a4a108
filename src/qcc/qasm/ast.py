"""Abstract syntax tree for OpenQASM 2.0.

Source spans and the file name are carried for diagnostics but excluded
from equality, so two parses of the same program compare equal however its
text is laid out.  Parameter expressions at the top level are already
evaluated to floats; inside gate bodies they stay symbolic trees because
they may reference formal parameters.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from ..errors import QasmSemanticError, SourceSpan

_NO_SPAN = SourceSpan(0, 0)


def _span_field() -> SourceSpan:
    return field(default=_NO_SPAN, compare=False)  # type: ignore[return-value]


# --- parameter expressions ---------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Pi:
    pass


@dataclass(frozen=True)
class Param:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    operand: "Expr"


Expr = Num | Pi | Param | Neg | BinOp | Call

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
}

_OPERATORS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def evaluate(expr: Expr, env: dict[str, float], span: SourceSpan | None = None) -> float:
    """Evaluate a parameter expression to a double.

    env maps formal parameter names to values; at the program top level it is
    empty and any identifier is an error.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Pi):
        return math.pi
    if isinstance(expr, Param):
        if expr.name not in env:
            raise QasmSemanticError(f"unknown parameter '{expr.name}'", span)
        return env[expr.name]
    if isinstance(expr, Neg):
        return -evaluate(expr.operand, env, span)
    if isinstance(expr, BinOp):
        lhs = evaluate(expr.lhs, env, span)
        rhs = evaluate(expr.rhs, env, span)
        try:
            result = _OPERATORS[expr.op](lhs, rhs)
        except ZeroDivisionError:
            raise QasmSemanticError("division by zero in parameter expression", span) from None
        except OverflowError:
            raise QasmSemanticError("parameter expression overflows", span) from None
        if isinstance(result, complex):  # a negative base to a fractional power
            raise QasmSemanticError("parameter expression is not real", span)
        if not math.isfinite(result):
            raise QasmSemanticError("parameter expression is not finite", span)
        return result
    if isinstance(expr, Call):
        value = evaluate(expr.operand, env, span)
        # Every function gives a finite value or one of these errors for a finite operand.
        try:
            return FUNCTIONS[expr.func](value)
        except ValueError:
            raise QasmSemanticError(f"domain error in {expr.func}()", span) from None
        except OverflowError:
            raise QasmSemanticError(f"{expr.func}() overflows", span) from None
    raise TypeError(f"not an expression: {expr!r}")


# --- statements ---------------------------------------------------------------


@dataclass(frozen=True)
class Argument:
    """A register reference, optionally indexed.  index=None means the whole register."""

    reg: str
    index: int | None
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class RegDecl:
    kind: str  # "qreg" | "creg"
    name: str
    size: int
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class GateCall:
    """Top-level calls carry float params; calls in gate bodies carry Expr trees."""

    name: str
    params: tuple
    qargs: tuple[Argument, ...]
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Measure:
    qarg: Argument
    carg: Argument
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class Reset:
    qarg: Argument
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class BarrierStmt:
    qargs: tuple[Argument, ...]
    span: SourceSpan = _span_field()


@dataclass(frozen=True)
class IfStatement:
    creg: str
    value: int
    body: "Statement"
    span: SourceSpan = _span_field()


Statement = GateCall | Measure | Reset | BarrierStmt | IfStatement


@dataclass(frozen=True)
class GateDef:
    name: str
    params: tuple[str, ...]
    qubits: tuple[str, ...]
    body: tuple[Statement, ...]
    span: SourceSpan = _span_field()


@dataclass
class QasmAst:
    version: str
    includes: list[str]
    declarations: list[RegDecl]
    gate_defs: list[GateDef]
    statements: list[Statement]
    filename: str | None = field(default=None, compare=False)
