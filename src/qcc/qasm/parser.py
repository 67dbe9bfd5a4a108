"""Recursive-descent parser for OpenQASM 2.0.

parse_qasm is the one validator of a program; lowering trusts what it
returns.  It checks as it goes: registers must be declared before use,
indices must be in range, and opaque declarations are rejected.  Every gate
is defined before use, as OpenQASM 2.0 requires: a call, at top level or in
a gate body, must name U, CX, a qelib1 gate included earlier or a user gate
defined earlier, with matching parameter and qubit counts.  So a gate body
cannot call its own gate or a later one, which rules out recursion, and an
include that would redefine an earlier user gate is rejected.  Each gate's
expanded size is known once it is defined, so the ops the whole program
lowers to are counted statement by statement and capped at MAX_PROGRAM_OPS.
Every diagnostic names the file given to parse_qasm.

The include mechanism is hermetic: the only accepted include is
"qelib1.inc", which resolves to a built-in gate table rather than a file.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left
from collections.abc import Callable
from typing import TypeVar

from ..errors import QasmSemanticError, QasmSyntaxError, SourceSpan, in_file
from . import ast

# One match per token: the whitespace, newlines and comments before it are
# folded into the match, and the token is the one group that matched, named
# after its type but for a symbol, which is its own type.  An unexpected
# character takes the rest of the source, so the scan ends there.
_TOKEN_RE = re.compile(
    r"""
    (?:[ \t\r\n]+|//[^\n]*)*
    (?:
      (?P<real>(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (->|==|[;,()\[\]{}+\-*/^])  # group 5
    | (?P<eof>\Z)
    | (?P<bad>[\s\S]+)
    )
    """,
    # ASCII-only \d: a Unicode digit such as '٣' is an unexpected character, not a number.
    re.VERBOSE | re.ASCII,
)
_NEWLINE_RE = re.compile("\n")

_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*$")

# Binary operators by precedence, loosest first; all are left associative.
_BINARY_LEVELS = (("+", "-"), ("*", "/"))

BUILTIN_GATES: dict[str, tuple[int, int]] = {"U": (3, 1), "CX": (0, 2)}

# Bounds the recursion of parsing and of walking the parsed expression tree,
# so deeply nested input is a diagnostic rather than a RecursionError.
MAX_EXPR_DEPTH = 100

# Register sizes, indices and if-values are i64 in QIR; 19 digits hold any
# of them, and the cap keeps int() from Python's conversion limit.
MAX_INT_DIGITS = 19

# Whole-register statements lower to one op per qubit, so the qubits a
# program declares bound the work of each such statement.
MAX_PROGRAM_QUBITS = 1 << 16

# Gate macros multiply what a statement lowers to, so the ops a whole
# program expands to are bounded too: four whole-register gates on the
# widest program allowed.
MAX_PROGRAM_OPS = 1 << 18

T = TypeVar("T")


# A token is (type, text, end): type is 'real', 'int', 'id', 'string', 'eof'
# or a symbol's own text, and end is the offset just past the text.  Tuples of
# strings and an int, which the garbage collector stops tracking.
Token = tuple[str, str, int]


class _Parser:
    def __init__(self, source: str, filename: str):
        # Offsets of the newlines: a token's line and column are found from its
        # offset only when a node or a diagnostic needs them.
        self.newlines = [m.start() for m in _NEWLINE_RE.finditer(source)]
        self.tokens: list[Token] = [
            (m.lastgroup or m[5], m[m.lastindex], m.end()) for m in _TOKEN_RE.finditer(source)
        ]
        if len(self.tokens) > 1:
            last = self.tokens[-2]
            if last[0] == "eof":  # the end, after whitespace or a comment, then on its own
                self.tokens.pop()
            elif last[0] == "bad":
                raise QasmSyntaxError(f"unexpected character {last[1][0]!r}", self.span(last))
        self.pos = 0
        self.filename = filename
        self.qregs: dict[str, int] = {}
        self.cregs: dict[str, int] = {}
        self.n_qubits = 0
        self.gate_arities: dict[str, tuple[int, int]] = dict(BUILTIN_GATES)
        # Ops one call of each user gate expands to; any other gate is one op.
        self.gate_sizes: dict[str, int] = {}
        self.n_ops = 0
        self.includes: list[str] = []
        self.declarations: list[ast.RegDecl] = []
        self.gate_defs: list[ast.GateDef] = []
        self.statements: list[ast.Statement] = []
        self.expr_depth = 0

    def span(self, tok: Token) -> SourceSpan:
        """Line and column, both from 1, of the first character of tok."""
        start = tok[2] - len(tok[1])
        line = bisect_left(self.newlines, start)  # the newlines before tok
        return SourceSpan(line + 1, start - (self.newlines[line - 1] if line else -1))

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def syntax_error(self, message: str, tok: Token | None = None) -> QasmSyntaxError:
        tok = tok or self.peek()
        return QasmSyntaxError(message, self.span(tok))

    def expect_int(self, what: str) -> tuple[Token, int]:
        tok = self.expect("int", what)
        if len(tok[1]) > MAX_INT_DIGITS:
            message = f"integer literal longer than {MAX_INT_DIGITS} digits does not fit in 64 bits"
            raise QasmSemanticError(message, self.span(tok))
        return tok, int(tok[1])

    # expect and accept are never asked for 'eof', so a match is never the last token.

    def expect(self, type_: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok[0] != type_:
            got = tok[1] or "end of input"
            raise self.syntax_error(f"expected {what}, got {got!r}")
        self.pos += 1
        return tok

    def accept(self, type_: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok[0] != type_:
            return None
        self.pos += 1
        return tok

    def parse_list(self, item: Callable[[], T]) -> list[T]:
        """item {"," item}: the grammar's idlist, explist and anylist."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def parse_parens(self, item: Callable[[], T]) -> list[T]:
        """Optional "(" [item {"," item}] ")"; empty without the parentheses."""
        if not self.accept("("):
            return []
        items = [] if self.peek()[0] == ")" else self.parse_list(item)
        self.expect(")", "')'")
        return items

    # --- top level ---

    def parse(self) -> ast.QasmAst:
        header = self.expect("id", "'OPENQASM'")
        if header[1] != "OPENQASM":
            raise self.syntax_error("program must start with 'OPENQASM'", header)
        version = self.expect("real", "version number")
        if version[1] != "2.0":
            raise QasmSemanticError(f"unsupported OPENQASM version '{version[1]}'", self.span(version))
        self.expect(";", "';'")

        while self.peek()[0] != "eof":
            self.parse_statement()

        return ast.QasmAst(
            version="2.0",
            includes=self.includes,
            declarations=self.declarations,
            gate_defs=self.gate_defs,
            statements=self.statements,
            filename=self.filename,
        )

    def parse_statement(self) -> None:
        tok = self.peek()
        if tok[0] != "id":
            raise self.syntax_error(f"expected a statement, got {tok[1]!r}")
        if tok[1] == "include":
            self.parse_include()
        elif tok[1] in ("qreg", "creg"):
            self.parse_reg_decl()
        elif tok[1] == "gate":
            self.parse_gate_def()
        elif tok[1] == "opaque":
            raise QasmSemanticError("opaque gates are not supported", self.span(tok))
        else:
            stmt = _STATEMENT_PARSERS.get(tok[1], _Parser.parse_gate_call)(self)
            self.statements.append(stmt)
            self.n_ops += self.expanded_size(stmt)
            if self.n_ops > MAX_PROGRAM_OPS:
                raise QasmSemanticError(f"program expands to more than {MAX_PROGRAM_OPS} operations", self.span(tok))

    def expanded_size(self, stmt: ast.Statement) -> int:
        """Ops a top-level statement lowers to: its broadcast width times its gate's size."""
        if isinstance(stmt, ast.IfStatement):
            return self.expanded_size(stmt.body)
        if isinstance(stmt, ast.BarrierStmt):
            return 1
        args = stmt.qargs if isinstance(stmt, ast.GateCall) else (stmt.qarg,)
        width = max((self.qregs[a.reg] for a in args if a.index is None), default=1)
        return width * (self.gate_sizes.get(stmt.name, 1) if isinstance(stmt, ast.GateCall) else 1)

    def parse_include(self) -> None:
        tok = self.advance()
        name_tok = self.expect("string", "include filename")
        self.expect(";", "';'")
        name = name_tok[1].strip('"')
        if name != "qelib1.inc":
            raise QasmSemanticError(f"unknown include '{name}'", self.span(name_tok))
        if name not in self.includes:
            from . import qelib1

            for gdef in self.gate_defs:
                if gdef.name in qelib1.gate_table():
                    raise QasmSemanticError(f"gate '{gdef.name}' is already defined", self.span(tok))
            self.includes.append(name)
            self.gate_arities.update(qelib1.gate_table())

    def parse_reg_decl(self) -> None:
        kind_tok = self.advance()
        kind = kind_tok[1]
        name_tok = self.expect("id", "register name")
        name = name_tok[1]
        if not _NAME_RE.match(name):
            raise QasmSemanticError(f"invalid register name '{name}'", self.span(name_tok))
        if name in self.qregs or name in self.cregs:
            raise QasmSemanticError(f"register '{name}' is already declared", self.span(name_tok))
        self.expect("[", "'['")
        size_tok, size = self.expect_int("register size")
        if size < 1:
            raise QasmSemanticError("register size must be positive", self.span(size_tok))
        if kind == "qreg":
            self.n_qubits += size
            if self.n_qubits > MAX_PROGRAM_QUBITS:
                message = f"program declares more than {MAX_PROGRAM_QUBITS} qubits"
                raise QasmSemanticError(message, self.span(kind_tok))
        self.expect("]", "']'")
        self.expect(";", "';'")
        (self.qregs if kind == "qreg" else self.cregs)[name] = size
        self.declarations.append(ast.RegDecl(kind, name, size, self.span(name_tok)))

    def parse_gate_def(self) -> None:
        self.advance()
        name_tok = self.expect("id", "gate name")
        name = name_tok[1]
        if not _NAME_RE.match(name):
            raise QasmSemanticError(f"invalid gate name '{name}'", self.span(name_tok))
        if name in self.gate_arities:
            raise QasmSemanticError(f"gate '{name}' is already defined", self.span(name_tok))

        params = self.parse_parens(lambda: self.expect("id", "parameter name")[1])
        qubits = self.parse_id_list("qubit argument")

        if len(set(params)) != len(params):
            raise QasmSemanticError("duplicate parameter name", self.span(name_tok))
        if len(set(qubits)) != len(qubits):
            raise QasmSemanticError("duplicate qubit argument", self.span(name_tok))

        self.expect("{", "'{'")
        body: list[ast.Statement] = []
        while self.peek()[0] != "}":
            if self.peek()[0] == "eof":
                raise self.syntax_error("unterminated gate body")
            body.append(self.parse_body_statement(name, frozenset(params), frozenset(qubits)))
        self.expect("}", "'}'")

        self.gate_arities[name] = (len(params), len(qubits))
        # Clamped past the bound, so a deep chain of macros stays cheap to count.
        size = sum(1 if isinstance(s, ast.BarrierStmt) else self.gate_sizes.get(s.name, 1) for s in body)
        self.gate_sizes[name] = min(size, MAX_PROGRAM_OPS + 1)
        self.gate_defs.append(
            ast.GateDef(name, tuple(params), tuple(qubits), tuple(body), self.span(name_tok))
        )

    def parse_id_list(self, what: str) -> list[str]:
        return self.parse_list(lambda: self.expect("id", what)[1])

    def parse_body_statement(self, gate: str, params: frozenset[str], qubits: frozenset[str]) -> ast.Statement:
        """One statement of gate's body; it may call only gates defined before gate."""
        tok = self.peek()
        if tok[0] != "id":
            raise self.syntax_error(f"expected a gate application, got {tok[1]!r}")
        if tok[1] == "barrier":
            self.advance()
            span = self.span(tok)
            args = self.formal_args(self.parse_id_list("qubit argument"), qubits, span)
            self.expect(";", "';'")
            return ast.BarrierStmt(args, span)

        name_tok = self.advance()
        if name_tok[1] == gate:
            raise QasmSemanticError(f"recursive gate definition '{gate}'", self.span(name_tok))
        arity = self.gate_arity(name_tok)
        call_params = self.parse_parens(lambda: self.parse_expr(params))
        arg_names = self.parse_id_list("qubit argument")
        self.expect(";", "';'")

        self.check_arity(name_tok, arity, len(call_params), len(arg_names))
        span = self.span(name_tok)
        args = self.formal_args(arg_names, qubits, span)
        if len(set(arg_names)) != len(arg_names):
            raise QasmSemanticError("gate arguments must be distinct", span)
        return ast.GateCall(name_tok[1], tuple(call_params), args, span)

    def formal_args(self, names: list[str], qubits: frozenset[str], span: SourceSpan) -> tuple[ast.Argument, ...]:
        """The operands of a gate-body statement, each one of the gate's qubit formals."""
        for name in names:
            if name not in qubits:
                raise QasmSemanticError(f"'{name}' is not a qubit argument of this gate", span)
        return tuple(ast.Argument(name, None, span) for name in names)

    # --- top-level statements ---

    def parse_argument(self, kind: str) -> ast.Argument:
        name_tok = self.expect("id", f"{kind} name")
        name = name_tok[1]
        table = self.qregs if kind == "qreg" else self.cregs
        if name not in table:
            raise QasmSemanticError(f"undeclared {kind} '{name}'", self.span(name_tok))
        index: int | None = None
        if self.accept("["):
            idx_tok, index = self.expect_int("index")
            self.expect("]", "']'")
            if index >= table[name]:
                raise QasmSemanticError(
                    f"index {index} out of range for {kind} '{name}' of size {table[name]}",
                    self.span(idx_tok),
                )
        return ast.Argument(name, index, self.span(name_tok))

    def _check_broadcast(self, args: list[ast.Argument], span: SourceSpan) -> None:
        """Whole-register args must share one size and no qubit may repeat."""
        sizes = {self.qregs[a.reg] for a in args if a.index is None}
        if len(sizes) > 1:
            raise QasmSemanticError("whole-register operands have mismatched sizes", span)
        # A whole register is keyed by its name, one qubit by (name, index).
        seen: set[str | tuple[str, int]] = set()
        for a in args:
            key = a.reg if a.index is None else (a.reg, a.index)
            if key in seen:
                if a.index is None:
                    raise QasmSemanticError(f"register '{a.reg}' used twice in one statement", span)
                raise QasmSemanticError(f"duplicate qubit '{a.reg}[{a.index}]'", span)
            seen.add(key)
        # Checked in operand order, so the first colliding qubit is named.
        for a in args:
            if a.index is not None and a.reg in seen:
                raise QasmSemanticError(f"'{a.reg}[{a.index}]' collides with whole-register operand '{a.reg}'", span)

    def gate_arity(self, name_tok: Token) -> tuple[int, int]:
        """(n_params, n_qubits) of a gate known at this point of the program."""
        if name_tok[1] not in self.gate_arities:
            raise QasmSemanticError(f"undeclared gate '{name_tok[1]}'", self.span(name_tok))
        return self.gate_arities[name_tok[1]]

    def check_arity(self, name_tok: Token, arity: tuple[int, int], n_params: int, n_qubits: int) -> None:
        """The arity check of every gate call, at top level and in gate bodies."""
        if n_params != arity[0]:
            message = f"gate '{name_tok[1]}' takes {arity[0]} parameter(s), got {n_params}"
            raise QasmSemanticError(message, self.span(name_tok))
        if n_qubits != arity[1]:
            message = f"gate '{name_tok[1]}' takes {arity[1]} qubit argument(s), got {n_qubits}"
            raise QasmSemanticError(message, self.span(name_tok))

    def parse_gate_call(self) -> ast.GateCall:
        name_tok = self.advance()
        arity = self.gate_arity(name_tok)
        span = self.span(name_tok)
        # Each parameter is evaluated as it is parsed, so the first bad one is reported.
        values = self.parse_parens(lambda: ast.evaluate(self.parse_expr(None), {}, span))
        args = self.parse_list(lambda: self.parse_argument("qreg"))
        self.expect(";", "';'")
        self.check_arity(name_tok, arity, len(values), len(args))
        self._check_broadcast(args, span)
        return ast.GateCall(name_tok[1], tuple(values), tuple(args), span)

    def parse_measure(self) -> ast.Measure:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect("->", "'->'")
        carg = self.parse_argument("creg")
        self.expect(";", "';'")
        if (qarg.index is None) != (carg.index is None):
            raise QasmSemanticError(
                "measure operands must both be indexed or both whole registers", self.span(tok)
            )
        if qarg.index is None and self.qregs[qarg.reg] != self.cregs[carg.reg]:
            raise QasmSemanticError("measured registers have mismatched sizes", self.span(tok))
        return ast.Measure(qarg, carg, self.span(tok))

    def parse_reset(self) -> ast.Reset:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect(";", "';'")
        return ast.Reset(qarg, self.span(tok))

    def parse_barrier(self) -> ast.BarrierStmt:
        tok = self.advance()
        args = self.parse_list(lambda: self.parse_argument("qreg"))
        self.expect(";", "';'")
        return ast.BarrierStmt(tuple(args), self.span(tok))

    def parse_if(self) -> ast.IfStatement:
        tok = self.advance()
        self.expect("(", "'('")
        creg_tok = self.expect("id", "creg name")
        if creg_tok[1] not in self.cregs:
            raise QasmSemanticError(f"undeclared creg '{creg_tok[1]}'", self.span(creg_tok))
        self.expect("==", "'=='")
        value_tok, value = self.expect_int("comparison value")
        self.expect(")", "')'")
        # The value must fit the register and the i64 that QIR compares it as.
        width = min(self.cregs[creg_tok[1]], 63)
        if value.bit_length() > width:
            raise QasmSemanticError(
                f"comparison value {value_tok[1]} does not fit in {width} bits of creg '{creg_tok[1]}'",
                self.span(value_tok),
            )

        body_tok = self.peek()
        if body_tok[0] != "id":
            raise self.syntax_error("expected a quantum operation after if(...)")
        if body_tok[1] == "measure":
            body: ast.Statement = self.parse_measure()
        elif body_tok[1] == "reset":
            body = self.parse_reset()
        elif body_tok[1] in ("barrier", "if", "gate", "opaque", "qreg", "creg", "include"):
            raise self.syntax_error(f"'{body_tok[1]}' cannot be conditioned", body_tok)
        else:
            body = self.parse_gate_call()
        return ast.IfStatement(creg_tok[1], value, body, self.span(tok))

    # --- expressions ---

    def enter_expr(self) -> None:
        """Count one more level of expression nesting, at the next token."""
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_DEPTH:
            raise self.syntax_error(f"expression nested more than {MAX_EXPR_DEPTH} levels deep")

    def parse_expr(self, params: frozenset[str] | None, level: int = 0) -> ast.Expr:
        """params is the set of formal names inside a gate body, None at top level.

        level indexes _BINARY_LEVELS, loosest first; past the last it reads a unary.
        """
        if level == len(_BINARY_LEVELS):
            return self.parse_unary(params)
        node = self.parse_expr(params, level + 1)
        depth = self.expr_depth
        while self.peek()[0] in _BINARY_LEVELS[level]:
            op = self.advance()[1]
            self.enter_expr()  # each operator nests the tree built so far one level deeper
            node = ast.BinOp(op, node, self.parse_expr(params, level + 1))
        self.expr_depth = depth
        return node

    def parse_unary(self, params: frozenset[str] | None) -> ast.Expr:
        # Parentheses, function calls, '-' and '^' all recurse through here.
        self.enter_expr()
        if self.accept("-"):
            node: ast.Expr = ast.Neg(self.parse_unary(params))
        else:
            node = self.parse_atom(params)
            if self.accept("^"):
                # Right associative; the exponent may itself be signed.
                node = ast.BinOp("^", node, self.parse_unary(params))
        self.expr_depth -= 1
        return node

    def parse_atom(self, params: frozenset[str] | None) -> ast.Expr:
        tok = self.peek()
        if tok[0] in ("real", "int"):
            self.advance()
            value = float(tok[1])
            if math.isinf(value):
                raise QasmSemanticError("number literal does not fit in a double", self.span(tok))
            return ast.Num(value)
        if tok[0] == "(":
            self.advance()
            node = self.parse_expr(params)
            self.expect(")", "')'")
            return node
        if tok[0] == "id":
            self.advance()
            if tok[1] == "pi":
                return ast.Pi()
            if tok[1] in ast.FUNCTIONS:
                self.expect("(", "'('")
                node = self.parse_expr(params)
                self.expect(")", "')'")
                return ast.Call(tok[1], node)
            if params is not None and tok[1] not in params:
                raise QasmSemanticError(f"unknown parameter '{tok[1]}'", self.span(tok))
            return ast.Param(tok[1])
        raise self.syntax_error(f"expected an expression, got {tok[1] or 'end of input'!r}")


_STATEMENT_PARSERS = {
    "barrier": _Parser.parse_barrier,
    "if": _Parser.parse_if,
    "measure": _Parser.parse_measure,
    "reset": _Parser.parse_reset,
}


def parse_qasm(source: str, filename: str = "<input>") -> ast.QasmAst:
    """Parse and validate OpenQASM 2.0 source text; diagnostics name filename."""
    with in_file(filename):
        return _Parser(source, filename).parse()
