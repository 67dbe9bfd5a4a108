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
from collections.abc import Callable
from typing import NamedTuple, TypeVar

from ..errors import QasmSemanticError, QasmSyntaxError, SourceSpan, in_file
from . import ast

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | (?P<nl>\n)
    | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<sym>->|==|[;,()\[\]{}+\-*/^])
    | (?P<bad>.)
    """,
    # ASCII-only \d: a Unicode digit such as '٣' is an unexpected character, not a number.
    re.VERBOSE | re.ASCII,
)

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


class Token(NamedTuple):
    type: str  # 'real' | 'int' | 'id' | 'string' | 'eof' | literal symbol text
    text: str
    span: SourceSpan


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset just after the last newline
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            text = m.group()
            span = SourceSpan(line, m.start() - line_start + 1)
            if kind == "bad":
                raise QasmSyntaxError(f"unexpected character {text!r}", span)
            tokens.append(Token(text if kind == "sym" else kind, text, span))
    tokens.append(Token("eof", "", SourceSpan(line, len(source) - line_start + 1)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
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

    # --- token plumbing ---

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def syntax_error(self, message: str, tok: Token | None = None) -> QasmSyntaxError:
        tok = tok or self.peek()
        return QasmSyntaxError(message, tok.span)

    def expect_int(self, what: str) -> tuple[Token, int]:
        tok = self.expect("int", what)
        if len(tok.text) > MAX_INT_DIGITS:
            message = f"integer literal longer than {MAX_INT_DIGITS} digits does not fit in 64 bits"
            raise QasmSemanticError(message, tok.span)
        return tok, int(tok.text)

    def expect(self, type_: str, what: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            got = tok.text or "end of input"
            raise self.syntax_error(f"expected {what}, got {got!r}")
        return self.advance()

    def accept(self, type_: str) -> Token | None:
        if self.peek().type == type_:
            return self.advance()
        return None

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
        items = [] if self.peek().type == ")" else self.parse_list(item)
        self.expect(")", "')'")
        return items

    # --- top level ---

    def parse(self) -> ast.QasmAst:
        header = self.expect("id", "'OPENQASM'")
        if header.text != "OPENQASM":
            raise self.syntax_error("program must start with 'OPENQASM'", header)
        version = self.expect("real", "version number")
        if version.text != "2.0":
            raise QasmSemanticError(f"unsupported OPENQASM version '{version.text}'", version.span)
        self.expect(";", "';'")

        while self.peek().type != "eof":
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
        if tok.type != "id":
            raise self.syntax_error(f"expected a statement, got {tok.text!r}")
        if tok.text == "include":
            self.parse_include()
        elif tok.text in ("qreg", "creg"):
            self.parse_reg_decl()
        elif tok.text == "gate":
            self.parse_gate_def()
        elif tok.text == "opaque":
            raise QasmSemanticError("opaque gates are not supported", tok.span)
        else:
            parse = {
                "barrier": self.parse_barrier,
                "if": self.parse_if,
                "measure": self.parse_measure,
                "reset": self.parse_reset,
            }.get(tok.text, self.parse_gate_call)
            stmt = parse()
            self.statements.append(stmt)
            self.n_ops += self.expanded_size(stmt)
            if self.n_ops > MAX_PROGRAM_OPS:
                raise QasmSemanticError(f"program expands to more than {MAX_PROGRAM_OPS} operations", tok.span)

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
        name = name_tok.text.strip('"')
        if name != "qelib1.inc":
            raise QasmSemanticError(f"unknown include '{name}'", name_tok.span)
        if name not in self.includes:
            from . import qelib1

            for gdef in self.gate_defs:
                if gdef.name in qelib1.gate_table():
                    raise QasmSemanticError(f"gate '{gdef.name}' is already defined", tok.span)
            self.includes.append(name)
            self.gate_arities.update(qelib1.gate_table())

    def parse_reg_decl(self) -> None:
        kind_tok = self.advance()
        kind = kind_tok.text
        name_tok = self.expect("id", "register name")
        name = name_tok.text
        if not _NAME_RE.match(name):
            raise QasmSemanticError(f"invalid register name '{name}'", name_tok.span)
        if name in self.qregs or name in self.cregs:
            raise QasmSemanticError(f"register '{name}' is already declared", name_tok.span)
        self.expect("[", "'['")
        size_tok, size = self.expect_int("register size")
        if size < 1:
            raise QasmSemanticError("register size must be positive", size_tok.span)
        if kind == "qreg":
            self.n_qubits += size
            if self.n_qubits > MAX_PROGRAM_QUBITS:
                message = f"program declares more than {MAX_PROGRAM_QUBITS} qubits"
                raise QasmSemanticError(message, kind_tok.span)
        self.expect("]", "']'")
        self.expect(";", "';'")
        (self.qregs if kind == "qreg" else self.cregs)[name] = size
        self.declarations.append(ast.RegDecl(kind, name, size, name_tok.span))

    def parse_gate_def(self) -> None:
        self.advance()
        name_tok = self.expect("id", "gate name")
        name = name_tok.text
        if not _NAME_RE.match(name):
            raise QasmSemanticError(f"invalid gate name '{name}'", name_tok.span)
        if name in self.gate_arities:
            raise QasmSemanticError(f"gate '{name}' is already defined", name_tok.span)

        params = self.parse_parens(lambda: self.expect("id", "parameter name").text)
        qubits = self.parse_id_list("qubit argument")

        if len(set(params)) != len(params):
            raise QasmSemanticError("duplicate parameter name", name_tok.span)
        if len(set(qubits)) != len(qubits):
            raise QasmSemanticError("duplicate qubit argument", name_tok.span)

        self.expect("{", "'{'")
        body: list[ast.Statement] = []
        while self.peek().type != "}":
            if self.peek().type == "eof":
                raise self.syntax_error("unterminated gate body")
            body.append(self.parse_body_statement(name, frozenset(params), frozenset(qubits)))
        self.expect("}", "'}'")

        self.gate_arities[name] = (len(params), len(qubits))
        # Clamped past the bound, so a deep chain of macros stays cheap to count.
        size = sum(1 if isinstance(s, ast.BarrierStmt) else self.gate_sizes.get(s.name, 1) for s in body)
        self.gate_sizes[name] = min(size, MAX_PROGRAM_OPS + 1)
        self.gate_defs.append(
            ast.GateDef(name, tuple(params), tuple(qubits), tuple(body), name_tok.span)
        )

    def parse_id_list(self, what: str) -> list[str]:
        return self.parse_list(lambda: self.expect("id", what).text)

    def parse_body_statement(self, gate: str, params: frozenset[str], qubits: frozenset[str]) -> ast.Statement:
        """One statement of gate's body; it may call only gates defined before gate."""
        tok = self.peek()
        if tok.type != "id":
            raise self.syntax_error(f"expected a gate application, got {tok.text!r}")
        if tok.text == "barrier":
            self.advance()
            args = self.formal_args(self.parse_id_list("qubit argument"), qubits, tok.span)
            self.expect(";", "';'")
            return ast.BarrierStmt(args, tok.span)

        name_tok = self.advance()
        if name_tok.text == gate:
            raise QasmSemanticError(f"recursive gate definition '{gate}'", name_tok.span)
        arity = self.gate_arity(name_tok)
        call_params = self.parse_parens(lambda: self.parse_expr(params))
        arg_names = self.parse_id_list("qubit argument")
        self.expect(";", "';'")

        self.check_arity(name_tok, arity, len(call_params), len(arg_names))
        args = self.formal_args(arg_names, qubits, name_tok.span)
        if len(set(arg_names)) != len(arg_names):
            raise QasmSemanticError("gate arguments must be distinct", name_tok.span)
        return ast.GateCall(name_tok.text, tuple(call_params), args, name_tok.span)

    def formal_args(self, names: list[str], qubits: frozenset[str], span: SourceSpan) -> tuple[ast.Argument, ...]:
        """The operands of a gate-body statement, each one of the gate's qubit formals."""
        for name in names:
            if name not in qubits:
                raise QasmSemanticError(f"'{name}' is not a qubit argument of this gate", span)
        return tuple(ast.Argument(name, None, span) for name in names)

    # --- top-level statements ---

    def parse_argument(self, kind: str) -> ast.Argument:
        name_tok = self.expect("id", f"{kind} name")
        name = name_tok.text
        table = self.qregs if kind == "qreg" else self.cregs
        if name not in table:
            raise QasmSemanticError(f"undeclared {kind} '{name}'", name_tok.span)
        index: int | None = None
        if self.accept("["):
            idx_tok, index = self.expect_int("index")
            self.expect("]", "']'")
            if index >= table[name]:
                raise QasmSemanticError(
                    f"index {index} out of range for {kind} '{name}' of size {table[name]}",
                    idx_tok.span,
                )
        return ast.Argument(name, index, name_tok.span)

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
        if name_tok.text not in self.gate_arities:
            raise QasmSemanticError(f"undeclared gate '{name_tok.text}'", name_tok.span)
        return self.gate_arities[name_tok.text]

    def check_arity(self, name_tok: Token, arity: tuple[int, int], n_params: int, n_qubits: int) -> None:
        """The arity check of every gate call, at top level and in gate bodies."""
        if n_params != arity[0]:
            message = f"gate '{name_tok.text}' takes {arity[0]} parameter(s), got {n_params}"
            raise QasmSemanticError(message, name_tok.span)
        if n_qubits != arity[1]:
            message = f"gate '{name_tok.text}' takes {arity[1]} qubit argument(s), got {n_qubits}"
            raise QasmSemanticError(message, name_tok.span)

    def parse_gate_call(self) -> ast.GateCall:
        name_tok = self.advance()
        arity = self.gate_arity(name_tok)
        # Each parameter is evaluated as it is parsed, so the first bad one is reported.
        values = self.parse_parens(lambda: ast.evaluate(self.parse_expr(None), {}, name_tok.span))
        args = self.parse_list(lambda: self.parse_argument("qreg"))
        self.expect(";", "';'")
        self.check_arity(name_tok, arity, len(values), len(args))
        self._check_broadcast(args, name_tok.span)
        return ast.GateCall(name_tok.text, tuple(values), tuple(args), name_tok.span)

    def parse_measure(self) -> ast.Measure:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect("->", "'->'")
        carg = self.parse_argument("creg")
        self.expect(";", "';'")
        if (qarg.index is None) != (carg.index is None):
            raise QasmSemanticError(
                "measure operands must both be indexed or both whole registers", tok.span
            )
        if qarg.index is None and self.qregs[qarg.reg] != self.cregs[carg.reg]:
            raise QasmSemanticError("measured registers have mismatched sizes", tok.span)
        return ast.Measure(qarg, carg, tok.span)

    def parse_reset(self) -> ast.Reset:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect(";", "';'")
        return ast.Reset(qarg, tok.span)

    def parse_barrier(self) -> ast.BarrierStmt:
        tok = self.advance()
        args = self.parse_list(lambda: self.parse_argument("qreg"))
        self.expect(";", "';'")
        return ast.BarrierStmt(tuple(args), tok.span)

    def parse_if(self) -> ast.IfStatement:
        tok = self.advance()
        self.expect("(", "'('")
        creg_tok = self.expect("id", "creg name")
        if creg_tok.text not in self.cregs:
            raise QasmSemanticError(f"undeclared creg '{creg_tok.text}'", creg_tok.span)
        self.expect("==", "'=='")
        value_tok, value = self.expect_int("comparison value")
        self.expect(")", "')'")
        # The value must fit the register and the i64 that QIR compares it as.
        width = min(self.cregs[creg_tok.text], 63)
        if value.bit_length() > width:
            raise QasmSemanticError(
                f"comparison value {value_tok.text} does not fit in {width} bits of creg '{creg_tok.text}'",
                value_tok.span,
            )

        body_tok = self.peek()
        if body_tok.type != "id":
            raise self.syntax_error("expected a quantum operation after if(...)")
        if body_tok.text == "measure":
            body: ast.Statement = self.parse_measure()
        elif body_tok.text == "reset":
            body = self.parse_reset()
        elif body_tok.text in ("barrier", "if", "gate", "opaque", "qreg", "creg", "include"):
            raise self.syntax_error(f"'{body_tok.text}' cannot be conditioned", body_tok)
        else:
            body = self.parse_gate_call()
        return ast.IfStatement(creg_tok.text, value, body, tok.span)

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
        while self.peek().type in _BINARY_LEVELS[level]:
            op = self.advance().text
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
        if tok.type in ("real", "int"):
            self.advance()
            value = float(tok.text)
            if math.isinf(value):
                raise QasmSemanticError("number literal does not fit in a double", tok.span)
            return ast.Num(value)
        if tok.type == "(":
            self.advance()
            node = self.parse_expr(params)
            self.expect(")", "')'")
            return node
        if tok.type == "id":
            self.advance()
            if tok.text == "pi":
                return ast.Pi()
            if tok.text in ast.FUNCTIONS:
                self.expect("(", "'('")
                node = self.parse_expr(params)
                self.expect(")", "')'")
                return ast.Call(tok.text, node)
            if params is not None and tok.text not in params:
                raise QasmSemanticError(f"unknown parameter '{tok.text}'", tok.span)
            return ast.Param(tok.text)
        raise self.syntax_error(f"expected an expression, got {tok.text or 'end of input'!r}")


def parse_qasm(source: str, filename: str = "<input>") -> ast.QasmAst:
    """Parse and validate OpenQASM 2.0 source text; diagnostics name filename."""
    with in_file(filename):
        return _Parser(_tokenize(source), filename).parse()
