"""Recursive-descent parser for OpenQASM 2.0.

parse_qasm validates as it goes: registers must be declared before use,
indices must be in range, gate applications must match the arity of a known
gate, and opaque declarations are rejected.  Gate bodies are checked for
well-formed arguments here; whether a body references an undefined or
recursive gate is only decidable once all definitions are known, so that
check lives in the lowering pass.

The include mechanism is hermetic: the only accepted include is
"qelib1.inc", which resolves to a built-in gate table rather than a file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import QasmSemanticError, QasmSyntaxError, SourceSpan
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
    | (?P<arrow>->)
    | (?P<eq>==)
    | (?P<sym>[;,()\[\]{}+\-*/^])
    """,
    re.VERBOSE,
)

_FUNCTION_NAMES = frozenset(["sin", "cos", "tan", "exp", "ln", "sqrt"])
_NAME_RE = re.compile(r"[a-z][A-Za-z0-9_]*$")

BUILTIN_GATES: dict[str, tuple[int, int]] = {"U": (3, 1), "CX": (0, 2)}

# Bounds the recursion of parsing and of walking the parsed expression tree,
# so deeply nested input is a diagnostic rather than a RecursionError.
MAX_EXPR_DEPTH = 100


@dataclass(frozen=True)
class Token:
    type: str  # 'real' | 'int' | 'id' | 'string' | 'eof' | literal symbol text
    text: str
    span: SourceSpan


def _tokenize(source: str, filename: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise QasmSyntaxError(f"unexpected character {source[pos]!r}", SourceSpan(line, col), filename)
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            span = SourceSpan(line, col, len(text))
            if kind == "sym" or kind == "arrow" or kind == "eq":
                tokens.append(Token(text, text, span))
            else:
                tokens.append(Token(kind, text, span))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", SourceSpan(line, col)))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], filename: str):
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.qregs: dict[str, int] = {}
        self.cregs: dict[str, int] = {}
        self.gate_arities: dict[str, tuple[int, int]] = dict(BUILTIN_GATES)
        self.includes: list[str] = []
        self.declarations: list[ast.RegDecl] = []
        self.gate_defs: list[ast.GateDef] = []
        self.statements: list[ast.Statement] = []
        self.expr_depth = 0

    # --- token plumbing ---

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type != "eof":
            self.pos += 1
        return tok

    def syntax_error(self, message: str, tok: Token | None = None) -> QasmSyntaxError:
        tok = tok or self.peek()
        return QasmSyntaxError(message, tok.span, self.filename)

    def semantic_error(self, message: str, span: SourceSpan) -> QasmSemanticError:
        return QasmSemanticError(message, span, self.filename)

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

    # --- top level ---

    def parse(self) -> ast.QasmAst:
        self.expect("id", "'OPENQASM'")
        header = self.tokens[self.pos - 1]
        if header.text != "OPENQASM":
            raise self.syntax_error("program must start with 'OPENQASM'", header)
        version = self.expect("real", "version number")
        if version.text != "2.0":
            raise self.semantic_error(f"unsupported OPENQASM version '{version.text}'", version.span)
        self.expect(";", "';'")

        while self.peek().type != "eof":
            self.parse_statement()

        return ast.QasmAst(
            version="2.0",
            includes=self.includes,
            declarations=self.declarations,
            gate_defs=self.gate_defs,
            statements=self.statements,
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
            self.parse_opaque()
        elif tok.text == "barrier":
            self.statements.append(self.parse_barrier())
        elif tok.text == "if":
            self.statements.append(self.parse_if())
        elif tok.text == "measure":
            self.statements.append(self.parse_measure())
        elif tok.text == "reset":
            self.statements.append(self.parse_reset())
        else:
            self.statements.append(self.parse_gate_call())

    def parse_include(self) -> None:
        self.advance()
        name_tok = self.expect("string", "include filename")
        self.expect(";", "';'")
        name = name_tok.text.strip('"')
        if name != "qelib1.inc":
            raise self.semantic_error(f"unknown include '{name}'", name_tok.span)
        if name not in self.includes:
            self.includes.append(name)
            from . import qelib1

            self.gate_arities.update(qelib1.gate_table())

    def parse_reg_decl(self) -> None:
        kind = self.advance().text
        name_tok = self.expect("id", "register name")
        name = name_tok.text
        if not _NAME_RE.match(name):
            raise self.semantic_error(f"invalid register name '{name}'", name_tok.span)
        if name in self.qregs or name in self.cregs:
            raise self.semantic_error(f"register '{name}' is already declared", name_tok.span)
        self.expect("[", "'['")
        size_tok = self.expect("int", "register size")
        size = int(size_tok.text)
        if size < 1:
            raise self.semantic_error("register size must be positive", size_tok.span)
        self.expect("]", "']'")
        self.expect(";", "';'")
        (self.qregs if kind == "qreg" else self.cregs)[name] = size
        self.declarations.append(ast.RegDecl(kind, name, size, name_tok.span))

    def parse_opaque(self) -> None:
        tok = self.advance()
        # Consume through the terminating semicolon so the span is precise.
        while self.peek().type not in (";", "eof"):
            self.advance()
        self.accept(";")
        raise self.semantic_error("opaque gates are not supported", tok.span)

    def parse_gate_def(self) -> None:
        self.advance()
        name_tok = self.expect("id", "gate name")
        name = name_tok.text
        if not _NAME_RE.match(name):
            raise self.semantic_error(f"invalid gate name '{name}'", name_tok.span)
        if name in self.gate_arities:
            raise self.semantic_error(f"gate '{name}' is already defined", name_tok.span)

        params: list[str] = []
        if self.accept("("):
            if self.peek().type != ")":
                params = self.parse_id_list("parameter name")
            self.expect(")", "')'")
        qubits = self.parse_id_list("qubit argument")

        if len(set(params)) != len(params):
            raise self.semantic_error("duplicate parameter name", name_tok.span)
        if len(set(qubits)) != len(qubits):
            raise self.semantic_error("duplicate qubit argument", name_tok.span)

        self.expect("{", "'{'")
        body: list[ast.Statement] = []
        while self.peek().type != "}":
            if self.peek().type == "eof":
                raise self.syntax_error("unterminated gate body")
            body.append(self.parse_body_statement(frozenset(params), frozenset(qubits)))
        self.expect("}", "'}'")

        self.gate_arities[name] = (len(params), len(qubits))
        self.gate_defs.append(
            ast.GateDef(name, tuple(params), tuple(qubits), tuple(body), name_tok.span)
        )

    def parse_id_list(self, what: str) -> list[str]:
        names = [self.expect("id", what).text]
        while self.accept(","):
            names.append(self.expect("id", what).text)
        return names

    def parse_body_statement(self, params: frozenset[str], qubits: frozenset[str]) -> ast.Statement:
        tok = self.peek()
        if tok.type != "id":
            raise self.syntax_error(f"expected a gate application, got {tok.text!r}")
        if tok.text == "barrier":
            self.advance()
            args = []
            for name in self.parse_id_list("qubit argument"):
                if name not in qubits:
                    raise self.semantic_error(f"'{name}' is not a qubit argument of this gate", tok.span)
                args.append(ast.Argument(name, None, tok.span))
            self.expect(";", "';'")
            return ast.BarrierStmt(tuple(args), tok.span)

        name_tok = self.advance()
        call_params: list[ast.Expr] = []
        if self.accept("("):
            if self.peek().type != ")":
                call_params.append(self.parse_expr(params))
                while self.accept(","):
                    call_params.append(self.parse_expr(params))
            self.expect(")", "')'")
        arg_names = self.parse_id_list("qubit argument")
        self.expect(";", "';'")

        args = []
        for name in arg_names:
            if name not in qubits:
                raise self.semantic_error(f"'{name}' is not a qubit argument of this gate", name_tok.span)
            args.append(ast.Argument(name, None, name_tok.span))
        if len(set(arg_names)) != len(arg_names):
            raise self.semantic_error("gate arguments must be distinct", name_tok.span)
        return ast.GateCall(name_tok.text, tuple(call_params), tuple(args), name_tok.span)

    # --- top-level statements ---

    def parse_argument(self, kind: str) -> ast.Argument:
        name_tok = self.expect("id", f"{kind} name")
        name = name_tok.text
        table = self.qregs if kind == "qreg" else self.cregs
        if name not in table:
            raise self.semantic_error(f"undeclared {kind} '{name}'", name_tok.span)
        index: int | None = None
        if self.accept("["):
            idx_tok = self.expect("int", "index")
            index = int(idx_tok.text)
            self.expect("]", "']'")
            if index >= table[name]:
                raise self.semantic_error(
                    f"index {index} out of range for {kind} '{name}' of size {table[name]}",
                    idx_tok.span,
                )
        return ast.Argument(name, index, name_tok.span)

    def _check_broadcast(self, args: list[ast.Argument], span: SourceSpan) -> None:
        """Whole-register args must share one size and no qubit may repeat."""
        sizes = {self.qregs[a.reg] for a in args if a.index is None}
        if len(sizes) > 1:
            raise self.semantic_error("whole-register operands have mismatched sizes", span)
        indexed: set[tuple[str, int]] = set()
        whole: set[str] = set()
        for a in args:
            if a.index is None:
                if a.reg in whole:
                    raise self.semantic_error(f"register '{a.reg}' used twice in one statement", span)
                whole.add(a.reg)
            else:
                if (a.reg, a.index) in indexed:
                    raise self.semantic_error(f"duplicate qubit '{a.reg}[{a.index}]'", span)
                indexed.add((a.reg, a.index))
        for reg, index in indexed:
            if reg in whole:
                raise self.semantic_error(
                    f"'{reg}[{index}]' collides with whole-register operand '{reg}'", span
                )

    def parse_gate_call(self) -> ast.GateCall:
        name_tok = self.advance()
        name = name_tok.text
        if name not in self.gate_arities:
            raise self.semantic_error(f"undeclared gate '{name}'", name_tok.span)
        n_params, n_qubits = self.gate_arities[name]

        values: list[float] = []
        if self.accept("("):
            if self.peek().type != ")":
                values.append(ast.evaluate(self.parse_expr(None), {}, name_tok.span))
                while self.accept(","):
                    values.append(ast.evaluate(self.parse_expr(None), {}, name_tok.span))
            self.expect(")", "')'")
        if len(values) != n_params:
            raise self.semantic_error(
                f"gate '{name}' takes {n_params} parameter(s), got {len(values)}", name_tok.span
            )

        args = [self.parse_argument("qreg")]
        while self.accept(","):
            args.append(self.parse_argument("qreg"))
        self.expect(";", "';'")
        if len(args) != n_qubits:
            raise self.semantic_error(
                f"gate '{name}' takes {n_qubits} qubit argument(s), got {len(args)}", name_tok.span
            )
        self._check_broadcast(args, name_tok.span)
        return ast.GateCall(name, tuple(values), tuple(args), name_tok.span)

    def parse_measure(self) -> ast.Measure:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect("->", "'->'")
        carg = self.parse_argument("creg")
        self.expect(";", "';'")
        if (qarg.index is None) != (carg.index is None):
            raise self.semantic_error(
                "measure operands must both be indexed or both whole registers", tok.span
            )
        if qarg.index is None and self.qregs[qarg.reg] != self.cregs[carg.reg]:
            raise self.semantic_error("measured registers have mismatched sizes", tok.span)
        return ast.Measure(qarg, carg, tok.span)

    def parse_reset(self) -> ast.Reset:
        tok = self.advance()
        qarg = self.parse_argument("qreg")
        self.expect(";", "';'")
        return ast.Reset(qarg, tok.span)

    def parse_barrier(self) -> ast.BarrierStmt:
        tok = self.advance()
        args = [self.parse_argument("qreg")]
        while self.accept(","):
            args.append(self.parse_argument("qreg"))
        self.expect(";", "';'")
        return ast.BarrierStmt(tuple(args), tok.span)

    def parse_if(self) -> ast.IfStatement:
        tok = self.advance()
        self.expect("(", "'('")
        creg_tok = self.expect("id", "creg name")
        if creg_tok.text not in self.cregs:
            raise self.semantic_error(f"undeclared creg '{creg_tok.text}'", creg_tok.span)
        self.expect("==", "'=='")
        value_tok = self.expect("int", "comparison value")
        self.expect(")", "')'")
        # The value must fit the register and the i64 that QIR compares it as.
        width = min(self.cregs[creg_tok.text], 63)
        if int(value_tok.text).bit_length() > width:
            raise self.semantic_error(
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
        return ast.IfStatement(creg_tok.text, int(value_tok.text), body, tok.span)

    # --- expressions ---

    def parse_expr(self, params: frozenset[str] | None) -> ast.Expr:
        """params is the set of formal names inside a gate body, None at top level."""
        return self.parse_additive(params)

    def enter_expr(self) -> None:
        """Count one more level of expression nesting, at the next token."""
        self.expr_depth += 1
        if self.expr_depth > MAX_EXPR_DEPTH:
            raise self.syntax_error(f"expression nested more than {MAX_EXPR_DEPTH} levels deep")

    def parse_additive(self, params: frozenset[str] | None) -> ast.Expr:
        node = self.parse_multiplicative(params)
        depth = self.expr_depth
        while self.peek().type in ("+", "-"):
            op = self.advance().text
            self.enter_expr()  # each operator nests the tree built so far one level deeper
            node = ast.BinOp(op, node, self.parse_multiplicative(params))
        self.expr_depth = depth
        return node

    def parse_multiplicative(self, params: frozenset[str] | None) -> ast.Expr:
        node = self.parse_unary(params)
        depth = self.expr_depth
        while self.peek().type in ("*", "/"):
            op = self.advance().text
            self.enter_expr()
            node = ast.BinOp(op, node, self.parse_unary(params))
        self.expr_depth = depth
        return node

    def parse_unary(self, params: frozenset[str] | None) -> ast.Expr:
        # Parentheses, function calls, '-' and '^' all recurse through here.
        self.enter_expr()
        node = ast.Neg(self.parse_unary(params)) if self.accept("-") else self.parse_power(params)
        self.expr_depth -= 1
        return node

    def parse_power(self, params: frozenset[str] | None) -> ast.Expr:
        node = self.parse_atom(params)
        if self.accept("^"):
            # Right associative; the exponent may itself be signed.
            return ast.BinOp("^", node, self.parse_unary(params))
        return node

    def parse_atom(self, params: frozenset[str] | None) -> ast.Expr:
        tok = self.peek()
        if tok.type in ("real", "int"):
            self.advance()
            return ast.Num(float(tok.text))
        if tok.type == "(":
            self.advance()
            node = self.parse_expr(params)
            self.expect(")", "')'")
            return node
        if tok.type == "id":
            self.advance()
            if tok.text == "pi":
                return ast.Pi()
            if tok.text in _FUNCTION_NAMES:
                self.expect("(", "'('")
                node = self.parse_expr(params)
                self.expect(")", "')'")
                return ast.Call(tok.text, node)
            if params is not None and tok.text not in params:
                raise self.semantic_error(f"unknown parameter '{tok.text}'", tok.span)
            return ast.Param(tok.text)
        raise self.syntax_error(f"expected an expression, got {tok.text or 'end of input'!r}")


def parse_qasm(source: str, filename: str = "<input>") -> ast.QasmAst:
    """Parse and validate OpenQASM 2.0 source text."""
    tokens = _tokenize(source, filename)
    return _Parser(tokens, filename).parse()
