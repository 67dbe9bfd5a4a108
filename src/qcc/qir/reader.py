"""The one reader of textual QIR, and the verifier built on it.

``read_qir`` turns module text into a ``(line, Record)`` pair per line that
holds code, numbered from 1.  Records hold no line, so equal lines of one
function share one record, and a memo keyed on it works once per distinct
line.  The verifier, the kernel finder and the extractor read nothing else,
so they agree on what every line says.  A line the reader cannot make sense
of still gives a record, with ``problem`` set; each consumer decides whether
that is a diagnostic or an error.

A function body is opened by a ``define`` line ending in ``{`` and closed by
a line holding only ``}``.  ``double_value`` and ``int_value`` give the
values of literal operands.
"""

from __future__ import annotations

import math
import re
import struct
from typing import NamedTuple

from ..errors import ExtractionError
from ..qasm.parser import MAX_INT_DIGITS

_NAME = r"[-\w.$]+"
_DEFINE_RE = re.compile(rf"define\b[^@]*@({_NAME})\s*\(([^()]*)\)[^(){{}}]*\{{")
_LABEL_RE = re.compile(rf"({_NAME}):")
_PREFIX = rf"(?:(%{_NAME})\s*=\s*)?(?:(?:tail|musttail|notail)\s+)?"  # result, call marker
_CALL_RE = re.compile(rf"{_PREFIX}(call|declare)\s([^@]*)@({_NAME})\s*\((.*)\)(?:\s+#\d+)*")
_INST_RE = re.compile(rf"{_PREFIX}([a-z_]\w*)\s*(.*)")
_CAST_RE = re.compile(r"(.*?)\s+to\s+(.*)")  # `bitcast i8* %e to %Qubit*`
_UNTYPED_VALUE_RE = re.compile(rf"[%@]{_NAME}|[-+]?\d[\w.+-]*")
_CONSTANT_EXPR_RE = re.compile(r"\s*(.+?)\s+([a-z]\w*\s*\(.*\))\s*")  # `%Qubit* inttoptr (i64 1 to %Qubit*)`
# Vector, array, struct and packed struct types: `<2 x i32>`, `[4 x i8]`, `{ i32, i64 }`, `<{ i8 }>`.
_AGGREGATE_TYPE_RE = re.compile(r"<\s*\d+\s+x\s.*>|\[\s*\d+\s+x\s.*\]|<?\{.*\}>?")
_HEX_DOUBLE_RE = re.compile(r"0x[0-9A-Fa-f]{16}")
_DECIMAL_DOUBLE_RE = re.compile(r"[-+]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|nan)")

# The instructions of the LLVM language reference.
_OPCODES = frozenset(
    """ret br switch indirectbr invoke callbr resume catchswitch catchret cleanupret unreachable
    fneg add fadd sub fsub mul fmul udiv sdiv fdiv urem srem frem shl lshr ashr and or xor
    extractelement insertelement shufflevector extractvalue insertvalue alloca load store fence
    cmpxchg atomicrmw getelementptr trunc zext sext fptrunc fpext fptoui fptosi uitofp sitofp
    ptrtoint inttoptr bitcast addrspacecast icmp fcmp phi select freeze call va_arg landingpad
    catchpad cleanuppad""".split()
)
# First words of module-level lines; globals, metadata and comdats start with @, ! and $.
_MODULE_WORDS = frozenset({"source_filename", "target", "attributes", "module", "type"})


class Record(NamedTuple):
    """What a line of QIR code says; comments and blank lines give no record."""

    kind: str  # define | declare | label | close | inst | module
    function: int = 0  # line of the enclosing define; 0 outside every body
    result: str | None = None  # the %name an instruction defines
    opcode: str = ""  # with any tail/musttail/notail marker dropped
    type: str = ""  # the type after a cast's `to`; the return type of a call or declare, without a `(...)` signature
    name: str = ""  # callee of a call, symbol of a define or declare, a label
    args: str = ""  # the operand text: call arguments, parameters, what a cast converts
    problem: str | None = None

    def operands(self) -> tuple[tuple[str, str | None], ...]:
        """(type, value) pairs; the value is None when the operand is a bare type."""
        return _operands(self.args)


def read_qir(text: str) -> list[tuple[int, Record]]:
    """Read module text into (line, record) pairs, one per line of code, in line order."""
    pairs: list[tuple[int, Record]] = []
    function = 0  # line of the define whose body is open
    seen: dict[str, Record] = {}  # code -> its record; a body repeats most of its lines
    defines: list[int] = []  # the positions of the define pairs
    closed: set[int] = set()  # the lines of the defines whose bodies are closed
    for number, raw in enumerate(text.splitlines(), 1):
        code = raw.split(";", 1)[0].strip() if ";" in raw else raw.strip()
        if not code:
            continue
        record = seen.get(code)
        if record is None or record.function != function:
            record = seen[code] = _read_line(code, function)
        if record.kind == "define":
            function = number
            defines.append(len(pairs))
        elif record.kind == "close":
            closed.add(function)
            function = 0
        pairs.append((number, record))
    for i in defines:
        line, r = pairs[i]
        if line not in closed and r.problem is None:
            pairs[i] = line, r._replace(problem="unterminated function body")
    return pairs


def _read_line(code: str, function: int) -> Record:
    if code == "}":
        return Record("close", function, problem=None if function else "unbalanced braces")
    if code.startswith(("define ", "define\t")):
        m = _DEFINE_RE.fullmatch(code)
        if m is None:
            return Record("define", function, problem="malformed function definition")
        return Record("define", function, name=m[1], args=m[2])
    if code.count("(") != code.count(")"):
        return Record("inst", function, problem="unbalanced parentheses")
    if code.count("{") != code.count("}"):
        return Record("inst", function, problem="unbalanced braces")
    m = _CALL_RE.fullmatch(code)
    if m is not None:
        result, opcode, type_, name, args = m.groups()
        type_ = type_.strip()
        if type_.endswith(")"):  # `call void (...) @f`: the return type, then the callee's signature
            type_ = type_[: type_.index("(")].rstrip()
        return Record("inst" if opcode == "call" else "declare", function, result, opcode, type_, name, args)
    if code[-1] == ":" and (m := _LABEL_RE.fullmatch(code)) is not None:
        return Record("label", function, name=m[1])
    m = _INST_RE.fullmatch(code)
    if m is None:
        if code[0] in "@!$":
            return Record("module", function)
        return Record("inst", function, problem="unreadable line")
    result, opcode, rest = m.groups()
    if opcode in ("call", "declare"):
        return Record("inst", function, result, opcode, problem=f"malformed {opcode}")
    if opcode in _MODULE_WORDS:
        return Record("module", function, result)
    if opcode not in _OPCODES:
        return Record("inst", function, result, opcode, problem=f"unknown instruction {opcode!r}")
    m = _CAST_RE.fullmatch(rest)
    if m is not None:
        return Record("inst", function, result, opcode, m[2], args=m[1])
    return Record("inst", function, result, opcode, args=rest)


def _operands(text: str) -> tuple[tuple[str, str | None], ...]:
    """Split at the commas outside (), [], {} and <> into (type, value) pairs.

    A parenthesized constant expression ending a part is its value, so
    `%Qubit* getelementptr (%Qubit, %Qubit* null, i64 1)` is one operand.
    So is an aggregate constant: `<2 x i32> <i32 %a, i32 %b>` is the type
    `<2 x i32>` and the value `<i32 %a, i32 %b>`.  A part that is one
    bracketed group is a bare type, such as `{ i32, i64 }`, or else a value
    with no type, as the second operand of `add <2 x i32> %a, <i32 1, i32 %c>`.
    """
    if not text or text.isspace():
        return ()
    nested = "(" in text or "[" in text or "{" in text or "<" in text
    operands = []
    for part in _split_outside_brackets(text) if nested else text.split(","):
        words = part.split()
        if "(" in part and (m := _CONSTANT_EXPR_RE.fullmatch(part)):
            operands.append(m.groups())
        elif nested and part.rstrip().endswith((">", "]", "}")):
            start = _last_group_start(part)
            type_, value = part[:start].strip(), part[start:].strip()
            bare_type = not type_ and _AGGREGATE_TYPE_RE.fullmatch(value)
            operands.append((value, None) if bare_type else (type_, value))
        elif len(words) > 1 or (words and _UNTYPED_VALUE_RE.fullmatch(words[0])):  # `add i32 %a, %b` types %b once
            operands.append((" ".join(words[:-1]), words[-1]))
        else:
            operands.append((" ".join(words), None))
    return tuple(operands)


def _split_outside_brackets(text: str) -> list[str]:
    parts, depth, start = [], 0, 0
    for i, char in enumerate(text):
        if char in "([{<":
            depth += 1
        elif char in ")]}>":
            depth -= 1
        elif char == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _last_group_start(part: str) -> int:
    """Where the bracketed group that ends part opens."""
    depth = 0
    for i in range(len(part.rstrip()) - 1, -1, -1):
        if part[i] in ")]}>":
            depth += 1
        elif part[i] in "([{<":
            depth -= 1
            if depth == 0:
                return i
    return 0


def double_value(token: str, line: int) -> float:
    """A finite double literal: decimal, or the 16 hex digits of its IEEE-754 bits."""
    if _HEX_DOUBLE_RE.fullmatch(token):
        value = struct.unpack(">d", struct.pack(">Q", int(token, 16)))[0]
    elif _DECIMAL_DOUBLE_RE.fullmatch(token):
        value = float(token)
    else:
        raise ExtractionError(f"line {line}: bad double literal {token!r}")
    if not math.isfinite(value):
        raise ExtractionError(f"line {line}: non-finite double {token!r}")
    return value


def int_value(token: str, line: int) -> int:
    """A non-negative decimal integer literal of at most MAX_INT_DIGITS digits."""
    if not (token.isascii() and token.isdigit()):
        raise ExtractionError(f"line {line}: bad integer literal {token!r}")
    if len(token) > MAX_INT_DIGITS:
        raise ExtractionError(f"line {line}: integer literal longer than {MAX_INT_DIGITS} digits")
    return int(token)


def verify_qir_text(module) -> list[str]:
    """Structural linter for emitted (or hand-written) QIR text.

    Returns a list of diagnostics; empty means the text is self-consistent.
    This is not an LLVM verifier, it only checks the properties downstream
    passes rely on: every line reads, each function body is closed, SSA
    names are defined once and before use (a function's parameters and its
    labels count as defined), and every callee is declared or defined.
    """
    pairs = read_qir(module if isinstance(module, str) else module.text)
    symbols = {r.name for _, r in pairs if r.kind in ("define", "declare")}
    defined = {(r.function, f"%{r.name}") for _, r in pairs if r.kind == "label"}
    diagnostics: list[str] = []
    # Records of instructions that define nothing and gave no diagnostic.
    # Definitions only accumulate and the symbols are fixed, so a repeat of
    # one, which is the same record only in the same function, gives none.
    passed: set[Record] = set()
    for line, r in pairs:
        if r.problem is not None:
            diagnostics.append(f"line {line}: {r.problem}")
        elif r.kind == "define":
            defined.update((line, value) for _, value in r.operands() if value is not None)
        elif r.kind == "inst" and r not in passed:
            found = len(diagnostics)
            if r.result is not None and (r.function, r.result) in defined:
                diagnostics.append(f"line {line}: duplicate SSA definition {r.result}")
            values = [value for _, value in r.operands() if value is not None]
            for value in values:  # an aggregate constant's elements are appended, and checked after
                if value[0] in "<[{":
                    values += [element for _, element in _operands(value[1:-1]) if element is not None]
                elif value[0] == "%" and (r.function, value) not in defined:
                    diagnostics.append(f"line {line}: use of undefined value {value}")
            if r.result is not None:
                defined.add((r.function, r.result))
            if r.opcode == "call" and r.name not in symbols:
                diagnostics.append(f"line {line}: call to undeclared symbol @{r.name}")
            if r.result is None and len(diagnostics) == found:
                passed.add(r)
    return diagnostics
