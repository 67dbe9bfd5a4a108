"""OpenQASM 2.0 frontend: lexing, parsing, validation and IR lowering."""

from .ast import QasmAst
from .lower import lower_ast_to_ir
from .parser import parse_qasm

__all__ = ["QasmAst", "parse_qasm", "lower_ast_to_ir"]
