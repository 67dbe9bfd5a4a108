"""Exception types shared across the toolchain.

Every user-facing failure is an instance of QccError so the CLI can turn it
into a single diagnostic line and exit code 1.  Errors raised while spawning
external tools are ToolFailure and map to exit code 2.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import NamedTuple


class SourceSpan(NamedTuple):
    """Position of a token or statement in a QASM source file."""

    line: int
    column: int


class QccError(Exception):
    """Base class for all diagnostics produced by this package."""

    def __init__(self, message: str, span: SourceSpan | None = None, filename: str | None = None):
        super().__init__(message)
        self.message = message
        self.span = span
        self.filename = filename

    def diagnostic(self) -> str:
        """Render as ``file:line:col: error: message``."""
        name = self.filename or "<input>"
        if self.span is not None:
            return f"{name}:{self.span.line}:{self.span.column}: error: {self.message}"
        return f"{name}: error: {self.message}"


@contextmanager
def in_file(filename: str | None):
    """Name filename in every QccError raised in the block that names no file yet."""
    try:
        yield
    except QccError as err:
        err.filename = err.filename or filename
        raise


class QasmSyntaxError(QccError):
    """Malformed tokens or statements in QASM source."""


class QasmSemanticError(QccError):
    """Structurally valid QASM that violates a semantic rule."""


class UnknownGateError(QccError):
    """Gate the matrix table cannot build: unknown name, wrong arity, or
    parameters whose phase overflows."""


class NotUnitaryError(QccError):
    """A 2x2 matrix that fails the unitarity check."""


class UnsupportedGateError(QccError):
    """A gate that cannot be rewritten into the native set."""


class EmitError(QccError):
    """Program shape that the textual QIR emitter cannot represent."""


class ExtractionError(QccError):
    """QIR that cannot be read or mapped back to a circuit."""


class CouplingFormatError(QccError):
    """Malformed coupling-graph description."""


class RoutingError(QccError):
    """Routing preconditions violated or the router failed to converge."""


class CapacityError(QccError):
    """More logical qubits than the device provides."""


class OracleError(QccError):
    """Program outside the simulable subset (size or non-unitary ops)."""


class DimensionMismatchError(QccError):
    """Statevectors of different sizes compared."""


class InvalidPermutationError(QccError):
    """Qubit permutation that is not a bijection on 0..n-1."""


class UnknownFileTypeError(QccError):
    """Build input with an extension no toolchain claims."""


class MissingFileError(QccError):
    """Build input that does not exist on disk."""


class ToolFailure(QccError):
    """An external tool exited non-zero."""

    def __init__(self, task: str, returncode: int, stderr: str):
        super().__init__(f"{task} failed with exit code {returncode}")
        self.task = task
        self.returncode = returncode
        self.stderr = stderr
