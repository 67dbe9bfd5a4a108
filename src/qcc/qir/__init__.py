from .codegen import QirModule, emit_qir
from .extractor import ExtractedGate, extract_circuit, extract_program, find_quantum_kernels
from .reader import verify_qir_text

__all__ = [
    "QirModule",
    "emit_qir",
    "verify_qir_text",
    "ExtractedGate",
    "extract_circuit",
    "extract_program",
    "find_quantum_kernels",
]
