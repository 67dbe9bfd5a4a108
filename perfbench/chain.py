"""The compile chain and the checking stage the benchmark times.

``compile_chain`` calls the public layer functions in the order
``qcc.driver.compile_quantum`` does: parse, lower, optimize, gate counts,
then (with a device) load the coupling graph, route and count again, then
emit QIR and self-verify.  ``product_path_failures`` compiles through
``compile_quantum`` itself and requires byte-identical QIR and equal metrics,
so the two cannot drift apart unnoticed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from qcc.driver import QuantumOptions, Task, compile_quantum, kernel_symbol
from qcc.ir import gate_counts
from qcc.optimizer import NativeGateSet, optimize
from qcc.qasm import lower_ast_to_ir, parse_qasm
from qcc.qir import emit_qir, verify_qir_text
from qcc.routing import load_coupling_graph, route_program

import checks
from spans import plain_call
from workloads import ROUTING_SEED, SABRE_ITERATIONS

SOURCE_NAME = "bench.qasm"
KERNEL = kernel_symbol(SOURCE_NAME)
NATIVE = NativeGateSet.default()


@dataclass
class Compiled:
    source: object  # lowered QuantumProgram
    optimized: object
    final: object  # what was emitted: the routed program, or the optimized one
    routing: object  # RoutingResult, or None without a device
    metrics: dict
    qir_text: str
    diagnostics: list[str]


def compile_chain(source: str, opt_level: int, coupling_path: str | None, call) -> Compiled:
    ast = call("qasm.parser.parse_qasm", parse_qasm, source, filename=SOURCE_NAME)
    program = call("qasm.lower.lower_ast_to_ir", lower_ast_to_ir, ast)
    optimized = call("optimizer.optimize", optimize, program, level=opt_level, native=NATIVE)
    metrics = call("ir.gate_counts", gate_counts, optimized)
    final, routing = optimized, None
    if coupling_path:
        graph = call("routing.load_coupling_graph", load_coupling_graph, coupling_path)
        final, routing = call(
            "routing.route_program",
            route_program,
            optimized,
            graph,
            seed=ROUTING_SEED,
            native=NATIVE,
            sabre_iterations=SABRE_ITERATIONS,
        )
        metrics = call("ir.gate_counts", gate_counts, final)
        metrics["inserted_swaps"] = routing.swap_count
        metrics["inserted_swap_cx"] = routing.swap_cx_count
    module = call("qir.codegen.emit_qir", emit_qir, final, KERNEL)
    diagnostics = call("qir.codegen.verify_qir_text", verify_qir_text, module)
    return Compiled(program, optimized, final, routing, metrics, module.text, diagnostics)


def check_stage(compiled: Compiled, edges, call) -> list[str]:
    """Every check that applies to this output; returns the failures."""
    failures = checks.roundtrip_failures(compiled.final, compiled.qir_text, compiled.diagnostics, call)
    if compiled.routing is not None:
        failures += checks.unroute_failures(compiled.optimized, compiled.final, compiled.routing, edges)
    n_physical = compiled.routing.final_layout.n_physical if compiled.routing is not None else None
    if checks.oracle_applies(compiled.source, n_physical):
        routed = compiled.final if compiled.routing is not None else None
        failures += checks.oracle_failures(compiled.source, compiled.optimized, routed, compiled.routing, call)
    return failures


def product_path_failures(source: str, opt_level: int, coupling_path: str | None, build_dir: str) -> list[str]:
    """Compile through ``qcc.driver.compile_quantum`` and compare with the chain."""
    path = os.path.join(build_dir, SOURCE_NAME)
    with open(path, "w") as handle:
        handle.write(source)
    opts = QuantumOptions(
        opt_level=opt_level,
        native=NATIVE,
        coupling_path=coupling_path,
        seed=ROUTING_SEED,
        sabre_iterations=SABRE_ITERATIONS,
        emit="all",
    )
    artifacts = compile_quantum(Task(path, "qasm", path[: -len(".qasm")] + ".o"), opts)
    with open(artifacts.qir_path) as handle:
        driver_qir = handle.read()
    chain = compile_chain(source, opt_level, coupling_path, plain_call)
    failures = []
    if driver_qir != chain.qir_text:
        failures.append("driver QIR differs from the benchmark chain's QIR")
    if artifacts.metrics != chain.metrics:
        failures.append(f"driver metrics {artifacts.metrics} differ from the chain's {chain.metrics}")
    return failures
