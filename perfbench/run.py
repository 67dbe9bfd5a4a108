"""qcc compile benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload small_corpus --seed 1 --seconds 30 --trace 0

One single-threaded process compiles circuits closed-loop, each one after the
previous one completes, until ``--seconds`` have passed and the workload's
quality set has been compiled.  Each circuit goes through the compile chain
(parse, lower, optimize, gate counts, route, emit, verify; see chain.py) and
then the checking stage (QIR round trip, un-routing, statevector oracle).  A
circuit that raises or fails a check counts as failed, and any failure makes
the run exit with code 1.  Before timing starts, one circuit is compiled
through ``qcc.driver.compile_quantum`` and must match the chain exactly.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.  With
``--trace 1`` a traced pass runs for half of ``--seconds`` and the same
circuits are then compiled again untraced; the last line reports the
per-layer metrics, and the spans go to ``.perfbench_out/trace_<workload>.json``.
Every metric is also printed on its own ``metric <name> = <value> <unit>`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from time import perf_counter

from spans import Tracer, instrument, plain_call

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

SETUP_PROBES = 5
TAIL_MIN_SAMPLES = 500
# The simulator reads and writes every complex128 amplitude once per gate.
SIM_BYTES_PER_AMPLITUDE = 2 * 16

# Layers whose self time the traced run reports.  ``bench`` is the harness's
# own glue and comparisons inside the compile and check stages; time inside a
# circuit outside every span is reported as ``trace.residual_s``.
LAYERS = (
    "qasm.parser",
    "qasm.lower",
    "optimizer",
    "gates",
    "ir",
    "routing",
    "qir.codegen",
    "qir.extractor",
    "simulator",
    "bench",
)


@dataclass(frozen=True)
class Context:
    workload: object
    coupling_path: str | None
    edges: tuple


@dataclass(frozen=True)
class CircuitResult:
    compile_s: float
    check_s: float
    gate_statements: int
    source_bytes: int
    metrics: dict
    qir_bytes: int
    ops_in: int
    ops_out: int
    emitted_insts: int
    swaps: int


class Run:
    def __init__(self) -> None:
        self.results: list[CircuitResult] = []
        self.attempted = 0
        self.failed = 0

    def total(self, field: str) -> float:
        return sum(getattr(r, field) for r in self.results)


def set_up(workload, workdir: str) -> Context:
    """What a run pays before its first circuit: first-call caches and the device.

    Builds the qelib1 table, writes and loads the coupling graph, and pushes a
    tiny circuit through the chain and the checks so lazy imports are done.
    """
    from qcc.qasm import qelib1
    from qcc.routing import load_coupling_graph

    import chain

    qelib1.gate_table()
    coupling_path, edges = None, ()
    if workload.device is not None:
        n_physical, edges = workload.device
        coupling_path = os.path.join(workdir, "device.json")
        with open(coupling_path, "w") as handle:
            json.dump({"n_qubits": n_physical, "edges": [list(e) for e in edges]}, handle)
        load_coupling_graph(coupling_path)
    warm = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\nt q[1];\ncx q[0],q[1];\n'
    compiled = chain.compile_chain(warm, workload.opt_level, coupling_path, plain_call)
    chain.check_stage(compiled, edges, plain_call)
    return Context(workload, coupling_path, edges)


def measure_setup(workload_name: str, workdir: str) -> float:
    """Median wall time of fresh processes that start, import, set up and exit."""
    times = []
    for k in range(SETUP_PROBES):
        probe_dir = os.path.join(workdir, f"probe{k}")
        os.makedirs(probe_dir)
        start = perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", workload_name, probe_dir],
            check=True,
            timeout=120,
        )
        times.append(perf_counter() - start)
    return statistics.median(times)


def run_circuit(circuit, ctx: Context, call, run: Run) -> None:
    """Compile and check one circuit, timing each stage from outside."""
    import chain
    from qcc.ir import Inst

    run.attempted += 1
    try:
        start = perf_counter()
        compiled = call(
            "bench.compile_stage", chain.compile_chain, circuit.source, ctx.workload.opt_level, ctx.coupling_path, call
        )
        mid = perf_counter()
        failures = call("bench.check_stage", chain.check_stage, compiled, ctx.edges, call)
        end = perf_counter()
    except Exception:  # a crash in any layer fails this circuit, not the benchmark
        traceback.print_exc(file=sys.stderr)
        run.failed += 1
        return
    if failures:
        run.failed += 1
        print(f"circuit {circuit.index}: " + "; ".join(failures[:5]), file=sys.stderr)
    run.results.append(
        CircuitResult(
            compile_s=mid - start,
            check_s=end - mid,
            gate_statements=circuit.gate_statements,
            source_bytes=len(circuit.source),
            metrics=compiled.metrics,
            qir_bytes=len(compiled.qir_text.encode()),
            ops_in=len(compiled.source.ops),
            ops_out=len(compiled.optimized.ops),
            emitted_insts=sum(1 for op in compiled.final.ops if isinstance(op, Inst)),
            swaps=compiled.routing.swap_count if compiled.routing is not None else 0,
        )
    )


def timed_pass(ctx: Context, seed: int, seconds: float, min_circuits: int, call=plain_call, tracer=None) -> Run:
    """Closed loop over circuits 0, 1, 2, ... until `seconds` passed and `min_circuits` are done."""
    run = Run()
    start = perf_counter()
    index = 0
    while index < max(min_circuits, 1) or perf_counter() - start < seconds:
        circuit = ctx.workload.circuit(seed, index)
        if tracer is not None:
            tracer.circuit = index
        call("circuit", run_circuit, circuit, ctx, call, run)
        index += 1
    return run


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run, workload, setup_s: float) -> dict[str, tuple[float, str]]:
    quality = run.results[: workload.quality_set]
    # Output sizes per 1000 input gate statements, so that they do not swing
    # with how large the seed's circuits happen to be.
    kgates = sum(r.gate_statements for r in quality) / 1000
    return {
        "setup_s": (setup_s, "s"),
        "compile_gates_per_s": (run.total("gate_statements") / run.total("compile_s"), "1/s"),
        "check_gates_per_s": (run.total("gate_statements") / run.total("check_s"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "out_2q_gates": (sum(r.metrics["two_qubit_gates"] for r in quality) / kgates, "1/kgate"),
        "out_depth": (sum(r.metrics["depth"] for r in quality) / kgates, "1/kgate"),
        "qir_kbytes": (sum(r.qir_bytes for r in quality) / 1000 / kgates, "kB/kgate"),
    }


def supporting(run: Run, workload) -> dict[str, tuple[float, str]]:
    """Printed beside the end-to-end metrics; not part of the result line."""
    quality = run.results[: workload.quality_set]
    compile_s = [r.compile_s for r in run.results]
    out = {
        "compile_p50_ms": (statistics.median(compile_s) * 1e3, "ms"),
        "compile_samples": (len(compile_s), "count"),
        "fail_ratio": (run.failed / run.attempted, "ratio"),
    }
    # A tail percentile is reported only with at least ten samples beyond it.
    if len(compile_s) >= TAIL_MIN_SAMPLES:
        out["compile_p98_ms"] = (percentile(compile_s, 98) * 1e3, "ms")
    if workload.device is not None:
        kgates = sum(r.gate_statements for r in quality) / 1000
        out["inserted_swaps"] = (sum(r.swaps for r in quality) / kgates, "1/kgate")
    return out


def traced_pass(ctx: Context, seed: int, seconds: float):
    """Traced pass for half of `seconds`, then the same circuits untraced."""
    from checks import applied_gates

    tracer = Tracer()

    def call(name, fn, *args, **kwargs):
        if name == "simulator.simulate":
            n_qubits = kwargs.get("n_qubits") or args[0].n_qubits
            tracer.counts["simulator.bytes_moved"] += applied_gates(args[0]) * 2**n_qubits * SIM_BYTES_PER_AMPLITUDE
        return tracer.call(name, fn, *args, **kwargs)

    with instrument(tracer):
        traced = timed_pass(ctx, seed, seconds / 2, 1, call, tracer)
    untraced = timed_pass(ctx, seed, 0, traced.attempted)
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"trace_{ctx.workload.name}.json"))
    return traced, untraced, tracer


def per_layer(run: Run, untraced: Run, tracer) -> dict[str, tuple[float, str]]:
    n = max(len(run.results), 1)
    d = tracer.durations()
    calls = tracer.calls()
    self_times = tracer.self_times()
    extract_s = d["qir.extractor.find_quantum_kernels"] + d["qir.extractor.extract_circuit"]
    all_swaps = tracer.counts["routing.swaps_all_passes"]
    traced_rate = run.total("gate_statements") / run.total("compile_s")
    untraced_rate = untraced.total("gate_statements") / untraced.total("compile_s")

    def per(name: str) -> float:
        return d[name] / n

    out = {
        "qasm.parser.parse_s": (per("qasm.parser.parse_qasm"), "s"),
        "qasm.parser.kbytes_per_s": (run.total("source_bytes") / 1000 / d["qasm.parser.parse_qasm"], "kB/s"),
        "qasm.lower.lower_s": (per("qasm.lower.lower_ast_to_ir"), "s"),
        "qasm.lower.ops_out": (run.total("ops_in") / n, "count"),
        "optimizer.optimize_s": (per("optimizer.optimize"), "s"),
        "optimizer.decompose_unsupported_s": (per("optimizer.decompose_unsupported"), "s"),
        "optimizer.select_decomposition_s": (per("optimizer.select_decomposition"), "s"),
        "optimizer.select_decomposition_calls": (calls["optimizer.select_decomposition"] / n, "count"),
        "gates.is_unitary_calls": (calls["gates.is_unitary"] / n, "count"),
        "optimizer.ops_out_per_in": (run.total("ops_out") / run.total("ops_in"), "ratio"),
        "optimizer.fuse_single_qubit_runs_s": (per("optimizer.fuse_single_qubit_runs"), "s"),
        "optimizer.fixpoint_passes": (calls["optimizer.fuse_single_qubit_runs"] / calls["optimizer.optimize"], "count"),
        "ir.gate_counts_s": (per("ir.gate_counts"), "s"),
        "ir.build_dag_s": (per("ir.build_dag"), "s"),
        "ir.circuit_depth_s": (per("ir.circuit_depth"), "s"),
        "routing.route_program_s": (per("routing.route_program"), "s"),
        "routing.sabre_layout_s": (per("routing.sabre_layout"), "s"),
        "routing.sabre_swap_s": (per("routing.sabre_swap"), "s"),
        "routing.sabre_swap_calls": (calls["routing.sabre_swap"] / n, "count"),
        "routing.useful_swap_ratio": (run.total("swaps") / all_swaps if all_swaps else 0.0, "ratio"),
        "routing.inserted_swaps": (run.total("swaps") / n, "count"),
        "routing.coupling_graph_s": (per("routing.load_coupling_graph"), "s"),
        "qir.codegen.emit_s": (per("qir.codegen.emit_qir"), "s"),
        "qir.codegen.verify_s": (per("qir.codegen.verify_qir_text"), "s"),
        "qir.extractor.extract_s": (extract_s / n, "s"),
        "qir.extractor.gates_per_s": (run.total("emitted_insts") / extract_s, "1/s"),
        "simulator.simulate_s": (per("simulator.simulate"), "s"),
        "simulator.simulate_calls": (calls["simulator.simulate"] / n, "count"),
        "simulator.bytes_moved": (tracer.counts["simulator.bytes_moved"] / n, "B"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_times.get(layer, 0.0) / n, "s")
    out["trace.wall_s"] = (per("circuit"), "s")
    out["trace.residual_s"] = (self_times.get("circuit", 0.0) / n, "s")
    out["trace.overhead_ratio"] = (untraced_rate / traced_rate, "ratio")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh process that only sets up, timed by measure_setup.
    parser.add_argument("--setup-probe", nargs=2, metavar=("WORKLOAD", "DIR"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    try:
        import numpy  # noqa: F401

        import qcc
    except ImportError as exc:
        print(f"perfbench: cannot import qcc from {src}: {exc}", file=sys.stderr)
        return 2
    # Measure the sources beside the benchmark, never an installed copy.
    if not os.path.abspath(qcc.__file__).startswith(os.path.join(src, "")):
        print(f"perfbench: qcc was imported from {qcc.__file__}, not from {src}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.setup_probe is not None:
        name, probe_dir = args.setup_probe
        set_up(WORKLOADS[name], probe_dir)
        return 0
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # Turn SIGTERM into SystemExit so the work directory and any setup probe
    # are cleaned up when the run is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workdir = tempfile.mkdtemp(prefix=".perfbench-tmp-", dir=ROOT)
    try:
        return measure(args, workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload, workdir: str) -> int:
    import chain

    ctx = set_up(workload, workdir)
    build_dir = os.path.join(workdir, "build")
    os.makedirs(build_dir)
    try:
        product_failures = chain.product_path_failures(
            workload.circuit(args.seed, 0).source, workload.opt_level, ctx.coupling_path, build_dir
        )
    except Exception:  # the product path crashing is a failed check, reported like the others
        traceback.print_exc(file=sys.stderr)
        product_failures = ["compile_quantum raised"]
    for failure in product_failures:
        print(f"product path: {failure}", file=sys.stderr)

    if args.trace:
        run, untraced, tracer = traced_pass(ctx, args.seed, args.seconds)
        runs = (run, untraced)
    else:
        setup_s = measure_setup(workload.name, workdir)
        run = timed_pass(ctx, args.seed, args.seconds, workload.quality_set)
        runs = (run,)
    if not all(r.results for r in runs):
        print("perfbench: every circuit failed; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = shown = per_layer(run, untraced, tracer)
    else:
        metrics = end_to_end(run, workload, setup_s)
        shown = dict(metrics, **supporting(run, workload))
    failed = sum(r.failed for r in runs) + bool(product_failures)
    attempted = sum(r.attempted for r in runs) + 1

    for name, (value, unit) in shown.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
