"""Command-line entry points.

Subcommands: build (classify inputs, run the pipeline, drive external
toolchains), extract (gate list of each kernel of a QIR file as JSON; the
file is read once and each kernel's records go straight to the extractor),
simulate (statevector of a unitary circuit as JSON), metrics (gate counts
for a circuit as JSON).

Exit codes: 0 success, 1 compilation/diagnostic errors, 2 external tool
failure.
"""

import argparse
import dataclasses
import json
import sys

from .driver import (
    QuantumOptions,
    classify_inputs,
    compile_program,
    execute_plan,
    load_toolchain_config,
    read_kernels,
    read_program,
)
from .errors import QccError, ToolFailure, in_file
from .ir import Inst, gate_counts
from .optimizer import NativeGateSet
from .qir import extract_program
from .simulator import MAX_QUBITS, simulate


def _native_from_arg(names: str | None) -> NativeGateSet:
    if not names:
        return NativeGateSet.default()
    return NativeGateSet.from_names([n.strip() for n in names.split(",") if n.strip()])


def cmd_build(args) -> int:
    config = load_toolchain_config(args.toolchain_config)
    if args.cuda_arch:
        config = dataclasses.replace(config, cuda_arch=args.cuda_arch)
    plan = classify_inputs(
        args.inputs,
        output=args.output,
        build_dir=args.build_dir,
        mpi=args.mpi,
        standalone=args.standalone,
    )
    opts = QuantumOptions(
        opt_level=args.opt_level,
        native=_native_from_arg(args.native_gates),
        coupling_path=args.coupling,
        layout_mode=args.layout,
        seed=args.seed,
        sabre_iterations=args.sabre_iterations,
        emit=args.emit,
    )
    report = execute_plan(plan, config, opts, dry_run=args.dry_run, log=print)
    if not args.dry_run and report.steps:
        print(report.summary())
    return 0


def cmd_extract(args) -> int:
    with in_file(args.file):
        out = [[g._asdict() for g in extract_program(kernel)[0]] for kernel in read_kernels(args.file)]
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


def cmd_simulate(args) -> int:
    with in_file(args.file):
        program = read_program(args.file)
        # Unconditioned measurements after the last gate are dropped; an earlier
        # one would collapse the state, which a unitary simulation cannot show.
        kept, after_last_gate = [], True
        for op in reversed(program.ops):
            if isinstance(op, Inst) and op.result is not None and op.condition is None:
                if not after_last_gate:
                    raise QccError(
                        f"the measurement of qubit {op.qubits[0].logical_id} is followed by a gate;"
                        " only measurements after the last gate can be dropped for simulation"
                    )
                continue
            after_last_gate = after_last_gate and not isinstance(op, Inst)
            kept.append(op)
        state = simulate(program.with_ops(kept[::-1]), n_qubits=args.qubits)
    json.dump([[amp.real, amp.imag] for amp in state], sys.stdout)
    print()
    return 0


def cmd_metrics(args) -> int:
    opts = QuantumOptions(opt_level=args.opt_level, native=_native_from_arg(args.native_gates))
    program = read_program(args.file)
    if opts.opt_level > 0:
        metrics = compile_program(program, opts, args.file)[1]
    else:
        metrics = gate_counts(program)
    json.dump(metrics, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcc", description="quantum-classical co-compiler")
    defaults = QuantumOptions()
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="compile mixed classical/quantum sources")
    b.add_argument("inputs", nargs="+", help="source files (.c/.cc/.cpp, .cu, .qasm)")
    b.add_argument("-o", "--output", default="a.out")
    b.add_argument("--build-dir", default=".")
    b.add_argument("--cuda-arch", default=None, help="override the configured CUDA arch")
    b.add_argument("--mpi", action="store_true", help="compile C/C++ inputs with the MPI toolchain")
    b.add_argument("--coupling", default=None, help="coupling graph JSON; enables routing")
    b.add_argument("--layout", choices=["identity", "sabre"], default=defaults.layout_mode)
    b.add_argument("--seed", type=int, default=defaults.seed)
    b.add_argument("--sabre-iterations", type=int, default=defaults.sabre_iterations)
    b.add_argument("--opt-level", type=int, choices=[0, 1, 2, 3], default=defaults.opt_level)
    b.add_argument("--native-gates", default=None, help="comma-separated native gate names")
    b.add_argument("--emit", choices=["qir", "metrics", "all"], default=defaults.emit)
    b.add_argument("--dry-run", action="store_true")
    b.add_argument("--standalone", action="store_true", help="link a .qasm-only build")
    b.add_argument("--toolchain-config", default=None)
    b.set_defaults(func=cmd_build)

    e = sub.add_parser("extract", help="print the gate list of a QIR file as JSON")
    e.add_argument("file")
    e.set_defaults(func=cmd_extract)

    s = sub.add_parser("simulate", help="print the statevector of a unitary circuit as JSON")
    s.add_argument("file", help=".qasm or .qir.ll input")
    s.add_argument("--qubits", type=int, default=None, help=f"pad to this many qubits (max {MAX_QUBITS})")
    s.set_defaults(func=cmd_simulate)

    m = sub.add_parser("metrics", help="print gate counts and depth as JSON")
    m.add_argument("file", help=".qasm or QIR input")
    m.add_argument("--opt-level", type=int, choices=[0, 1, 2, 3], default=0)
    m.add_argument("--native-gates", default=None)
    m.set_defaults(func=cmd_metrics)
    return parser


def main(argv=None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ToolFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.stderr:
            print(exc.stderr, file=sys.stderr)
        return 2
    except QccError as exc:
        if getattr(exc, "span", None) is not None or getattr(exc, "filename", None):
            print(exc.diagnostic(), file=sys.stderr)
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
