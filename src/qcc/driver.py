"""Multi-toolchain build orchestration.

One driver invocation accepts a mixed list of C++, CUDA, MPI and OpenQASM
sources.  Quantum sources run through the in-process pipeline (parse, lower,
optimize, optionally route, emit QIR) and, when the build links, get a
generated C++ wrapper that exposes ``run_<stem>()`` to the host program;
classical sources are handed to external compilers.  All external commands
come from a ToolchainConfig, so tests substitute mock scripts and nothing
here requires nvcc or mpicxx.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace

from .errors import (
    MissingFileError,
    QccError,
    ToolFailure,
    UnknownFileTypeError,
    in_file,
)
from .ir import QuantumProgram, gate_counts
from .optimizer import NativeGateSet, optimize
from .qasm import lower_ast_to_ir, parse_qasm
from .qir import emit_qir, extract_program, find_quantum_kernels, verify_qir_text
from .qir.reader import Record
from .routing import MAX_SABRE_ITERATIONS, SABRE_ITERATIONS, SABRE_SEED, Layout, load_coupling_graph, route_program

_EXTENSION_KINDS = {".c": "cxx", ".cc": "cxx", ".cpp": "cxx", ".cu": "cuda", ".qasm": "qasm"}

_REQUIRED_SLOTS = {
    "cxx_cmd": ("{input}", "{output}"),
    "cuda_cmd": ("{input}", "{output}"),
    "mpi_cmd": ("{input}", "{output}"),
    "linker_cmd": ("{inputs}", "{output}"),
}


@dataclass(frozen=True)
class ToolchainConfig:
    cxx_cmd: str = "g++ -c {flags} {input} -o {output}"
    cuda_cmd: str = "nvcc -c -arch={arch} {flags} {input} -o {output}"
    mpi_cmd: str = "mpicxx -c {flags} {input} -o {output}"
    linker_cmd: str = "g++ {inputs} -o {output}"
    cuda_arch: str = "sm_70"

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not isinstance(value, str):
                raise QccError(f"toolchain config {name} must be a string, not {value!r}")
        for name, slots in _REQUIRED_SLOTS.items():
            template = getattr(self, name)
            try:
                shlex.split(template)
            except ValueError as exc:
                raise QccError(f"toolchain template {name} does not split into arguments: {exc}") from exc
            for slot in slots:
                if slot not in template:
                    raise QccError(f"toolchain template {name} is missing the {slot} slot")

    def template_for(self, kind: str) -> str:
        return {"cxx": self.cxx_cmd, "cuda": self.cuda_cmd, "mpi": self.mpi_cmd}[kind]


def load_toolchain_config(path: str | None = None) -> ToolchainConfig:
    """Resolve the toolchain: defaults <- QCC_TOOLCHAIN env file <- explicit path."""
    merged = asdict(ToolchainConfig())
    env_path = os.environ.get("QCC_TOOLCHAIN")
    for source in (env_path, path):
        if not source:
            continue
        try:
            with open(source, encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
            raise QccError(f"cannot read toolchain config {source}: {exc}") from exc
        if not isinstance(data, dict):
            raise QccError(f"toolchain config {source} must be a JSON object")
        unknown = set(data) - set(merged)
        if unknown:
            raise QccError(f"unknown toolchain config keys: {sorted(unknown)}")
        merged.update(data)
    return ToolchainConfig(**merged)


@dataclass(frozen=True)
class Task:
    path: str
    kind: str  # cxx | cuda | mpi | qasm
    object_path: str


@dataclass(frozen=True)
class BuildPlan:
    tasks: tuple[Task, ...]
    output: str | None  # the executable linking every task's object in task order; None when emit-only
    build_dir: str


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _artifact_path(task: Task, suffix: str) -> str:
    """The task's object path with `.o` replaced by `suffix`."""
    stem = task.object_path[: -len(".o")] if task.object_path.endswith(".o") else task.object_path
    return stem + suffix


def _wrapper_path(task: Task) -> str:
    return _artifact_path(task, "_wrapper.cpp")


def kernel_symbol(path: str) -> str:
    """A C-identifier-safe symbol derived from the source file stem."""
    symbol = re.sub(r"[^0-9A-Za-z_]", "_", _stem(path))
    if not symbol or symbol[0].isdigit():
        symbol = "q_" + symbol
    return symbol


def classify_inputs(
    paths: list[str],
    output: str = "a.out",
    build_dir: str = ".",
    mpi: bool = False,
    standalone: bool = False,
) -> BuildPlan:
    """Assign a toolchain kind to every input by extension and plan the build.

    `mpi` promotes every C/C++ input to the MPI toolchain.  A qasm-only
    invocation is emit-only (no link step) unless `standalone` asks to link it.
    A linking plan gives each qasm input its own ``run_<symbol>``.
    """
    if not paths:
        raise QccError("no input files")
    tasks = []
    for path in paths:
        if not os.path.exists(path):
            raise MissingFileError(f"no such input file: {path}")
        ext = os.path.splitext(path)[1].lower()
        kind = _EXTENSION_KINDS.get(ext)
        if kind is None:
            raise UnknownFileTypeError(f"cannot classify {path}: unknown extension {ext!r}")
        if kind == "cxx" and mpi:
            kind = "mpi"
        tasks.append(Task(path, kind, os.path.join(build_dir, _stem(path) + ".o")))
    names = [_stem(t.path) for t in tasks]
    if len(set(names)) != len(names):
        raise QccError(f"duplicate input stems: {sorted(n for n in names if names.count(n) > 1)}")

    link = standalone or any(t.kind != "qasm" for t in tasks)
    if link:
        owners: dict[str, str] = {}  # kernel symbol -> the qasm input that defines it
        for task in (t for t in tasks if t.kind == "qasm"):
            symbol = kernel_symbol(task.path)
            if symbol in owners:
                raise QccError(f"{owners[symbol]} and {task.path} both define the kernel symbol run_{symbol}")
            owners[symbol] = task.path
    return BuildPlan(tuple(tasks), output if link else None, build_dir)


@dataclass(frozen=True)
class QuantumOptions:
    opt_level: int = 1
    native: NativeGateSet = field(default_factory=NativeGateSet.default)
    coupling_path: str | None = None
    layout_mode: str = "sabre"  # sabre | identity
    seed: int = SABRE_SEED
    sabre_iterations: int = SABRE_ITERATIONS
    emit: str = "all"  # qir | metrics | all

    def __post_init__(self):
        # numpy's permutation generator rejects a negative seed with a bare ValueError.
        if self.seed < 0:
            raise QccError(f"seed must be a non-negative integer, not {self.seed}")
        if self.sabre_iterations > MAX_SABRE_ITERATIONS:
            raise QccError(f"sabre iterations must be at most {MAX_SABRE_ITERATIONS}, not {self.sabre_iterations}")


@dataclass(frozen=True)
class QuantumArtifacts:
    qir_path: str | None
    metrics_path: str | None
    metrics: dict


_WRAPPER_TEMPLATE = """\
// Generated host wrapper: dispatches the emitted QIR kernel to a runner
// command at call time (override with the QCC_RUNNER environment variable).
#include <cstdio>
#include <cstdlib>
#include <string>

extern "C" int run_{symbol}(void) {{
    const char *runner = std::getenv("QCC_RUNNER");
    std::string command = std::string(runner ? runner : "qcc simulate") + "{qir_arg}";
    int status = std::system(command.c_str());
    if (status != 0) {{
        std::fprintf(stderr, "run_{symbol}: runner failed with status %d\\n", status);
    }}
    return status;
}}
{main}"""

_WRAPPER_MAIN = """
int main(void) {{
    return run_{symbol}();
}}
"""


def _cpp_string_body(text: str) -> str:
    """Escape text, byte for byte, for the inside of a C++ string literal."""
    out = []
    for byte in os.fsencode(text):
        char = chr(byte)
        if char in '\\"?':
            out.append("\\" + char)
        elif 0x20 <= byte < 0x7F:
            out.append(char)
        else:
            out.append(f"\\{byte:03o}")
    return "".join(out)


def _write_wrapper(task: Task, qir_path: str, with_main: bool) -> None:
    """Write the host wrapper that runs the task's QIR through the runner.

    The QIR path is quoted for the shell that std::system starts, then
    escaped for the C++ literal, so any path reaches the runner as one
    argument.
    """
    symbol = kernel_symbol(task.path)
    qir_arg = _cpp_string_body(" " + shlex.quote(os.path.abspath(qir_path)))
    main_part = _WRAPPER_MAIN.format(symbol=symbol) if with_main else ""
    with open(_wrapper_path(task), "w") as handle:
        handle.write(_WRAPPER_TEMPLATE.format(symbol=symbol, qir_arg=qir_arg, main=main_part))


def _read_text(path: str) -> str:
    """The text of an input file, decoded as UTF-8 whatever the locale."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise QccError(f"file is not UTF-8 text: {exc.reason} at byte {exc.start}") from None


def _is_qasm(path: str) -> bool:
    return _EXTENSION_KINDS.get(os.path.splitext(path)[1].lower()) == "qasm"


def read_kernels(path: str) -> list[list[Record]]:
    """The records of each quantum kernel of a QIR module, as ``find_quantum_kernels`` gives them.

    An OpenQASM source, by its extension, is a diagnostic.
    """
    if _is_qasm(path):
        raise QccError("expected a QIR module, got an OpenQASM source")
    return find_quantum_kernels(_read_text(path))


def read_program(path: str) -> QuantumProgram:
    """Read a .qasm source, or else a QIR module with one quantum kernel; every diagnostic names path."""
    with in_file(path):
        if _is_qasm(path):
            return lower_ast_to_ir(parse_qasm(_read_text(path), filename=path))
        return extract_program(_read_text(path))[1]


def compile_program(program: QuantumProgram, opts: QuantumOptions, filename: str) -> tuple[QuantumProgram, dict]:
    """Optimize the program, route it when opts names a device, and count its gates.

    Optimizer and router diagnostics name filename; device-file ones do not.
    """
    with in_file(filename):
        program = optimize(program, level=opts.opt_level, native=opts.native)
    if not opts.coupling_path:
        return program, gate_counts(program)
    graph = load_coupling_graph(opts.coupling_path)
    with in_file(filename):
        layout = Layout.identity(program.n_qubits, graph.n_physical) if opts.layout_mode == "identity" else None
        program, routing = route_program(
            program,
            graph,
            layout=layout,
            seed=opts.seed,
            native=opts.native,
            sabre_iterations=opts.sabre_iterations,
        )
    swaps = {"inserted_swaps": routing.swap_count, "inserted_swap_cx": routing.swap_cx_count}
    return program, gate_counts(program) | swaps


def compile_quantum(task: Task, opts: QuantumOptions) -> QuantumArtifacts:
    """Run the quantum pipeline for one .qasm input and write the artifacts opts.emit names; others' paths are None.

    Nothing is written until the whole pipeline has succeeded, so a
    diagnostic never leaves a stale .qir.ll behind.
    """
    program, metrics = compile_program(read_program(task.path), opts, task.path)
    module = emit_qir(program, kernel_symbol(task.path))
    problems = verify_qir_text(module)
    if problems:
        raise QccError("emitted QIR failed self-check: " + "; ".join(problems))

    qir_path = metrics_path = None
    os.makedirs(os.path.dirname(task.object_path) or ".", exist_ok=True)
    if opts.emit in ("qir", "all"):
        qir_path = _artifact_path(task, ".qir.ll")
        with open(qir_path, "w") as handle:
            handle.write(module.text)
    if opts.emit in ("metrics", "all"):
        metrics_path = _artifact_path(task, ".metrics.json")
        with open(metrics_path, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return QuantumArtifacts(qir_path, metrics_path, metrics)


@dataclass
class StepResult:
    name: str
    command: str
    duration: float


@dataclass
class BuildReport:
    """The steps of a finished build; a failing step raises instead, so each one printed is ok."""

    steps: list[StepResult]
    artifact: str | None

    def summary(self) -> str:
        lines = []
        total = len(self.steps)
        for i, step in enumerate(self.steps, 1):
            lines.append(f"[{i}/{total}] {step.name}: ok ({step.duration:.2f}s)")
        if self.artifact:
            lines.append(f"artifact: {self.artifact}")
        return "\n".join(lines)


def _render(template: str, **slots: str | list[str]) -> list[str]:
    """Split a command template into argv, then fill the slots per token.

    Splitting first keeps a path with spaces one argument.  A token that is
    exactly a slot expands to one argument per value, so {flags} and
    {inputs} may give several arguments and an empty {flags} gives none.
    """
    lists = {"{" + key + "}": [value] if isinstance(value, str) else value for key, value in slots.items()}
    argv: list[str] = []
    for token in shlex.split(template):
        if token in lists:
            argv.extend(lists[token])
            continue
        for slot, values in lists.items():
            token = token.replace(slot, " ".join(values))
        argv.append(token)
    return argv


def _run_tool(name: str, argv: list[str]) -> StepResult:
    """Run one external command; a successful tool's stderr (its warnings) goes to ours."""
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise ToolFailure(name, 127, str(exc)) from exc
    duration = time.monotonic() - start
    if proc.returncode != 0:
        raise ToolFailure(name, proc.returncode, proc.stderr.strip())
    if proc.stderr.strip():
        print(proc.stderr.strip(), file=sys.stderr)
    return StepResult(name, shlex.join(argv), duration)


def execute_plan(
    plan: BuildPlan,
    config: ToolchainConfig,
    quantum_opts: QuantumOptions | None = None,
    dry_run: bool = False,
    flags: str = "",
    log=None,
) -> BuildReport:
    """Walk the plan once: every compile task in order, then the link step.

    Each step's command line is rendered once; with dry_run it is printed
    (via `log`) and nothing is spawned or written, else it is run.  Classical
    tasks call the configured external tools; qasm tasks run the in-process
    pipeline.  When the plan links, each qasm task also writes all its
    artifacts plus a host wrapper, which gets a main() when every input is
    quantum, and compiles that wrapper.  Any tool failure aborts before the
    link.
    """
    opts = quantum_opts or QuantumOptions()
    emit = log or (lambda line: None)
    steps: list[StepResult] = []
    if plan.output is not None:
        opts = replace(opts, emit="all")
    quantum_only = all(t.kind == "qasm" for t in plan.tasks)
    flag_args = shlex.split(flags)
    if not dry_run:
        # object paths live under build_dir; external tools will not create it
        os.makedirs(plan.build_dir or ".", exist_ok=True)

    for task in plan.tasks:
        name = f"{task.kind} {task.path}"
        if task.kind != "qasm":
            template = config.template_for(task.kind)
            argv = _render(template, input=task.path, output=task.object_path, flags=flag_args, arch=config.cuda_arch)
        elif plan.output is not None:
            argv = _render(config.cxx_cmd, input=_wrapper_path(task), output=task.object_path, flags=flag_args)
        else:
            argv = None  # emit-only: the pipeline runs in-process
        if dry_run:
            emit(shlex.join(argv) if argv else f"# {task.path}: in-process quantum pipeline, no external command")
            continue
        quantum_elapsed = 0.0
        if task.kind == "qasm":
            start = time.monotonic()
            artifacts = compile_quantum(task, opts)
            quantum_elapsed = time.monotonic() - start
            if argv is None:
                steps.append(StepResult(name, "(in-process)", quantum_elapsed))
                emit(f"{name}: ok (emit-only)")
                continue
            _write_wrapper(task, artifacts.qir_path, with_main=quantum_only)
        steps.append(_run_tool(name, argv))
        steps[-1].duration += quantum_elapsed
        emit(f"{name}: ok")

    if plan.output is not None:
        argv = _render(config.linker_cmd, inputs=[t.object_path for t in plan.tasks], output=plan.output)
        if dry_run:
            emit(shlex.join(argv))
        else:
            steps.append(_run_tool("link", argv))
            emit(f"link -> {plan.output}")
    return BuildReport(steps, None if dry_run else plan.output)
