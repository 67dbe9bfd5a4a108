"""Multi-toolchain build orchestration.

One driver invocation accepts a mixed list of C++, CUDA, MPI and OpenQASM
sources.  Quantum sources run through the in-process pipeline (parse, lower,
optimize, optionally route, emit QIR) and get a generated C++ wrapper that
exposes ``run_<stem>()`` to the host program; classical sources are handed
to external compilers.  All external commands come from a ToolchainConfig,
so tests substitute mock scripts and nothing here requires nvcc or mpicxx.
"""

import json
import os
import re
import shlex
import subprocess
import time
from dataclasses import dataclass, field

from .errors import (
    MissingFileError,
    QccError,
    ToolFailure,
    UnknownFileTypeError,
)
from .ir import gate_counts
from .optimizer import NativeGateSet, optimize
from .qasm import lower_ast_to_ir, parse_qasm
from .qir import emit_qir, verify_qir_text
from .routing import Layout, load_coupling_graph, route_program

_EXTENSION_KINDS = {".c": "cxx", ".cc": "cxx", ".cpp": "cxx", ".cu": "cuda", ".qasm": "qasm"}

_DEFAULT_TEMPLATES = {
    "cxx_cmd": "g++ -c {flags} {input} -o {output}",
    "cuda_cmd": "nvcc -c -arch={arch} {flags} {input} -o {output}",
    "mpi_cmd": "mpicxx -c {flags} {input} -o {output}",
    "linker_cmd": "g++ {inputs} -o {output}",
}

_REQUIRED_SLOTS = {
    "cxx_cmd": ("{input}", "{output}"),
    "cuda_cmd": ("{input}", "{output}"),
    "mpi_cmd": ("{input}", "{output}"),
    "linker_cmd": ("{inputs}", "{output}"),
}


@dataclass(frozen=True)
class ToolchainConfig:
    cxx_cmd: str = _DEFAULT_TEMPLATES["cxx_cmd"]
    cuda_cmd: str = _DEFAULT_TEMPLATES["cuda_cmd"]
    mpi_cmd: str = _DEFAULT_TEMPLATES["mpi_cmd"]
    linker_cmd: str = _DEFAULT_TEMPLATES["linker_cmd"]
    cuda_arch: str = "sm_70"

    def __post_init__(self):
        for name, slots in _REQUIRED_SLOTS.items():
            template = getattr(self, name)
            for slot in slots:
                if slot not in template:
                    raise QccError(f"toolchain template {name} is missing the {slot} slot")

    def template_for(self, kind: str) -> str:
        return {"cxx": self.cxx_cmd, "cuda": self.cuda_cmd, "mpi": self.mpi_cmd}[kind]


def load_toolchain_config(path: str | None = None) -> ToolchainConfig:
    """Resolve the toolchain: defaults <- QCC_TOOLCHAIN env file <- explicit path."""
    merged = dict(_DEFAULT_TEMPLATES, cuda_arch="sm_70")
    env_path = os.environ.get("QCC_TOOLCHAIN")
    for source in (env_path, path):
        if not source:
            continue
        try:
            with open(source) as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
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
class LinkStep:
    inputs: tuple[str, ...]
    output: str


@dataclass(frozen=True)
class BuildPlan:
    tasks: tuple[Task, ...]
    link_step: LinkStep | None
    build_dir: str


def _stem(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


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
    mpi: bool | set[str] = False,
    standalone: bool = False,
) -> BuildPlan:
    """Assign a toolchain kind to every input by extension and plan the build.

    `mpi` promotes C/C++ inputs to the MPI toolchain: pass True for all of
    them or a set of paths for per-file selection.  A qasm-only invocation
    is emit-only (no link step) unless `standalone` asks for a runnable
    host wrapper.
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
        if kind == "cxx" and (mpi is True or (isinstance(mpi, set) and path in mpi)):
            kind = "mpi"
        tasks.append(Task(path, kind, os.path.join(build_dir, _stem(path) + ".o")))
    names = [_stem(t.path) for t in tasks]
    if len(set(names)) != len(names):
        raise QccError(f"duplicate input stems: {sorted(n for n in names if names.count(n) > 1)}")

    quantum_only = all(t.kind == "qasm" for t in tasks)
    link = None
    if not quantum_only or standalone:
        link = LinkStep(tuple(t.object_path for t in tasks), output)
    return BuildPlan(tuple(tasks), link, build_dir)


@dataclass(frozen=True)
class QuantumOptions:
    opt_level: int = 1
    native: NativeGateSet = field(default_factory=NativeGateSet.default)
    coupling_path: str | None = None
    layout_mode: str = "sabre"  # sabre | identity
    seed: int = 0
    sabre_iterations: int = 3
    emit: str = "all"  # qir | metrics | all
    standalone: bool = False
    write_wrapper: bool = True
    runner_cmd: str = "qcc simulate"


@dataclass(frozen=True)
class QuantumArtifacts:
    qir_path: str
    wrapper_path: str | None
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
    std::string command = std::string(runner ? runner : "{runner}") + " \\"{qir}\\"";
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


def compile_quantum(task: Task, opts: QuantumOptions) -> QuantumArtifacts:
    """Run the quantum pipeline for one .qasm input and write its artifacts.

    Nothing is written until the whole pipeline has succeeded, so a
    diagnostic never leaves a stale .qir.ll behind.
    """
    with open(task.path) as handle:
        source = handle.read()
    ast = parse_qasm(source, filename=task.path)
    program = lower_ast_to_ir(ast)
    program = optimize(program, level=opts.opt_level, native=opts.native)

    metrics = gate_counts(program)
    if opts.coupling_path:
        graph = load_coupling_graph(opts.coupling_path)
        layout = None
        if opts.layout_mode == "identity":
            layout = Layout.identity(program.n_qubits, graph.n_physical)
        program, routing = route_program(
            program,
            graph,
            layout=layout,
            seed=opts.seed,
            native=opts.native,
            sabre_iterations=opts.sabre_iterations,
        )
        metrics = gate_counts(program)
        metrics["inserted_swaps"] = routing.swap_count
        metrics["inserted_swap_cx"] = routing.swap_cx_count

    symbol = kernel_symbol(task.path)
    module = emit_qir(program, symbol)
    problems = verify_qir_text(module)
    if problems:
        raise QccError("emitted QIR failed self-check: " + "; ".join(problems))

    stem_path = task.object_path[: -len(".o")] if task.object_path.endswith(".o") else task.object_path
    qir_path = stem_path + ".qir.ll"
    wrapper_path = None
    metrics_path = None
    os.makedirs(os.path.dirname(qir_path) or ".", exist_ok=True)
    if opts.emit in ("qir", "all"):
        with open(qir_path, "w") as handle:
            handle.write(module.text)
    if opts.emit in ("metrics", "all"):
        metrics_path = stem_path + ".metrics.json"
        with open(metrics_path, "w") as handle:
            json.dump(metrics, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if opts.emit == "all" and opts.write_wrapper:
        wrapper_path = stem_path + "_wrapper.cpp"
        main_part = _WRAPPER_MAIN.format(symbol=symbol) if opts.standalone else ""
        with open(wrapper_path, "w") as handle:
            handle.write(
                _WRAPPER_TEMPLATE.format(
                    symbol=symbol,
                    runner=opts.runner_cmd,
                    qir=os.path.abspath(qir_path),
                    main=main_part,
                )
            )
    return QuantumArtifacts(qir_path, wrapper_path, metrics_path, metrics)


@dataclass
class StepResult:
    name: str
    command: str
    status: str  # ok | failed | skipped
    duration: float
    stderr: str = ""


@dataclass
class BuildReport:
    steps: list[StepResult]
    artifact: str | None
    success: bool

    def summary(self) -> str:
        lines = []
        total = len(self.steps)
        for i, step in enumerate(self.steps, 1):
            lines.append(f"[{i}/{total}] {step.name}: {step.status} ({step.duration:.2f}s)")
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
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise ToolFailure(name, 127, str(exc)) from exc
    duration = time.monotonic() - start
    if proc.returncode != 0:
        raise ToolFailure(name, proc.returncode, proc.stderr.strip())
    return StepResult(name, shlex.join(argv), "ok", duration, proc.stderr.strip())


def execute_plan(
    plan: BuildPlan,
    config: ToolchainConfig,
    quantum_opts: QuantumOptions | None = None,
    dry_run: bool = False,
    flags: str = "",
    log=None,
) -> BuildReport:
    """Run every compile task, then the link step.

    Classical tasks call the configured external tools; qasm tasks run the
    in-process pipeline and then compile their generated wrapper.  Any tool
    failure aborts before the link.  With dry_run the exact command lines
    are printed (via `log`) and no process is spawned and no file written.
    """
    opts = quantum_opts or QuantumOptions()
    emit = log or (lambda line: None)
    steps: list[StepResult] = []

    link_needed = plan.link_step is not None
    flag_args = shlex.split(flags)

    def command_for(task: Task) -> list[str] | None:
        if task.kind == "qasm":
            if not link_needed:
                return None  # emit-only: the pipeline runs in-process
            wrapper = (task.object_path[:-2] if task.object_path.endswith(".o") else task.object_path) + "_wrapper.cpp"
            return _render(config.cxx_cmd, input=wrapper, output=task.object_path, flags=flag_args)
        template = config.template_for(task.kind)
        return _render(
            template, input=task.path, output=task.object_path, flags=flag_args, arch=config.cuda_arch
        )

    def link_command() -> list[str]:
        return _render(config.linker_cmd, inputs=list(plan.link_step.inputs), output=plan.link_step.output)

    if dry_run:
        for task in plan.tasks:
            command = command_for(task)
            emit(shlex.join(command) if command else f"# {task.path}: in-process quantum pipeline, no external command")
        if plan.link_step:
            emit(shlex.join(link_command()))
        return BuildReport([], None, True)

    # object paths live under build_dir; external tools will not create it
    os.makedirs(plan.build_dir or ".", exist_ok=True)

    for task in plan.tasks:
        command = command_for(task)
        if task.kind == "qasm":
            start = time.monotonic()
            compile_quantum(task, opts)
            quantum_elapsed = time.monotonic() - start
            if command is None:
                steps.append(StepResult(f"qasm {task.path}", "(in-process)", "ok", quantum_elapsed))
                emit(f"qasm {task.path}: ok (emit-only)")
                continue
            result = _run_tool(f"qasm {task.path}", command)
            result.duration += quantum_elapsed
            steps.append(result)
        else:
            steps.append(_run_tool(f"{task.kind} {task.path}", command))
        emit(f"{steps[-1].name}: ok")

    artifact = None
    if plan.link_step:
        steps.append(_run_tool("link", link_command()))
        emit(f"link -> {plan.link_step.output}")
        artifact = plan.link_step.output
    return BuildReport(steps, artifact, True)
