"""Build driver: input classification, toolchain config, plan execution, CLI."""

import ast
import hashlib
import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
import time

import pytest

from qcc import cli, ir
from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.cli import main
from qcc.driver import (
    QuantumOptions,
    Task,
    ToolchainConfig,
    classify_inputs,
    compile_quantum,
    execute_plan,
    kernel_symbol,
    load_toolchain_config,
)
from qcc.errors import (
    MissingFileError,
    QccError,
    ToolFailure,
    UnknownFileTypeError,
)
from qcc.qir import extract_circuit, extract_program
from qcc.routing import MAX_SABRE_ITERATIONS

GHZ2 = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\nh q[0];\ncx q[0],q[1];\n'

MOCK_CC = """#!/bin/sh
out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then out="$2"; shift; fi
  shift
done
echo built > "$out"
"""

FAILING_CC = """#!/bin/sh
echo "mock failure: bad flag" >&2
exit 1
"""

WARNING_CC = """#!/bin/sh
echo "warning: x" >&2
out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then out="$2"; shift; fi
  shift
done
echo built > "$out"
"""

SENTINEL_CC = """#!/bin/sh
touch {sentinel}
out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then out="$2"; shift; fi
  shift
done
echo built > "$out"
"""

ARGV_CC = """#!/bin/sh
for arg in "$@"; do echo "$arg" >> "{log}"; done
echo "--" >> "{log}"
out=""
while [ $# -gt 0 ]; do
  if [ "$1" = "-o" ]; then out="$2"; shift; fi
  shift
done
echo built > "$out"
"""

ARGV_RUNNER = """#!/bin/sh
printf '%s\\n' "$#" "$@" > "{log}"
"""


@pytest.fixture
def workspace(tmp_path):
    def script(name, text):
        p = tmp_path / name
        p.write_text(text)
        p.chmod(p.stat().st_mode | stat.S_IXUSR)
        return str(p)

    def source(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    mock = script("mockcc.sh", MOCK_CC)
    config = ToolchainConfig(
        cxx_cmd=f"{mock} -c {{flags}} {{input}} -o {{output}}",
        cuda_cmd=f"{mock} -c -arch={{arch}} {{flags}} {{input}} -o {{output}}",
        mpi_cmd=f"{mock} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{mock} {{inputs}} -o {{output}}",
    )
    return tmp_path, script, source, config


# ------------------------------------------------------------- classification


def test_classify_three_file_plan(workspace):
    tmp_path, _, source, _ = workspace
    paths = [
        source("main.cc", "int main(){}\n"),
        source("kern.cu", "// cuda\n"),
        source("circ.qasm", GHZ2),
    ]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(tmp_path))
    assert [t.kind for t in plan.tasks] == ["cxx", "cuda", "qasm"]
    assert plan.link_step is not None
    assert plan.link_step.output.endswith("app")
    assert len(plan.link_step.inputs) == 3


def test_classify_qasm_only_is_emit_only(workspace):
    tmp_path, _, source, _ = workspace
    plan = classify_inputs([source("c.qasm", GHZ2)], build_dir=str(tmp_path))
    assert plan.link_step is None
    plan2 = classify_inputs(
        [source("c2.qasm", GHZ2)], build_dir=str(tmp_path), standalone=True
    )
    assert plan2.link_step is not None


def test_classify_mpi_flag_promotes_cxx(workspace):
    tmp_path, _, source, _ = workspace
    a = source("a.cc", "")
    b = source("b.cc", "")
    plan = classify_inputs([a, b], build_dir=str(tmp_path), mpi=True)
    assert [t.kind for t in plan.tasks] == ["mpi", "mpi"]


def test_classify_unknown_extension(workspace):
    tmp_path, _, source, _ = workspace
    with pytest.raises(UnknownFileTypeError):
        classify_inputs([source("notes.txt", "hi")], build_dir=str(tmp_path))


def test_classify_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        classify_inputs([str(tmp_path / "ghost.cc")], build_dir=str(tmp_path))


def test_classify_duplicate_stems(workspace):
    tmp_path, _, source, _ = workspace
    (tmp_path / "sub").mkdir()
    a = source("dup.cc", "")
    b = tmp_path / "sub" / "dup.cc"
    b.write_text("")
    with pytest.raises(QccError, match="stem"):
        classify_inputs([a, str(b)], build_dir=str(tmp_path))


def test_kernel_symbol_sanitizes():
    assert kernel_symbol("/tmp/my-circuit.v2.qasm") == "my_circuit_v2"
    assert kernel_symbol("123.qasm") == "q_123"  # leading digit gets a prefix


# ------------------------------------------------------------- toolchain config


def test_toolchain_template_validation():
    with pytest.raises(QccError, match="slot"):
        ToolchainConfig(cxx_cmd="g++ -c {input}")  # missing {output}
    with pytest.raises(QccError, match="slot"):
        ToolchainConfig(linker_cmd="ld {inputs}")


def test_load_toolchain_config_from_file(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_TOOLCHAIN", raising=False)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"cxx_cmd": "cc -c {flags} {input} -o {output}"}))
    cfg = load_toolchain_config(str(path))
    assert cfg.cxx_cmd.startswith("cc ")
    assert "nvcc" in cfg.cuda_cmd  # untouched defaults survive


def test_load_toolchain_config_env(tmp_path, monkeypatch):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"cuda_arch": "sm_90"}))
    monkeypatch.setenv("QCC_TOOLCHAIN", str(env_file))
    assert load_toolchain_config().cuda_arch == "sm_90"
    # explicit file wins over the environment
    over = tmp_path / "file.json"
    over.write_text(json.dumps({"cuda_arch": "sm_80"}))
    assert load_toolchain_config(str(over)).cuda_arch == "sm_80"


def test_unbalanced_quote_in_template_is_a_diagnostic(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("QCC_TOOLCHAIN", raising=False)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"cxx_cmd": 'cc -c "{flags} {input} -o {output}'}))
    with pytest.raises(QccError, match="cxx_cmd"):
        load_toolchain_config(str(path))
    main_cc = tmp_path / "main.cc"
    main_cc.write_text("")
    argv = ["build", str(main_cc), "--dry-run", "--build-dir", str(tmp_path), "--toolchain-config", str(path)]
    assert main(argv) == 1
    assert "error: toolchain template cxx_cmd" in capsys.readouterr().err


def test_non_string_toolchain_value_is_a_diagnostic(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_TOOLCHAIN", raising=False)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"cuda_arch": 70}))
    with pytest.raises(QccError, match="cuda_arch must be a string"):
        load_toolchain_config(str(path))


def test_load_toolchain_config_rejects_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_TOOLCHAIN", raising=False)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"weird_key": 1}))
    with pytest.raises(QccError, match="weird_key"):
        load_toolchain_config(str(path))


# ------------------------------------------------------------- compile_quantum


def test_compile_quantum_outputs(workspace):
    tmp_path, _, source, config = workspace
    qasm = source("circ.qasm", GHZ2)
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "circ.o"))
    artifacts = compile_quantum(task, QuantumOptions())
    assert os.path.exists(artifacts.qir_path)
    assert artifacts.qir_path.endswith("circ.qir.ll")
    metrics = json.loads(open(artifacts.metrics_path).read())
    assert metrics["total_gates"] == 2
    assert metrics["depth"] == 2
    plan = classify_inputs([qasm], output=str(tmp_path / "app"), build_dir=str(tmp_path), standalone=True)
    execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    wrapper = (tmp_path / "circ_wrapper.cpp").read_text()
    assert 'extern "C" int run_circ(' in wrapper


def test_compile_quantum_emit_only_writes_no_wrapper(workspace):
    tmp_path, _, source, _ = workspace
    qasm = source("only.qasm", GHZ2)
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "only.o"))
    compile_quantum(task, QuantumOptions())
    assert not os.path.exists(str(tmp_path / "only_wrapper.cpp"))


def test_compile_quantum_bad_source_writes_nothing(workspace):
    tmp_path, _, source, _ = workspace
    qasm = source("bad.qasm", "OPENQASM 2.0;\nqreg q[1];\nh q[0]\n")
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "bad.o"))
    with pytest.raises(QccError):
        compile_quantum(task, QuantumOptions())
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith("bad.") and f != "bad.qasm"]
    assert leftovers == []


def test_compile_quantum_routing_metrics(workspace, tmp_path):
    _, _, source, _ = workspace
    coupling = tmp_path / "line.json"
    coupling.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    qasm = source(
        "far.qasm",
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[2];\n',
    )
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "far.o"))
    artifacts = compile_quantum(
        task,
        QuantumOptions(coupling_path=str(coupling), layout_mode="identity"),
    )
    metrics = json.loads(open(artifacts.metrics_path).read())
    assert metrics["inserted_swaps"] == 1


def test_compile_quantum_is_idempotent(workspace):
    tmp_path, _, source, _ = workspace
    qasm = source("again.qasm", GHZ2)
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "again.o"))
    first = compile_quantum(task, QuantumOptions())
    qir1 = open(first.qir_path).read()
    metrics1 = open(first.metrics_path).read()
    second = compile_quantum(task, QuantumOptions())
    assert open(second.qir_path).read() == qir1
    assert open(second.metrics_path).read() == metrics1


def counting_build_dag(monkeypatch) -> list:
    """Wrap ``build_dag`` under every name any loaded ``qcc`` module holds it by; returns the call log."""
    real = ir.build_dag
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    holders = set()
    for name, module in list(sys.modules.items()):
        if name == "qcc" or name.startswith("qcc."):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
                    holders.add(name)
    assert {"qcc", "qcc.ir", "qcc.routing"} <= holders
    return calls


def test_only_routing_builds_a_dependency_dag(workspace, tmp_path, monkeypatch, capsys):
    _, _, source, _ = workspace
    coupling = tmp_path / "line.json"
    coupling.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    qasm = source(
        "far.qasm",
        'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[3];\n'
        "h q[0];\ncx q[0],q[2];\nbarrier q;\nmeasure q -> c;\n",
    )
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "far.o"))
    calls = counting_build_dag(monkeypatch)
    compile_quantum(task, QuantumOptions(coupling_path=str(coupling)))
    assert len(calls) == 1
    calls.clear()
    artifacts = compile_quantum(task, QuantumOptions())
    assert main(["metrics", qasm]) == 0
    assert json.loads(capsys.readouterr().out)["depth"] == 3
    text = open(artifacts.qir_path).read()
    assert extract_program(text) == extract_circuit(text)
    assert calls == []


# ------------------------------------------------------------- execute_plan


def test_full_mock_build(workspace):
    tmp_path, _, source, config = workspace
    paths = [
        source("main.cc", "int main(){}\n"),
        source("kern.cu", "// cuda\n"),
        source("circ.qasm", GHZ2),
    ]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(tmp_path))
    lines = []
    report = execute_plan(plan, config, QuantumOptions(), log=lines.append)
    assert os.path.exists(report.artifact)
    assert os.path.exists(str(tmp_path / "circ.qir.ll"))
    summary = report.summary().splitlines()
    assert len(summary) == 5  # four steps plus the artifact line
    assert summary[-1].startswith("artifact: ")


def test_linking_writes_every_artifact_and_main_only_without_host(workspace):
    tmp_path, _, source, config = workspace
    main_cc, circ = source("main.cc", "int main(){}\n"), source("circ.qasm", GHZ2)
    mixed = classify_inputs([main_cc, circ], output=str(tmp_path / "app"), build_dir=str(tmp_path / "mixed"))
    alone = classify_inputs([circ], output=str(tmp_path / "app"), build_dir=str(tmp_path / "alone"), standalone=True)
    for plan in (mixed, alone):
        execute_plan(plan, config, QuantumOptions(emit="qir"), log=lambda s: None)
        assert os.path.exists(os.path.join(plan.build_dir, "circ.metrics.json"))  # linking emits all
    assert "int main(" not in (tmp_path / "mixed" / "circ_wrapper.cpp").read_text()
    assert "int main(void)" in (tmp_path / "alone" / "circ_wrapper.cpp").read_text()


@pytest.mark.skipif(shutil.which("g++") is None, reason="needs g++")
def test_wrapper_passes_a_hostile_qir_path_as_one_argument(workspace, tmp_path):
    _, script, source, _ = workspace
    log = tmp_path / "runner.log"
    runner = script("runner.sh", ARGV_RUNNER.format(log=log))
    build_dir = tmp_path / 'we ird"q\\b$(touch PWNED)dir'
    plan = classify_inputs(
        [source("circ.qasm", GHZ2)], output=str(build_dir / "app"), build_dir=str(build_dir), standalone=True
    )
    execute_plan(plan, ToolchainConfig(), QuantumOptions(), log=lambda s: None)

    env = dict(os.environ, QCC_RUNNER=runner)
    proc = subprocess.run([str(build_dir / "app")], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert log.read_text().splitlines() == ["1", str(build_dir / "circ.qir.ll")]
    assert list(tmp_path.rglob("PWNED")) == []


def test_build_creates_missing_build_dir(workspace):
    # classical task first: nothing else would have created the directory
    tmp_path, _, source, config = workspace
    build_dir = tmp_path / "out" / "objs"
    paths = [source("main.cc", "int main(){}\n"), source("circ.qasm", GHZ2)]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(build_dir))
    execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    assert os.path.exists(str(build_dir / "main.o"))
    assert os.path.exists(str(build_dir / "circ.qir.ll"))


def test_dry_run_does_not_create_build_dir(workspace):
    tmp_path, _, source, config = workspace
    build_dir = tmp_path / "never"
    paths = [source("main.cc", ""), source("circ.qasm", GHZ2)]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(build_dir))
    execute_plan(plan, config, QuantumOptions(), dry_run=True, log=lambda s: None)
    assert not build_dir.exists()


def test_failing_compile_aborts_before_link(workspace, tmp_path):
    _, script, source, config = workspace
    bad = script("badcc.sh", FAILING_CC)
    config = ToolchainConfig(
        cxx_cmd=f"{bad} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=config.linker_cmd,
    )
    paths = [source("main.cc", ""), source("circ.qasm", GHZ2)]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(tmp_path))
    with pytest.raises(ToolFailure) as exc:
        execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    assert "mock failure" in exc.value.stderr
    assert not os.path.exists(str(tmp_path / "app"))


def test_dry_run_spawns_nothing(workspace, tmp_path):
    _, script, source, _ = workspace
    sentinel = tmp_path / "SPAWNED"
    spy = script("spycc.sh", SENTINEL_CC.format(sentinel=sentinel))
    config = ToolchainConfig(
        cxx_cmd=f"{spy} -c {{flags}} {{input}} -o {{output}}",
        cuda_cmd=f"{spy} -c -arch={{arch}} {{flags}} {{input}} -o {{output}}",
        mpi_cmd=f"{spy} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{spy} {{inputs}} -o {{output}}",
    )
    paths = [
        source("main.cc", ""),
        source("kern.cu", ""),
        source("circ.qasm", GHZ2),
    ]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(tmp_path))
    lines = []
    execute_plan(plan, config, QuantumOptions(), dry_run=True, log=lines.append)
    assert not sentinel.exists()
    assert not os.path.exists(str(tmp_path / "app"))
    assert len(lines) == 4
    assert any("spycc.sh" in line for line in lines)


def test_dry_run_emit_only_qasm(workspace, tmp_path):
    _, _, source, config = workspace
    plan = classify_inputs([source("c.qasm", GHZ2)], build_dir=str(tmp_path))
    lines = []
    execute_plan(plan, config, QuantumOptions(), dry_run=True, log=lines.append)
    assert len(lines) == 1
    assert "in-process" in lines[0]
    assert not os.path.exists(str(tmp_path / "c.qir.ll"))


def test_flags_are_substituted(workspace, tmp_path):
    _, _, source, config = workspace
    plan = classify_inputs(
        [source("main.cc", "")], output=str(tmp_path / "app"), build_dir=str(tmp_path)
    )
    lines = []
    execute_plan(plan, config, QuantumOptions(), dry_run=True, flags="-O2 -Wall", log=lines.append)
    assert any("-O2 -Wall" in line for line in lines)


def test_path_with_space_is_one_argument(workspace, tmp_path):
    _, script, _, _ = workspace
    log = tmp_path / "argv.log"
    recorder = script("argvcc.sh", ARGV_CC.format(log=log))
    config = ToolchainConfig(
        cxx_cmd=f"{recorder} -c {{flags}} {{input}} -o {{output}}",
        linker_cmd=f"{recorder} {{inputs}} -o {{output}}",
    )
    spaced = tmp_path / "my dir"
    spaced.mkdir()
    (spaced / "a.cpp").write_text("")
    source, obj, app = str(spaced / "a.cpp"), str(spaced / "build" / "a.o"), str(spaced / "app")
    plan = classify_inputs([source], output=app, build_dir=str(spaced / "build"))

    lines = []
    execute_plan(plan, config, QuantumOptions(), dry_run=True, flags="-O2 -Wall", log=lines.append)
    assert [shlex.split(line) for line in lines] == [
        [recorder, "-c", "-O2", "-Wall", source, "-o", obj],
        [recorder, obj, "-o", app],
    ]

    execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    calls = [call.splitlines() for call in log.read_text().split("--\n")[:-1]]
    assert calls == [["-c", source, "-o", obj], [obj, "-o", app]]


# ------------------------------------------------------------- CLI


def test_cli_build_and_exit_codes(workspace, tmp_path, capsys):
    _, _, source, config = workspace
    tc = tmp_path / "tc.json"
    mock = str(tmp_path / "mockcc.sh")
    tc.write_text(
        json.dumps(
            {
                "cxx_cmd": f"{mock} -c {{flags}} {{input}} -o {{output}}",
                "linker_cmd": f"{mock} {{inputs}} -o {{output}}",
            }
        )
    )
    main_cc = source("main.cc", "")
    circ = source("circ.qasm", GHZ2)
    code = main(
        [
            "build",
            main_cc,
            circ,
            "-o",
            str(tmp_path / "app"),
            "--build-dir",
            str(tmp_path),
            "--toolchain-config",
            str(tc),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "link: ok" in out
    assert os.path.exists(str(tmp_path / "app"))


def test_cli_build_tool_failure_exit_2(workspace, tmp_path, capsys):
    _, script, source, _ = workspace
    bad = script("badcc.sh", FAILING_CC)
    tc = tmp_path / "tc.json"
    tc.write_text(json.dumps({"cxx_cmd": f"{bad} -c {{flags}} {{input}} -o {{output}}"}))
    code = main(
        [
            "build",
            source("main.cc", ""),
            "-o",
            str(tmp_path / "app"),
            "--build-dir",
            str(tmp_path),
            "--toolchain-config",
            str(tc),
        ]
    )
    assert code == 2
    assert "mock failure" in capsys.readouterr().err


def test_cli_build_shows_compiler_warnings(workspace, tmp_path, capsys):
    _, script, source, _ = workspace
    warn = script("warncc.sh", WARNING_CC)
    mock = str(tmp_path / "mockcc.sh")
    tc = tmp_path / "tc.json"
    tc.write_text(
        json.dumps(
            {
                "cxx_cmd": f"{warn} -c {{flags}} {{input}} -o {{output}}",
                "linker_cmd": f"{mock} {{inputs}} -o {{output}}",
            }
        )
    )
    main_cc = source("main.cc", "")
    argv = ["build", main_cc, "-o", str(tmp_path / "app"), "--build-dir", str(tmp_path)]
    code = main(argv + ["--toolchain-config", str(tc)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: x\n"
    assert f"cxx {main_cc}: ok" in captured.out and "link: ok" in captured.out
    assert "warning" not in captured.out


def test_cli_build_diagnostic_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n")
    code = main(["build", str(bad), "--build-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.qasm:3:" in err and "error:" in err


@pytest.mark.parametrize("digits", ["٣", "３"])
def test_cli_non_ascii_digits_are_a_diagnostic(tmp_path, capsys, digits):
    # Arabic-Indic and fullwidth digits are Unicode digits but not QASM ones.
    bad = tmp_path / "digits.qasm"
    bad.write_text(
        f'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[{digits}];\nrz(١.٥) q[٢];\n', encoding="utf-8"
    )
    assert main(["build", str(bad), "--build-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.strip() == f"{bad}:3:8: error: unexpected character '{digits}'"
    assert not (tmp_path / "digits.qir.ll").exists()


def test_cli_negative_seed_is_a_diagnostic(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    device = tmp_path / "line.json"
    device.write_text(json.dumps({"n_qubits": 2, "edges": [[0, 1]]}))
    code = main(["build", str(circ), "--build-dir", str(tmp_path), "--coupling", str(device), "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err.strip() == "error: seed must be a non-negative integer, not -1"
    assert not (tmp_path / "circ.qir.ll").exists()


def test_cli_huge_sabre_iterations_is_a_diagnostic(tmp_path, capsys):
    # All-pairs cx on a 5-qubit line needs swaps from every start, so no round stops early.
    pairs = "".join(f"cx q[{a}],q[{b}];\n" for a in range(5) for b in range(a + 1, 5))
    circ = tmp_path / "allpairs.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[5];\n' + pairs)
    device = tmp_path / "line5.json"
    device.write_text(json.dumps({"n_qubits": 5, "edges": [[i, i + 1] for i in range(4)]}))
    argv = ["build", str(circ), "--build-dir", str(tmp_path), "--coupling", str(device)]
    start = time.perf_counter()
    assert main(argv + ["--sabre-iterations", "1000000000"]) == 1
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.strip() == (
        f"error: sabre iterations must be at most {MAX_SABRE_ITERATIONS}, not 1000000000"
    )
    assert not (tmp_path / "allpairs.qir.ll").exists()
    assert main(argv + ["--sabre-iterations", str(MAX_SABRE_ITERATIONS)]) == 0


@pytest.mark.parametrize("subcommand", ["metrics", "build"])
def test_cli_native_set_without_cx_is_a_diagnostic(tmp_path, capsys, subcommand):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    args = [subcommand, str(circ), "--opt-level", "1", "--native-gates", "rz,rx,cz"]
    if subcommand == "build":
        args += ["--build-dir", str(tmp_path)]
    assert main(args) == 1
    assert capsys.readouterr().err.strip() == f"{circ}: error: gate 'cx' cannot be lowered to the native set"
    assert not (tmp_path / "circ.qir.ll").exists()


def test_cli_routed_swaps_must_be_native(tmp_path, capsys):
    # cz needs a swap on a line; with swap and cx outside the native set the
    # inserted swap cannot be lowered, and the build fails instead of emitting cx.
    circ = tmp_path / "czfar.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncz q[0],q[2];\n')
    device = tmp_path / "line3.json"
    device.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    args = ["build", str(circ), "--build-dir", str(tmp_path), "--coupling", str(device)]
    assert main(args + ["--layout", "identity", "--native-gates", "rz,rx,cz"]) == 1
    assert capsys.readouterr().err.strip() == f"{circ}: error: gate 'cx' cannot be lowered to the native set"
    assert not (tmp_path / "czfar.qir.ll").exists()


@pytest.mark.parametrize("layout", ["sabre", "identity"])
def test_cli_capacity_diagnostic_for_both_layouts(tmp_path, capsys, layout):
    circ = tmp_path / "four.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[4];\ncx q[0],q[3];\n')
    device = tmp_path / "line3.json"
    device.write_text(json.dumps({"n_qubits": 3, "edges": [[0, 1], [1, 2]]}))
    args = ["build", str(circ), "--build-dir", str(tmp_path), "--coupling", str(device), "--layout", layout]
    assert main(args) == 1
    assert capsys.readouterr().err.strip() == f"{circ}: error: 4 logical qubits exceed 3 physical"
    assert not (tmp_path / "four.qir.ll").exists()


def test_cli_emit_only_build(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    code = main(["build", str(circ), "--build-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "circ.qir.ll").exists()
    assert (tmp_path / "circ.metrics.json").exists()
    assert not (tmp_path / "circ_wrapper.cpp").exists()


def test_cli_extract(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    code = main(["extract", str(tmp_path / "circ.qir.ll")])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1  # one kernel
    assert [g["name"] for g in payload[0]] == ["h", "cx"]
    assert payload[0][1]["operands"] == [0, 1]
    # each gate names the line of its own call in the file
    lines = (tmp_path / "circ.qir.ll").read_text().splitlines()
    assert [lines[g["line"] - 1].split("@")[1].split("(")[0] for g in payload[0]] == [
        "__quantum__qis__h",
        "__quantum__qis__cx",
    ]


EXTRACT_JSON_GOLDEN = {
    "adder4": "020ec205fc0f5298b73a7a73a6eca0cab3e5a40ff8b86394c83550746d3c1161",
    "bv5": "568105b73eafe0761eb8666d324448b68e0fc575a00860a3be8ea04f91a4f9e8",
    "ghz3": "8910cd2b0e0ff48c77de359ff297a2ae966afb8c6030de93f2c251697b7b6c45",
    "ghz5": "4c711a269b5e8d1f319fb5510f3b92996880e0e328e4d5bf0d48917d225fd26d",
    "hs_chain": "ba0cd1b5c0b3e84dec05bcbc8101e521e3ef8acb5e93905b0e3f0a41315bc1eb",
    "qft4": "7c8ba9ba9a9c675da478d6d7040e70a851fbb170ba970d446bcf869999215600",
    "random_a": "4eb2be834e2f4d1e442508f6d76ccb31f5aa111a318f9947eb8d960c205757a7",
    "random_b": "1920821b072f992acf9f4198d78f6c1e5a9ed8b99517e5e4e6a0b88c6b7c8813",
    "toffoli_pair": "06dd787c5abdfab0361fafd88f4cd853882183887f0cb8783032b230f4fe8340",
}


def test_cli_extract_output_is_pinned(tmp_path, capsys):
    digests = {}
    for name in list_benchmarks():
        (tmp_path / f"{name}.qasm").write_text(benchmark_source(name))
        assert main(["build", str(tmp_path / f"{name}.qasm"), "--build-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["extract", str(tmp_path / f"{name}.qir.ll")]) == 0
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == EXTRACT_JSON_GOLDEN


LINE10 = {"n_qubits": 10, "edges": [[i, i + 1] for i in range(9)]}

# sha256 over every CLI artifact of one benchmark at one level: `qcc build`
# QIR and metrics unrouted, then routed on LINE10 with each layout (exit code
# and stderr instead, for a program wider than the line), then `qcc metrics`.
CLI_ARTIFACTS_GOLDEN = {
    "adder4/0": "4b7f3da644f15977d6e5c03c7f68b073627d9c46068e15af1dd1a376d04f20ca",
    "adder4/1": "a866b958362a49ccf946b6e8cb746679bb107a847cfbccb10e89e1be17f8a922",
    "adder4/2": "a866b958362a49ccf946b6e8cb746679bb107a847cfbccb10e89e1be17f8a922",
    "adder4/3": "a866b958362a49ccf946b6e8cb746679bb107a847cfbccb10e89e1be17f8a922",
    "bv5/0": "fb3cf2e5ffaba787f16ef12ad0844927a33c8fa3711acc286a349f17a0a79a8a",
    "bv5/1": "d39b9d1c4ca43f82da4d708318a4bbc1d14b9a96c2fbe100813dd97429db36f3",
    "bv5/2": "d39b9d1c4ca43f82da4d708318a4bbc1d14b9a96c2fbe100813dd97429db36f3",
    "bv5/3": "d39b9d1c4ca43f82da4d708318a4bbc1d14b9a96c2fbe100813dd97429db36f3",
    "ghz3/0": "50e499b0cd3aa00dd6b9d0ab55aa58b62b6bf99d0d590ae71bc1fc8de228a036",
    "ghz3/1": "50e499b0cd3aa00dd6b9d0ab55aa58b62b6bf99d0d590ae71bc1fc8de228a036",
    "ghz3/2": "50e499b0cd3aa00dd6b9d0ab55aa58b62b6bf99d0d590ae71bc1fc8de228a036",
    "ghz3/3": "50e499b0cd3aa00dd6b9d0ab55aa58b62b6bf99d0d590ae71bc1fc8de228a036",
    "ghz5/0": "b163d1b8bfd807a688f85ca0076e0b7d20605bcd4405fee59b5997836d2a4637",
    "ghz5/1": "b163d1b8bfd807a688f85ca0076e0b7d20605bcd4405fee59b5997836d2a4637",
    "ghz5/2": "b163d1b8bfd807a688f85ca0076e0b7d20605bcd4405fee59b5997836d2a4637",
    "ghz5/3": "b163d1b8bfd807a688f85ca0076e0b7d20605bcd4405fee59b5997836d2a4637",
    "hs_chain/0": "e70a6da498283714364efc451327a4154a79a81701d910ce6b6472db200c9e07",
    "hs_chain/1": "f9aa851f23e474a47f06d7cdb2392822ab6f38ab1f9f4fae5eed6cfedd8d2660",
    "hs_chain/2": "f9aa851f23e474a47f06d7cdb2392822ab6f38ab1f9f4fae5eed6cfedd8d2660",
    "hs_chain/3": "f9aa851f23e474a47f06d7cdb2392822ab6f38ab1f9f4fae5eed6cfedd8d2660",
    "qft4/0": "d8652efeed17053d04402c62ec1caa8c95f7f71dc530ef3dfff398a278a32668",
    "qft4/1": "be919ff068d74602e10c837de73c1e470dbaf53943416e4004610b45e783e584",
    "qft4/2": "be919ff068d74602e10c837de73c1e470dbaf53943416e4004610b45e783e584",
    "qft4/3": "be919ff068d74602e10c837de73c1e470dbaf53943416e4004610b45e783e584",
    "random_a/0": "7abcabe7f962fadeb5a69ff74abd67ebb4ae6a4a42ceb168d3be101a4120ae73",
    "random_a/1": "a02a7179498902546673fcf355d27b0dfa0a7d3206caf60eaf542d54f27dbce6",
    "random_a/2": "a02a7179498902546673fcf355d27b0dfa0a7d3206caf60eaf542d54f27dbce6",
    "random_a/3": "a02a7179498902546673fcf355d27b0dfa0a7d3206caf60eaf542d54f27dbce6",
    "random_b/0": "08fa9f8443f61adee9b317eda16cb818e84b417f5a466cd6dedbe04114e5b650",
    "random_b/1": "f56977921d636cdec80ba1dcc242c2d784b19d64e7c94696b2ef3b753cd80625",
    "random_b/2": "f56977921d636cdec80ba1dcc242c2d784b19d64e7c94696b2ef3b753cd80625",
    "random_b/3": "f56977921d636cdec80ba1dcc242c2d784b19d64e7c94696b2ef3b753cd80625",
    "toffoli_pair/0": "f51308b301940cbb8cf6e67e5ce2fa517b2896ebd918bef45a119262745f5a87",
    "toffoli_pair/1": "19752d758d0187d62c5ffb912e876ac04c20e4266693ddc8d154fbbe4414ff66",
    "toffoli_pair/2": "19752d758d0187d62c5ffb912e876ac04c20e4266693ddc8d154fbbe4414ff66",
    "toffoli_pair/3": "19752d758d0187d62c5ffb912e876ac04c20e4266693ddc8d154fbbe4414ff66",
}


def test_cli_artifacts_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with open("line10.json", "w") as handle:
        json.dump(LINE10, handle)
    routes = {
        "unrouted": [],
        "sabre": ["--coupling", "line10.json", "--layout", "sabre"],
        "identity": ["--coupling", "line10.json", "--layout", "identity"],
    }
    digests = {}
    for name in list_benchmarks():
        with open(f"{name}.qasm", "w") as handle:
            handle.write(benchmark_source(name))
        for level in "0123":
            digest = hashlib.sha256()
            for route, extra in routes.items():
                code = main(["build", f"{name}.qasm", "--build-dir", route, "--opt-level", level] + extra)
                err = capsys.readouterr().err
                if code != 0:
                    digest.update(f"{route} exit {code}\n{err}".encode())
                    continue
                for suffix in (".qir.ll", ".metrics.json"):
                    with open(os.path.join(route, name + suffix), "rb") as handle:
                        digest.update(handle.read())
            assert main(["metrics", f"{name}.qasm", "--opt-level", level]) == 0
            digest.update(capsys.readouterr().out.encode())
            digests[f"{name}/{level}"] = digest.hexdigest()
    assert digests == CLI_ARTIFACTS_GOLDEN


@pytest.mark.parametrize("subcommand", ["extract", "simulate"])
@pytest.mark.parametrize(
    "operand, bare",
    [("%Qubit* %2)", "%Qubit*)"), ("double 5.000000e-01,", "double,")],
)
def test_cli_operand_without_value_is_a_diagnostic(tmp_path, capsys, subcommand, operand, bare):
    circ = tmp_path / "circ.qasm"
    circ.write_text('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\nh q[0];\nrz(0.5) q[0];\n')
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    qir = tmp_path / "circ.qir.ll"
    text = qir.read_text()
    assert operand in text
    qir.write_text(text.replace(operand, bare, 1))
    line = text[: text.index(operand)].count("\n") + 1
    assert main([subcommand, str(qir)]) == 1
    assert capsys.readouterr().err.strip() == f"{qir}: error: line {line}: operand {bare[:-1]!r} has no value"


@pytest.mark.parametrize("subcommand", ["extract", "simulate", "metrics"])
def test_cli_qir_diagnostics_name_the_file(tmp_path, capsys, subcommand):
    broken = tmp_path / "broken.ll"
    broken.write_text("define void @broken( {\n}\n")
    assert main([subcommand, str(broken)]) == 1
    assert capsys.readouterr().err.strip() == f"{broken}: error: line 1: malformed function definition"


@pytest.mark.parametrize(
    "call, message",
    [
        ("call void @__quantum__qis__cx(%Qubit* %2)", "gate 'cx' acts on 2 qubit(s) but is given 1"),
        ("call void @__quantum__qis__h(double 0x7FF8000000000000, %Qubit* %2)", "non-finite double"),
        ("cal void @__quantum__qis__h(%Qubit* %2)", "unknown instruction 'cal'"),
    ],
)
def test_cli_simulate_of_hostile_qir_is_a_diagnostic(tmp_path, capsys, call, message):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    qir = tmp_path / "circ.qir.ll"
    qir.write_text(qir.read_text().replace("call void @__quantum__qis__h(%Qubit* %2)", call, 1))
    assert main(["simulate", str(qir)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "call, message",
    [
        ("call void @__quantum__qis__ccx(%Qubit* %2, %Qubit* %4)", "gate 'ccx' acts on 3 qubit(s) but is given 2"),
        ("call void @__quantum__qis__cz(double 0.5, %Qubit* %2, %Qubit* %4)", "gate 'cz' takes 0 parameter(s), got 1"),
        ("call void @__quantum__qis__h(double 0.5, %Qubit* %2)", "gate 'h' takes 0 parameter(s), got 1"),
    ],
    ids=["ccx-two-qubits", "cz-with-a-parameter", "h-with-a-parameter"],
)
@pytest.mark.parametrize("argv", [["extract"], ["simulate"], ["metrics", "--opt-level", "1"]], ids=lambda a: a[0])
def test_cli_standard_gate_of_the_wrong_arity_is_a_diagnostic(tmp_path, capsys, call, message, argv):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    qir = tmp_path / "circ.qir.ll"
    text = qir.read_text()
    qir.write_text(text.replace("call void @__quantum__qis__h(%Qubit* %2)", call, 1))
    line = text[: text.index("call void @__quantum__qis__h(")].count("\n") + 1
    assert main([argv[0], str(qir), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"{qir}: error: line {line}: {message}"


@pytest.mark.parametrize(
    "call, message",
    [
        ("%9 = call %Result* @__quantum__qis__h(%Qubit* %4)", "only the measurement @__quantum__qis__m defines"),
        ("%9 = call %Result* @__quantum__qis__m(double 0.5, %Qubit* %4)", "@__quantum__qis__m takes one qubit operand"),
        ("call void @__quantum__qis__m(%Qubit* %4)", "only the measurement @__quantum__qis__m defines"),
        ("call void @__quantum__qis__reset(%Qubit* %2, %Qubit* %4)", "@__quantum__qis__reset takes one qubit operand"),
        ("%9 = call i8* @__quantum__qis__m(%Qubit* %4)", "@__quantum__qis__m must return %Result*, not 'i8*'"),
        ("call %Result* @__quantum__qis__h(%Qubit* %4)", "@__quantum__qis__h must return void, not '%Result*'"),
        ("tail call i8* @__quantum__qis__barrier(%Qubit* %4)", "@__quantum__qis__barrier must return void, not 'i8*'"),
    ],
    ids=[
        "h-defining-a-value",
        "m-with-a-parameter",
        "m-defining-nothing",
        "reset-on-two-qubits",
        "m-returning-a-pointer",
        "h-returning-a-result",
        "barrier-returning-a-pointer",
    ],
)
@pytest.mark.parametrize("argv", [["extract"], ["simulate"], ["metrics", "--opt-level", "1"]], ids=lambda a: a[0])
def test_cli_measure_and_reset_outside_their_form_are_a_diagnostic(tmp_path, capsys, call, message, argv):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    qir = tmp_path / "circ.qir.ll"
    text = qir.read_text()
    cx = "call void @__quantum__qis__cx(%Qubit* %2, %Qubit* %4)"
    qir.write_text(text.replace(cx, call, 1))
    line = text[: text.index(cx)].count("\n") + 1
    assert main([argv[0], str(qir), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{qir}: error: line {line}: {message}")


MEASURE_M0 = "%5 = call %Result* @__quantum__qis__m(%Qubit* %2)"


@pytest.mark.parametrize(
    "after, line, name",
    [
        # the measurement of qubit 0, twice
        (MEASURE_M0, MEASURE_M0, "%5"),
        # qubit 1's element pointer taken again, for qubit 0, once qubit 1 is cast
        ("%4 = bitcast i8* %3 to %Qubit*", "%3 = call i8* @__quantum__rt__array_get_element_ptr(%Array* %0, i64 0)", "%3"),
    ],
    ids=["measurement-result", "element-pointer"],
)
@pytest.mark.parametrize("argv", [["extract"], ["simulate"], ["metrics", "--opt-level", "1"]], ids=lambda a: a[0])
def test_cli_ssa_value_bound_twice_is_a_diagnostic(tmp_path, capsys, after, line, name, argv):
    circ = tmp_path / "bell.qasm"
    circ.write_text(GHZ2 + "creg c[2];\nmeasure q -> c;\n")
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    qir = tmp_path / "bell.qir.ll"
    text = qir.read_text()
    qir.write_text(text.replace(f"  {after}\n", f"  {after}\n  {line}\n", 1))
    number = text[: text.index(after)].count("\n") + 2
    assert main([argv[0], str(qir), *argv[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"{qir}: error: line {number}: SSA value {name} bound twice"


def test_cli_simulate_qasm_and_qir_agree(tmp_path, capsys):
    cases = [
        (GHZ2, 4),
        # an unused qubit still widens the state: the QIR allocates all three
        ('OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n', 8),
        ("OPENQASM 2.0;\n", 1),
    ]
    for source, amplitudes in cases:
        circ = tmp_path / "circ.qasm"
        circ.write_text(source)
        assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["simulate", str(circ)]) == 0
        from_qasm = json.loads(capsys.readouterr().out)
        assert main(["simulate", str(tmp_path / "circ.qir.ll")]) == 0
        from_qir = json.loads(capsys.readouterr().out)
        # amplitudes come out as [re, im] pairs
        assert len(from_qasm) == len(from_qir) == amplitudes
        for a, b in zip(from_qasm, from_qir):
            assert a == pytest.approx(b, abs=1e-12)
    assert from_qasm == from_qir == [[1.0, 0.0]]


def test_cli_simulate_drops_trailing_measurements_of_qir(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["simulate", str(circ)]) == 0
    unmeasured = json.loads(capsys.readouterr().out)
    circ.write_text(GHZ2 + "creg c[2];\nmeasure q -> c;\n")
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    # the same rule holds for the built QIR and for the source itself
    for path in (tmp_path / "circ.qir.ll", circ):
        assert main(["simulate", str(path)]) == 0
        measured = json.loads(capsys.readouterr().out)
        assert len(measured) == len(unmeasured) == 4
        for a, b in zip(measured, unmeasured):
            assert a == pytest.approx(b, abs=1e-12)


def test_cli_simulate_of_qir_rejects_a_measurement_before_a_gate(tmp_path, capsys):
    circ = tmp_path / "mid.qasm"
    # the later gate is on another qubit than the one measured
    circ.write_text(GHZ2 + "creg c[2];\nmeasure q[0] -> c[0];\nh q[1];\nmeasure q[1] -> c[1];\n")
    assert main(["build", str(circ), "--build-dir", str(tmp_path), "--opt-level", "0"]) == 0
    capsys.readouterr()
    for path in (tmp_path / "mid.qir.ll", circ):
        assert main(["simulate", str(path)]) == 1
        assert capsys.readouterr().err.strip() == (
            f"{path}: error: the measurement of qubit 0 is followed by a gate;"
            " only measurements after the last gate can be dropped for simulation"
        )


@pytest.mark.parametrize("tail", ["", "measure q[1] -> c[1];\n"])
def test_cli_simulate_keeps_a_trailing_conditioned_measurement(tmp_path, capsys, tail):
    # only unconditioned measurements are dropped; a conditioned one is a branch
    circ = tmp_path / "cond.qasm"
    circ.write_text(GHZ2 + "creg c[2];\nif (c==0) measure q[0] -> c[0];\n" + tail)
    assert main(["simulate", str(circ)]) == 1
    assert capsys.readouterr().err.strip() == f"{circ}: error: conditional regions are not simulable in unitary mode"


def test_cli_metrics(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["metrics", str(circ), "--opt-level", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_gates"] == 2
    assert payload["two_qubit_gates"] == 1


def test_cli_metrics_of_qir_equals_the_built_metrics(tmp_path, capsys):
    for name in list_benchmarks():
        (tmp_path / f"{name}.qasm").write_text(benchmark_source(name))
        for level in "0123":
            argv = ["build", str(tmp_path / f"{name}.qasm"), "--build-dir", str(tmp_path), "--opt-level", level]
            assert main(argv) == 0
            capsys.readouterr()
            assert main(["metrics", str(tmp_path / f"{name}.qir.ll")]) == 0
            assert capsys.readouterr().out == (tmp_path / f"{name}.metrics.json").read_text(), (name, level)


def test_cli_simulate_reads_an_upper_case_extension_as_qasm(tmp_path, capsys):
    circ = tmp_path / "CIRC.QASM"
    circ.write_text(GHZ2)
    assert main(["simulate", str(circ)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 4


PIPELINE_LAYERS = {
    "parse_qasm",
    "lower_ast_to_ir",
    "optimize",
    "route_program",
    "load_coupling_graph",
    "emit_qir",
    "verify_qir_text",
}


def test_cli_chains_no_pipeline_of_its_own():
    # Every subcommand reads and compiles through qcc.driver, so the CLI needs no layer.
    with open(cli.__file__) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.name.rpartition(".")[2] for alias in node.names}
    assert imported & PIPELINE_LAYERS == set()


def test_cli_missing_input_exit_1(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "ghost.qasm")])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize(
    "argv, prefix",
    [
        (["build", "{bin}.qasm"], "{bin}.qasm: error: file is not UTF-8 text: invalid start byte at byte 0"),
        (["metrics", "{bin}.ll"], "{bin}.ll: error: file is not UTF-8 text: invalid start byte at byte 0"),
        (["extract", "{bin}.ll"], "{bin}.ll: error: file is not UTF-8 text: invalid start byte at byte 0"),
        (["simulate", "{bin}.ll"], "{bin}.ll: error: file is not UTF-8 text: invalid start byte at byte 0"),
        (["build", "{ghz}", "--coupling", "{bin}.json"], "error: cannot read coupling graph {bin}.json: "),
        (
            ["build", "{ghz}", "--toolchain-config", "{bin}.json", "--dry-run"],
            "error: cannot read toolchain config {bin}.json: ",
        ),
    ],
    ids=["build", "metrics", "extract", "simulate", "coupling", "toolchain-config"],
)
def test_cli_input_that_is_not_utf8_is_a_diagnostic(tmp_path, capsys, argv, prefix):
    names = {"bin": str(tmp_path / "bin"), "ghz": str(tmp_path / "ghz.qasm")}
    (tmp_path / "ghz.qasm").write_text(GHZ2)
    for ext in (".qasm", ".ll", ".json"):
        (tmp_path / ("bin" + ext)).write_bytes(b"\xff\xfe")
    args = [arg.format(**names) for arg in argv] + ["--build-dir", str(tmp_path)] * (argv[0] == "build")
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith(prefix.format(**names))
    assert "Traceback" not in err


def test_cli_extract_of_a_qasm_source_is_a_diagnostic(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["extract", str(circ)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"{circ}: error: expected a QIR module, got an OpenQASM source"


OVERFLOW_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'
OVERFLOW = OVERFLOW_HEADER + "u3(0,1.7e308,1.7e308) q[0];\nrz(0.5) q[0];\n"


@pytest.mark.parametrize(
    "argv, source, gate",
    [
        (["build", "{f}"], OVERFLOW, "u3"),
        (["build", "{f}", "--native-gates", "rz,ry,u3,cx"], OVERFLOW, "u3"),  # u3 is native here and fused with rz
        (["build", "{f}", "--native-gates", "rz,ry,u3,cx"], OVERFLOW_HEADER + "u3(0,1.7e308,1.7e308) q[0];\n", "u3"),
        (["build", "{f}", "--native-gates", "rz,ry,cu3,cx"], OVERFLOW_HEADER + "cu3(0,1.7e308,1.7e308) q[0],q[1];\n", "cu3"),
        (["build", "{f}"], OVERFLOW_HEADER + "cu3(0,1.7e308,1.7e308) q[0],q[1];\n", "cu3"),
        (["metrics", "{f}", "--opt-level", "1"], OVERFLOW, "u3"),
        (["simulate", "{f}"], OVERFLOW, "u3"),
    ],
    ids=["build", "build-fused", "build-native-u3", "build-native-cu3", "build-default-cu3", "metrics", "simulate"],
)
def test_cli_gate_whose_phase_overflows_is_a_diagnostic(tmp_path, capsys, argv, source, gate):
    # Each parameter is a finite double, but phi + lambda is not.
    circ = tmp_path / "ov.qasm"
    circ.write_text(source)
    args = [arg.format(f=circ) for arg in argv] + ["--build-dir", str(tmp_path)] * (argv[0] == "build")
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"{circ}: error: gate '{gate}' has no finite matrix: phi + lambda overflows"
    assert not (tmp_path / "ov.qir.ll").exists()


def test_cli_device_with_too_few_edges_is_a_diagnostic(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    device = tmp_path / "sparse.json"
    device.write_text(json.dumps({"n_qubits": 1_000_000, "edges": [[0, 1]]}))
    start = time.process_time()
    assert main(["build", str(circ), "--build-dir", str(tmp_path), "--coupling", str(device)]) == 1
    assert time.process_time() - start < 0.5
    assert capsys.readouterr().err.strip() == "error: disconnected coupling graph"
