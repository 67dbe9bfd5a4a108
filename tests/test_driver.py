"""Build driver: input classification, toolchain config, plan execution, CLI."""

import json
import os
import shlex
import stat

import pytest

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
    plan2 = classify_inputs([a, b], build_dir=str(tmp_path), mpi={a})
    assert [t.kind for t in plan2.tasks] == ["mpi", "cxx"]


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


def test_load_toolchain_config_rejects_unknown_keys(tmp_path, monkeypatch):
    monkeypatch.delenv("QCC_TOOLCHAIN", raising=False)
    path = tmp_path / "tc.json"
    path.write_text(json.dumps({"weird_key": 1}))
    with pytest.raises(QccError, match="weird_key"):
        load_toolchain_config(str(path))


# ------------------------------------------------------------- compile_quantum


def test_compile_quantum_outputs(workspace):
    tmp_path, _, source, _ = workspace
    qasm = source("circ.qasm", GHZ2)
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "circ.o"))
    artifacts = compile_quantum(task, QuantumOptions())
    assert os.path.exists(artifacts.qir_path)
    assert artifacts.qir_path.endswith("circ.qir.ll")
    metrics = json.loads(open(artifacts.metrics_path).read())
    assert metrics["total_gates"] == 2
    assert metrics["depth"] == 2
    wrapper = open(artifacts.wrapper_path).read()
    assert 'extern "C" int run_circ(' in wrapper


def test_compile_quantum_emit_only_writes_no_wrapper(workspace):
    tmp_path, _, source, _ = workspace
    qasm = source("only.qasm", GHZ2)
    task = Task(path=qasm, kind="qasm", object_path=str(tmp_path / "only.o"))
    artifacts = compile_quantum(task, QuantumOptions(write_wrapper=False))
    assert artifacts.wrapper_path is None
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
    assert report.success
    assert [s.status for s in report.steps] == ["ok", "ok", "ok", "ok"]
    assert os.path.exists(report.artifact)
    assert os.path.exists(str(tmp_path / "circ.qir.ll"))
    summary = report.summary().splitlines()
    assert len(summary) == 5  # four steps plus the artifact line
    assert summary[-1].startswith("artifact: ")


def test_build_creates_missing_build_dir(workspace):
    # classical task first: nothing else would have created the directory
    tmp_path, _, source, config = workspace
    build_dir = tmp_path / "out" / "objs"
    paths = [source("main.cc", "int main(){}\n"), source("circ.qasm", GHZ2)]
    plan = classify_inputs(paths, output=str(tmp_path / "app"), build_dir=str(build_dir))
    report = execute_plan(plan, config, QuantumOptions(), log=lambda s: None)
    assert report.success
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
    report = execute_plan(plan, config, QuantumOptions(), dry_run=True, log=lines.append)
    assert report.success
    assert not sentinel.exists()
    assert not os.path.exists(str(tmp_path / "app"))
    assert len(lines) == 4
    assert any("spycc.sh" in line for line in lines)


def test_dry_run_emit_only_qasm(workspace, tmp_path):
    _, _, source, config = workspace
    plan = classify_inputs([source("c.qasm", GHZ2)], build_dir=str(tmp_path))
    lines = []
    report = execute_plan(plan, config, QuantumOptions(), dry_run=True, log=lines.append)
    assert report.success
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


def test_cli_build_diagnostic_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.qasm"
    bad.write_text("OPENQASM 2.0;\nqreg q[1];\nh q[0]\n")
    code = main(["build", str(bad), "--build-dir", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "bad.qasm:3:" in err and "error:" in err


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


def test_cli_simulate_qasm_and_qir_agree(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["build", str(circ), "--build-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["simulate", str(circ)]) == 0
    from_qasm = json.loads(capsys.readouterr().out)
    assert main(["simulate", str(tmp_path / "circ.qir.ll")]) == 0
    from_qir = json.loads(capsys.readouterr().out)
    # amplitudes come out as [re, im] pairs
    assert len(from_qasm) == len(from_qir) == 4
    for a, b in zip(from_qasm, from_qir):
        assert a == pytest.approx(b, abs=1e-12)


def test_cli_metrics(tmp_path, capsys):
    circ = tmp_path / "circ.qasm"
    circ.write_text(GHZ2)
    assert main(["metrics", str(circ), "--opt-level", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total_gates"] == 2
    assert payload["two_qubit_gates"] == 1


def test_cli_missing_input_exit_1(tmp_path, capsys):
    code = main(["simulate", str(tmp_path / "ghost.qasm")])
    assert code == 1
    assert capsys.readouterr().err.strip() != ""
