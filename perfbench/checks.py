"""Output checks that decide whether a compiled circuit counts as correct.

Each checker returns a list of failure messages; an empty list means the
output passed.  The un-routing check is written against the routing result's
data only (initial layout, routed gate list, inserted-swap flags) and shares
no code with ``qcc.routing``, so a router defect cannot hide behind itself.
"""

from __future__ import annotations

from qcc.ir import ConditionalRegion, FusedUnitary, Inst
from qcc.qir import extract_circuit, find_quantum_kernels
from qcc.simulator import MAX_QUBITS, equiv_up_to_global_phase, permute_qubits, simulate

from spans import plain_call

PARAM_TOL = 1e-12


def _gate_records(program) -> list[tuple]:
    """(name, params, qubit ids, result, condition) of every gate op, in program order."""
    out = []
    for op in program.ops:
        if isinstance(op, ConditionalRegion):
            inst, condition = op.body, (op.creg_id, op.value)
        elif isinstance(op, Inst):
            inst, condition = op, None
        else:
            continue
        out.append((inst.name, inst.params, tuple(q.logical_id for q in inst.qubits), inst.result, condition))
    return out


def _logical_sequences(program) -> dict[int, list[tuple]]:
    """Per logical qubit, the gate records touching it in program order."""
    seqs: dict[int, list[tuple]] = {}
    for record in _gate_records(program):
        for q in record[2]:
            seqs.setdefault(q, []).append(record)
    return seqs


def unroute_failures(optimized, routed_program, routing, edges) -> list[str]:
    """Map the routed program back to logical qubits and compare with its input.

    Walks ``routing.routed_gates`` from the initial layout, following each
    inserted swap; every other gate is mapped back to logical qubits.  Each
    logical qubit's gate sequence (name, params, operands, result, condition)
    must equal the optimized input's, every two-qubit gate must sit on a
    coupling edge, the walk must end in the reported final layout, and the
    emitted routed program must spell out exactly the routed gate list
    (an inserted swap may appear as three cx).
    """
    failures: list[str] = []
    edge_set = {frozenset(e) for e in edges}
    phys_to_log: dict[int, int] = {p: l for l, p in enumerate(routing.initial_layout.log_to_phys)}
    seqs: dict[int, list[tuple]] = {}
    expected_ops: list[tuple] = []

    for position, gate in enumerate(routing.routed_gates):
        if len(gate.qubits) == 2 and frozenset(gate.qubits) not in edge_set:
            failures.append(f"routed gate {position} ({gate.name} on {gate.qubits}) is off the coupling graph")
        if gate.inserted:
            if gate.name != "swap" or len(gate.qubits) != 2:
                failures.append(f"routed gate {position}: inserted gate is {gate.name}, not a swap")
                continue
            u, v = gate.qubits
            lu, lv = phys_to_log.pop(u, None), phys_to_log.pop(v, None)
            if lu is not None:
                phys_to_log[v] = lu
            if lv is not None:
                phys_to_log[u] = lv
            expected_ops.append(("swap", (), (u, v), None, None))
            continue
        logical = tuple(phys_to_log.get(p) for p in gate.qubits)
        if None in logical:
            failures.append(f"routed gate {position} ({gate.name}) acts on an unmapped physical qubit")
            continue
        record = (gate.name, gate.params, logical, gate.result, gate.condition)
        for q in logical:
            seqs.setdefault(q, []).append(record)
        expected_ops.append((gate.name, gate.params, gate.qubits, gate.result, gate.condition))

    expected = _logical_sequences(optimized)
    for q in sorted(set(expected) | set(seqs)):
        if expected.get(q, []) != seqs.get(q, []):
            failures.append(f"logical qubit {q}: routed gate sequence differs from the optimized input")
    final = {l: p for p, l in phys_to_log.items()}
    reported = dict(enumerate(routing.final_layout.log_to_phys))
    if final != reported:
        failures.append("tracked final layout differs from the reported final layout")

    emitted = _gate_records(routed_program)
    if emitted != expected_ops and emitted != _expand_swaps(expected_ops):
        failures.append("emitted routed program does not match the routed gate list")
    return failures


def _expand_swaps(ops: list[tuple]) -> list[tuple]:
    out = []
    for op in ops:
        if op[0] == "swap" and op[3] is None:
            u, v = op[2]
            out += [("cx", (), (u, v), None, None), ("cx", (), (v, u), None, None), ("cx", (), (u, v), None, None)]
        else:
            out.append(op)
    return out


def roundtrip_failures(program, qir_text: str, diagnostics: list[str], call=plain_call) -> list[str]:
    """QIR self-check is clean and extracting the kernel gives back the program's ops.

    Names, operands, params (within 1e-12) and the number of measurements must
    all match; barriers are not gates and are not compared.
    """
    failures = [f"verify_qir_text: {d}" for d in diagnostics]
    kernels = call("qir.extractor.find_quantum_kernels", find_quantum_kernels, qir_text)
    if len(kernels) != 1:
        return failures + [f"expected one quantum kernel, found {len(kernels)}"]
    extracted, _ = call("qir.extractor.extract_circuit", extract_circuit, kernels[0])
    insts = [op for op in program.ops if isinstance(op, Inst)]
    if any(isinstance(op, ConditionalRegion) for op in program.ops):
        failures.append("program has conditional regions, which are not extractable")
    if len(extracted) != len(insts):
        return failures + [f"extracted {len(extracted)} gates, program has {len(insts)}"]
    for position, (got, inst) in enumerate(zip(extracted, insts)):
        name_ok = got.name == inst.name or (got.name == "m" and inst.name == "measure")
        operands_ok = got.operands == tuple(q.logical_id for q in inst.qubits)
        params_ok = len(got.params) == len(inst.params) and all(
            abs(a - b) <= PARAM_TOL for a, b in zip(got.params, inst.params)
        )
        if not (name_ok and operands_ok and params_ok):
            failures.append(f"extracted gate {position} ({got.name} {got.operands}) differs from {inst.name}")
            break
    measured = sum(1 for g in extracted if g.kind == "measure")
    expected_measures = sum(1 for op in insts if op.name == "measure")
    if measured != expected_measures:
        failures.append(f"extracted {measured} measurements, program has {expected_measures}")
    return failures


def applied_gates(program) -> int:
    """Gate applications the simulator performs for this program."""
    return sum(1 for op in program.ops if isinstance(op, (Inst, FusedUnitary)))


def oracle_failures(source, optimized, routed, routing, call=plain_call) -> list[str]:
    """Statevector checks: source vs optimized, and source vs routed under the final layout."""
    failures = []
    reference = call("simulator.simulate", simulate, source)
    if not call("simulator.equiv_up_to_global_phase", equiv_up_to_global_phase,
                reference, call("simulator.simulate", simulate, optimized)):
        failures.append("optimized statevector differs from the source")
    if routed is not None:
        n_physical = routing.final_layout.n_physical
        wide = call("simulator.simulate", simulate, source, n_qubits=n_physical)
        perm = list(routing.final_layout.log_to_phys)
        perm += sorted(set(range(n_physical)) - set(perm))
        expected = call("simulator.permute_qubits", permute_qubits, wide, perm)
        if not call("simulator.equiv_up_to_global_phase", equiv_up_to_global_phase,
                    expected, call("simulator.simulate", simulate, routed)):
            failures.append("routed statevector differs from the source under the final layout")
    return failures


def oracle_applies(program, n_physical: int | None) -> bool:
    """The statevector oracle takes unitary programs of at most MAX_QUBITS qubits."""
    if max(program.n_qubits, n_physical or 0) > MAX_QUBITS:
        return False
    return not any(
        isinstance(op, ConditionalRegion)
        or (isinstance(op, Inst) and (op.result is not None or op.name in ("measure", "reset")))
        for op in program.ops
    )
