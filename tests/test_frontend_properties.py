"""Property tests: random OpenQASM input through parse and lower.

Token streams mix raw tokens with statement-shaped fragments, so that both
the parser's error paths and the lowering of well-formed statements see
hostile values: long digit runs, deep parentheses and chains of gate macros
that double in size.  A second property feeds random parameter expressions,
which may overflow or leave the reals.  Every input must end in a program or
a QccError diagnostic, never in any other exception.  A third property
draws chains of gate definitions whose bodies call gates defined earlier,
later or not at all: the parser must reject every program that lowering
cannot expand.  The searches are derandomized and bounded so the suite
stays deterministic and fast.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from qcc.errors import QccError
from qcc.ir import Inst
from qcc.qasm import lower_ast_to_ir, parse_qasm
from qcc.qasm.qelib1 import gate_table
from qcc.qasm.parser import MAX_EXPR_DEPTH, MAX_INT_DIGITS

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[3];\ncreg c[2];\n'

WORDS = [
    "OPENQASM", "2.0", "include", '"qelib1.inc"', "qreg", "creg", "gate", "opaque",
    "measure", "reset", "barrier", "if", "U", "CX", "h", "x", "cx", "ccx", "rz", "u3",
    "q", "c", "a", "pi", "sin", "sqrt", "theta",
    ";", ",", "[", "]", "(", ")", "{", "}", "->", "==", "+", "-", "*", "/", "^",
    "0", "1", "0.5", "1e3", "1e999", ".5",
]

# Digit runs of every length from 1 to 5000 digits, the length drawn from a
# band around the i64 limit or from one far past it.  Any run may size a
# register that is then broadcast over; the parser's qubit cap keeps that
# lowering short.  Runs too long for i64 end the parse, so runs are kept to
# one draw in four.
RUN = st.one_of(st.integers(1, MAX_INT_DIGITS + 1), st.integers(MAX_INT_DIGITS, 5000)).flatmap(
    lambda n: st.builds("{}{}".format, st.integers(1, 9), st.text("0123456789", min_size=n - 1, max_size=n - 1))
)
DIGITS = st.integers(0, 3).flatmap(lambda draw: RUN if draw == 0 else st.integers(0, 99).map(str))
INDEX = st.one_of(st.integers(0, 2).map(str), DIGITS)
PARENS = st.integers(MAX_EXPR_DEPTH - 5, MAX_EXPR_DEPTH + 20).flatmap(
    lambda n: st.sampled_from(["(" * n, ")" * n, "(" * n + "1" + ")" * n, "-" * n])
)
EXPR = st.recursive(
    st.one_of(st.sampled_from(["0", "1", "2", "0.5", "(-2)", "pi", "1e3", "1e999"]), DIGITS),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map(lambda t: "({} {} {})".format(*t)),
        inner.map(lambda e: f"(-{e})"),
        inner.map(lambda e: f"({e})"),
        st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "ln", "sqrt"]), inner).map(
            lambda call: f"{call[0]}({call[1]})"
        ),
    ),
    max_leaves=8,
)


def doubling_macros(levels: int) -> str:
    """Gate d<k> calls d<k-1> twice; broadcasting d<levels> over q is 3 * 2**(levels+1) ops."""
    lines = ["gate d0 a { h a; h a; }"]
    lines += [f"gate d{k} a {{ d{k - 1} a; d{k - 1} a; }}" for k in range(1, levels + 1)]
    return "\n".join(lines) + f"\nd{levels} q;"


STATEMENT = st.one_of(
    st.builds("qreg r[{}];\nh r;".format, DIGITS),
    st.builds("creg k[{}];".format, DIGITS),
    st.builds("rz({}) q[{}];".format, EXPR, INDEX),
    st.builds("u3({},{},{}) q[0];".format, EXPR, EXPR, EXPR),
    st.builds("cx q[{}],q[{}];".format, INDEX, INDEX),
    st.builds("if(c=={}) x q[{}];".format, DIGITS, INDEX),
    st.builds("measure q[{}] -> c[{}];".format, INDEX, INDEX),
    st.builds("gate g(theta) a {{ rz({} * theta) a; }}\ng({}) q[0];".format, EXPR, EXPR),
    st.integers(0, 40).map(doubling_macros),
)
TOKEN = st.one_of(st.sampled_from(WORDS), DIGITS, PARENS)
# Mostly a valid header, then statements, then raw tokens that break the
# parser in a state the statements built up.
STREAM = st.tuples(
    st.sampled_from([True, True, True, False]),
    st.lists(STATEMENT, max_size=8),
    st.lists(TOKEN, max_size=12),
)


@settings(max_examples=300)
@given(STREAM)
def test_token_streams_end_in_a_program_or_a_diagnostic(stream):
    with_header, statements, tokens = stream
    source = (HEADER if with_header else "") + "\n".join(statements) + " ".join(tokens)
    try:
        lower_ast_to_ir(parse_qasm(source, filename="fuzz.qasm"))
    except QccError:
        pass


@settings(max_examples=300)
@given(EXPR, st.booleans())
def test_parameter_expressions_end_in_finite_angles_or_a_diagnostic(expr, in_gate_body):
    if in_gate_body:  # evaluated only when lowering expands the call
        source = HEADER + f"gate g(theta) a {{ rz({expr} * theta) a; }}\ng(1) q[0];\n"
    else:
        source = HEADER + f"rz({expr}) q[0];\n"
    try:
        program = lower_ast_to_ir(parse_qasm(source, filename="fuzz.qasm"))
    except QccError:
        return
    for op in program.ops:
        assert all(isinstance(p, float) and math.isfinite(p) for p in getattr(op, "params", ()))


QELIB1_NAMES = sorted(gate_table())


@st.composite
def gate_chains(draw):
    """Gates g0..g<n-1>, one name in five taken from qelib1, calling each other.

    Most body calls name a gate the parser knows at that point (an earlier
    gate, U, CX, or a qelib1 gate after the include) with its own counts.
    One call in eight is a mistake: the own gate, a later gate, a qelib1
    gate whatever the include, or random counts.  The include comes before
    any gate, between two of them, after all of them or not at all; then
    every gate is called once at top level with its own counts.
    """
    n = draw(st.integers(1, 5))
    names = [draw(st.sampled_from(QELIB1_NAMES)) if draw(st.integers(0, 4)) == 0 else f"g{k}" for k in range(n)]
    arities = [(draw(st.integers(0, 2)), draw(st.integers(1, 3))) for _ in range(n)]
    arity_of = {"U": (3, 1), "CX": (0, 2), **gate_table(), **dict(zip(names, arities))}
    include_at = draw(st.integers(0, n + 1))
    lines = ["OPENQASM 2.0;", "qreg q[3];"]
    for k, (name, (n_params, n_qubits)) in enumerate(zip(names, arities)):
        if k == include_at:
            lines.append('include "qelib1.inc";')
        formals = ["t0", "t1"][:n_params]
        qubits = "abc"[:n_qubits]
        known = names[:k] * 3 + ["U", "CX"] + (QELIB1_NAMES if include_at <= k else [])
        fitting = [g for g in known if arity_of[g][1] <= n_qubits]
        body = []
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.integers(0, 7)):
                callee = draw(st.sampled_from(fitting))
                want = arity_of[callee]
            else:
                callee = draw(st.sampled_from([name, *names[k + 1:], *QELIB1_NAMES, *known]))
                want = (draw(st.integers(0, 3)), draw(st.integers(1, 3)))
            params = draw(st.lists(st.sampled_from(["0.5", "pi", *formals]), min_size=want[0], max_size=want[0]))
            args = (draw(st.permutations(qubits)) * 3)[: want[1]]
            body.append(f"{callee}({','.join(params)}) {','.join(args)};" if params else f"{callee} {','.join(args)};")
        header = f"{name}({','.join(formals)})" if formals else name
        lines.append(f"gate {header} {','.join(qubits)} {{ {' '.join(body)} }}")
    if include_at == n:
        lines.append('include "qelib1.inc";')
    for name, (n_params, n_qubits) in zip(names, arities):
        params = f"({','.join(['0.25'] * n_params)})" if n_params else ""
        lines.append(f"{name}{params} {','.join(f'q[{i}]' for i in range(n_qubits))};")
    return "\n".join(lines) + "\n"


@settings(max_examples=300)
@given(gate_chains())
def test_a_parsed_gate_chain_always_lowers_to_primitives(source):
    try:
        program_ast = parse_qasm(source, filename="chain.qasm")
    except QccError:
        return
    program = lower_ast_to_ir(program_ast)  # no diagnostic is left for lowering
    # Every user gate is inlined, and other qelib1 names come only from the
    # include; u3 and cx are also the IR names of the U and CX builtins.
    user_gates = {g.name for g in program_ast.gate_defs}
    allowed = (set(QELIB1_NAMES) if program_ast.includes else set()) - user_gates | {"u3", "cx"}
    for op in program.ops:
        if isinstance(op, Inst):
            assert op.name in allowed
