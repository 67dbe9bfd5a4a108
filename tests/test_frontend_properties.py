"""Property tests: random OpenQASM input through parse and lower.

Token streams mix raw tokens with statement-shaped fragments, so that both
the parser's error paths and the lowering of well-formed statements see
hostile values: long digit runs and deep parentheses.  A second property
feeds random parameter expressions, which may overflow or leave the reals.
Every input must end in a program or a QccError diagnostic, never in any
other exception.  The searches are derandomized and bounded so the suite
stays deterministic and fast.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcc.errors import QccError
from qcc.qasm import lower_ast_to_ir, parse_qasm
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
STATEMENT = st.one_of(
    st.builds("qreg r[{}];\nh r;".format, DIGITS),
    st.builds("creg k[{}];".format, DIGITS),
    st.builds("rz({}) q[{}];".format, EXPR, INDEX),
    st.builds("u3({},{},{}) q[0];".format, EXPR, EXPR, EXPR),
    st.builds("cx q[{}],q[{}];".format, INDEX, INDEX),
    st.builds("if(c=={}) x q[{}];".format, DIGITS, INDEX),
    st.builds("measure q[{}] -> c[{}];".format, INDEX, INDEX),
    st.builds("gate g(theta) a {{ rz({} * theta) a; }}\ng({}) q[0];".format, EXPR, EXPR),
)
TOKEN = st.one_of(st.sampled_from(WORDS), DIGITS, PARENS)
# Mostly a valid header, then statements, then raw tokens that break the
# parser in a state the statements built up.
STREAM = st.tuples(
    st.sampled_from([True, True, True, False]),
    st.lists(STATEMENT, max_size=8),
    st.lists(TOKEN, max_size=12),
)


BOUNDED = settings(
    max_examples=300,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@BOUNDED
@given(STREAM)
def test_token_streams_end_in_a_program_or_a_diagnostic(stream):
    with_header, statements, tokens = stream
    source = (HEADER if with_header else "") + "\n".join(statements) + " ".join(tokens)
    try:
        lower_ast_to_ir(parse_qasm(source, filename="fuzz.qasm"))
    except QccError:
        pass


@BOUNDED
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
