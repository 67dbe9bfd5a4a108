"""Differential tests of the QASM tokenizer against a reference tokenizer.

The parser scans a source with one regex match per token and keeps each
token as a plain (type, text, end offset) tuple, finding a line and column
only when a node or a diagnostic asks.  ``reference_tokenize`` below is the
straightforward tokenizer it replaced: one match per token, whitespace and
comment alike, counting lines as it goes.  The two must give the same
(type, text, line, column) stream, and the same diagnostic, on every input.
"""

import re
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcc.benchmarks import benchmark_source, list_benchmarks
from qcc.errors import QasmSyntaxError, SourceSpan
from qcc.qasm.parser import _Parser
from qcc.qasm.qelib1 import QELIB1_SOURCE

from test_frontend_properties import HEADER, STREAM

_REFERENCE_RE = re.compile(
    r"""
      (?P<ws>[ \t\r]+)
    | (?P<comment>//[^\n]*)
    | (?P<nl>\n)
    | (?P<real>(\d+\.\d*|\.\d+)([eE][+-]?\d+)?|\d+[eE][+-]?\d+)
    | (?P<int>\d+)
    | (?P<id>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"[^"\n]*")
    | (?P<sym>->|==|[;,()\[\]{}+\-*/^])
    | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)


class Token(NamedTuple):
    type: str
    text: str
    span: SourceSpan


def reference_tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset just after the last newline
    for m in _REFERENCE_RE.finditer(source):
        kind = m.lastgroup
        if kind == "nl":
            line += 1
            line_start = m.end()
        elif kind not in ("ws", "comment"):
            text = m.group()
            span = SourceSpan(line, m.start() - line_start + 1)
            if kind == "bad":
                raise QasmSyntaxError(f"unexpected character {text!r}", span)
            tokens.append(Token(text if kind == "sym" else kind, text, span))
    tokens.append(Token("eof", "", SourceSpan(line, len(source) - line_start + 1)))
    return tokens


def scan(tokenize, source: str):
    """The (type, text, line, column) stream, or the (message, span) of the diagnostic."""
    try:
        return tokenize(source)
    except QasmSyntaxError as err:
        return err.message, err.span


def reference(source: str):
    return scan(lambda s: [(t.type, t.text, *t.span) for t in reference_tokenize(s)], source)


def tokens(source: str):
    def stream(s):
        parser = _Parser(s, "<input>")
        return [(t[0], t[1], *parser.span(t)) for t in parser.tokens]

    return scan(stream, source)


@pytest.mark.parametrize("name", list_benchmarks())
def test_bundled_benchmarks_tokenize_as_the_reference_does(name):
    source = benchmark_source(name)
    assert tokens(source) == reference(source)
    assert len(tokens(source)) > 20


def test_qelib1_tokenizes_as_the_reference_does():
    assert tokens(QELIB1_SOURCE) == reference(QELIB1_SOURCE)


@pytest.mark.parametrize(
    "source",
    [
        "",
        "\n\n",
        "OPENQASM 2.0;\r\nqreg q[2];\r\nh q[0];\r\n",
        "OPENQASM 2.0;\nh q[0]; // the end",
        "// only a comment",
        "OPENQASM 2.0;\n// a comment\n# h q[0];\n",
        "OPENQASM 2.0;\nh q[0];// note\n@",
        "OPENQASM 2.0;\nqreg q[٣];\n",
        "OPENQASM 2.0;\ninclude \"qelib1.inc\n;",
        "a.b 1. .5 1e3 1.5e-3 2e 3.e+4 ->== - > = /",
        "\tx\t\ty\r\n  z",
        "h q[0];\né",
    ],
)
def test_hand_cases_tokenize_as_the_reference_does(source):
    assert tokens(source) == reference(source)


def test_a_bad_character_is_reported_before_any_token_after_it():
    source = "OPENQASM 2.0;\nqreg q[2];   // ok\n  h q[0]; $ h q[9];\n"
    assert tokens(source) == reference(source) == ("unexpected character '$'", (3, 11))


@settings(max_examples=300)
@given(STREAM)
def test_fuzzed_sources_tokenize_as_the_reference_does(stream):
    with_header, statements, raw = stream
    source = (HEADER if with_header else "") + "\n".join(statements) + " ".join(raw)
    assert tokens(source) == reference(source)


@settings(max_examples=300)
@given(st.text(alphabet=st.sampled_from(list("q[0];/ \t\r\n\"x.5e-+>=٣@")), max_size=40))
def test_random_characters_tokenize_as_the_reference_does(source):
    assert tokens(source) == reference(source)
