"""The lexer against its oracle: the one-pattern scanner of
``repro.kernelc.lexer`` and the character-by-character one of
``lexer_oracle.py`` must produce the same tokens — kind, text, span,
value (and its type) and suffix — and the same diagnostics, message and
span, on every input: every kernel source the corpus builds (raw and
preprocessed), every shipped kernel string, the example scripts and the
baseline reference sources as whole files, a list of lexical corner
cases, and a Hypothesis token soup.
"""

import glob
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelc.diagnostics import DiagnosticSink
from repro.kernelc.frontend import preprocess_source
from repro.kernelc.lexer import Lexer
from repro.kernelc.source import SourceFile
from repro.kernelc.tokens import KEYWORDS, PUNCTUATORS

from tests.analysis import workloads

from . import lexer_oracle

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def scan(lexer_class, text):
    """``(tokens, diagnostics)`` of ``lexer_class`` over ``text``, as
    plain tuples."""
    source = SourceFile(text)
    sink = DiagnosticSink(source)
    tokens = lexer_class(source, sink).tokenize()
    return ([(t.kind, t.text, t.span, t.value, type(t.value), t.suffix) for t in tokens],
            [(d.severity, d.message, d.span) for d in sink.diagnostics])


def assert_same(text):
    assert scan(Lexer, text) == scan(lexer_oracle.Lexer, text), repr(text)


CORNER_CASES = [
    "a /* never ends", "/*/ x", "/**/x/***/", "@", "$", "a @ b $ c", "`#\\",
    "''", "'", "'ab'", "'\\'", "'\\", "'\\x'", "'\\x4142'", "'\\q'", "'\n'", "'\\0'",
    '"a\\tb\\x41\\q"', '"abc', '"a\\', '"a\\"', '"x\\\ny"', '"a\nb"', '""',
    "0x", "0xu", "0X1FuL", "1..2", "1.", "1.e5", "1.f", "1e", "1e+", "1e+5", "1E-2L",
    ".5f", ".5.5", "019", "0755", "00", "10ul", "10ULL", "3.25F",
    "é = ñ2 + ßeta_Ω;", "½x", "a½", "٣ + 1", "x٣",
    "a<<=b>>=c...d->e", "a+++b", "a.x", "x\n  /* a\nb */ y // c\n z", "\t\r\f\v",
    "true false truth", "__kernel void k(__global float* a) { a[0] = 1.5f; }",
]


@pytest.mark.parametrize("text", CORNER_CASES)
def test_corner_case(text):
    assert_same(text)


@pytest.fixture(scope="module")
def built_sources():
    return workloads.built_programs()


def test_every_built_program_raw_and_preprocessed(built_sources):
    assert built_sources
    for source, defines in built_sources:
        assert_same(source)
        assert_same(preprocess_source(source, "<kernel>", dict(defines)))


def test_every_shipped_kernel_string():
    for _label, source in workloads.kernel_strings():
        assert_same(source)
        assert_same(preprocess_source(source))


@pytest.mark.parametrize("pattern", ["examples/*.py", "src/repro/baselines/reference_sources/*"])
def test_whole_files(pattern):
    paths = sorted(glob.glob(os.path.join(REPO, pattern)))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            assert_same(handle.read())


# -- token soup ------------------------------------------------------------------

# The oracle crashes on a digit that is no decimal digit (``int('²')``),
# so those stay out of the soup; every other character may appear.
_CHARACTERS = st.characters(blacklist_categories=("Cs",)).filter(
    lambda ch: ch.isdecimal() or not ch.isdigit())

_FRAGMENTS = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(PUNCTUATORS),
    st.sampled_from(["x", "_y1", "float4", "é", "Ωmega", "ñ_2", "½", "a½", "٣"]),
    st.sampled_from(["0x", "0x1f", "0XABCul", "019", "0755", "10ul", "1..2", "1e", "1e+",
                     "2.5e-3", ".5f", "1.", "7L", "3.0F", "0"]),
    st.sampled_from(["'a'", "''", "'", "'\\n'", "'\\x41'", "'\\x'", "'\\q'", "'\\", "'ab'"]),
    st.sampled_from(['"s"', '"a\\tb"', '"\\x4"', '"\\q"', '"open', '"e\\', '"n\\\nl"']),
    st.sampled_from(["//c", "/*c*/", "/* a\nb */", "/*", "*/"]),
    st.sampled_from([" ", "\n", "\t", "\r\n", "\f", "\v", "", "", "", "@", "$", "#", "\\"]),
    st.integers(0, 2 ** 70).map(str),
    _CHARACTERS,
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_FRAGMENTS, max_size=40).map("".join))
def test_token_soup(text):
    assert_same(text)


@settings(max_examples=200, deadline=None)
@given(st.text(_CHARACTERS, max_size=60))
def test_character_soup(text):
    assert_same(text)
