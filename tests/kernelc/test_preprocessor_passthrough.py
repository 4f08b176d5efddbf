"""Pass-through preprocessing: a line in which no macro name occurs is
copied as it is instead of being rebuilt token by token.  On Hypothesis
texts — with and without ``#define``, macros defined mid-file and
``#undef``-ed again, macro names inside strings and comments,
function-like macros not called, backslash-continued lines — the output
(or the error) is the one of expanding every line."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernelc.preprocessor import Preprocessor, PreprocessorError


class ExpandEveryLine(Preprocessor):
    """The preprocessor as it was: every active line is expanded."""

    def _expand_line(self, line):
        return self._expand(line)


def outcome(preprocessor_class, text, defines):
    try:
        return preprocessor_class(defines).process(text)
    except PreprocessorError as exc:
        return "error", str(exc)


_NAMES = ["N", "F", "SQR", "EMPTY"]
_DIRECTIVES = st.sampled_from([
    "#define N 16", "#define N (N + 1)", "#define F(a) ((a) * 2)", "#define SQR(x) ((x) * (x))",
    "#define EMPTY", "#define F2 F", "#undef N", "#undef F", "#undef SQR", "#undef EMPTY",
    "#ifdef N", "#ifndef F", "#else", "#endif", "#pragma unroll",
])
_WORDS = st.sampled_from(_NAMES + ["NN", "N2", "_N", "x", "y1", "int", "float", "F2"])
_PIECES = st.one_of(
    _WORDS,
    st.sampled_from([" ", " ", "(", ")", ",", "+", ";", "=", "1", "0x1F", "1.5f", "\t"]),
    st.sampled_from(['"N"', '"F(1)"', "'N'", "// N F(", "/* SQR(2) */", "/* N", '"N']),
    st.sampled_from(["F(1)", "F (x)", "SQR(N)", "F", "F;", "SQR", "F((1, 2))", "N(1)"]),
)
# Pieces mostly apart, sometimes glued into longer words (``NN``, ``FN``).
_CODE = st.lists(st.tuples(_PIECES, st.sampled_from([" ", " ", ";", ""])), max_size=8).map(
    lambda pieces: "".join(piece + gap for piece, gap in pieces))
_LINE = st.one_of(_CODE, _CODE.map(lambda line: line + "\\"), _DIRECTIVES)
_TEXTS = st.lists(_LINE, max_size=14).map("\n".join)


@settings(max_examples=400, deadline=None)
@given(_TEXTS, st.sampled_from([None, {}, {"N": "3"}, {"SQR(v)": "v*v"}]))
def test_pass_through_equals_expanding_every_line(text, defines):
    assert outcome(Preprocessor, text, defines) == outcome(ExpandEveryLine, text, defines)


@settings(max_examples=100, deadline=None)
@given(st.lists(_CODE, max_size=10).map("\n".join))
def test_text_without_directives_passes_through_unchanged(text):
    # No macro defined: every line is copied (continued lines aside).
    expected = ExpandEveryLine().process(text)
    assert Preprocessor().process(text) == expected
    if "\\" not in text:
        assert expected == text


def test_corner_cases():
    for text in [
        "#define N 16\nint x = N;\n#undef N\nint y = N;",
        '#define N 16\nchar* s = "N"; // N\n/* N */ int N2;',
        "#define F(a) a\nint F;\nint y = F (2);\nint z = F\n(3);",
        "int a = 1 + \\\n 2;\n#define N 4\nint b = N \\\n + N;",
        "#define EMPTY\nint EMPTY x EMPTY;",
    ]:
        assert Preprocessor().process(text) == ExpandEveryLine().process(text), text
