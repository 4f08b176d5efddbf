"""``a op= b`` is ``a = a op b``: the type checker records the type that
operation computes in, and every engine evaluates the binary rule in it
and then the assignment conversion — no engine has a compound rule of
its own.  Each probe below was wrong on at least one engine while they
did (``tests/kernelc/golden/codegen_parity.json`` pins the generated
code the rule moved).
"""

import numpy as np
import pytest

from .helpers import run_kernel

ENGINES = ["interp", "compiler", "vector"]

# (declaration, compound statement, its plain-assignment twin, C value of `x`)
PROBES = [
    pytest.param("uint x = 10u;", "x %= -3;", "x = x % -3;", 10, id="uint-mod-negative-int"),
    pytest.param("uint x = 10u;", "x /= -3;", "x = x / -3;", 0, id="uint-div-negative-int"),
    pytest.param("char x = 100;", "x += 100;", "x = x + 100;", -56, id="char-add-wraps"),
    pytest.param("short x = 30000;", "x *= 3;", "x = x * 3;", 24464, id="short-mul-wraps"),
    pytest.param("int x = 5;", "x += 3000000000u;", "x = x + 3000000000u;", -1294967291,
                 id="int-add-uint-wraps"),
    pytest.param("char x = 64;", "x >>= 9;", "x = x >> 9;", 0, id="char-shift-by-promoted-width"),
]


def observe(declaration, statement, engine, lanes=4):
    """Run ``declaration statement`` per work-item (the variable made
    lane-varying through ``in``, which holds zeros); returns ``x`` and
    whether ``x > 150`` afterwards."""
    source = f"""
    __kernel void k(__global long* out, __global int* big, __global const int* in) {{
        int gid = get_global_id(0);
        {declaration}
        x = x + in[gid];
        {statement}
        out[gid] = x;
        big[gid] = x > 150;
    }}
    """
    arrays = {"out": np.zeros(lanes, np.int64), "big": np.zeros(lanes, np.int32),
              "in": np.zeros(lanes, np.int32)}
    result, _ = run_kernel(source, "k", arrays, ["out", "big", "in"], lanes, backend=engine)
    assert len(set(result["out"])) == 1 and len(set(result["big"])) == 1
    return int(result["out"][0]), int(result["big"][0])


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("declaration, compound, plain, expected", PROBES)
def test_compound_equals_plain_assignment_and_c(declaration, compound, plain, expected, engine):
    value, big = observe(declaration, compound, engine)
    assert (value, big) == observe(declaration, plain, engine)
    assert (value, big) == (expected, int(expected > 150))


@pytest.mark.parametrize("engine", ENGINES)
def test_pointer_and_float_into_int_keep_their_results(engine):
    source = """
    __kernel void k(__global int* out, __global const int* in) {
        int gid = get_global_id(0);
        __global const int* p = in + gid;
        p += 2;
        p -= 1;
        int i = in[gid];
        i += 1.5f;
        i -= 0.75f;
        i *= 2.5f;
        out[gid] = *p * 1000 + i;
        out[gid] /= 1.0f;
    }
    """
    data = np.arange(8, dtype=np.int32)
    arrays = {"out": np.zeros(4, np.int32), "in": data}
    result, _ = run_kernel(source, "k", arrays, ["out", "in"], 4, backend=engine)
    expected = [int(data[g + 1]) * 1000 + int(int(int(data[g] + 1.5) - 0.75) * 2.5)
                for g in range(4)]
    assert result["out"].tolist() == expected
