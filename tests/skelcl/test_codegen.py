"""User-function parsing and kernel code-generation tests.

These pin down the source-to-source machinery: what the skeletons
generate must stay valid OpenCL-C (it all goes through the kernelc
front-end), contain the right structure, and be byte-stable so the
build cache works.
"""

import pytest

import repro.skelcl as skelcl
from repro.kernelc import compile_source
from repro.kernelc.ctypes_ import FLOAT, INT, UCHAR
from repro.skelcl.funcparse import (
    UserFunction,
    append_hidden_params,
    parse_user_function,
    pointer_param,
    rename_function,
    scalar_param,
    scalar_return,
)
from repro.skelcl.runtime import SkelCLError
from repro.skelcl.skeleton import round_up, scalar_literal


class TestParseUserFunction:
    def test_basic(self):
        fn = parse_user_function("float func(float x, float y) { return x + y; }")
        assert fn.name == "func"
        assert fn.arity == 2
        assert fn.return_type == FLOAT
        assert fn.param_names == ("x", "y")

    def test_custom_name(self):
        fn = parse_user_function("int triple(int v) { return 3 * v; }")
        assert fn.name == "triple"

    def test_last_function_is_customizing(self):
        source = """
        float helper(float x) { return x * x; }
        float main_func(float x) { return helper(x) + 1.0f; }
        """
        fn = parse_user_function(source)
        assert fn.name == "main_func"

    def test_preprocessor_in_user_source(self):
        fn = parse_user_function("#define K 3\nint f(int x) { return K * x; }")
        assert "3" in fn.source

    def test_rejects_kernel_functions(self):
        with pytest.raises(SkelCLError):
            parse_user_function("__kernel void f() { }")

    def test_rejects_garbage(self):
        with pytest.raises(SkelCLError):
            parse_user_function("not a function at all")

    def test_rejects_empty(self):
        with pytest.raises(SkelCLError):
            parse_user_function("// just a comment")

    def test_accessors(self):
        fn = parse_user_function("uchar f(const uchar* img) { return img[0]; }")
        assert pointer_param(fn, 0).pointee == UCHAR
        assert scalar_return(fn) == UCHAR
        with pytest.raises(SkelCLError):
            scalar_param(fn, 0)  # pointer, not scalar


class TestSignatureRewriting:
    def test_append_hidden_params(self):
        fn = parse_user_function("float f(float* m) { return get(m, 0); }")
        rewritten = append_hidden_params(fn, "int _stride")
        assert "float f(float* m, int _stride)" in rewritten.replace("  ", " ")

    def test_append_to_multiline_signature(self):
        fn = parse_user_function("""float f(float* m,
                float scale) { return scale; }""")
        rewritten = append_hidden_params(fn, "int _w")
        program = compile_source(rewritten.replace("get", "fabs"))  # must stay parseable
        assert len(program.function("f").params) == 3

    def test_rename_function_word_boundaries(self):
        source = "float fn(float fnx) { return fnx; } float g(float x) { return fn(x); }"
        renamed = rename_function(source, "fn", "SCL_F")
        assert "SCL_F(" in renamed
        assert "fnx" in renamed  # not mangled
        assert " fn(" not in renamed

    def test_renamed_renames_every_function_the_source_defines(self):
        fn = parse_user_function(
            "float sq(float v) { return v * v; } float f(float x) { return sq(x) + 1.0f; }")
        assert fn.function_names == ("sq", "f")
        assert fn.renamed("__m0") == (
            "float sq__m0(float v) { return v * v; } "
            "float f__m0(float x) { return sq__m0(x) + 1.0f; }", "f__m0")
        source, name = fn.renamed("__zip", "SCL_ZIP_F")
        assert name == "SCL_ZIP_F" and "sq__zip(x)" in source and "SCL_ZIP_F(float x)" in source


class TestHelpers:
    def test_round_up(self):
        assert round_up(0, 256) == 0
        assert round_up(1, 256) == 256
        assert round_up(256, 256) == 256
        assert round_up(257, 256) == 512
        assert round_up(5, 0) == 5

    def test_scalar_literal(self):
        assert scalar_literal(1.5, FLOAT) == "1.5f"
        assert scalar_literal(0, INT) == "0"
        assert scalar_literal(7, UCHAR) == "7"


class TestGeneratedSources:
    def _compiles(self, source, kernel_name):
        program = compile_source(source)
        assert any(k.name == kernel_name for k in program.kernels())
        return program

    def test_map_source_compiles(self, runtime_1gpu):
        neg = skelcl.Map("float func(float x) { return -x; }")
        self._compiles(neg.kernel_source(), "skelcl_map")

    def test_map_source_is_deterministic(self, runtime_1gpu):
        a = skelcl.Map("float func(float x) { return -x; }")
        b = skelcl.Map("float func(float x) { return -x; }")
        assert a.kernel_source() == b.kernel_source()

    def test_zip_source_compiles(self, runtime_1gpu):
        add = skelcl.Zip("float func(float x, float y) { return x + y; }")
        self._compiles(add.kernel_source(), "skelcl_zip")

    def test_reduce_source_has_local_tree(self, runtime_1gpu):
        total = skelcl.Reduce("float func(float x, float y) { return x + y; }")
        source = total.kernel_source()
        self._compiles(source, "skelcl_reduce")
        assert "__local" in source and "barrier" in source

    def test_scan_source_has_three_kernels(self, runtime_1gpu):
        prefix = skelcl.Scan("float func(float x, float y) { return x + y; }")
        program = compile_source(prefix.kernel_source())
        names = {k.name for k in program.kernels()}
        assert names == {"skelcl_scan_block", "skelcl_scan_add_blocks", "skelcl_scan_add_offset"}

    def test_mapoverlap_matrix_source_stages_tile(self, runtime_1gpu):
        stencil = skelcl.MapOverlap(
            "float func(float* m) { return get(m, 1, -1); }", 1, skelcl.SCL_NEUTRAL, 0.0
        )
        source = stencil.matrix_source()
        self._compiles(source, "skelcl_mapoverlap_m")
        assert "__local" in source
        assert "#define get" in source

    def test_mapoverlap_unproven_keeps_checked_accessor(self, runtime_1gpu):
        stencil = skelcl.MapOverlap(
            "float func(float* m, ) { return get(m, 0, 0); }".replace(", )", ")"),
            1, skelcl.SCL_NEUTRAL, 0.0,
        )
        assert stencil.checks_elided  # constant offsets prove
        unproven = skelcl.MapOverlap(
            "float func(float* m) { int k = 0; while (k < 1) { ++k; } return get(m, k, 0); }",
            1, skelcl.SCL_NEUTRAL, 0.0,
        )
        assert not unproven.checks_elided
        assert "__scl_trap" in unproven.matrix_source()

    def test_mapoverlap_neutral_value_embedded(self, runtime_1gpu):
        stencil = skelcl.MapOverlap(
            "uchar func(const uchar* img) { return get(img, 0, 0); }",
            1, skelcl.SCL_NEUTRAL, 7,
        )
        assert "= 7;" in stencil.matrix_source().replace("SCL_V = 7", "= 7")

    def test_mapoverlap_nearest_has_clamping(self, runtime_1gpu):
        stencil = skelcl.MapOverlap(
            "uchar func(const uchar* img) { return get(img, 0, 0); }",
            1, skelcl.SCL_NEAREST,
        )
        source = stencil.matrix_source()
        assert "SCL_CX" in source and "SCL_CY" in source

    def test_allpairs_fused_renames_both_functions(self, runtime_1gpu):
        matmul = skelcl.AllPairs(
            skelcl.Reduce("float func(float x, float y) { return x + y; }"),
            skelcl.Zip("float func(float x, float y) { return x * y; }"),
        )
        source = matmul.kernel_source()
        assert "SCL_ZIP_F" in source and "SCL_RED_F" in source
        self._compiles(source, "skelcl_allpairs")

    def test_allpairs_operators_may_define_helpers_of_the_same_name(self, runtime_1gpu):
        import numpy as np

        plain = skelcl.AllPairs(
            skelcl.Reduce("float func(float x, float y) { return x + y; }"),
            skelcl.Zip("float func(float x, float y) { return x * y; }"))
        # Operators without helpers generate what they always did.
        assert plain.kernel_source().startswith(
            "float SCL_ZIP_F(float x, float y) { return x * y; }\n\n"
            "float SCL_RED_F(float x, float y) { return x + y; }\n\n__kernel")
        distance = skelcl.AllPairs(
            skelcl.Reduce("float sq(float v) { return v + 0.0f; }"
                          " float r(float x, float y) { return sq(x) + y; }"),
            skelcl.Zip("float sq(float v) { return v * v; }"
                       " float z(float x, float y) { return sq(x - y); }"))
        self._compiles(distance.kernel_source(), "skelcl_allpairs")
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        b = np.ones((2, 4), np.float32)
        result = distance(skelcl.Matrix(data=a), skelcl.Matrix(data=b)).to_numpy()
        assert np.array_equal(result, ((a[:, None, :] - b[None]) ** 2).sum(-1))

    def test_build_cache_reused_across_skeleton_instances(self, runtime_1gpu):
        from repro import ocl

        ocl.clear_build_cache()
        import numpy as np

        for _ in range(3):
            neg = skelcl.Map("float func(float x) { return -x; }")
            neg(skelcl.Vector(data=np.zeros(8, np.float32)))
        runtime_1gpu.finish_all()  # raw build-cache state below: no SkelCL-level read
        assert ocl.build_cache_size() == 1
