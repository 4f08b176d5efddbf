"""Tests for the ``python -m repro.kernelc`` command-line driver."""

import io
import sys

import pytest

from repro.kernelc.__main__ import main

VALID = """
__kernel void add_one(__global int* data, int n) {
    int gid = get_global_id(0);
    if (gid < n) data[gid] += 1;
}
"""


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.cl"
    path.write_text(VALID)
    return str(path)


class TestCli:
    def test_reports_kernels(self, kernel_file, capsys):
        assert main([kernel_file]) == 0
        out = capsys.readouterr().out
        assert "add_one" in out and "OK" in out

    def test_compile_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cl"
        bad.write_text("__kernel void k() { undeclared(); }")
        assert main([str(bad)]) == 1
        assert "undeclared" in capsys.readouterr().err

    def test_pretty_print_roundtrips(self, kernel_file, capsys):
        assert main([kernel_file, "--print"]) == 0
        printed = capsys.readouterr().out
        from repro.kernelc import compile_source

        assert [k.name for k in compile_source(printed).kernels()] == ["add_one"]

    def test_ast_dump(self, kernel_file, capsys):
        assert main([kernel_file, "--ast"]) == 0
        out = capsys.readouterr().out
        assert "FunctionDef" in out and "BinaryOp" in out

    def test_python_output(self, kernel_file, capsys):
        assert main([kernel_file, "--python"]) == 0
        out = capsys.readouterr().out
        # The lockstep source is all there is: no per-item module.
        assert out.startswith("# " + kernel_file + ": kernel add_one: lockstep source\n")
        assert "def _fn_add_one(R, ctx, m, v_data, v_n):" in out
        assert ".scatter(" in out and "(C, ctx" not in out

    def test_python_output_of_a_pointer_cast(self, tmp_path, capsys):
        path = tmp_path / "cast.cl"
        path.write_text("__kernel void v(__global float* o) "
                        "{ __global int* p = (__global int*)o; p[get_global_id(0)] = 0; }")
        assert main([str(path), "--python"]) == 0
        out = capsys.readouterr().out
        assert "kernel v: lockstep source" in out and ".retyped(_K[" in out

    def test_python_reports_a_kernel_nested_too_deeply(self, tmp_path, capsys):
        loops = "".join(f"for (int i{d} = 0; i{d} < 2; ++i{d}) " for d in range(21))
        path = tmp_path / "deep.cl"
        path.write_text(f"__kernel void deep(__global int* o) {{ {loops}o[0] += 1; }}")
        assert main([str(path), "--python"]) == 1
        captured = capsys.readouterr()
        assert "kernel 'deep': control flow nested too deeply" in captured.err
        assert "lockstep source" not in captured.out

    def test_python_combines_with_lint_on_a_module(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text('K = """\n' + VALID + '"""\n')
        assert main([str(module), "--access", "--lint", "--python"]) == 0
        out = capsys.readouterr().out
        assert "1 kernel string(s), clean" in out
        assert "kernel add_one: lockstep source" in out

    def test_defines(self, tmp_path, capsys):
        path = tmp_path / "k.cl"
        path.write_text("#ifdef FAST\n__kernel void fast(__global int* o) { o[0] = 1; }\n#endif\n"
                        "__kernel void base(__global int* o) { o[0] = 0; }")
        assert main([str(path), "-D", "FAST"]) == 0
        assert "fast" in capsys.readouterr().out

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(VALID))
        assert main(["-"]) == 0
        assert "add_one" in capsys.readouterr().out

    def test_barrier_flag_reported(self, tmp_path, capsys):
        path = tmp_path / "b.cl"
        path.write_text("""__kernel void k(__global int* o) {
            __local int t[4];
            t[get_local_id(0)] = 1;
            barrier(CLK_LOCAL_MEM_FENCE);
            o[0] = t[0];
        }""")
        assert main([str(path)]) == 0
        assert "uses barriers" in capsys.readouterr().out


class TestCliLint:
    def test_lint_clean_kernel(self, kernel_file, capsys):
        assert main([kernel_file, "--lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_error_sets_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cl"
        bad.write_text(
            "__kernel void k(__constant float* c, __global float* a)"
            " { c[0] = 1.0f; a[0] = c[0]; }"
        )
        assert main([str(bad), "--lint"]) == 1
        assert "[write-to-constant]" in capsys.readouterr().err

    def test_lint_warning_does_not_fail(self, tmp_path, capsys):
        warn = tmp_path / "warn.cl"
        warn.write_text("__kernel void k(__global float* a, int unused) { a[0] = 1.0f; }")
        assert main([str(warn), "--lint"]) == 0
        assert "[unused-binding]" in capsys.readouterr().err

    def test_lint_python_module_extracts_kernel_strings(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text(
            'K = """\n'
            "__kernel void k(__global float* a, int n) {\n"
            "    int gid = get_global_id(0);\n"
            "    if (gid < n) a[gid] = 0.0f;\n"
            "}\n"
            '"""\n'
            'NOT_A_KERNEL = "just a string"\n'
            'TEMPLATED = f"""\n'
            "__kernel void t(__global {t}* a) {{ a[0] = 1; }}\n"
            '"""\n'
        )
        assert main([str(module), "--lint"]) == 0
        out = capsys.readouterr().out
        assert "1 kernel string(s)" in out  # the f-string fragment is skipped

    def test_lint_python_module_reports_errors(self, tmp_path, capsys):
        module = tmp_path / "module.py"
        module.write_text(
            'K = """\n'
            "__kernel void k(__constant float* c, __global float* a)"
            " { c[0] = 1.0f; a[0] = c[0]; }\n"
            '"""\n'
        )
        assert main([str(module), "--lint"]) == 1
        captured = capsys.readouterr()
        assert "[write-to-constant]" in captured.err
        assert "with errors" in captured.out

    def test_lint_shipped_baselines_clean(self, capsys):
        import os

        import repro.baselines as baselines

        root = os.path.dirname(baselines.__file__)
        for name in sorted(os.listdir(root)):
            if name.endswith(".py"):
                assert main([os.path.join(root, name), "--lint"]) == 0
