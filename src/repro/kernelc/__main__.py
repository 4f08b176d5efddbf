"""Command-line driver for the kernelc front-end.

Usage::

    python -m repro.kernelc FILE.cl            # compile, report kernels
    python -m repro.kernelc FILE.cl --ast      # print the parsed AST
    python -m repro.kernelc FILE.cl --print    # pretty-print the source
    python -m repro.kernelc FILE.cl --python   # show each kernel's generated
                                               # lockstep Python
    python -m repro.kernelc FILE.cl --lint     # run the lint pass
    python -m repro.kernelc FILE.cl --access   # show affine access summaries
    python -m repro.kernelc FILE.py --lint     # lint kernel strings in a
                                               # Python module
    echo '...' | python -m repro.kernelc -     # read from stdin

Exit status 0 on success, 1 on compile or lint errors (diagnostics on
stderr).  ``--lint`` on a ``.py`` file extracts every string literal
containing ``__kernel`` (the convention used by ``examples/`` and
``repro.baselines``) and lints each as a standalone kernel source;
``--python`` combines with both and dumps every string's generated code.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from . import vectorize
from .compiler import compile_program
from .diagnostics import CompileError, Severity
from .frontend import compile_source
from .lint import lint_program
from .preprocessor import PreprocessorError


def _dump_ast(node, indent: int = 0, out=None) -> None:
    from . import ast

    if out is None:
        out = sys.stdout
    pad = "  " * indent
    label = type(node).__name__
    details = []
    for name in ("name", "op", "value", "callee", "member"):
        if hasattr(node, name) and not isinstance(getattr(node, name), (list, type(None))):
            attr = getattr(node, name)
            if not isinstance(attr, ast.Node):
                details.append(f"{name}={attr!r}")
    ctype = getattr(node, "ctype", None)
    if ctype is not None:
        details.append(f": {ctype}")
    out.write(f"{pad}{label}{' ' + ' '.join(details) if details else ''}\n")
    for child in ast.children(node):
        _dump_ast(child, indent + 1, out)


def _extract_kernel_strings(path: str):
    """``(line, source)`` for every plain string literal in a Python file
    that looks like a kernel source (contains ``__kernel`` and a body).
    F-string fragments are skipped — they are templates, not sources."""
    import ast as pyast

    with open(path) as handle:
        tree = pyast.parse(handle.read(), path)
    in_fstring = set()
    for node in pyast.walk(tree):
        if isinstance(node, pyast.JoinedStr):
            for part in pyast.walk(node):
                in_fstring.add(id(part))
    found = []
    for node in pyast.walk(tree):
        if (isinstance(node, pyast.Constant) and isinstance(node.value, str)
                and id(node) not in in_fstring
                and "__kernel" in node.value and "{" in node.value):
            found.append((node.lineno, textwrap.dedent(node.value)))
    return found


def _print_python(program, name: str) -> int:
    """Per kernel of ``program``, the lockstep engine's generated source;
    1 when a kernel has none (its diagnostic goes to stderr), else 0."""
    status = 0
    for kernel in compile_program(program).kernels.values():
        try:
            source = vectorize.plan_for(kernel).source
        except CompileError as exc:
            sys.stderr.write(f"{exc}\n")
            status = 1
            continue
        print(f"# {name}: kernel {kernel.name}: lockstep source")
        sys.stdout.write(source)
    return status


def _lint_python_module(path: str, show_access: bool = False,
                        show_python: bool = False) -> int:
    """Lint every kernel string of a Python module; 0 when error-free."""
    failed = 0
    strings = _extract_kernel_strings(path)
    affine_total = fallback_total = 0
    for lineno, text in strings:
        name = f"{path}:{lineno}"
        try:
            program = compile_source(text, name)
        except (CompileError, PreprocessorError) as exc:
            sys.stderr.write(f"{name}: kernel string does not compile:\n{exc}\n")
            failed += 1
            continue
        diagnostics = lint_program(program)
        for diag in diagnostics:
            sys.stderr.write(diag.render(program.source) + "\n")
        if any(d.severity is Severity.ERROR for d in diagnostics):
            failed += 1
        if show_access:
            a, f = _print_access_summaries(program, name)
            affine_total += a
            fallback_total += f
        if show_python:
            failed += _print_python(program, name)
    status = "clean" if not failed else f"{failed} with errors"
    print(f"{path}: {len(strings)} kernel string(s), {status}")
    if show_access and (affine_total or fallback_total):
        total = affine_total + fallback_total
        print(f"{path}: access summaries: {affine_total}/{total} "
              f"pointer parameter(s) affine")
    return 0 if not failed else 1


def _print_access_summaries(program, name: str):
    """Render the SkelAccess summary of every kernel; returns the
    (affine, fallback) pointer-parameter counts."""
    from ..analysis import affine

    affine_params = fallback_params = 0
    for fn in program.kernels():
        try:
            summary = affine.cached_kernel_summary(program, fn)
        except Exception as exc:  # never let reporting break the CLI
            print(f"{name}: {fn.name}: access analysis failed: {exc}")
            continue
        print(f"{name}: kernel {fn.name}:")
        for pname, psum in summary.params.items():
            if psum.affine:
                affine_params += 1
                print(f"  {pname} ({psum.space}, {summary.modes[pname]}): affine")
                for fp in psum.footprints:
                    guards = "; ".join(f"{g.format()} <= 0" for g in fp.guards)
                    line = f"    {fp.mode} [{fp.index.format()}]"
                    if guards:
                        line += f" when {guards}"
                    print(line)
            else:
                fallback_params += 1
                print(f"  {pname} ({psum.space}, {summary.modes[pname]}): "
                      f"fallback — {psum.whole_buffer_reason}")
    return affine_params, fallback_params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.kernelc",
                                     description="Compile an OpenCL-C kernel source.")
    parser.add_argument("file", help="kernel source file ('-' for stdin)")
    parser.add_argument("--ast", action="store_true", help="dump the checked AST")
    parser.add_argument("--print", dest="pretty", action="store_true",
                        help="pretty-print the parsed source")
    parser.add_argument("--python", action="store_true",
                        help="show each kernel's generated lockstep Python")
    parser.add_argument("--lint", action="store_true",
                        help="run the lint pass (exit 1 on lint errors); on a "
                             ".py file, lint every embedded kernel string")
    parser.add_argument("--access", action="store_true",
                        help="print the affine access summary (SkelAccess) of "
                             "every kernel: per-parameter footprints, guards, "
                             "and the affine/fallback ratio")
    parser.add_argument("-D", dest="defines", action="append", default=[],
                        metavar="NAME[=VALUE]", help="preprocessor define")
    args = parser.parse_args(argv)

    if (args.lint or args.access) and args.file.endswith(".py"):
        return _lint_python_module(args.file, args.access, args.python)

    if args.file == "-":
        source = sys.stdin.read()
        name = "<stdin>"
    else:
        with open(args.file) as handle:
            source = handle.read()
        name = args.file

    defines = {}
    for item in args.defines:
        key, _, value = item.partition("=")
        defines[key] = value or "1"

    try:
        program = compile_source(source, name, defines)
    except (CompileError, PreprocessorError) as exc:
        sys.stderr.write(f"{exc}\n")
        return 1

    if args.lint or args.access:
        status = 0
        if args.access:
            affine_n, fallback_n = _print_access_summaries(program, name)
            total = affine_n + fallback_n
            if total:
                print(f"{name}: access summaries: {affine_n}/{total} "
                      f"pointer parameter(s) affine")
        if args.lint:
            diagnostics = lint_program(program)
            for diag in diagnostics:
                sys.stderr.write(diag.render(program.source) + "\n")
            errors = sum(1 for d in diagnostics if d.severity is Severity.ERROR)
            print(f"{name}: lint {'clean' if not diagnostics else f'{len(diagnostics)} finding(s), {errors} error(s)'}")
            status = 1 if errors else 0
        if args.python:
            status |= _print_python(program, name)
        return status

    if args.ast:
        _dump_ast(program)
    elif args.pretty:
        from .printer import print_program

        sys.stdout.write(print_program(program))
    elif args.python:
        return _print_python(program, name)
    else:
        kernels = ", ".join(k.name for k in program.kernels()) or "(none)"
        helpers = [f.name for f in program.functions if not f.is_kernel]
        print(f"{name}: OK")
        print(f"  kernels: {kernels}")
        if helpers:
            print(f"  helpers: {', '.join(helpers)}")
        if program.uses_barrier:
            print("  uses barriers")
    return 0


if __name__ == "__main__":
    sys.exit(main())
