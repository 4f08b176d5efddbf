"""A small C preprocessor for kernel sources.

Supports the directives commonly found in OpenCL kernels:

* ``#define NAME body`` and ``#define NAME(a, b) body`` (object- and
  function-like macros, with recursive expansion and a recursion guard),
* ``#undef NAME``,
* ``#ifdef`` / ``#ifndef`` / ``#else`` / ``#elif defined(...)`` / ``#endif``,
* ``#pragma`` (ignored),
* line continuations with a trailing backslash.

``#include`` is rejected: kernel sources in this system are self-contained
strings, as they are in SkelCL.

The preprocessor is text-based but literal-aware: macro names inside
string and character literals or comments are never expanded.  Output
preserves line structure (each input line maps to one output line) so
that downstream diagnostics still point at sensible locations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .diagnostics import DiagnosticSink

_TOKEN_RE = re.compile(
    r"""
    (?P<comment>//[^\n]*|/\*.*?\*/)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<char>'(?:\\.|[^'\\])*')
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<number>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)
# Every ``ident`` token of ``_TOKEN_RE`` is one of these words.
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

_MAX_EXPANSION_DEPTH = 64


@dataclass
class Macro:
    name: str
    body: str
    params: Optional[List[str]] = None  # None for object-like macros

    @property
    def is_function_like(self) -> bool:
        return self.params is not None


class PreprocessorError(Exception):
    pass


class Preprocessor:
    def __init__(self, defines: Optional[Dict[str, str]] = None, sink: Optional[DiagnosticSink] = None):
        self.macros: Dict[str, Macro] = {}
        self.sink = sink
        if defines:
            for name, body in defines.items():
                self.define(name, body)

    # -- macro table -----------------------------------------------------

    def define(self, signature: str, body: str = "") -> None:
        """Define a macro from a signature like ``"N"`` or ``"MIN(a,b)"``."""
        match = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(\(([^)]*)\))?\s*$", signature)
        if not match:
            raise PreprocessorError(f"invalid macro signature: {signature!r}")
        name = match.group(1)
        params: Optional[List[str]] = None
        if match.group(2) is not None:
            raw = match.group(3).strip()
            params = [p.strip() for p in raw.split(",")] if raw else []
            for param in params:
                if not re.match(r"^[A-Za-z_][A-Za-z0-9_]*$", param):
                    raise PreprocessorError(f"invalid macro parameter {param!r} in {signature!r}")
        self.macros[name] = Macro(name, body.strip(), params)

    def undef(self, name: str) -> None:
        self.macros.pop(name, None)

    # -- driving ---------------------------------------------------------

    def process(self, text: str, name: str = "<kernel>") -> str:
        lines = self._splice_lines(text)
        out: List[str] = []
        # Conditional stack: (taken_now, any_branch_taken, seen_else)
        cond_stack: List[Tuple[bool, bool, bool]] = []

        for lineno, line in enumerate(lines, start=1):
            stripped = line.lstrip()
            if stripped.startswith("#"):
                out.append("")
                self._directive(stripped[1:].strip(), cond_stack, name, lineno)
                continue
            active = all(frame[0] for frame in cond_stack)
            if not active:
                out.append("")
                continue
            out.append(self._expand_line(line))

        if cond_stack:
            raise PreprocessorError(f"{name}: unterminated conditional directive")
        return "\n".join(out)

    @staticmethod
    def _splice_lines(text: str) -> List[str]:
        """Split into lines, joining backslash-continued lines.

        To preserve the total line count (for diagnostics), a continued
        line contributes empty lines for its continuation lines.
        """
        raw = text.split("\n")
        result: List[str] = []
        i = 0
        while i < len(raw):
            line = raw[i]
            blanks = 0
            while line.endswith("\\") and i + 1 < len(raw):
                line = line[:-1] + raw[i + 1]
                blanks += 1
                i += 1
            result.append(line)
            result.extend([""] * blanks)
            i += 1
        return result

    def _directive(self, directive: str, cond_stack: List[Tuple[bool, bool, bool]], name: str, lineno: int) -> None:
        match = re.match(r"^([A-Za-z_]+)\s*(.*)$", directive, re.DOTALL)
        if not match:
            if directive:
                raise PreprocessorError(f"{name}:{lineno}: malformed directive '#{directive}'")
            return  # a lone '#' is a null directive
        keyword, rest = match.group(1), match.group(2).strip()
        active = all(frame[0] for frame in cond_stack)

        if keyword in ("ifdef", "ifndef"):
            macro_name = rest.split()[0] if rest else ""
            if not macro_name:
                raise PreprocessorError(f"{name}:{lineno}: #{keyword} expects a macro name")
            defined = macro_name in self.macros
            taken = defined if keyword == "ifdef" else not defined
            cond_stack.append((active and taken, taken, False))
        elif keyword == "if":
            taken = self._eval_condition(rest, name, lineno)
            cond_stack.append((active and taken, taken, False))
        elif keyword == "elif":
            if not cond_stack:
                raise PreprocessorError(f"{name}:{lineno}: #elif without #if")
            _, any_taken, seen_else = cond_stack.pop()
            if seen_else:
                raise PreprocessorError(f"{name}:{lineno}: #elif after #else")
            parent_active = all(frame[0] for frame in cond_stack)
            taken = not any_taken and self._eval_condition(rest, name, lineno)
            cond_stack.append((parent_active and taken, any_taken or taken, False))
        elif keyword == "else":
            if not cond_stack:
                raise PreprocessorError(f"{name}:{lineno}: #else without #if")
            _, any_taken, seen_else = cond_stack.pop()
            if seen_else:
                raise PreprocessorError(f"{name}:{lineno}: duplicate #else")
            parent_active = all(frame[0] for frame in cond_stack)
            cond_stack.append((parent_active and not any_taken, True, True))
        elif keyword == "endif":
            if not cond_stack:
                raise PreprocessorError(f"{name}:{lineno}: #endif without #if")
            cond_stack.pop()
        elif not active:
            return  # other directives inside a skipped region are ignored
        elif keyword == "define":
            self._parse_define(rest, name, lineno)
        elif keyword == "undef":
            macro_name = rest.split()[0] if rest else ""
            if not macro_name:
                raise PreprocessorError(f"{name}:{lineno}: #undef expects a macro name")
            self.undef(macro_name)
        elif keyword == "pragma":
            return
        elif keyword == "include":
            raise PreprocessorError(f"{name}:{lineno}: #include is not supported in kernel sources")
        else:
            raise PreprocessorError(f"{name}:{lineno}: unknown directive '#{keyword}'")

    def _parse_define(self, rest: str, name: str, lineno: int) -> None:
        match = re.match(r"^([A-Za-z_][A-Za-z0-9_]*)(\(([^)]*)\))?\s*(.*)$", rest, re.DOTALL)
        if not match:
            raise PreprocessorError(f"{name}:{lineno}: malformed #define")
        macro_name = match.group(1)
        body = match.group(4).strip()
        if match.group(2) is not None and rest[len(macro_name)] == "(":
            raw = match.group(3).strip()
            params = [p.strip() for p in raw.split(",")] if raw else []
            self.macros[macro_name] = Macro(macro_name, body, params)
        else:
            # "#define X (...)": the parenthesis belongs to the body when
            # separated by whitespace from the name.
            full_body = rest[len(macro_name):].strip()
            self.macros[macro_name] = Macro(macro_name, full_body, None)

    def _eval_condition(self, expr: str, name: str, lineno: int) -> bool:
        """Evaluate a ``#if`` condition over integers and ``defined()``."""
        expanded = re.sub(
            r"defined\s*(\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*\)|([A-Za-z_][A-Za-z0-9_]*))",
            lambda m: "1" if (m.group(2) or m.group(3)) in self.macros else "0",
            expr,
        )
        expanded = self._expand(expanded)
        # Remaining identifiers evaluate to 0 as in C.
        expanded = re.sub(r"[A-Za-z_][A-Za-z0-9_]*", "0", expanded)
        expanded = expanded.replace("&&", " and ").replace("||", " or ")
        expanded = re.sub(r"!(?!=)", " not ", expanded)
        if not expanded.strip():
            raise PreprocessorError(f"{name}:{lineno}: empty #if condition")
        try:
            return bool(eval(expanded, {"__builtins__": {}}, {}))  # noqa: S307 - sanitized arithmetic
        except Exception as exc:
            raise PreprocessorError(f"{name}:{lineno}: cannot evaluate #if condition {expr!r}: {exc}") from exc

    # -- expansion -------------------------------------------------------

    def _expand_line(self, line: str) -> str:
        """``line`` with its macros expanded.  Expansion rebuilds a line
        from its tokens, so a line in which no macro name occurs (not
        even in a string or comment) comes out as it went in: it is
        copied without being tokenized."""
        if not self.macros or self.macros.keys().isdisjoint(_WORD.findall(line)):
            return line
        return self._expand(line)

    def _expand(self, text: str, depth: int = 0, hidden: frozenset = frozenset()) -> str:
        if depth > _MAX_EXPANSION_DEPTH:
            raise PreprocessorError("macro expansion too deep (recursive macro?)")
        out: List[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN_RE.match(text, pos)
            if match is None:  # pragma: no cover - regex matches any char
                out.append(text[pos])
                pos += 1
                continue
            pos = match.end()
            if match.lastgroup != "ident":
                out.append(match.group(0))
                continue
            ident = match.group(0)
            macro = self.macros.get(ident)
            if macro is None or ident in hidden:
                out.append(ident)
                continue
            if macro.is_function_like:
                args, new_pos = self._collect_args(text, pos)
                if args is None:
                    out.append(ident)  # not followed by '(': not an invocation
                    continue
                pos = new_pos
                if len(args) != len(macro.params) and not (len(macro.params) == 0 and args == [""]):
                    raise PreprocessorError(
                        f"macro {ident!r} expects {len(macro.params)} argument(s), got {len(args)}"
                    )
                expanded_args = [self._expand(a.strip(), depth + 1, hidden) for a in args]
                body = self._substitute_params(macro, expanded_args)
                out.append(self._expand(body, depth + 1, hidden | {ident}))
            else:
                out.append(self._expand(macro.body, depth + 1, hidden | {ident}))
        return "".join(out)

    @staticmethod
    def _collect_args(text: str, pos: int) -> Tuple[Optional[List[str]], int]:
        """Collect macro call arguments starting at ``pos`` (before '(')."""
        scan = pos
        while scan < len(text) and text[scan] in " \t":
            scan += 1
        if scan >= len(text) or text[scan] != "(":
            return None, pos
        scan += 1
        args: List[str] = []
        current: List[str] = []
        depth = 1
        while scan < len(text):
            match = _TOKEN_RE.match(text, scan)
            chunk = match.group(0) if match else text[scan]
            scan = match.end() if match else scan + 1
            if chunk == "(":
                depth += 1
            elif chunk == ")":
                depth -= 1
                if depth == 0:
                    args.append("".join(current))
                    return args, scan
            elif chunk == "," and depth == 1:
                args.append("".join(current))
                current = []
                continue
            current.append(chunk)
        raise PreprocessorError("unterminated macro argument list")

    @staticmethod
    def _substitute_params(macro: Macro, args: List[str]) -> str:
        if not macro.params:
            return macro.body
        mapping = dict(zip(macro.params, args))
        out: List[str] = []
        pos = 0
        body = macro.body
        while pos < len(body):
            match = _TOKEN_RE.match(body, pos)
            if match is None:  # pragma: no cover
                out.append(body[pos])
                pos += 1
                continue
            pos = match.end()
            if match.lastgroup == "ident" and match.group(0) in mapping:
                out.append(mapping[match.group(0)])
            else:
                out.append(match.group(0))
        return "".join(out)


def preprocess(text: str, name: str = "<kernel>", defines: Optional[Dict[str, str]] = None) -> str:
    """Convenience wrapper: run the preprocessor over ``text``."""
    return Preprocessor(defines).process(text, name)
