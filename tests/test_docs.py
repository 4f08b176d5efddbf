"""What README, DESIGN.md and ``settings.py`` state as numbers or lists
is derived here from the sources, so a count cannot go stale by hand."""

from __future__ import annotations

import glob
import importlib
import inspect
import os
import re
from dataclasses import fields

import repro.skelcl as skelcl
from repro import settings
from repro.skelcl import runtime

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBER_WORDS = ("zero", "one", "two", "three", "four", "five", "six", "seven",
                "eight", "nine", "ten", "eleven", "twelve")


def _read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as handle:
        return handle.read()


def _user_docs() -> str:
    """README plus everything under ``docs/``."""
    pages = sorted(glob.glob(os.path.join(ROOT, "docs", "*.md")))
    return _read("README.md") + "".join(_read(page) for page in pages)


def test_readme_counts_the_example_programs():
    examples = glob.glob(os.path.join(ROOT, "examples", "*.py"))
    stated = re.search(r"examples/\s+(\w+) runnable example programs", _read("README.md"))
    assert stated.group(1) == NUMBER_WORDS[len(examples)]


def test_design_layout_lists_exactly_the_example_programs():
    design = _read("DESIGN.md")
    layout = design[design.index("## 6. Layout"):]
    listed = layout[layout.index("examples/"):].split("\n\n")[0]
    examples = glob.glob(os.path.join(ROOT, "examples", "*.py"))
    assert sorted(re.findall(r"(\w+\.py)", listed)) == sorted(map(os.path.basename, examples))


def _resolve_cited(text: str, where: str) -> int:
    """Check that every backticked ``module.Name[.attr]`` of ``text``
    whose module is one of the package's resolves; returns how many
    were checked."""
    checked = 0
    for cited in sorted(set(re.findall(r"`([a-z_]+(?:\.[A-Za-z_]\w*)+)`", text))):
        first, *path = cited.split(".")
        for package in ("", "kernelc.", "ocl.", "skelcl.", "plan.", "analysis.", "scope."):
            try:
                owner = importlib.import_module(f"repro.{package}{first}")
            except ImportError:
                continue
            for name in path:
                assert hasattr(owner, name), f"{where} cites {cited}, which does not exist"
                owner = getattr(owner, name)
            checked += 1
            break
    return checked


def test_the_names_design_decisions_cite_exist():
    """DESIGN.md §5: a decision cannot keep citing code that left."""
    design = _read("DESIGN.md")
    decisions = design[design.index("## 5. Architectural"):design.index("## 6. Layout")]
    assert _resolve_cited(decisions, "DESIGN.md") >= 7


def test_the_names_the_sibling_runs_section_cites_exist():
    """docs/kernelc.md, "Sibling runs": the queue names the launch path
    is told in cannot stay documented once they are gone."""
    page = _read("docs", "kernelc.md")
    section = page[page.index("**Sibling runs.**"):page.index("**Vector types.**")]
    assert _resolve_cited(section, "docs/kernelc.md") >= 6


def test_settings_tables_list_exactly_the_settings():
    names = [field.name for field in fields(settings.Settings)]
    assert sorted(settings._ENV_VARS) == sorted(names)
    # The module docstring's table and its stated count.
    rows = re.findall(r"^(\w+) +``(SKELCL_\w+)``", settings.__doc__, re.MULTILINE)
    assert dict(rows) == settings._ENV_VARS and len(rows) == len(names)
    stated = re.search(r"The (\w+) settings and their environment spellings",
                       settings.__doc__)
    assert stated.group(1) == NUMBER_WORDS[len(names)]
    # README's Configuration table.
    rows = re.findall(r"^\| `(\w+)`[^|]*\| `(SKELCL_\w+?)[=`]", _read("README.md"),
                      re.MULTILINE)
    assert dict(rows) == settings._ENV_VARS and len(rows) == len(names)


def test_every_environment_variable_and_init_keyword_is_documented():
    parameters = inspect.signature(runtime.init).parameters.values()
    assert runtime._INIT_KEYWORDS == tuple(
        p.name for p in parameters if p.kind is not inspect.Parameter.VAR_KEYWORD)
    docs = _user_docs()
    for variable in settings._ENV_VARS.values():
        assert re.search(rf"\b{variable}\b", docs), f"{variable} is undocumented"
    for keyword in runtime._INIT_KEYWORDS:
        assert re.search(rf"\b{keyword}=", docs), f"init({keyword}=...) is undocumented"


def test_the_skeletons_the_docs_enumerate_are_the_ones_exported():
    exported = {name for name in skelcl.__all__
                if isinstance(getattr(skelcl, name), type)
                and issubclass(getattr(skelcl, name), skelcl.Skeleton)} - {"Skeleton"}
    stated = re.search(r"the (\w+) skeletons ((?:`\w+`,? ?)+)", _read("README.md"))
    assert stated.group(1) == NUMBER_WORDS[len(exported)]
    assert set(re.findall(r"`(\w+)`", stated.group(2))) == exported
    design = re.sub(r"\s+", " ", _read("DESIGN.md"))
    stated = re.search(r"(\w+) pre-implemented parallel patterns .*?: ([^.]*`AllPairs`)\.",
                       design)
    assert stated.group(1) == NUMBER_WORDS[len(exported)]
    assert set(re.findall(r"`(\w+)`", stated.group(2))) == exported


def test_design_inventory_names_exactly_the_modules_of_each_package():
    """DESIGN.md §3: a package's row names every module file the package
    has and no module it does not have.  Module names are the backticked
    bare identifiers at the top level of the row's Contents cell — what
    stands inside parentheses describes a module."""
    design = _read("DESIGN.md")
    inventory = design[design.index("## 3. System inventory"):design.index("## 4.")]
    rows = dict(re.findall(r"^\| [^|]+ \| `repro\.(\w+)`[^|]*\| (.*) \|$", inventory,
                           re.MULTILINE))
    for package in ("kernelc", "ocl", "skelcl", "plan", "analysis", "jit", "serve", "scope"):
        cell, stripped = rows[package], None
        while stripped != cell:  # drop parenthesized descriptions, innermost first
            stripped, cell = cell, re.sub(r"\([^()]*\)", "", cell)
        named = set(re.findall(r"`([a-z_][a-z0-9_]*)`", cell))
        files = glob.glob(os.path.join(ROOT, "src", "repro", package, "*.py"))
        modules = {os.path.splitext(os.path.basename(path))[0] for path in files}
        modules -= {"__init__", "__main__"}
        assert named == modules, (
            f"DESIGN.md row of repro.{package}: undescribed modules "
            f"{sorted(modules - named)}, nonexistent modules {sorted(named - modules)}")


def test_force_point_list_is_the_same_in_planner_docstring_docs_and_code():
    """docs/planner.md's force-point table and the list in
    ``repro/plan/planner.py``'s docstring name the same hooks, and every
    hook is a method of the runtime whose body forces."""
    from repro.plan import planner
    from repro.plan.ir import Produced
    from repro.skelcl.container import Container

    listed = planner.__doc__[planner.__doc__.index("Force points"):
                             planner.__doc__.index("Forcing (")]
    in_docstring = re.findall(r"^\* ``([\w.]+)`` —", listed, re.MULTILINE)
    page = _read("docs", "planner.md")
    table = page[page.index("## Force points"):page.index("## The rewrite rule")]
    in_docs = re.findall(r"^\|.*\| `([\w.]+)` \|$", table, re.MULTILINE)
    assert len(in_docstring) == len(set(in_docstring)) >= 10
    assert sorted(in_docstring) == sorted(in_docs)
    owners = (Produced, Container, skelcl.Scalar, skelcl.Skeleton, planner.Planner,
              runtime.Session)
    for hook in in_docstring:
        owner_name, _, name = hook.rpartition(".")
        (method,) = [vars(owner)[name] for owner in owners
                     if name in vars(owner) and owner_name in ("", owner.__name__)]
        body = inspect.getsource(getattr(method, "fget", method))
        assert re.search(r"force(_node|_pending)?\(|\.flush\(", body), \
            f"{hook} forces nothing"


def test_every_metric_the_sources_emit_is_documented():
    """A metric name is a ``skelcl_*`` string handed to a registry's
    ``counter`` / ``gauge`` / ``histogram`` (directly, or as one of the
    queue's series keys); each appears on a page under ``docs/``."""
    pages = "".join(_read(page) for page in
                    sorted(glob.glob(os.path.join(ROOT, "docs", "*.md"))))
    code = "".join(_read(path) for path in sorted(
        glob.glob(os.path.join(ROOT, "src", "repro", "**", "*.py"), recursive=True)))
    emitted = set(re.findall(
        r"""(?:counter|gauge|histogram)(?:\(|",)\s*"(skelcl_\w+)\"""", code))
    assert len(emitted) >= 30
    undocumented = sorted(name for name in emitted if f"`{name}" not in pages)
    assert undocumented == []
