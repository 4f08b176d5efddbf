"""What README, DESIGN.md and ``settings.py`` state as numbers or lists
is derived here from the sources, so a count cannot go stale by hand."""

from __future__ import annotations

import glob
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
