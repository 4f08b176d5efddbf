"""Where a call came from: the first stack frame outside a package.

Trace labels (``Map(func)@app.py:12``, :mod:`repro.skelcl.skeleton`)
and race provenance (``enqueued at skelcl/map.py:88``,
:mod:`repro.ocl.queue`) both name the innermost caller *outside* the
package that asks.  Whether a file lies inside a package is a property
of its name, so it is decided once per file, not per frame of every
call.  Dependency-free, like :mod:`repro.settings`.
"""

from __future__ import annotations

import functools
import os.path
import sys
from typing import Optional


@functools.lru_cache(maxsize=4096)
def _outside(filename: str, package_dir: str, parts: int) -> Optional[str]:
    """The last ``parts`` path components of ``filename``; None for a
    file under ``package_dir``."""
    if os.path.abspath(filename).startswith(package_dir):
        return None
    return "/".join(filename.replace("\\", "/").rsplit("/", parts)[-parts:])


@functools.lru_cache(maxsize=4096)
def _site_line(site: str, line: int) -> str:
    """One ``"site:line"`` string per call site, not one per call."""
    return f"{site}:{line}"


def call_site(package_dir: str, parts: int = 1) -> Optional[str]:
    """``file.py:line`` of the innermost caller outside ``package_dir``
    (an absolute directory), the file named by its last ``parts`` path
    components; None when every frame is inside."""
    frame = sys._getframe(1)
    while frame is not None:
        site = _outside(frame.f_code.co_filename, package_dir, parts)
        if site is not None:
            return _site_line(site, frame.f_lineno)
        frame = frame.f_back
    return None
