"""Persistent on-disk compiled-program cache.

``Program.build()`` keys its in-memory cache on raw source + defines;
this module adds a second, cross-process level keyed on the
*preprocessed* source (so distinct ``#define`` spellings of the same
expansion share an entry) hashed together with a format version, the
interpreter's ``cache_tag`` (code objects are marshalled, and
``marshal`` is version-specific) and a toolchain fingerprint (the
kernelc and analysis sources themselves — editing the compiler, a
helper generated code calls or the summary classes invalidates every
entry).

An entry holds what a build produced: the checked AST — with the op
charges and load-CSE decisions the lowering recorded on its nodes — and
the lint findings, so that a disk hit unpickles and runs neither the
front end nor the lowering.  The lockstep plan of a kernel — its
generated module (:class:`~repro.kernelc.compiler.GeneratedModule`:
code object, text, constant pool) — is written next to its entry
(``<key>.<kernel>.plan``) when :mod:`.vectorize` first produces it: a
kernel nobody launches costs nothing.
:class:`~repro.kernelc.builtins.ResolvedBuiltin` values embed closures;
they pickle as ``(name, parameter types)`` and are resolved again on
load.

Every failure mode — unreadable file, stale format, truncated blob,
builtin that no longer resolves — is a silent miss: the caller falls
back to a cold compile and overwrites the entry.  Silent to the caller,
not to the metrics: ``skelcl_program_cache_total{op,what,result}``
counts hits, misses and errors (with the exception's class as
``reason``) on the registry passed in.  Trust: an entry is a pickle (and
a code object) from the user's own cache directory — the boundary of
``__pycache__``.  ``skelcl.configure(cache=False)`` (or
``SKELCL_CACHE=off``) disables the cache, code included; it lives under
the ``dir`` / ``SKELCL_DIR`` base directory, in ``<dir>/programs``
(``~/.cache/skelcl/programs`` out of the box) — see :mod:`repro.settings`.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
from typing import Callable, List, Optional

_FORMAT = "skelcl-progcache-v4"

_fingerprint_cache: Optional[str] = None


def enabled() -> bool:
    from .. import settings

    return settings.get("cache")


def cache_dir() -> str:
    from .. import settings

    return settings.cache_directory()


def _toolchain_fingerprint() -> str:
    """A digest over the sources of every class an entry pickles and
    every helper its code objects call — the kernelc package (AST, types,
    diagnostics, the lowering, the lockstep generator and its runtime
    library) and
    ``repro.analysis`` (the SkelAccess summary memoized on the AST): any
    change to either invalidates the cache wholesale (cheap and safe;
    computed once per process)."""
    global _fingerprint_cache
    if _fingerprint_cache is None:
        digest = hashlib.sha256()
        kernelc_dir = os.path.dirname(os.path.abspath(__file__))
        for package_dir in (kernelc_dir,
                            os.path.join(os.path.dirname(kernelc_dir), "analysis")):
            for entry in sorted(os.listdir(package_dir)):
                if not entry.endswith(".py"):
                    continue
                digest.update(entry.encode())
                with open(os.path.join(package_dir, entry), "rb") as handle:
                    digest.update(handle.read())
        _fingerprint_cache = digest.hexdigest()
    return _fingerprint_cache


def entry_path(preprocessed: str) -> str:
    digest = hashlib.sha256()
    digest.update(_FORMAT.encode())
    digest.update(sys.implementation.cache_tag.encode())
    digest.update(_toolchain_fingerprint().encode())
    digest.update(preprocessed.encode())
    name = digest.hexdigest()
    return os.path.join(cache_dir(), name[:2], name + ".pkl")


def plan_path(entry: str, kernel_name: str) -> str:
    """Where the lockstep plan of kernel ``kernel_name`` of the program
    at ``entry`` is kept."""
    return f"{entry[:-len('.pkl')]}.{kernel_name}.plan"


def _count(metrics, op: str, what: str, result: str, **reason) -> None:
    if metrics is not None:
        metrics.counter("skelcl_program_cache_total", op=op, what=what, result=result,
                        **reason).inc()


def _read(path: str, what: str, restore: Callable, metrics):
    """``restore(*payload)`` of the file at ``path``, or None: the
    restore-or-miss rule — whatever goes wrong between opening the file
    and having a usable object again is a miss."""
    if not enabled():
        return None
    try:
        with open(path, "rb") as handle:
            tag, *payload = pickle.load(handle)
        if tag != _FORMAT:
            raise pickle.UnpicklingError(f"not a {_FORMAT} {what}")
        restored = restore(*payload)
    except FileNotFoundError:
        _count(metrics, "load", what, "miss")
        return None
    except Exception as exc:
        _count(metrics, "load", what, "error", reason=type(exc).__name__)
        return None
    _count(metrics, "load", what, "hit")
    return restored


def _write(path: str, what: str, metrics, *payload) -> bool:
    if not enabled():
        return False
    try:
        blob = pickle.dumps((_FORMAT, *payload), protocol=pickle.HIGHEST_PROTOCOL)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except Exception as exc:
        _count(metrics, "store", what, "error", reason=type(exc).__name__)
        return False
    _count(metrics, "store", what, "stored")
    return True


def load(entry: str, restore: Callable, metrics=None):
    """``restore(checked program, lint diagnostics)`` of what is kept at
    ``entry`` (:func:`entry_path`), or None on any kind of miss — a
    ``restore`` that raises included."""
    return _read(entry, "program", restore, metrics)


def store(entry: str, program: object, lint: List[object], metrics=None) -> bool:
    """Persist a successfully compiled program; returns False (and stays
    silent) on any failure."""
    return _write(entry, "program", metrics, program, lint)


def load_plan(path: str, restore: Callable, metrics=None):
    """``restore(generated module)`` of the lockstep plan kept at
    ``path`` (:func:`plan_path`), or None."""
    return _read(path, "plan", restore, metrics)


def store_plan(path: str, module: object, metrics=None) -> bool:
    """Persist a kernel's lockstep plan, as silently as :func:`store`."""
    return _write(path, "plan", metrics, module)
