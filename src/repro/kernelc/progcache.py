"""Persistent on-disk compiled-program cache.

``Program.build()`` keys its in-memory cache on raw source + defines;
this module adds a second, cross-process level keyed on the
*preprocessed* source (so distinct ``#define`` spellings of the same
expansion share an entry) hashed together with a format version and a
toolchain fingerprint (the kernelc and analysis sources themselves —
editing the compiler or the summary classes invalidates every entry).

Entries store the type-checked AST plus the lint findings via pickle.
:class:`~repro.kernelc.builtins.ResolvedBuiltin` values embed lambdas
and cannot pickle; they are externalized as persistent IDs and
re-resolved on load (resolution is deterministic on the exact parameter
types the checker recorded).

Every failure mode — unreadable file, stale format, pickle error,
re-resolution mismatch — is a silent miss: the caller falls back to a
cold compile and overwrites the entry.  ``skelcl.configure(cache=False)``
(or ``SKELCL_CACHE=off``) disables the cache; ``cache_dir`` /
``SKELCL_CACHE_DIR`` relocates it, and the ``dir`` / ``SKELCL_DIR``
base directory hosts the default location (``<dir>/programs``, i.e.
``~/.cache/skelcl/programs`` out of the box) — see
:mod:`repro.settings`.
"""

from __future__ import annotations

import hashlib
import io
import os
import pickle
import tempfile
from typing import List, Optional, Tuple

from .builtins import ResolvedBuiltin, resolve_builtin

_FORMAT = "skelcl-progcache-v1"

_fingerprint_cache: Optional[str] = None


def enabled() -> bool:
    from .. import settings

    return settings.get("cache")


def cache_dir() -> str:
    from .. import settings

    return settings.cache_directory()


def _toolchain_fingerprint() -> str:
    """A digest over the sources of every class an entry pickles — the
    kernelc package (AST, types, diagnostics) and ``repro.analysis``
    (the SkelAccess summary memoized on the AST): any change to either
    invalidates the cache wholesale (cheap and safe; computed once per
    process)."""
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
    digest.update(_toolchain_fingerprint().encode())
    digest.update(preprocessed.encode())
    name = digest.hexdigest()
    return os.path.join(cache_dir(), name[:2], name + ".pkl")


class _Pickler(pickle.Pickler):
    def persistent_id(self, obj):
        if isinstance(obj, ResolvedBuiltin):
            return ("kernelc-builtin", obj.name, tuple(obj.param_types))
        return None


class _Unpickler(pickle.Unpickler):
    def persistent_load(self, pid):
        tag, name, param_types = pid
        if tag != "kernelc-builtin":
            raise pickle.UnpicklingError(f"unknown persistent id tag {tag!r}")
        resolved = resolve_builtin(name, list(param_types))
        if resolved is None:
            raise pickle.UnpicklingError(f"builtin {name!r} no longer resolves")
        return resolved


def load(preprocessed: str) -> Optional[Tuple[object, List[object]]]:
    """The cached ``(checked program, lint diagnostics)`` for
    ``preprocessed``, or None on any kind of miss."""
    if not enabled():
        return None
    try:
        with open(entry_path(preprocessed), "rb") as handle:
            payload = _Unpickler(handle).load()
        if not isinstance(payload, dict) or payload.get("format") != _FORMAT:
            return None
        return payload["program"], payload["lint"]
    except Exception:
        return None


def store(preprocessed: str, program: object, lint: List[object]) -> bool:
    """Persist a successfully compiled program; returns False (and stays
    silent) on any failure."""
    if not enabled():
        return False
    try:
        buffer = io.BytesIO()
        _Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL).dump(
            {"format": _FORMAT, "program": program, "lint": lint}
        )
        path = entry_path(preprocessed)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(buffer.getvalue())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return True
    except Exception:
        return False
