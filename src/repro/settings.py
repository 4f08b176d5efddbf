"""Unified SkelCL configuration: one precedence chain for every switch.

Historically each subsystem read its own ``SKELCL_*`` environment
variable at its own call site; nine switches accumulated across five
packages.  This module consolidates them behind a frozen
:class:`Settings` dataclass and a single precedence chain, evaluated
lazily at every resolution point::

    explicit kwarg  >  skelcl.configure(...)  >  SKELCL_* env  >  default

``skelcl.configure(...)`` records process-wide overrides (the second
link of the chain); the environment variables keep working unchanged
for code and CI that already sets them.  ``Session.settings`` exposes
the values a session actually resolved, with its constructor kwargs
applied as the first link.

The seven settings and their environment spellings:

========== ===================== ==============================================
field      environment variable  meaning
========== ===================== ==============================================
cache      ``SKELCL_CACHE``      persistent compiled-program cache on/off
dir        ``SKELCL_DIR``        on-disk SkelCL artifacts (the program cache: ``<dir>/programs``)
lazy       ``SKELCL_LAZY``       lazy skeleton planner (fusion) on/off
metrics    ``SKELCL_METRICS``    metrics-snapshot path written at session exit
partition  ``SKELCL_PARTITION``  Block/Overlap split policy over the device pool
sanitize   ``SKELCL_SANITIZE``   SkelSan race detection (``off``/``report``/``strict``)
trace      ``SKELCL_TRACE``      Chrome-trace path written at session exit
========== ===================== ==============================================

This module is deliberately dependency-free (it imports nothing from
``repro``), so every layer — ``ocl``, ``kernelc``, ``analysis``,
``skelcl``, ``scope`` — can resolve through it without cycles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Dict, Optional

_TRUE_VALUES = ("1", "on", "true", "yes")
_FALSE_VALUES = ("off", "0", "no", "false", "disabled")

#: Canonical sanitize modes and the accepted aliases (mirrors
#: ``repro.analysis.races`` so the chain normalizes identically).
_SANITIZE_ALIASES = {
    "": "off", "0": "off", "off": "off", "none": "off", "false": "off",
    "report": "report", "warn": "report",
    "1": "strict", "on": "strict", "error": "strict", "true": "strict",
    "strict": "strict",
}

#: Partition policy names accepted as strings (objects — ``Partition``,
#: ``AdaptivePartitioner`` — pass through the chain untouched).
PARTITION_POLICIES = ("even", "throughput", "adaptive")


@dataclass(frozen=True)
class Settings:
    """The resolved SkelCL configuration (one value per switch)."""

    cache: bool = True
    dir: str = os.path.join("~", ".cache", "skelcl")
    lazy: bool = False
    metrics: Optional[str] = None
    partition: object = None
    sanitize: str = "off"
    trace: Optional[str] = None

    @property
    def env(self) -> Dict[str, str]:
        """The equivalent ``SKELCL_*`` environment mapping (unset
        switches omitted) — handy for spawning worker processes."""
        mapping = {}
        for name, var in _ENV_VARS.items():
            value = getattr(self, name)
            default = _DEFAULTS[name]
            if value == default or not isinstance(value, (str, bool, int)):
                continue
            mapping[var] = "1" if value is True else str(value)
        return mapping


_ENV_VARS = {
    "cache": "SKELCL_CACHE",
    "dir": "SKELCL_DIR",
    "lazy": "SKELCL_LAZY",
    "metrics": "SKELCL_METRICS",
    "partition": "SKELCL_PARTITION",
    "sanitize": "SKELCL_SANITIZE",
    "trace": "SKELCL_TRACE",
}

_DEFAULTS = {f.name: f.default for f in fields(Settings)}

#: Process-wide overrides installed by :func:`configure`.
_configured: Dict[str, object] = {}


def _parse_bool(name: str, value) -> bool:
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text in _TRUE_VALUES:
        return True
    if text in _FALSE_VALUES or text == "":
        return False
    raise ValueError(
        f"{name}={value!r} is not a boolean switch (use on/off, 1/0, true/false)"
    )


def _normalize(name: str, value, *, from_env: bool = False):
    """Validate and canonicalize one setting value."""
    if name in ("cache", "lazy"):
        if from_env and not str(value).strip():
            return _DEFAULTS[name]
        return _parse_bool(name, value)
    if name == "sanitize":
        if isinstance(value, bool):
            return "strict" if value else "off"
        text = str(getattr(value, "value", value)).strip().lower()
        mode = _SANITIZE_ALIASES.get(text)
        if mode is None:
            raise ValueError(
                f"sanitize={value!r} is not a sanitize mode (off/report/strict)"
            )
        return mode
    if name == "partition":
        if isinstance(value, str):
            policy = value.strip().lower()
            if from_env and not policy:
                return None
            if policy not in PARTITION_POLICIES:
                raise ValueError(
                    f"unknown partition policy {value!r} "
                    f"(choose from {', '.join(PARTITION_POLICIES)}, or pass a "
                    "Partition / AdaptivePartitioner)"
                )
            return policy
        return value  # Partition / AdaptivePartitioner objects pass through
    if name in ("dir", "metrics", "trace"):
        text = str(value)
        if from_env and not text:
            return _DEFAULTS[name]
        return text
    raise AssertionError(f"unknown setting {name!r}")


def get(name: str, explicit=None):
    """Resolve one setting through the precedence chain.

    ``explicit`` is the caller's kwarg (``None`` means "not given" —
    every switch treats ``None`` as deferral, matching the historic
    per-subsystem behaviour)."""
    if name not in _DEFAULTS:
        raise KeyError(f"unknown SkelCL setting {name!r}")
    if explicit is not None:
        return _normalize(name, explicit)
    if name in _configured:
        return _configured[name]
    raw = os.environ.get(_ENV_VARS[name])
    if raw is not None:
        return _normalize(name, raw, from_env=True)
    return _DEFAULTS[name]


def current() -> Settings:
    """The process-wide resolved :class:`Settings` (no explicit kwargs)."""
    return Settings(**{name: get(name) for name in _DEFAULTS})


def resolve(**explicit) -> Settings:
    """A :class:`Settings` with ``explicit`` kwargs applied as the first
    link of the chain (``None`` values defer down-chain)."""
    unknown = set(explicit) - set(_DEFAULTS)
    if unknown:
        raise TypeError(
            f"unknown setting(s) {', '.join(sorted(unknown))}; valid settings: "
            + ", ".join(sorted(_DEFAULTS))
        )
    return Settings(
        **{name: get(name, explicit.get(name)) for name in _DEFAULTS}
    )


def configure(reset: bool = False, **overrides) -> Settings:
    """Install process-wide configuration overrides.

    Keyword arguments name :class:`Settings` fields; each value is
    validated and canonicalized immediately.  ``configure()`` with no
    arguments just returns the currently resolved :class:`Settings`;
    ``configure(reset=True)`` drops all previous overrides first (then
    applies any accompanying kwargs).  Environment variables below the
    overrides in the chain keep working; an explicit kwarg at a call
    site (``skelcl.init(lazy=...)``) still beats both.
    """
    if reset:
        _configured.clear()
    unknown = set(overrides) - set(_DEFAULTS)
    if unknown:
        raise TypeError(
            f"configure() got unknown setting(s) {', '.join(sorted(unknown))}; "
            "valid settings: " + ", ".join(sorted(_DEFAULTS))
        )
    for name, value in overrides.items():
        if value is None:
            _configured.pop(name, None)  # None clears one override
        else:
            _configured[name] = _normalize(name, value)
    return current()


#: Public alias: ``skelcl.current_settings()`` reads more naturally than
#: ``settings.current()`` at the package surface.
current_settings = current


def cache_directory() -> str:
    """The resolved program-cache directory, ``<dir>/programs``
    (``~/.cache/skelcl/programs`` when ``dir`` is at its default)."""
    return os.path.join(os.path.expanduser(get("dir")), "programs")
