"""Symbol tables for the kernelc semantic analysis."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .ctypes_ import CType


@dataclass
class Symbol:
    name: str
    ctype: CType
    kind: str  # 'var', 'param', or 'global'
    address_space: str = "private"
    is_const: bool = False


class Scope:
    """A lexical scope chaining to its parent."""

    def __init__(self, parent: Optional["Scope"] = None):
        self.parent = parent
        self._symbols: Dict[str, Symbol] = {}

    def declare(self, symbol: Symbol) -> bool:
        """Declare ``symbol``; False if the name exists in this scope."""
        if symbol.name in self._symbols:
            return False
        self._symbols[symbol.name] = symbol
        return True

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            symbol = scope._symbols.get(name)
            if symbol is not None:
                return symbol
            scope = scope.parent
        return None

    def child(self) -> "Scope":
        return Scope(self)
