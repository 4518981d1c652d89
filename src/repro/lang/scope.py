"""Symbol tables and index-set scoping for UC.

Index sets obey the paper's shadowing rule (§3.4): reusing an index set in
a nested construct rebinds its element identifier, hiding the outer
binding exactly like redeclaration of a C variable in an inner block.
The same :class:`ScopeStack` serves semantic analysis (names only) and the
interpreter (names bound to runtime values).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .errors import UCSemanticError


@dataclass(frozen=True)
class IndexSetValue:
    """A concrete, constant, ordered set of integers (paper §3.1)."""

    name: str
    elem_name: str
    values: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __contains__(self, x: int) -> bool:
        return x in self.values

    def with_element(self, elem_name: str) -> "IndexSetValue":
        """The same set bound to a different element identifier (alias)."""
        return IndexSetValue(self.name, elem_name, self.values)


@dataclass
class Symbol:
    """One named entity: scalar, array, index set, element or function."""

    name: str
    kind: str  # 'scalar' | 'array' | 'index_set' | 'element' | 'function' | 'const'
    ctype: str = "int"  # for scalar/array/function return
    dims: Tuple[int, ...] = ()
    value: Any = None  # semantic: const value / IndexSetValue; interp: runtime value


class Scope:
    """One lexical scope level."""

    def __init__(self, parent: Optional["Scope"] = None) -> None:
        self.parent = parent
        self.symbols: Dict[str, Symbol] = {}

    def declare(self, sym: Symbol, *, allow_shadow: bool = True) -> Symbol:
        if sym.name in self.symbols:
            raise UCSemanticError(f"duplicate declaration of {sym.name!r} in this scope")
        if not allow_shadow and self.lookup(sym.name) is not None:
            raise UCSemanticError(f"{sym.name!r} shadows an outer declaration")
        self.symbols[sym.name] = sym
        return sym

    def lookup(self, name: str) -> Optional[Symbol]:
        scope: Optional[Scope] = self
        while scope is not None:
            if name in scope.symbols:
                return scope.symbols[name]
            scope = scope.parent
        return None

    def lookup_local(self, name: str) -> Optional[Symbol]:
        return self.symbols.get(name)


class ScopeStack:
    """Convenience wrapper managing a stack of :class:`Scope` levels."""

    def __init__(self) -> None:
        self.current = Scope()
        self.globals = self.current

    def push(self) -> Scope:
        self.current = Scope(self.current)
        return self.current

    def pop(self) -> None:
        if self.current.parent is None:
            raise RuntimeError("cannot pop the global scope")
        self.current = self.current.parent

    def declare(self, sym: Symbol) -> Symbol:
        return self.current.declare(sym)

    def lookup(self, name: str) -> Optional[Symbol]:
        return self.current.lookup(name)

    def require(self, name: str, *kinds: str, at) -> Symbol:
        """The symbol ``name`` (of one of ``kinds``, when given); raises
        at the position of node ``at``, where the name is used."""
        sym = self.lookup(name)
        if sym is None:
            raise UCSemanticError(f"undeclared identifier {name!r}", at.line, at.col)
        if kinds and sym.kind not in kinds:
            raise UCSemanticError(
                f"{name!r} is a {sym.kind}, expected {' or '.join(kinds)}", at.line, at.col
            )
        return sym

    def scoped(self) -> "_ScopedCtx":
        return _ScopedCtx(self)


class _ScopedCtx:
    def __init__(self, stack: ScopeStack) -> None:
        self._stack = stack

    def __enter__(self) -> Scope:
        return self._stack.push()

    def __exit__(self, *exc: object) -> None:
        self._stack.pop()
