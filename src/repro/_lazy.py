"""Lazy package surfaces (PEP 562).

A package lists its public names once, as a table mapping each
submodule to the names it exports, and gets back its ``__all__`` and a
module ``__getattr__`` that imports the owning submodule on first use.
``import repro.engine`` then costs nothing until a name is read, so a
verb that mines never loads the pool, the simulator or the bench
harness.  The first read caches the value in the package globals;
importlib's module locks make concurrent first reads safe.
"""

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_surface(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` for ``package`` from its export table."""
    owner: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    return list(owner), __getattr__
