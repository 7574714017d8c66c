"""Lazy package exports (PEP 562).

A package ``__init__`` lists each public name once, under the submodule
that defines it, and that submodule is imported on first access.  A
spawned shard worker that unpickles ``repro.sharding.runner`` then
imports what the shard runner needs, not every subsystem.
"""

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s ``__init__``.

    ``exports`` maps a relative submodule name (``".api"``) to the
    space-separated public names it defines.  Submodules themselves
    are imported as usual (``import repro.gmbe.kernel``).
    """
    origin = {
        name: module
        for module, names in exports.items()
        for name in names.split()
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__, sorted(origin)
