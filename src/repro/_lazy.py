"""Lazy package namespaces (PEP 562).

Every package ``__init__`` under ``repro`` declares its public names once,
in a table mapping each name to the module that defines it::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "BlockingReport": ".index",
        "InvertedIndexBlocker": ".index",
    })

Importing the package then runs no submodule.  The first access to a
name imports its defining module and caches the value in the package
globals, so later accesses never reach ``__getattr__``.  A process pays
only for the modules it uses: a serving shard never compiles the
evaluation runner, and ``from repro import LandmarkExplainer`` loads the
explainer stack, not the bulk jobs.

A name outside the table that names a submodule imports it, so
``import repro`` followed by ``repro.core.landmark.LandmarkExplainer``
needs no explicit submodule import.

A name equal to a sibling submodule's name cannot stay lazy: importing
``pkg.name`` makes the import system set the package attribute to the
submodule, and ``__getattr__`` is never asked.  Such a name is bound
eagerly in its package (``repro.evaluation`` does this).
"""

from __future__ import annotations

import importlib
import sys
from collections.abc import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps each public name to its defining module, absolute or
    relative to *package*; ``__all__`` keeps the table's order.
    """

    def __getattr__(name: str) -> object:
        if name not in exports:
            submodule = f"{package}.{name}"
            try:
                return importlib.import_module(submodule)
            except ModuleNotFoundError as error:
                if error.name != submodule:
                    raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name], package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return list(exports), __getattr__, __dir__
