"""Lazy re-exports for the package ``__init__`` modules (PEP 562).

A package that re-exports its submodules' public names eagerly makes every
importer pay for every submodule, and for the stdlib modules they pull in,
whatever it goes on to run.  :func:`lazy_exports` gives such a package a
module-level ``__getattr__`` that imports a name's submodule the first time
the name is read, so a process loads only the modules it uses.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, MutableMapping, Tuple


def lazy_exports(
    namespace: MutableMapping[str, object],
    exports: Dict[str, str],
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package that re-exports lazily.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    re-exported name to the submodule that defines it, relative to the
    package.  The first read of a name imports that submodule and stores
    the name in ``namespace``, so later reads are plain attribute lookups.
    The value is read from the submodule at that moment: a function that was
    replaced in the submodule before then is re-exported as replaced.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(f".{module}", package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
