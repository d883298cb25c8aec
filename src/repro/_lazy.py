"""Lazy package exports (PEP 562) for the ``repro`` package ``__init__``\\ s.

A package ``__init__`` that imports its submodules to re-export their
names makes every ``import repro.x.y`` load all of ``repro.x`` first.
``repro serve`` needs a fraction of the tree, so each package instead
names where its exports live and imports a submodule only when one of
its names is first read::

    if TYPE_CHECKING:
        from repro.net.link import LinkModel, links

    __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.net.link": ("LinkModel", "links"),
    })

The ``TYPE_CHECKING`` block repeats the table for the static checkers
(mypy, ruff, the reachability test), which cannot see through
``__getattr__``; ``tests/test_public_api.py`` checks that the two agree
with each other and with ``__all__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` for ``package``.

    Args:
        package: the package's ``__name__``.
        exports: home module -> the names the package re-exports from it.

    ``__getattr__`` imports a name's home module on first access and
    caches the value on the package, so later reads are plain attribute
    reads.  Any other name raises :class:`AttributeError`, which is what
    lets ``from package import submodule`` fall back to importing the
    submodule.  ``__dir__`` lists the exports beside what is loaded.
    """
    home: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(home))

    return __getattr__, __dir__
