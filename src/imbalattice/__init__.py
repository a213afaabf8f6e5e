"""Exact algorithms on the imbalance lattice of binary-tree path-length
sequences.

The package covers the full pipeline: validating Kraft-exact depth
sequences, comparing them in the balance-dominance order, splitting and
merging leaves, counting and enumerating each fixed-length universe with
its meet, join and covering structure, the balancing moves whose closure
generates the order, three independent join-irreducibility tests, canonical trees and
prefix codes, and a brute-force oracle layer for verifying all of it.

Everything computes with arbitrary-precision integers; there is no
floating point anywhere.

The public names live in each module's ``__all__``; this package
re-exports them all and joins those lists into its own ``__all__``.

What runs when: ``import imbalattice`` runs none of the eight library
modules.  It puts each of them in ``sys.modules`` (and on the package)
unexecuted, and a module runs on its first use: the first access of one
of its attributes, which an import from it makes too.  A public name
read through the package is looked up module by module in dependency
order and then kept on the package, so ``imbalattice.validate`` runs
``errors`` and ``sequences`` only, ``imbalattice.meet`` adds
``transforms`` and ``lattice``, and a second read costs a plain
attribute lookup.  ``__all__``, ``dir()`` and ``from imbalattice import
*`` need every list, so they run all eight.  A first run holds one lock,
so threads that race to a module's first use all see it complete.
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# The order of ``__all__``.
_MODULES = (
    "errors", "sequences", "transforms", "lattice",
    "irreducibility", "oracle", "trees", "verify",
)
# The order a name is looked up in: each module after the ones it
# imports, and ``trees`` before ``irreducibility`` and ``oracle``, so a
# name of ``sequences``, ``lattice`` or ``trees`` runs neither of those.
_LOOKUP = (
    "errors", "sequences", "transforms", "lattice",
    "trees", "irreducibility", "oracle", "verify",
)

_first_run = RLock()
_running: set = set()


class _Deferred(ModuleType):
    """A module whose code runs on its first attribute access.

    The first run holds ``_first_run`` until the module's code is done, so
    another thread waits for it and then reads the finished module.  The
    running thread itself reads straight through, as the import machinery
    does for ``__name__`` and ``__dict__`` of the module it runs.
    """

    def __getattribute__(self, attr):
        with _first_run:
            if type(self) is _Deferred and self not in _running:
                _running.add(self)
                try:
                    ModuleType.__getattribute__(self, "__spec__").loader.exec_module(self)
                finally:
                    _running.discard(self)
                self.__class__ = ModuleType
        return ModuleType.__getattribute__(self, attr)


def _defer(name: str) -> ModuleType:
    """Register the submodule ``name`` unexecuted, unless it is already
    registered (as on a reload of the package)."""
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    if module is None:
        module = module_from_spec(find_spec(full))
        module.__class__ = _Deferred
        sys.modules[full] = module
    return module


for _name in _MODULES:
    globals()[_name] = _defer(_name)
del _name


def __getattr__(name: str):
    if name == "__all__":
        value = [public for module in _MODULES for public in globals()[module].__all__]
    else:
        # Only a public name that is no submodule is looked up, so neither a
        # probe such as ``__wrapped__`` nor ``from imbalattice import cli``
        # runs a library module.
        owner = None
        if not name.startswith("_") and find_spec(f"{__name__}.{name}") is None:
            owner = next((m for m in _LOOKUP if name in globals()[m].__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(globals()[owner], name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
