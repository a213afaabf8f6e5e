"""The public names have one home: each library module's ``__all__``.

The package re-exports those lists and joins them into its own
``__all__``, so a name is declared once, next to its definition.
"""

import importlib
import inspect

import imbalattice
import imbalattice.errors

MODULES = [
    importlib.import_module(f"imbalattice.{name}")
    for name in (
        "errors", "sequences", "transforms", "lattice",
        "irreducibility", "oracle", "trees", "verify",
    )
]


def test_package_all_joins_the_module_lists():
    joined = [name for module in MODULES for name in module.__all__]
    assert list(imbalattice.__all__) == joined
    assert len(set(joined)) == len(joined)


def test_each_name_is_the_object_of_its_module():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(imbalattice, name) is getattr(module, name), name


def test_errors_exports_exactly_its_exception_classes():
    defined = [
        name
        for name, value in vars(imbalattice.errors).items()
        if inspect.isclass(value)
        and issubclass(value, Exception)
        and value.__module__ == imbalattice.errors.__name__
    ]
    assert sorted(imbalattice.errors.__all__) == sorted(defined)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from imbalattice import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(imbalattice.__all__)
