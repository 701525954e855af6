"""Computing with finite semiquandles and their knot-theoretic invariants."""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """Load a submodule on first access as an attribute of the package
    (PEP 562), so that `import semiquandles` loads none of them."""
    if name in ("algebra", "cli", "diagram", "enumeration", "moves", "present",
                "vassiliev"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
