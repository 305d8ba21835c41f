"""momentkit: truncated moment problems, backward extensions, and
weighted-shift completion solvers with verifiable certificates.

A command-line call compiles every module it imports when no bytecode is
cached, so code that only the completion kinds, certificates or tests run
lives in private siblings of the layers that every window call loads
(`_roots` beside `numeric`, `_recurrence` beside `measure`, `_recovery` beside
`positivity`, `_extension` beside `backward`).  Each public name moved there
keeps its import path through one hook, `_serve` (PEP 562).
"""

import sys

__version__ = "0.1.0"


def _serve(name: str, homes: dict) -> tuple:
    """(__getattr__, __dir__) for the module `name`, which serves each name
    in homes[sibling] from the module `sibling` of this package.  The first
    access of such a name (an attribute read, a ``from`` import or
    `getattr`) imports the sibling and binds the sibling's own object into
    the module's namespace, so every later access is a plain lookup, and
    `__dir__` lists the name before that."""
    module = sys.modules[name]
    home = {attr: sibling for sibling, attrs in homes.items() for attr in attrs}

    def __getattr__(attr: str):
        sibling = home.get(attr)
        if sibling is None:
            raise AttributeError(f"module {name!r} has no attribute {attr!r}")
        value = getattr(__import__(f"{__name__}.{sibling}", fromlist=(attr,)), attr)
        setattr(module, attr, value)
        return value

    def __dir__() -> list:
        return sorted({*vars(module), *home})

    return __getattr__, __dir__
