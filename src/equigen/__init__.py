"""equigen: exact obstruction calculus for equisingular curve deformations.

Generation of the obstruction polynomials of a local branch model (a, b),
decision procedures for the transversality and genericity conditions, a
budgeted Groebner engine for radical membership, truncated-series
reparameterization with order audits, and an order-by-order t-adic lifting
engine across several singular points.

Import the functions from their modules (``equigen.expansion``,
``equigen.groebner``, ...); the package itself holds only the version.
"""

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "cache",
    "cli",
    "expansion",
    "groebner",
    "lifting",
    "polycore",
    "series",
]
