"""Indigenous semirings: exact saturating counting arithmetic and its structure theory.

The modules are the interface: ``core`` (elements, ``SemiringCtx`` and
the law check), ``graphs``, ``ideals`` (lattice, spectrum, localization
and the ideal semiring), ``series`` (polynomials and windows),
``checks`` (the theorem sweep), ``bounds``, ``kernels`` and ``cli``.
"""

from .core import SemiringCtx
