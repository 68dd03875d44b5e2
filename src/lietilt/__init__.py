"""Exact character-theoretic decompositions for SL(2) in prime characteristic.

Weyl, simple, and tilting characters with unitriangular basis conversion;
Witt weight counts for Lie powers; the characteristic-2 bidegree splitting;
a coefficient-sequence engine for the near-top Lie power summand; and
classification reports over two-row highest weights.
"""

from . import charring, gzeta, liechar, modarith, report, tiltchar
from .charring import *
from .gzeta import *
from .liechar import *
from .modarith import *
from .report import *
from .tiltchar import *

__version__ = "0.1.0"

__all__ = sorted(
    charring.__all__ + gzeta.__all__ + liechar.__all__ + modarith.__all__ + report.__all__ + tiltchar.__all__
)
