"""Exact Moebius dynamics over the rationals at every place of Q.

Maps x -> (ax + b)/(cx + d) with rational coefficients are iterated in
exact arithmetic; their rational fixed points are classified as attractive,
repelling or indifferent simultaneously at the real place and at every
p-adic place, with the finitely many non-indifferent primes computed
explicitly.

Each module declares its public names once, in its `__all__`; the package
republishes the union of those lists.
"""

from .classification import *
from .dynamics import *
from .exact import *
from .moebius import *
from .padic import *

__all__ = sorted(
    [*classification.__all__, *dynamics.__all__, *exact.__all__, *moebius.__all__, *padic.__all__]
)
