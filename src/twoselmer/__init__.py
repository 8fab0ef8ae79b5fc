"""2-Selmer ranks of quadratic twists of elliptic curves with full rational 2-torsion."""

from .curve import FullTwoTorsionModel, LongModel, sigma_set
from .padic import REAL_PLACE
from .selmer import SelmerResult, selmer_group
from .twist_lab import parity_check, rank_of_twist

__all__ = [
    "FullTwoTorsionModel",
    "LongModel",
    "REAL_PLACE",
    "SelmerResult",
    "parity_check",
    "rank_of_twist",
    "selmer_group",
    "sigma_set",
]

__version__ = "0.1.0"
