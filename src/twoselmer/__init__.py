"""2-Selmer ranks of quadratic twists of elliptic curves with full rational 2-torsion."""

from .curve import FullTwoTorsionModel, LongModel, sigma_set, twist
from .padic import Place, REAL_PLACE
from .selmer import SelmerSpec, SelmerResult, selmer_group
from .twist_lab import parity_check, rank_of_twist

__all__ = [
    "FullTwoTorsionModel",
    "LongModel",
    "Place",
    "REAL_PLACE",
    "SelmerResult",
    "SelmerSpec",
    "parity_check",
    "rank_of_twist",
    "selmer_group",
    "sigma_set",
    "twist",
]

__version__ = "0.1.0"
