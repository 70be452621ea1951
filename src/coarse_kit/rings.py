"""Coefficient rings: Z, Q and Z_p for a prime p.

A ring is named by ``RING_Z``, ``RING_Q`` or ``ring_zp(p)``.  Both the
cochains of :mod:`coarse_kit.cochains` and the cohomology tables of
:mod:`coarse_kit.homology` take these names, and the ``homology`` command
reads its ``--ring`` flag into one, so each loads this module alone for
them.
"""

from math import isqrt

from .errors import InvalidParams

RING_Z = "Z"
RING_Q = "Q"


def is_prime(n):
    """True when the integer n is prime."""
    return n >= 2 and all(n % f for f in range(2, isqrt(n) + 1))


def ring_zp(p):
    """The ring Z_p; raises InvalidParams unless p is prime."""
    if not is_prime(p):
        raise InvalidParams(f"Z_p needs a prime p, got {p}")
    return ("Zp", p)


def _is_zp(ring):
    return isinstance(ring, tuple) and ring[0] == "Zp"
