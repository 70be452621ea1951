"""Degree arithmetic for circle maps and the two-prime Bezout bounds.

Houses the minimal-|m| solutions of n*p^k + m*q^k = 1, the exact winding
number of a cellular map between circle subcomplexes, and the consistency
checks relating hole degrees to the boundary degree.
"""

import warnings
from fractions import Fraction
from math import gcd

from .errors import HypothesisViolated, ImageNotOnCircle, NotACycle, NotCoprime


class DegreeReport:
    """Degree data for one retraction candidate at parameters (p, q, k)."""

    def __init__(self, p, q, k, d=None, d_p=None, d_q=None):
        self.p = p
        self.q = q
        self.k = k
        self.d = d
        self.d_p = d_p
        self.d_q = d_q

    @property
    def bound_m(self):
        return Fraction(self.p ** self.k - 1, self.q ** self.k)


def bezout(p, q, k):
    """(n, m) with n*p^k + m*q^k = 1 and |m| minimal (ties: positive m)."""
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    if k < 1:
        raise NotCoprime("level k must be >= 1")
    P, Q = p ** k, q ** k
    # general solution: m = m0 + t*P; pick the representative in (-P/2, P/2]
    m0 = pow(Q, -1, P)  # Q * m0 = 1 mod P
    m = m0 % P
    if m > P - m:  # strictly closer to zero from below
        m -= P
    elif 2 * m == P:  # tie: keep the positive one
        pass
    n = (1 - m * Q) // P
    assert n * P + m * Q == 1
    return n, m


def min_m_bound(p, q, k):
    """Lower bound (p^k - 1)/q^k on |m| in any solution of n*p^k + m*q^k = 1.

    Holds for k >= 1 since neither coefficient can vanish.  Warns (and still
    computes) when p <= q^2, outside the regime that makes the bound large.
    """
    if p <= q * q:
        warnings.warn(
            f"p = {p} <= q^2 = {q * q}: bound computed but not large",
            HypothesisViolated,
        )
    return Fraction(p ** k - 1, q ** k)


def circle_map_degree(f, src_cycle, dst_cycle):
    """The integer lambda with f_#(src_cycle) = lambda * dst_cycle.

    Both cycles are {edge index: coefficient} fundamental 1-cycles of circle
    subcomplexes.  Raises NotACycle if either chain has a boundary and
    ImageNotOnCircle if the image is not a multiple of the target cycle.
    """
    for X, chain, name in ((f.source, src_cycle, "source"),
                           (f.target, dst_cycle, "target")):
        acc = {}
        ends = X.edge_ends()
        for e, c in chain.items():
            tail, head = ends[e]
            acc[tail] = acc.get(tail, 0) - c
            acc[head] = acc.get(head, 0) + c
        if any(v != 0 for v in acc.values()):
            raise NotACycle(f"{name} chain is not a cycle")
    image = f.chain_image(1, src_cycle)
    if not image:
        return 0
    probe = next(iter(dst_cycle))
    if probe not in image and image:
        # pick any edge present in the image to compute the ratio
        probe = next(iter(image))
    if dst_cycle.get(probe, 0) == 0:
        raise ImageNotOnCircle("image uses edges outside the target cycle")
    num, den = image[probe], dst_cycle[probe]
    if num % den != 0:
        raise ImageNotOnCircle("image is not an integer multiple of the cycle")
    lam = num // den
    if image != {e: lam * c for e, c in dst_cycle.items() if lam * c != 0}:
        raise ImageNotOnCircle("image is not supported on the target cycle")
    return lam


def check_degree_relation(report):
    """Verify d_p*p^k + d_q*q^k = d, plus the quotient bound when it applies.

    When d != 0 and d_q != 0 the construction forces d | d_p, d | d_q and
    |d_q/d| >= (p^k - 1)/q^k.  Returns (ok, explanation).
    """
    p, q, k = report.p, report.q, report.k
    P, Q = p ** k, q ** k
    if report.d_p is None or report.d_q is None or report.d is None:
        return False, "degree data incomplete"
    lhs = report.d_p * P + report.d_q * Q
    if lhs != report.d:
        return False, f"{report.d_p}*{P} + {report.d_q}*{Q} = {lhs} != {report.d}"
    notes = [f"{report.d_p}*{P} + {report.d_q}*{Q} = {report.d}"]
    if report.d != 0 and report.d_q != 0:
        if report.d_p % report.d or report.d_q % report.d:
            return False, "hole degrees are not divisible by the boundary degree"
        ratio = Fraction(abs(report.d_q), abs(report.d))
        bound = report.bound_m
        if ratio < bound:
            return False, f"|d_q/d| = {ratio} < (p^k-1)/q^k = {bound}"
        notes.append(f"|d_q/d| = {ratio} >= {bound}")
    return True, "; ".join(notes)
