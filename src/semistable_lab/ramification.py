"""Ramification filtrations in lower numbering and conductor bookkeeping.

A filtration is the abstract order sequence [|G_0|, |G_1|, ..., 1] of a
local Galois group's ramification subgroups; all computations here consume
orders only, never field elements.  The transition function phi (and its
inverse psi) convert to upper numbering; the conductor exponent of an
abelian extension is phi(c) + 1 where c is the last nontrivial index.
Both are read in closed form from the prefix sums S_i = |G_1| + ... + |G_i|
(Serre, Local Fields, IV 3): phi(u) = (S_m + (u - m) |G_(m+1)|) / |G_0|
with m = floor(u), and psi inverts it by one bisection over S.

Towers model E over F over M over Q_l with M the l-th cyclotomic field:
`total` is the filtration of Gal(E/Q_l), `sub` that of Gal(E/F), and the
quotient filtration of Gal(F/M) is derived through the transition function.
A drop in |H_x| / |N_x| at a lower index x surfaces in the quotient at
position phi_sub(x); honest Galois quotients only jump at integers, so
non-integral drop positions are rejected as inconsistent rather than
silently sampled over.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .arith import Frozen, is_prime, ord_at


class RamFiltration(Frozen):
    """Non-increasing chain of subgroup orders, trailing 1 normalized.

    `sums` holds the prefix sums (0, |G_1|, |G_1| + |G_2|, ...) over the
    orders, computed once, when the filtration is built.
    """

    __slots__ = ("orders", "base_field_tag", "sums")
    _fields = ("orders", "base_field_tag")

    def __init__(self, orders: tuple[int, ...], base_field_tag: str = "") -> None:
        orders = tuple(int(x) for x in orders)
        if not orders:
            orders = (1,)
        if any(x < 1 for x in orders):
            raise ValueError("group orders must be positive")
        for a, b in zip(orders, orders[1:]):
            if b > a:
                raise ValueError(f"orders must be non-increasing, got {a} then {b}")
            if a % b:
                raise ValueError(f"each order must divide the previous: {b} after {a}")
        # normalize: exactly one trailing 1 (the orders fall, so 1s trail)
        orders = orders[:orders.index(1) + 1] if 1 in orders else orders + (1,)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "base_field_tag", base_field_tag)
        object.__setattr__(self, "sums", tuple(accumulate(orders[1:], initial=0)))

    @staticmethod
    def trivial(tag: str = "") -> "RamFiltration":
        return RamFiltration((1,), tag)

    def order(self, i: int) -> int:
        """|G_i|, extended by the trivial tail."""
        if i < 0:
            raise ValueError("lower numbering starts at 0")
        return self.orders[i] if i < len(self.orders) else 1

    @property
    def last_break(self) -> int | None:
        """Largest i with G_i nontrivial, None for the trivial filtration:
        normalization leaves exactly one trailing 1."""
        return len(self.orders) - 2 if len(self.orders) > 1 else None


def herbrand_phi(f: RamFiltration, u) -> Fraction:
    """Transition function phi(u) = integral of dt/[G_0 : G_t] from 0 to u.

    The integrand on (i-1, i] is |G_i| / |G_0| (ceiling convention), making
    phi piecewise linear with breakpoints at integers, phi(0) = 0, so
    phi(u) = (S_m + (u - m) |G_(m+1)|) / |G_0| with m = floor(u).  Every order
    from the trailing 1 on is 1, so m is capped at that index and the same
    line covers the tail.
    """
    u = Fraction(u)
    if u < 0:
        raise ValueError("phi is defined for u >= 0")
    m = min(u.numerator // u.denominator, len(f.orders) - 1)
    return (f.sums[m] + (u - m) * f.order(m + 1)) / f.orders[0]


def herbrand_psi(f: RamFiltration, y) -> Fraction:
    """Inverse of the transition function: phi(psi(y)) = y.

    With t = y |G_0| and m the largest index with S_m <= t,
    psi(y) = m + (t - S_m) / |G_(m+1)|; past the last index the orders
    are 1 and the same line holds.
    """
    y = Fraction(y)
    if y < 0:
        raise ValueError("psi is defined for y >= 0")
    t = y * f.orders[0]
    # S holds integers, so S_m <= t exactly when S_m <= floor(t)
    m = bisect_right(f.sums, t.numerator // t.denominator) - 1
    return m + (t - f.sums[m]) / f.order(m + 1)


def upper_jumps(f: RamFiltration) -> list[Fraction]:
    """phi-images of the lower-numbering indices where the group drops."""
    jumps = []
    for i in range(len(f.orders)):
        if f.order(i) > f.order(i + 1):
            jumps.append(herbrand_phi(f, i))
    return jumps


def conductor_exponent(f: RamFiltration) -> Fraction:
    """phi(c) + 1 for the last nontrivial index c; 0 when unramified."""
    c = f.last_break
    if c is None:
        return Fraction(0)
    return herbrand_phi(f, c) + 1


def check_break_bound(f: RamFiltration, ell: int) -> bool:
    """Upper-numbering triviality above 1/(ell - 1), tie allowed.

    True iff G_x = 1 for every lower index x with phi(x) > 1/(ell - 1);
    since phi is increasing this reduces to phi(c) <= 1/(ell - 1) at the
    last nontrivial index c.
    """
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    c = f.last_break
    if c is None:
        return True
    return herbrand_phi(f, c) <= Fraction(1, ell - 1)


class TowerReport(NamedTuple):
    l4_holds: bool
    f_top: Fraction
    f_bottom: Fraction
    equivalence_witnessed: bool


class TowerData:
    """Order data for a tower E / F / M / Q_l with M the cyclotomic layer.

    total: filtration of Gal(E/Q_l); sub: filtration of Gal(E/F) (so
    sub_x = |N meet G_x|); quotient: filtration of Gal(F/M) in its own
    lower numbering, derived from total and sub, or validated against the
    derivation when passed explicitly.
    """

    def __init__(
        self,
        total: RamFiltration,
        sub: RamFiltration,
        quotient: RamFiltration | None = None,
    ) -> None:
        self.total = total
        self.sub = sub
        # Gal(E/M) has order prime to the tame degree in each wild level,
        # and its inertia is exactly G_1 because M/Q_l exhausts the tame
        # quotient; so H_0 = total_1 and H_x = total_x for x >= 1.
        self._h = RamFiltration((total.order(1),) + total.orders[1:], "over cyclotomic layer")
        self._validate()
        derived = self._derive_quotient()
        if quotient is not None and quotient.orders != derived.orders:
            raise ValueError(
                f"inconsistent tower orders: quotient {quotient.orders} "
                f"does not match derived {derived.orders}"
            )
        self.quotient = derived

    def _validate(self) -> None:
        n, h = self.sub, self._h
        if self.sub.order(0) != self.sub.order(1):
            raise ValueError(
                "inconsistent tower orders: the middle-layer group has a "
                "tame quotient (sub_0 != sub_1)"
            )
        span = max(len(n.orders), len(h.orders)) + 1
        for x in range(span):
            if h.order(x) % n.order(x):
                raise ValueError(
                    f"inconsistent tower orders: sub order {n.order(x)} does "
                    f"not divide {h.order(x)} at level {x}"
                )
        # with n | h everywhere, q(x)/q(x+1) = step_h/step_n, so this test
        # also makes the quotient orders a divisor chain
        for x in range(span):
            step_n = n.order(x) // n.order(x + 1)
            step_h = h.order(x) // h.order(x + 1)
            if step_h % step_n:
                raise ValueError(
                    "inconsistent tower orders: consecutive quotient of sub "
                    f"does not divide that of the ambient group at level {x}"
                )

    def _derive_quotient(self) -> RamFiltration:
        n, h = self.sub, self._h
        span = max(len(n.orders), len(h.orders)) + 1
        values = [h.order(x) // n.order(x) for x in range(span + 1)]
        # a quotient drop at lower index x appears at position phi_sub(x);
        # actual Galois filtrations jump only at integers
        for x in range(span):
            if values[x] > values[x + 1]:
                pos = herbrand_phi(n, x)
                if pos.denominator != 1:
                    raise ValueError(
                        "inconsistent tower orders: quotient filtration would "
                        f"jump at the non-integer position {pos}"
                    )
        out = []
        y = 0
        while True:
            x = herbrand_psi(n, y)
            xc = -(-x.numerator // x.denominator)  # ceiling
            val = h.order(xc) // n.order(xc)
            out.append(val)
            if val == 1:
                break
            y += 1
        return RamFiltration(tuple(out), "quotient layer")


def check_tower_equivalence(t: TowerData, ell: int) -> TowerReport:
    """Break bound for the full group vs. conductor bounds on both floors.

    The two floor conductors are those of E/F (from `sub`) and F/M (from
    the derived quotient); the report records each side and whether they
    agree, which must hold for every consistent tower.
    """
    if not is_prime(ell):
        raise ValueError(f"ell must be prime, got {ell}")
    tame = t.total.order(0) // t.total.order(1)
    if tame != ell - 1:
        raise ValueError(
            f"inconsistent tower orders: tame degree {tame} != {ell - 1}"
        )
    span = len(t.total.orders)
    for x in range(1, span):
        o = t.total.order(x)
        if o != ell ** ord_at(o, ell):
            raise ValueError(
                f"inconsistent tower orders: wild level {x} has order "
                f"{t.total.order(x)} not a power of {ell}"
            )
    l4 = check_break_bound(t.total, ell)
    f_top = conductor_exponent(t.sub)
    f_bottom = conductor_exponent(t.quotient)
    both_small = f_top <= 2 and f_bottom <= 2
    return TowerReport(
        l4_holds=l4,
        f_top=f_top,
        f_bottom=f_bottom,
        equivalence_witnessed=(l4 == both_small),
    )
