"""Finite abelian groups presented as explicit products of cyclic factors.

A group is described by its written factor list (``Z2xZ3`` -> factors
``(2, 3)``); elements are tuples of residues, one per factor, always stored
reduced.  The factor order is kept exactly as written -- the downstream
constructions depend on the presentation, so no invariant-factor
normalisation happens here.  Element enumeration is lexicographic
mixed-radix with the identity first, and that order fixes every matrix and
flow indexing in the package.

Element indices ``0..g-1`` follow that order.  Each ``GroupSpec`` builds
its :class:`CayleyTable` (element list, index map, add and neg tables on
the indices) on first use and keeps it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, NamedTuple

from .errors import GroupParseError

Element = tuple[int, ...]

# ASCII digits only: ``\d`` would take any script's digits, which int() reads
_FACTOR_RE = re.compile(r"Z([0-9]+)")


def parse_group_spec(text: str) -> "GroupSpec":
    """Parse ``Z<a1>xZ<a2>x...`` keeping the factors in written order.

    Errors name the first bad factor by its position or digit count, never
    by the whole text, so that a long spec still gives a short message."""
    factors = []
    for pos, part in enumerate(re.split("[xX]", text.strip()), 1):
        m = _FACTOR_RE.fullmatch(part)
        if m is None:
            raise GroupParseError(f"malformed group spec: factor {pos} is not "
                                  f"Z<n> (expected Z<n> factors joined by 'x')")
        try:
            a = int(m.group(1))
        except ValueError:  # past Python's int-to-string digit limit
            raise GroupParseError(f"group spec factor {pos} has "
                                  f"{len(m.group(1))} digits: too large") from None
        if a < 2:
            raise GroupParseError(f"cyclic factor Z{a} not allowed: order must be >= 2")
        factors.append(a)
    return GroupSpec(tuple(factors))


@dataclass(frozen=True)
class GroupSpec:
    """The group Z_{a1} x ... x Z_{ak} with elements as residue tuples."""

    factors: tuple[int, ...]

    def __post_init__(self):
        factors = []
        for a in self.factors:
            try:
                ia = int(a)
            except (TypeError, ValueError, OverflowError):
                ia = None
            if ia is None or ia != a:
                raise ValueError(f"cyclic factor {a!r} is not an integer")
            factors.append(ia)
        object.__setattr__(self, "factors", tuple(factors))
        if not self.factors:
            raise ValueError("a group needs at least one cyclic factor")
        if any(a < 2 for a in self.factors):
            raise ValueError(f"cyclic factors must have order >= 2, got {self.factors}")

    def __str__(self) -> str:
        return "x".join(f"Z{a}" for a in self.factors)

    @cached_property
    def order(self) -> int:
        return prod(self.factors)

    def zero(self) -> Element:
        return (0,) * len(self.factors)

    def neg(self, a: Element) -> Element:
        return tuple((-x) % m for x, m in zip(a, self.factors))

    def sub(self, a: Element, b: Element) -> Element:
        return tuple((x - y) % m for x, y, m in zip(a, b, self.factors))

    @cached_property
    def table(self) -> "CayleyTable":
        """The Cayley table of these factors, built once per spec."""
        return cayley_table(self.factors)

    @cached_property
    def elements(self) -> tuple[Element, ...]:
        """All elements in lexicographic mixed-radix order, identity first."""
        return self.table.elements

    def index(self, el: Element) -> int:
        """Position of ``el`` in the enumeration order."""
        return self.table.index[el]

    def unit(self, j: int) -> Element:
        """The generator 1_j of the j-th factor (j is 1-based)."""
        if not 1 <= j <= len(self.factors):
            raise ValueError(f"factor index {j} out of range 1..{len(self.factors)}")
        out = [0] * len(self.factors)
        out[j - 1] = 1
        return tuple(out)

    def units(self) -> tuple[Element, ...]:
        return tuple(self.unit(j) for j in range(1, len(self.factors) + 1))


class CayleyTable(NamedTuple):
    """A presentation's elements and its group law on element indices:
    ``elements[add[i][j]] == elements[i] + elements[j]`` and
    ``elements[neg[i]] == -elements[i]``; index 0 is the identity."""

    elements: tuple[Element, ...]
    index: dict[Element, int]
    add: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]


def cayley_table(factors: tuple[int, ...]) -> CayleyTable:
    """The table of ``Z_{a1} x ... x Z_{ak}``.

    Its g^2 entries never outnumber the g^(l-1) flows of a tree with
    l >= 3 leaves.  ``GroupSpec.table`` keeps the one a spec builds.
    """
    els = [()]
    for a in factors:
        els = [e + (r,) for e in els for r in range(a)]
    index = {e: i for i, e in enumerate(els)}
    add = tuple(tuple(index[tuple((x + y) % m for x, y, m in zip(a, b, factors))]
                      for b in els) for a in els)
    neg = tuple(index[tuple((-x) % m for x, m in zip(a, factors))] for a in els)
    return CayleyTable(tuple(els), index, add, neg)


def _prime_powers(n: int) -> list[int]:
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append(q)
        p += 1
    if n > 1:
        out.append(n)
    return out


def prime_power_refinement(spec: GroupSpec) -> tuple[GroupSpec, Callable[[Element], Element]]:
    """Split every composite factor into its prime-power parts.

    Returns the refined spec (prime powers in ascending-prime order within
    each original factor) together with the isomorphism mapping refined
    elements back onto ``spec`` via the Chinese remainder theorem.
    """
    blocks = [_prime_powers(a) for a in spec.factors]
    refined = GroupSpec(tuple(q for block in blocks for q in block))

    def back(el: Element) -> Element:
        out = []
        pos = 0
        for a, block in zip(spec.factors, blocks):
            residues = el[pos : pos + len(block)]
            pos += len(block)
            x = 0
            for r, q in zip(residues, block):
                n_q = a // q
                x = (x + r * n_q * pow(n_q, -1, q)) % a
            out.append(x)
        return tuple(out)

    return refined, back
