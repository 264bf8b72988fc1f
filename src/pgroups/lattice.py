"""Subgroups as bitmasks, spans, and exhaustive lattice enumeration.

A :class:`Subgroup` is a membership bitmask over the carrier's dense index.
`enumerate_subgroups` does a breadth-first walk of the lattice: level m holds
the subgroups of order p^m, and each is extended by candidate elements x with
p*x in H (every index-p overgroup of H is H + <x> for such an x, and every
subgroup of order p^(m+1) is an index-p overgroup of something on level m, so
the walk is exhaustive).  No algebraic shortcut feeds this walk; it is the
oracle layer the structured routes are cross-checked against.
`subgroup_count` gives the number of subgroups it lists in closed form.

Output order is deterministic: ascending order, then lexicographic on the
membership bit-vector (the subgroup whose first differing index is present
sorts first).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .caps import CapExceeded, enum_cap, subgroup_cap
from .core import (
    Carrier,
    GroupElement,
    GroupShape,
    carrier,
    mask_to_indices,
)

_BITREV = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def enumeration_key(shape: GroupShape) -> Callable[[int], tuple[int, bytes]]:
    """Sort key on subgroup masks of `shape` giving the (order, lexicographic)
    order of `enumerate_subgroups`."""
    car = carrier(shape)
    full_mask = car.full_mask
    nbytes = (car.n + 7) // 8

    def key(mask: int) -> tuple[int, bytes]:
        # complement + per-byte bit reversal turns "present sorts first at the
        # first differing index" into plain bytes comparison
        comp = (~mask) & full_mask
        return mask.bit_count(), comp.to_bytes(nbytes, "little").translate(_BITREV)

    return key


class Subgroup:
    """Immutable subgroup of one shape's group.

    Identity is (shape, mask).  `generators` is the canonical minimal
    generating list: the lexicographically least one, found by greedily
    picking the smallest member outside <chosen> + pH.  It and `iso_type`
    are computed lazily and cached.
    """

    __slots__ = ("shape", "mask", "_order", "_gens", "_iso")

    def __init__(self, shape: GroupShape, mask: int):
        if not mask & 1:
            raise ValueError("a subgroup mask must contain the zero element")
        self.shape = shape
        self.mask = mask
        self._order = None
        self._gens = None
        self._iso = None

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.shape == other.shape
            and self.mask == other.mask
        )

    def __hash__(self):
        return hash((self.shape, self.mask))

    def __repr__(self):
        gens = ",".join(str(g) for g in self.generators)
        return f"Subgroup({self.shape}, order={self.order}, gens=[{gens}])"

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = self.mask.bit_count()
        return self._order

    def members(self) -> list[int]:
        return mask_to_indices(self.mask)

    def elements(self) -> list[GroupElement]:
        return carrier(self.shape).elements_of(self.mask)

    def __contains__(self, x: GroupElement) -> bool:
        if x.shape != self.shape:
            return False
        return bool(self.mask >> carrier(self.shape).index_of_element(x) & 1)

    def is_trivial(self) -> bool:
        return self.mask == 1

    def is_full(self) -> bool:
        return self.mask == carrier(self.shape).full_mask

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        if self._gens is None:
            self._gens = _canonical_generators(self)
        return self._gens

    def iso_type(self) -> GroupShape:
        """Shape of the subgroup; the empty-exponent marker for the trivial one."""
        if self._iso is None:
            self._iso = _iso_type_of_mask(self.shape, self.mask)
        return self._iso


def _span_mask(car: Carrier, gen_indices: Iterable[int], base: int = 1) -> int:
    """Close base (already a subgroup mask) over the given indices."""
    mask = base
    for g in gen_indices:
        if mask >> g & 1:
            continue
        acc = mask
        cur = g
        while not mask >> cur & 1:
            row = car.add_row(cur)
            shifted = 0
            # walks the bits in place: a mask_to_indices list per coset costs
            # more than the shift itself on these small spans
            m = mask
            while m:
                low = m & -m
                shifted |= 1 << row[low.bit_length() - 1]
                m ^= low
            acc |= shifted
            cur = row[g]
        mask = acc
    return mask


def span(shape: GroupShape, elements: Iterable[GroupElement]) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    car = carrier(shape)
    idxs = []
    for x in elements:
        if x.shape != shape:
            raise ValueError("element from a different group")
        idxs.append(car.index_of_element(x))
    return Subgroup(shape, _span_mask(car, idxs))


def _canonical_generators(h: Subgroup) -> tuple[GroupElement, ...]:
    if h.mask == 1:
        return ()
    car = carrier(h.shape)
    mulp = car.mul_row(h.shape.prime)
    frattini = 0
    for m in h.members():
        frattini |= 1 << mulp[m]
    cur = frattini
    gens: list[int] = []
    for idx in h.members():
        if cur >> idx & 1:
            continue
        gens.append(idx)
        cur = _span_mask(car, [idx], base=cur)
        if cur == h.mask:
            break
    if cur != h.mask:
        raise AssertionError("generator search failed to span the subgroup")
    return tuple(car.element_at(g) for g in gens)


def _int_log(value: int, p: int) -> int:
    e = 0
    while value > 1:
        if value % p:
            raise AssertionError("subgroup size is not a prime power")
        value //= p
        e += 1
    return e


def _iso_type_of_mask(shape: GroupShape, mask: int) -> GroupShape:
    """Isomorphism type from Ulm invariants computed inside the subgroup.

    f_n(H) = log|p^nH[p]| - log|p^(n+1)H[p]| with (p^nH)[p] = p^n(H[p^(n+1)]),
    so only popcounts of mask & G[p^m] are needed:
    f_n = 2*log|H[p^(n+1)]| - log|H[p^n]| - log|H[p^(n+2)]|.
    """
    car = carrier(shape)
    p = shape.prime
    kmax = shape.exponent_class
    logs = [
        _int_log((mask & car.socle_mask(m)).bit_count(), p) for m in range(kmax + 1)
    ]
    logs.append(logs[-1])  # H[p^m] = H beyond the exponent
    exponents = []
    for n in range(kmax):
        f_n = 2 * logs[n + 1] - logs[n] - logs[n + 2]
        exponents.extend([n + 1] * f_n)
    return GroupShape(p, tuple(sorted(exponents)))


def _gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for j in range(k):
        num *= q ** (n - j) - 1
        den *= q ** (j + 1) - 1
    return num // den


def _partitions_inside(outer: tuple[int, ...], most: int) -> Iterable[tuple[int, ...]]:
    """Non-increasing sequences below `outer` entrywise, each entry <= most."""
    if not outer:
        yield ()
        return
    for first in range(min(outer[0], most) + 1):
        for rest in _partitions_inside(outer[1:], first):
            yield (first,) + rest


def subgroup_count(shape: GroupShape) -> int:
    """Number of subgroups, by Birkhoff's formula summed over every type mu
    inside the group's type lambda (Butler, *Subgroup Lattices and Symmetric
    Functions*, Mem. AMS 1994).  Over conjugate partitions, type mu occurs
    prod_i p^(mu'_(i+1) (lambda'_i - mu'_i)) [lambda'_i - mu'_(i+1) choose
    mu'_i - mu'_(i+1)]_p times."""
    p = shape.prime
    top = max(shape.exponents, default=0)
    outer = tuple(sum(e >= i for e in shape.exponents) for i in range(1, top + 1))
    total = 0
    for inner in _partitions_inside(outer, shape.rank):
        term = 1
        for lam, mu, nxt in zip(outer, inner, inner[1:] + (0,)):
            term *= p ** (nxt * (lam - mu)) * _gaussian_binomial(lam - nxt, mu - nxt, p)
        total += term
    return total


def enumerate_subgroups(shape: GroupShape) -> list[Subgroup]:
    """Every subgroup, exactly once, in (order, lexicographic) order.

    Gated by the enumeration cap on the group order, and by the subgroup cap
    on `subgroup_count(shape)`, the walk's length, before it starts."""
    cap = enum_cap()
    if shape.order > cap:
        raise CapExceeded("enumeration", cap, shape.order, f"shape {shape}")
    cap, count = subgroup_cap(), subgroup_count(shape)
    if count > cap:
        raise CapExceeded("subgroup", cap, count, f"subgroups of {shape}")
    car = carrier(shape)
    p = shape.prime
    n = car.n

    # premask[t] holds the indices that land on t under multiplication by p
    mulp = car.mul_row(p)
    premask = [0] * n
    for x, t in enumerate(mulp):
        premask[t] |= 1 << x

    key = enumeration_key(shape)
    all_masks = [1]
    frontier = [1]
    while frontier:
        found: set[int] = set()
        for hmask in frontier:
            members = mask_to_indices(hmask)
            cand = 0
            for m in members:
                cand |= premask[m]
            cand &= ~hmask
            while cand:
                low = cand & -cand
                x = low.bit_length() - 1
                cand ^= low
                # K = H + <x>, built as the union of the p cosets H + j*x
                k = hmask
                cur = x
                for _ in range(p - 1):
                    row = car.add_row(cur)
                    for m in members:
                        k |= 1 << row[m]
                    cur = row[x]
                found.add(k)
                # anything inside K with p*x' in H spans K again; skip it
                cand &= ~k
        frontier = sorted(found, key=key)
        all_masks.extend(frontier)
    return [Subgroup(shape, m) for m in all_masks]
