"""Finite abelian p-groups as shapes, elements and dense carriers.

A group here is always G = Z(p^k1) + ... + Z(p^kn) with k1 <= ... <= kn,
described by a :class:`GroupShape`.  Elements are coordinate tuples reduced
mod p^ki.  For bulk work every element also has a dense index in
0..|G|-1 (little-endian mixed radix, coordinate 0 fastest), so a subset of G
is a Python int used as a bitmask; :class:`Carrier` owns the index tables.

Heights and Ulm data follow the usual conventions: h(x) is the largest n with
x in p^nG, h(0) is infinite, the Ulm sequence of x lists h(x), h(px), ...
and terminates with the infinity entry, and the Ulm invariant f_n(G) counts
cyclic summands of order p^(n+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .caps import CapExceeded, carrier_cap

INFINITE = math.inf  # height of 0; compares above every finite height


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class GroupShape:
    """Isomorphism type of a finite abelian p-group.

    `exponents` is ascending.  The empty tuple is the designated marker for
    the trivial group (it shows up as the iso_type of a trivial subgroup);
    `make_shape` and `parse_shape` never produce it.
    """

    prime: int
    exponents: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.prime ** sum(self.exponents)

    @property
    def rank(self) -> int:
        return len(self.exponents)

    @property
    def exponent_class(self) -> int:
        """Largest k, i.e. the group exponent is p**k.  0 for the trivial marker."""
        return self.exponents[-1] if self.exponents else 0

    def is_trivial_marker(self) -> bool:
        return not self.exponents

    def __str__(self) -> str:
        return format_shape(self)


def make_shape(prime: int, exponents: Iterable[int]) -> GroupShape:
    """Validated constructor.  Accepts exponents in any order, stores ascending."""
    if not isinstance(prime, int) or not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    exps = tuple(sorted(exponents))
    if not exps:
        raise ValueError("exponent partition must be nonempty")
    for k in exps:
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"exponents must be positive integers, got {k!r}")
    shape = GroupShape(prime, exps)
    cap = carrier_cap()
    if shape.order > cap:
        raise CapExceeded("carrier", cap, shape.order, f"shape {shape}")
    return shape


def format_shape(shape: GroupShape) -> str:
    return f"{shape.prime}:{','.join(str(k) for k in shape.exponents)}"


def parse_shape(text: str) -> GroupShape:
    """Parse "p:k1,k2,...,kn".  Exponents may come in any order."""
    head, sep, tail = text.partition(":")
    if not sep:
        raise ValueError(f"shape {text!r} is not of the form p:k1,k2,...")
    try:
        prime = int(head)
        exponents = [int(part) for part in tail.split(",") if part.strip() != ""]
    except ValueError:
        raise ValueError(f"shape {text!r} is not of the form p:k1,k2,...") from None
    if not exponents:
        raise ValueError(f"shape {text!r} has an empty exponent list")
    return make_shape(prime, exponents)


@dataclass(frozen=True, slots=True)
class GroupElement:
    shape: GroupShape
    coords: tuple[int, ...]

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return add(self, other)

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        return add(self, neg(other))

    def __neg__(self) -> "GroupElement":
        return neg(self)

    def __rmul__(self, c: int) -> "GroupElement":
        return scalar_mul(c, self)

    def __bool__(self) -> bool:
        return any(self.coords)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


def element(shape: GroupShape, coords: Sequence[int]) -> GroupElement:
    """Element with coordinates reduced mod p^ki."""
    if len(coords) != shape.rank:
        raise ValueError(
            f"expected {shape.rank} coordinates for {shape}, got {len(coords)}"
        )
    p = shape.prime
    reduced = tuple(int(c) % p ** k for c, k in zip(coords, shape.exponents))
    return GroupElement(shape, reduced)


def add(x: GroupElement, y: GroupElement) -> GroupElement:
    if x.shape != y.shape:
        raise ValueError("elements live in different groups")
    p = x.shape.prime
    coords = tuple(
        (a + b) % p ** k for a, b, k in zip(x.coords, y.coords, x.shape.exponents)
    )
    return GroupElement(x.shape, coords)


def neg(x: GroupElement) -> GroupElement:
    p = x.shape.prime
    coords = tuple((-a) % p ** k for a, k in zip(x.coords, x.shape.exponents))
    return GroupElement(x.shape, coords)


def scalar_mul(c: int, x: GroupElement) -> GroupElement:
    p = x.shape.prime
    coords = tuple((c * a) % p ** k for a, k in zip(x.coords, x.shape.exponents))
    return GroupElement(x.shape, coords)


def _valuation(c: int, p: int) -> int:
    # p-adic valuation of a nonzero residue
    v = 0
    while c % p == 0:
        c //= p
        v += 1
    return v


def element_order(x: GroupElement) -> int:
    p = x.shape.prime
    e = 0
    for c, k in zip(x.coords, x.shape.exponents):
        if c:
            e = max(e, k - _valuation(c, p))
    return p ** e


def height(x: GroupElement):
    """Largest n with x in p^nG; INFINITE for the zero element."""
    p = x.shape.prime
    h = None
    for c in x.coords:
        if c:
            v = _valuation(c, p)
            h = v if h is None else min(h, v)
    return INFINITE if h is None else h


@dataclass(frozen=True, slots=True)
class UlmSequence:
    """Heights of x, px, p^2 x, ...; the final entry is always INFINITE."""

    heights: tuple

    def __post_init__(self):
        hs = self.heights
        if not hs or hs[-1] != INFINITE:
            raise ValueError("Ulm sequence must end with the infinite entry")
        for a, b in zip(hs, hs[1:]):
            if not a < b:
                raise ValueError("Ulm sequence must be strictly increasing")

    def __len__(self) -> int:
        return len(self.heights)

    def __getitem__(self, j):
        # entries past the recorded tail stay infinite
        return self.heights[j] if j < len(self.heights) else INFINITE

    def pointwise_leq(self, other: "UlmSequence") -> bool:
        span = max(len(self), len(other))
        return all(self[j] <= other[j] for j in range(span))


def ulm_sequence(x: GroupElement) -> UlmSequence:
    p = x.shape.prime
    heights = []
    y = x
    while y:
        heights.append(height(y))
        y = scalar_mul(p, y)
    heights.append(INFINITE)
    return UlmSequence(tuple(heights))


def ulm_invariants(shape: GroupShape) -> tuple[int, ...]:
    """f_n for n = 0 .. exponent_class-1; f_n counts summands Z(p^(n+1))."""
    counts = [0] * shape.exponent_class
    for k in shape.exponents:
        counts[k - 1] += 1
    return tuple(counts)


def mask_from_bool(arr: np.ndarray) -> int:
    """Bitmask with bit i set where arr[i] is true."""
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def masks_to_bool(masks: list[int], n: int) -> np.ndarray:
    """Inverse of `mask_from_bool` on each mask: a (len(masks), n) membership array."""
    nbytes = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(nbytes, "little") for m in masks), np.uint8)
    return np.unpackbits(packed.reshape(-1, nbytes), axis=1, count=n, bitorder="little") > 0


def mask_to_indices(mask: int) -> list[int]:
    """Set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Carrier:
    """Dense index tables for one shape.

    Index of (c1,...,cn) is sum ci * stride_i with stride_1 = 1 (coordinate 0
    varies fastest).  Rows of the addition/multiplication tables are built
    lazily because only a sliver of them is ever touched.
    """

    def __init__(self, shape: GroupShape):
        cap = carrier_cap()
        if shape.order > cap:
            raise CapExceeded("carrier", cap, shape.order, f"shape {shape}")
        self.shape = shape
        self.n = shape.order
        p = shape.prime
        self.radices = tuple(p ** k for k in shape.exponents)
        strides = []
        acc = 1
        for r in self.radices:
            strides.append(acc)
            acc *= r
        self.strides = tuple(strides)
        idx = np.arange(self.n, dtype=np.int64)
        if shape.rank:
            self.coords_mat = np.stack(
                [(idx // s) % r for s, r in zip(self.strides, self.radices)]
            )
        else:
            self.coords_mat = np.zeros((0, self.n), dtype=np.int64)
        self.full_mask = (1 << self.n) - 1
        self._add_rows: dict[int, list[int]] = {}
        self._mul_rows: dict[int, list[int]] = {}
        self._order_exp: np.ndarray | None = None
        self._socle_masks: dict[int, int] = {}

    # ---- index <-> coordinates -------------------------------------------------

    def index_of(self, coords: Sequence[int]) -> int:
        return int(
            sum((c % r) * s for c, r, s in zip(coords, self.radices, self.strides))
        )

    def coords_of(self, i: int) -> tuple[int, ...]:
        return tuple(int((i // s) % r) for s, r in zip(self.strides, self.radices))

    def element_at(self, i: int) -> GroupElement:
        return GroupElement(self.shape, self.coords_of(i))

    def index_of_element(self, x: GroupElement) -> int:
        return self.index_of(x.coords)

    # ---- table rows --------------------------------------------------------------

    def _combine(self, coord_rows) -> list[int]:
        total = np.zeros(self.n, dtype=np.int64)
        for row, s in zip(coord_rows, self.strides):
            total += row * s
        return total.tolist()

    def add_row(self, g: int) -> list[int]:
        """row[x] = index of x + g."""
        row = self._add_rows.get(g)
        if row is None:
            gc = self.coords_of(g)
            row = self._combine(
                (self.coords_mat[j] + gc[j]) % r for j, r in enumerate(self.radices)
            )
            self._add_rows[g] = row
        return row

    def mul_row(self, c: int) -> list[int]:
        """row[x] = index of c*x."""
        row = self._mul_rows.get(c)
        if row is None:
            row = self._combine(
                (self.coords_mat[j] * c) % r for j, r in enumerate(self.radices)
            )
            self._mul_rows[c] = row
        return row

    # ---- per-element structure ----------------------------------------------------

    def order_exponents(self) -> np.ndarray:
        """e[x] with ord(x) = p**e[x]."""
        if self._order_exp is None:
            p = self.shape.prime
            e = np.zeros(self.n, dtype=np.int64)
            for j, k in enumerate(self.shape.exponents):
                col = self.coords_mat[j]
                v = np.full(self.n, k, dtype=np.int64)  # valuation, k for c=0
                rem = col.copy()
                active = rem != 0
                v[active] = 0
                while active.any():
                    div = active & (rem % p == 0)
                    v[div] += 1
                    rem[div] //= p
                    active = div
                e = np.maximum(e, k - v)
            self._order_exp = e
        return self._order_exp

    def socle_mask(self, m: int) -> int:
        """Bitmask of G[p^m], the elements killed by p^m."""
        if m < 0:
            raise ValueError("socle level must be >= 0")
        mask = self._socle_masks.get(m)
        if mask is None:
            mask = mask_from_bool(self.order_exponents() <= m)
            self._socle_masks[m] = mask
        return mask

    def elements_of(self, mask: int) -> list[GroupElement]:
        return [self.element_at(i) for i in mask_to_indices(mask)]


@lru_cache(maxsize=96)
def carrier(shape: GroupShape) -> Carrier:
    return Carrier(shape)
