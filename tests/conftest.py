"""Shared brute-force oracles.

Everything here recomputes results the slow, obvious way, in pure Python and
straight off the exponent arithmetic, so the package's fast paths (numpy
carriers, generator closures, profile shortcuts) have something independent
to disagree with.
"""

from collections import Counter
from functools import lru_cache
from operator import mul

import numpy as np
import pytest

from pgroups.core import GroupShape, carrier
from pgroups.endos import _unit_generators


def dumb_radices(shape: GroupShape) -> list[int]:
    return [shape.prime ** k for k in shape.exponents]


def dumb_coords(shape: GroupShape, idx: int) -> list[int]:
    out = []
    for r in dumb_radices(shape):
        out.append(idx % r)
        idx //= r
    return out


def dumb_index(shape: GroupShape, coords) -> int:
    idx = 0
    stride = 1
    for c, r in zip(coords, dumb_radices(shape)):
        idx += (c % r) * stride
        stride *= r
    return idx


def dumb_add_table(shape: GroupShape) -> list[list[int]]:
    n = shape.order
    table = [[0] * n for _ in range(n)]
    coords = [dumb_coords(shape, i) for i in range(n)]
    for a in range(n):
        for b in range(n):
            summed = [x + y for x, y in zip(coords[a], coords[b])]
            table[a][b] = dumb_index(shape, summed)
    return table


def dumb_element_order(shape: GroupShape, idx: int, add=None) -> int:
    if add is None:
        add = dumb_add_table(shape)
    acc = idx
    order = 1
    while acc != 0:
        acc = add[acc][idx]
        order += 1
    return order


def dumb_order_counter(shape: GroupShape, members) -> Counter:
    add = dumb_add_table(shape)
    return Counter(dumb_element_order(shape, m, add) for m in members)


def mask_members(mask: int):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def is_closed_mask(shape: GroupShape, mask: int, add=None) -> bool:
    if add is None:
        add = dumb_add_table(shape)
    members = mask_members(mask)
    for a in members:
        for b in members:
            if not (mask >> add[a][b]) & 1:
                return False
    return True


def closed_subset_masks(shape: GroupShape) -> set[int]:
    """Every subgroup mask, found by filtering all subsets.  Order <= 16 only."""
    n = shape.order
    assert n <= 16, "subset oracle is exponential in the group order"
    add = dumb_add_table(shape)
    out = set()
    for bits in range(1 << (n - 1)):
        mask = (bits << 1) | 1
        if is_closed_mask(shape, mask, add):
            out.add(mask)
    return out


def walk_subgroup_masks(shape: GroupShape) -> list[int]:
    """Every subgroup mask in `enumeration_key` order, by a breadth-first walk
    with no algebra: level m holds the subgroups of order p^m, every index-p
    overgroup of H is H + <x> for some x outside H with p*x in H, and that is
    the union of the cosets H + j*x (j < p), read off the add row of x.  An
    overgroup reached from several H is kept once."""
    from pgroups.lattice import enumeration_key

    car = carrier(shape)
    p = shape.prime
    premask = [0] * car.n  # premask[t]: the x with p*x = t
    for x, t in enumerate(car.mul_row(p)):
        premask[t] |= 1 << x
    key = enumeration_key(shape)
    out = frontier = [1]
    while frontier:
        found = set()
        for h in frontier:
            members = mask_members(h)
            cand = 0
            for m in members:
                cand |= premask[m]
            cand &= ~h
            while cand:
                row = car.add_row((cand & -cand).bit_length() - 1)
                k, coset = h, members
                for _ in range(p - 1):
                    coset = [row[m] for m in coset]
                    for m in coset:
                        k |= 1 << m
                found.add(k)
                # anything in K with p*x' in H spans K again
                cand &= ~k
        frontier = sorted(found, key=key)
        out = out + frontier
    return out


def dumb_endo_table(shape: GroupShape, entries) -> list[int]:
    """Image index for every element under the matrix, coordinate by coordinate:
    image coordinate i is sum_j e_ij * p^max(0, ki - kj) * x_j mod p^ki."""
    p = shape.prime
    exps = shape.exponents
    radices = dumb_radices(shape)
    strides = [1]
    for r in radices[:-1]:
        strides.append(strides[-1] * r)
    weights = [
        [e * p ** max(0, ki - kj) for e, kj in zip(row, exps)] for row, ki in zip(entries, exps)
    ]
    return [
        sum(
            sum(map(mul, row, coords)) % r * stride
            for row, r, stride in zip(weights, radices, strides)
        )
        for coords in _dumb_all_coords(shape)
    ]


def einsum_endo_tables(shape: GroupShape, entries) -> np.ndarray:
    """Carrier tables of a (B, n, n) entry batch by one dense einsum over
    every cell: image coordinate i of x is sum_j e_ij * w_ij * coords[j, x]
    mod p^ki, and the table is the sum of stride_i times coordinate i."""
    car = carrier(shape)
    exps = np.array(shape.exponents, dtype=np.int64)
    weights = shape.prime ** np.maximum(0, exps[:, None] - exps[None, :])
    imgs = np.einsum("bij,jx->bix", np.asarray(entries, dtype=np.int64) * weights, car.coords_mat)
    imgs %= np.array(car.radices, dtype=np.int64)[None, :, None]
    return np.einsum("bix,i->bx", imgs, np.array(car.strides, dtype=np.int64))


@lru_cache(maxsize=None)
def _dumb_all_coords(shape: GroupShape) -> tuple:
    """`dumb_coords` of every index, once per shape: the endomorphism scans
    ask for the same coordinates once per matrix."""
    return tuple(tuple(dumb_coords(shape, idx)) for idx in range(shape.order))


def dumb_endo_entries(shape: GroupShape):
    """Every endomorphism's entry matrix, straight from the raw entry ranges:
    row-major cells, ascending residues, last cell fastest (itertools.product
    order)."""
    from itertools import product

    p = shape.prime
    exps = shape.exponents
    rank = shape.rank
    cells = [
        (i, j, p ** min(exps[i], exps[j]))
        for i in range(rank)
        for j in range(rank)
    ]
    for values in product(*(range(m) for _, _, m in cells)):
        entries = [[0] * rank for _ in range(rank)]
        for (i, j, _), v in zip(cells, values):
            entries[i][j] = v
        yield entries


def all_dumb_endo_tables(shape: GroupShape) -> list[list[int]]:
    """Tables of every endomorphism, from the raw entry ranges."""
    return [dumb_endo_table(shape, entries) for entries in dumb_endo_entries(shape)]


def dumb_char_fi_flags(shape: GroupShape, masks) -> tuple[list[bool], list[bool]]:
    """(characteristic, fully invariant) per mask, by scanning every endomorphism."""
    tables = all_dumb_endo_tables(shape)
    n = shape.order
    bijective = [t for t in tables if len(set(t)) == n]

    def stable(mask: int, table) -> bool:
        return all((mask >> table[m]) & 1 for m in mask_members(mask))

    char = [all(stable(mask, t) for t in bijective) for mask in masks]
    fi = [all(stable(mask, t) for t in tables) for mask in masks]
    return char, fi


def iso_matches(shape: GroupShape, mask: int, claimed: GroupShape) -> bool:
    """Order statistics determine finite abelian groups, so compare those."""
    if claimed.is_trivial_marker():
        return mask == 1
    if claimed.order != len(mask_members(mask)):
        return False
    return dumb_order_counter(shape, mask_members(mask)) == dumb_order_counter(
        claimed, range(claimed.order)
    )


@pytest.fixture(scope="session")
def tiny_shapes():
    """Order <= 16: the subset oracle is affordable."""
    from pgroups.core import make_shape

    return [
        make_shape(2, [1]),
        make_shape(2, [2]),
        make_shape(2, [1, 1]),
        make_shape(2, [3]),
        make_shape(2, [1, 2]),
        make_shape(2, [1, 1, 1]),
        make_shape(2, [4]),
        make_shape(2, [1, 3]),
        make_shape(2, [2, 2]),
        make_shape(2, [1, 1, 2]),
        make_shape(2, [1, 1, 1, 1]),
        make_shape(3, [1]),
        make_shape(3, [2]),
        make_shape(3, [1, 1]),
        make_shape(5, [1]),
        make_shape(13, [1]),
    ]


@pytest.fixture(scope="session")
def endo_oracle_shapes():
    """Cheap to scan every endomorphism."""
    from pgroups.core import make_shape

    return [
        make_shape(2, [1, 2]),
        make_shape(2, [1, 3]),
        make_shape(2, [2, 2]),
        make_shape(2, [1, 1, 2]),
        make_shape(2, [1, 1, 1]),
        make_shape(3, [1, 1]),
        make_shape(3, [1, 2]),
        make_shape(5, [1, 1]),
    ]


def dumb_aut_generators(shape: GroupShape) -> list:
    """The Aut(G) generating set, as raw entry lists built matrix by matrix:
    transvections, adjacent equal-exponent transpositions, then unit
    multiples, each an edited copy of the identity."""
    n = shape.rank
    gens = []
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows = [row[:] for row in ident]
            rows[i][j] = 1
            gens.append(rows)
    for i in range(n - 1):
        if shape.exponents[i] == shape.exponents[i + 1]:
            rows = [row[:] for row in ident]
            rows[i][i] = rows[i + 1][i + 1] = 0
            rows[i][i + 1] = rows[i + 1][i] = 1
            gens.append(rows)
    for i in range(n):
        for u in _unit_generators(shape.prime, shape.exponents[i]):
            rows = [row[:] for row in ident]
            rows[i][i] = u
            gens.append(rows)
    return gens


def dumb_aut_closure(shape: GroupShape) -> np.ndarray:
    """Close the automorphism generators under composition as whole carrier
    tables: a plain table BFS over the `dumb_endo_table` tables of
    `dumb_aut_generators`, one (K, |G|) row per automorphism.

    A table is keyed by its images of the canonical generators, read as
    base-|G| digits.  Each round reads the keys of every generator composed
    with every frontier table (one 2-d gather per generator), keeps the
    keys not seen before with `np.unique` and `np.isin`, and composes only
    those tables whole."""
    car = carrier(shape)
    assert car.n ** shape.rank < 2 ** 63, "keys must fit in int64"
    gens = np.array(
        [dumb_endo_table(shape, g) for g in dumb_aut_generators(shape)], dtype=np.int32
    ).reshape(-1, car.n)
    strides = list(car.strides)
    places = car.n ** np.arange(shape.rank, dtype=np.int64)

    frontier = np.arange(car.n, dtype=np.int32)[None, :]
    seen = frontier[:, strides] @ places
    found = [frontier]
    while len(gens) and len(frontier):
        # keys[g * F + f]: the key of generator g after frontier table f
        keys = np.concatenate([g[frontier[:, strides]] @ places for g in gens])
        keys, first = np.unique(keys, return_index=True)
        new = ~np.isin(keys, seen)
        which, rows = np.divmod(first[new], len(frontier))
        frontier = gens[which[:, None], frontier[rows]]
        seen = np.concatenate([seen, keys[new]])
        found.append(frontier)
    return np.concatenate(found)


def hillar_rhea_aut_order(shape: GroupShape) -> int:
    """|Aut(G)| in closed form (Hillar & Rhea, "Automorphisms of finite
    abelian groups", Amer. Math. Monthly 114, 2007).

    With exponents e_1 <= ... <= e_n, d_k the last and c_k the first
    (1-based) position holding the value e_k:
    prod_k (p^d_k - p^(k-1)) * prod_j p^(e_j (n - d_j)) * prod_i p^((e_i - 1)(n - c_i + 1)).
    """
    p, e, n = shape.prime, shape.exponents, shape.rank
    last = [max(l for l in range(1, n + 1) if e[l - 1] == ek) for ek in e]
    first = [min(l for l in range(1, n + 1) if e[l - 1] == ek) for ek in e]
    out = 1
    for k in range(1, n + 1):
        out *= p ** last[k - 1] - p ** (k - 1)
    for j in range(n):
        out *= p ** (e[j] * (n - last[j]))
    for i in range(n):
        out *= p ** ((e[i] - 1) * (n - first[i] + 1))
    return out
