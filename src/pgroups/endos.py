"""Endomorphisms and automorphisms of a shape, as integer matrices.

With G = Z(p^k1) + ... + Z(p^kn) and generators a_1..a_n, an endomorphism is
determined by a matrix c where entry (i, j) encodes the map from summand j to
summand i sending a_j to c_ij * p^max(0, ki-kj) * a_i.  Entry (i, j) is kept
reduced mod p^min(ki, kj), so there are exactly p^min(ki,kj) distinct choices
per cell and prod p^min(ki,kj) endomorphisms in total.

An endomorphism is an automorphism iff its reduction mod p is invertible on
G/pG; with exponents ascending that reduction is block upper-triangular
(maps from a strictly lower to a strictly higher exponent pick up a factor of
p), so the fast test is that every equal-exponent diagonal block has nonzero
determinant mod p.  The brute-force alternative (`is_bijective_by_table`)
checks that the induced map on the carrier is a permutation; the two must
agree, and the verification harness cross-checks that they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .caps import CapExceeded, aut_closure_cap, endo_oracle_cap
from .core import Carrier, GroupElement, GroupShape, carrier


@dataclass(frozen=True, slots=True)
class EndoMatrix:
    shape: GroupShape
    entries: tuple[tuple[int, ...], ...]

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(c) for c in row) for row in self.entries) + "]"


def _scale(shape: GroupShape, i: int, j: int) -> int:
    ki, kj = shape.exponents[i], shape.exponents[j]
    return shape.prime ** max(0, ki - kj)


def _cell_modulus(shape: GroupShape, i: int, j: int) -> int:
    return shape.prime ** min(shape.exponents[i], shape.exponents[j])


def endo(shape: GroupShape, entries: Sequence[Sequence[int]]) -> EndoMatrix:
    n = shape.rank
    if len(entries) != n or any(len(row) != n for row in entries):
        raise ValueError(f"entries must be {n}x{n} for {shape}")
    reduced = tuple(
        tuple(int(entries[i][j]) % _cell_modulus(shape, i, j) for j in range(n))
        for i in range(n)
    )
    return EndoMatrix(shape, reduced)


def identity_endo(shape: GroupShape) -> EndoMatrix:
    n = shape.rank
    return endo(shape, [[1 if i == j else 0 for j in range(n)] for i in range(n)])


def single_entry(shape: GroupShape, i: int, j: int, c: int = 1) -> EndoMatrix:
    n = shape.rank
    rows = [[0] * n for _ in range(n)]
    rows[i][j] = c
    return endo(shape, rows)


def apply(m: EndoMatrix, x: GroupElement) -> GroupElement:
    shape = m.shape
    if x.shape != shape:
        raise ValueError("element does not belong to the matrix's group")
    p = shape.prime
    coords = []
    for i, ki in enumerate(shape.exponents):
        acc = 0
        for j, cj in enumerate(x.coords):
            if cj:
                acc += m.entries[i][j] * _scale(shape, i, j) * cj
        coords.append(acc % p ** ki)
    return GroupElement(shape, tuple(coords))


def generator_images(m: EndoMatrix) -> tuple[GroupElement, ...]:
    """Images of the canonical generators a_1..a_n."""
    shape = m.shape
    p = shape.prime
    images = []
    for j in range(shape.rank):
        coords = tuple(
            m.entries[i][j] * _scale(shape, i, j) % p ** ki
            for i, ki in enumerate(shape.exponents)
        )
        images.append(GroupElement(shape, coords))
    return tuple(images)


def from_generator_images(shape: GroupShape, images: Sequence[GroupElement]) -> EndoMatrix:
    """Inverse of `generator_images`.

    Requires p^kj * images[j] = 0 (otherwise no endomorphism sends a_j there).
    """
    p = shape.prime
    n = shape.rank
    if len(images) != n:
        raise ValueError(f"expected {n} generator images")
    rows = [[0] * n for _ in range(n)]
    for j, y in enumerate(images):
        if y.shape != shape:
            raise ValueError("image lives in the wrong group")
        kj = shape.exponents[j]
        for i, ki in enumerate(shape.exponents):
            s = _scale(shape, i, j)
            yi = y.coords[i]
            if yi % s:
                raise ValueError(
                    f"no endomorphism: generator {j} has order p^{kj} but its "
                    f"assigned image does not"
                )
            rows[i][j] = (yi // s) % _cell_modulus(shape, i, j)
    return EndoMatrix(shape, tuple(tuple(r) for r in rows))


def compose(m1: EndoMatrix, m2: EndoMatrix) -> EndoMatrix:
    """m1 after m2."""
    if m1.shape != m2.shape:
        raise ValueError("matrices act on different groups")
    return from_generator_images(
        m1.shape, tuple(apply(m1, y) for y in generator_images(m2))
    )


def matrix_add(m1: EndoMatrix, m2: EndoMatrix) -> EndoMatrix:
    if m1.shape != m2.shape:
        raise ValueError("matrices act on different groups")
    n = m1.shape.rank
    return endo(
        m1.shape,
        [[m1.entries[i][j] + m2.entries[i][j] for j in range(n)] for i in range(n)],
    )


def _det_mod_p(rows: list[list[int]], p: int) -> int:
    n = len(rows)
    rows = [[a % p for a in row] for row in rows]
    det = 1
    for col in range(n):
        piv = None
        for r in range(col, n):
            if rows[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        pivval = rows[col][col]
        det = det * pivval % p
        inv = pow(pivval, -1, p)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % p
            if f:
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[col])]
    return det % p


def _equal_exponent_runs(shape: GroupShape) -> list[range]:
    runs = []
    start = 0
    exps = shape.exponents
    for i in range(1, len(exps) + 1):
        if i == len(exps) or exps[i] != exps[start]:
            runs.append(range(start, i))
            start = i
    return runs


def is_automorphism(m: EndoMatrix) -> bool:
    """Fast invertibility test via equal-exponent diagonal blocks mod p."""
    p = m.shape.prime
    for run in _equal_exponent_runs(m.shape):
        block = [[m.entries[i][j] for j in run] for i in run]
        if _det_mod_p(block, p) == 0:
            return False
    return True


# ---- carrier-level induced maps ---------------------------------------------------


def _induced_tables(car: Carrier, entries: np.ndarray) -> np.ndarray:
    """Table kernel behind `induced_table` and `induced_tables_batch`: one
    carrier table per matrix in a (B, n, n) entry batch."""
    shape = car.shape
    n = shape.rank
    if n == 0:
        return np.zeros((entries.shape[0], car.n), dtype=np.int64)
    weights = np.array(
        [[_scale(shape, i, j) for j in range(n)] for i in range(n)], dtype=np.int64
    )
    radices = np.array(car.radices, dtype=np.int64)
    strides = np.array(car.strides, dtype=np.int64)
    # image coordinate i of point x is sum_j e_ij * w_ij * coords[j, x] mod p^ki;
    # weights and coordinates are each < 2^16 under the carrier cap, so the
    # accumulated sums stay far inside int64
    imgs = np.einsum("bij,jx->bix", entries.astype(np.int64) * weights, car.coords_mat)
    imgs %= radices[None, :, None]
    return np.einsum("bix,i->bx", imgs, strides)


def induced_table(m: EndoMatrix, car: Carrier | None = None) -> np.ndarray:
    """Dense table of the induced map on the carrier: out[i] = index of m(x_i)."""
    if car is None:
        car = carrier(m.shape)
    return _induced_tables(car, np.array([m.entries], dtype=np.int64))[0]


def is_bijective_by_table(m: EndoMatrix) -> bool:
    """Brute-force bijectivity: the induced carrier map is a permutation."""
    table = induced_table(m)
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[table] = True
    return bool(seen.all())


# ---- exhaustive enumeration and generators ----------------------------------------


def endo_count(shape: GroupShape) -> int:
    p = shape.prime
    total = 1
    for ki in shape.exponents:
        for kj in shape.exponents:
            total *= p ** min(ki, kj)
    return total


def endo_entry_batches(
    shape: GroupShape, batch_size: int | None = None
) -> Iterator[np.ndarray]:
    """Every endomorphism's entry matrix, as (B, n, n) int64 batches.

    Row-major entry order with ascending residues (the last cell varies
    fastest).  Guarded by the endo oracle cap; this is the brute-force oracle
    layer, batched so exhaustive sweeps stay in numpy instead of looping over
    a million matrices one at a time.
    """
    cap = endo_oracle_cap()
    total = endo_count(shape)
    if total > cap:
        raise CapExceeded("endo-oracle", cap, total, f"|End| for {shape}")
    n = shape.rank
    if n == 0:
        yield np.zeros((1, 0, 0), dtype=np.int64)
        return
    if batch_size is None:
        # keep the (B, n, N) intermediate of induced_tables_batch around 2^17
        # cells (1 MB): larger batches scan no faster and only raise peak memory
        denom = max(1, n * carrier(shape).n)
        batch_size = max(64, (1 << 17) // denom)
    moduli = np.array(
        [_cell_modulus(shape, i, j) for i in range(n) for j in range(n)],
        dtype=np.int64,
    )
    # row-major place values so the last cell varies fastest
    place = np.ones(n * n, dtype=np.int64)
    place[:-1] = np.cumprod(moduli[::-1])[::-1][1:]
    for start in range(0, total, batch_size):
        idx = np.arange(start, min(start + batch_size, total), dtype=np.int64)
        flat = (idx[:, None] // place[None, :]) % moduli[None, :]
        yield flat.reshape(-1, n, n)


def induced_tables_batch(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """Induced carrier tables, one row per matrix in a (B, n, n) entry batch.

    Row b equals `induced_table(endo(shape, entries[b]))`.
    """
    n = shape.rank
    if entries.ndim != 3 or entries.shape[1:] != (n, n):
        raise ValueError(f"expected a (B, {n}, {n}) entry array for {shape}")
    return _induced_tables(carrier(shape), entries)


def bijective_flags_by_table(tables: np.ndarray) -> np.ndarray:
    """Row-wise permutation test for a (B, N) batch of carrier tables."""
    b, n = tables.shape
    if b == 0:
        return np.zeros(0, dtype=bool)
    flat = (tables + np.arange(b, dtype=np.int64)[:, None] * n).ravel()
    counts = np.bincount(flat, minlength=b * n)
    return (counts.reshape(b, n) == 1).all(axis=1)


def _det_mod_p_batch(blocks: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (B, r, r) batch, by elimination with pivoting."""
    b, r = blocks.shape[0], blocks.shape[1]
    m = blocks.astype(np.int64) % p
    det = np.ones(b, dtype=np.int64)
    inv_table = np.array([0] + [pow(a, -1, p) for a in range(1, p)], dtype=np.int64)
    for col in range(r):
        sub = m[:, col:, col] != 0
        has = sub.any(axis=1)
        det[~has] = 0
        piv = col + np.argmax(sub, axis=1)  # first nonzero row at or below col
        swap = np.nonzero((piv != col) & has)[0]
        if swap.size:
            piv_rows = piv[swap]
            tmp = m[swap, col].copy()
            m[swap, col] = m[swap, piv_rows]
            m[swap, piv_rows] = tmp
            det[swap] = -det[swap] % p
        pv = m[:, col, col]
        det = det * pv % p
        if col + 1 < r:
            factors = m[:, col + 1 :, col] * inv_table[pv][:, None] % p
            m[:, col + 1 :, col:] = (
                m[:, col + 1 :, col:] - factors[:, :, None] * m[:, None, col, col:]
            ) % p
    return det


def automorphism_flags(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """`is_automorphism` over a (B, n, n) entry batch, same block criterion."""
    flags = np.ones(entries.shape[0], dtype=bool)
    for run in _equal_exponent_runs(shape):
        block = entries[:, run.start : run.stop, run.start : run.stop]
        flags &= _det_mod_p_batch(block, shape.prime) != 0
    return flags


def stability_test_set(shape: GroupShape) -> list[EndoMatrix]:
    """The n^2 single-entry maps E_ij (including the projections E_ii).

    A subset closed under addition is stable under every endomorphism iff it
    is stable under these: any matrix is an entrywise sum of multiples of the
    E_ij, and stability under a map passes to its integer multiples and sums.
    """
    n = shape.rank
    return [single_entry(shape, i, j) for i in range(n) for j in range(n)]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _unit_generators(p: int, k: int) -> list[int]:
    """Generators of (Z/p^k)*, as residues."""
    if p == 2:
        if k == 1:
            return [1]  # trivial unit group; kept for uniformity
        if k == 2:
            return [3]
        return [2 ** k - 1, 5]
    qs = _prime_factors(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            break
        g += 1
    if k == 1:
        return [g]
    # lift to a generator mod p^k
    if pow(g, p - 1, p * p) == 1:
        g += p
    return [g % p ** k]


@lru_cache(maxsize=256)
def aut_generators(shape: GroupShape) -> tuple[EndoMatrix, ...]:
    """A generating set for Aut(G).

    Three families: unipotent transvections I + E_ij for i != j, adjacent
    transpositions of equal-exponent summands, and diagonal unit
    multiplications on single summands.  Transvections come first; they are
    the maps that kill most non-characteristic subgroups fastest.
    """
    n = shape.rank
    p = shape.prime
    gens: list[EndoMatrix] = []
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rows = [row[:] for row in ident]
            rows[i][j] = 1
            gens.append(endo(shape, rows))
    for i in range(n - 1):
        if shape.exponents[i] == shape.exponents[i + 1]:
            rows = [row[:] for row in ident]
            rows[i][i] = rows[i + 1][i + 1] = 0
            rows[i][i + 1] = rows[i + 1][i] = 1
            gens.append(endo(shape, rows))
    for i in range(n):
        for u in _unit_generators(p, shape.exponents[i]):
            rows = [row[:] for row in ident]
            rows[i][i] = u
            gens.append(endo(shape, rows))
    return tuple(gens)


def aut_closure_tables(shape: GroupShape) -> list[np.ndarray]:
    """Close `aut_generators` under composition, as induced carrier tables.

    Memoized on the images of the canonical generating tuple (an endomorphism
    is determined by those images).  Capped by the aut closure cap.  This is
    oracle machinery: characteristic testing never needs the closure, only
    the generators.
    """
    cap = aut_closure_cap()
    car = carrier(shape)
    gen_positions = list(car.strides)  # index of a_j is its stride
    gen_tables = [induced_table(g, car) for g in aut_generators(shape)]

    def key_of(table: np.ndarray) -> tuple:
        return tuple(int(table[s]) for s in gen_positions)

    ident = np.arange(car.n, dtype=np.int64)
    seen = {key_of(ident)}
    out = [ident]
    frontier = [ident]
    while frontier:
        new_frontier = []
        for t in frontier:
            for g in gen_tables:
                composed = g[t]
                k = key_of(composed)
                if k not in seen:
                    seen.add(k)
                    out.append(composed)
                    new_frontier.append(composed)
                    if len(out) > cap:
                        raise CapExceeded(
                            "aut-closure", cap, len(out), f"closure for {shape}"
                        )
        frontier = new_frontier
    return out


def random_endo(shape: GroupShape, rng: np.random.Generator) -> EndoMatrix:
    n = shape.rank
    entries = tuple(
        tuple(int(rng.integers(0, _cell_modulus(shape, i, j))) for j in range(n))
        for i in range(n)
    )
    return EndoMatrix(shape, entries)
