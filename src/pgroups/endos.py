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
determinant mod p.  Its batch form (`automorphism_flags`) codes each r x r
block in base p and reads a per-(p, r) table of nonsingular blocks, built once
by elimination over every block; runs with too many blocks for a table are
eliminated batch by batch.  The brute-force alternative
(`is_bijective_by_table`) checks that the induced map on the carrier is a
permutation; the two must agree, and the verification harness cross-checks
that they do.

The harness does so exhaustively: `endo_entry_batches` yields every entry
matrix, `induced_tables_batch` gives each its whole carrier table and
`bijective_flags_by_table` tests each table for being a permutation.  Image
coordinate i depends on row i of the matrix alone, so a table is the sum of
n per-row terms, each read from a per-row table built once per shape: n
gathers per batch, not a product over all n^2 entries.

The same matrix is also fixed by the images of a_1..a_n, so a batch of maps
can be carried as (K, n) rows of carrier indices (`entries_from_images`
converts them back).  The automorphism closure works in that form: composing
with a generator costs n table look-ups per element, not a whole carrier
table, and its result is checked against the exhaustive enumeration.
Generator and single-entry tables (`aut_generator_tables`,
`stability_test_tables`) are built here once per shape for every caller,
each summed from its map's nonzero entries (rows that match the identity's
are read off the identity table), so a sparse map costs a few |G|-long
terms, not n^2.
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


def _scales(shape: GroupShape) -> np.ndarray:
    """The (n, n) matrix of `_scale` factors."""
    n = shape.rank
    return np.array(
        [[_scale(shape, i, j) for j in range(n)] for i in range(n)], dtype=np.int64
    )


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


def entries_from_images(shape: GroupShape, rows: np.ndarray) -> np.ndarray:
    """Batch form of `from_generator_images`: (K, n) carrier indices of the
    images of a_1..a_n in, (K, n, n) entry matrices out."""
    n = shape.rank
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[1] != n:
        raise ValueError(f"expected a (K, {n}) image array for {shape}")
    scales = _scales(shape)
    moduli, _ = _cell_places(shape)
    coords = carrier(shape).coords_mat[:, rows].transpose(1, 0, 2)  # (K, i, j)
    if (coords % scales).any():
        raise ValueError(
            "no endomorphism: some generator is sent to an element of larger order"
        )
    return coords // scales % moduli


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
    weights = _scales(shape)
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


def _cell_places(shape: GroupShape) -> tuple[np.ndarray, np.ndarray]:
    """(moduli, place): the (n, n) cell moduli and the row-major mixed-radix
    place values of the cells, so that an endomorphism's index in
    `endo_entry_batches` is sum(entries * place)."""
    n = shape.rank
    moduli = np.array(
        [[_cell_modulus(shape, i, j) for j in range(n)] for i in range(n)],
        dtype=np.int64,
    )
    # the last cell varies fastest
    place = np.ones(n * n, dtype=np.int64)
    place[:-1] = np.cumprod(moduli.ravel()[::-1])[::-1][1:]
    return moduli, place.reshape(n, n)


def _batch_size(shape: GroupShape) -> int:
    """Matrices per batch: B * n * |G| stays around 2^17 cells, which bounds
    both the (B, |G|) tables and the gathers of `induced_tables_batch` and
    the (B, n, |G|) einsum intermediate of `_induced_tables`; larger batches
    scan no faster and only raise peak memory."""
    return max(64, (1 << 17) // max(1, shape.rank * carrier(shape).n))


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
        batch_size = _batch_size(shape)
    moduli, place = _cell_places(shape)
    moduli, place = moduli.ravel(), place.ravel()
    for start in range(0, total, batch_size):
        idx = np.arange(start, min(start + batch_size, total), dtype=np.int64)
        flat = (idx[:, None] // place[None, :]) % moduli[None, :]
        yield flat.reshape(-1, n, n)


# the row tables of one shape hold at most this many int32 cells (4 MB); a
# shape above it (a cyclic 2:12, say) builds its tables with the einsum kernel
_ROW_TABLE_CELLS = 1 << 20


@lru_cache(maxsize=2)
def _row_tables(shape: GroupShape) -> tuple[np.ndarray, np.ndarray, tuple] | None:
    """(moduli, places, tables) for the row route of `induced_tables_batch`,
    or None for a shape of rank 0 or above `_ROW_TABLE_CELLS`.

    Image coordinate i depends on row i of the entry matrix alone.  A row
    reduced mod `moduli[i]` is coded as sum(row * places[i]) (mixed radix, the
    last cell varying fastest), and `tables[i]` is the (codes, |G|) int32
    table of stride_i * coordinate i of the image, so that a carrier table is
    the sum over i of tables[i][code_i].  The tables come from the one-row
    matrices of each row, through `_induced_tables`.
    """
    n = shape.rank
    if n == 0:
        return None
    car = carrier(shape)
    moduli, _ = _cell_places(shape)
    counts = moduli.prod(axis=1)
    if int(counts.sum()) * car.n > _ROW_TABLE_CELLS:
        return None
    places = np.ones((n, n), dtype=np.int64)
    places[:, :-1] = np.cumprod(moduli[:, :0:-1], axis=1)[:, ::-1]
    step = _batch_size(shape)
    tables = []
    for i in range(n):
        codes = np.arange(counts[i], dtype=np.int64)
        ents = np.zeros((len(codes), n, n), dtype=np.int64)
        ents[:, i, :] = codes[:, None] // places[i] % moduli[i]
        table = np.empty((len(codes), car.n), dtype=np.int32)
        for start in range(0, len(codes), step):
            table[start : start + step] = _induced_tables(car, ents[start : start + step])
        tables.append(table)
    for a in (moduli, places, *tables):
        a.flags.writeable = False  # cached: shared by every later caller
    return moduli, places, tuple(tables)


def induced_tables_batch(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """Induced carrier tables, one int32 row per matrix in a (B, n, n) entry
    batch.

    Row b equals `induced_table(endo(shape, entries[b]))`.  Rows are summed
    from the shape's cached per-row tables (`_row_tables`), n gathers per
    batch; a shape above the row-table budget goes through `_induced_tables`.
    """
    n = shape.rank
    if entries.ndim != 3 or entries.shape[1:] != (n, n):
        raise ValueError(f"expected a (B, {n}, {n}) entry array for {shape}")
    rows = _row_tables(shape)
    if rows is None:
        return _induced_tables(carrier(shape), entries).astype(np.int32)
    moduli, places, tables = rows
    codes = (entries % moduli * places).sum(axis=2)  # (B, n)
    out = tables[0][codes[:, 0]]
    for i in range(1, n):
        out += tables[i][codes[:, i]]
    return out


def bijective_flags_by_table(tables: np.ndarray) -> np.ndarray:
    """Row-wise permutation test for a (B, N) batch of carrier tables: N
    values in N slots form a permutation iff they hit every slot."""
    b, n = tables.shape
    seen = np.zeros(b * n, dtype=bool)
    seen[(tables + (np.arange(b) * n)[:, None]).ravel()] = True
    return seen.reshape(b, n).all(axis=1)


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


# a run with more r x r blocks mod p than this is tested by elimination: under
# the default endo-oracle cap only single-run shapes (2:1^4, 3:1^3) have one,
# and for them a table of every block would cost as much as their whole scan
_BLOCK_TABLE_LIMIT = 1 << 12


def _block_places(p: int, r: int) -> np.ndarray:
    """Base-p place values of the r*r cells of a row-major flattened block,
    the last cell varying fastest."""
    return p ** np.arange(r * r - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def _nonsingular_blocks(p: int, r: int) -> np.ndarray:
    """Read-only bool table over every r x r block mod p, indexed by the
    block's code sum(block.ravel() * _block_places(p, r)): True iff the
    block's determinant mod p is nonzero.  Built by `_det_mod_p_batch` on
    all p^(r*r) blocks at once, so callers keep p^(r*r) within
    `_BLOCK_TABLE_LIMIT`."""
    codes = np.arange(p ** (r * r), dtype=np.int64)
    blocks = (codes[:, None] // _block_places(p, r) % p).reshape(-1, r, r)
    table = _det_mod_p_batch(blocks, p) != 0
    table.flags.writeable = False  # cached: shared by every later caller
    return table


def automorphism_flags(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """`is_automorphism` over a (B, n, n) entry batch, same block criterion.

    Each equal-exponent run's blocks are coded in base p and looked up in
    `_nonsingular_blocks`; a run above `_BLOCK_TABLE_LIMIT` goes through
    `_det_mod_p_batch` directly.
    """
    p = shape.prime
    flags = np.ones(entries.shape[0], dtype=bool)
    for run in _equal_exponent_runs(shape):
        r = len(run)
        block = entries[:, run.start : run.stop, run.start : run.stop]
        if p ** (r * r) > _BLOCK_TABLE_LIMIT:
            flags &= _det_mod_p_batch(block, p) != 0
        else:
            codes = (block % p).reshape(-1, r * r) @ _block_places(p, r)
            flags &= _nonsingular_blocks(p, r)[codes]
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


def _generator_tables(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """Induced carrier tables of a (B, n, n) entry batch of sparse maps, one
    int32 row per map.

    Image coordinate i is sum_j e_ij * w_ij * coords[j] mod p^ki, so only the
    nonzero entries are summed: a single-entry map costs one term of |G|
    values, not n^2.  A map whose rows are mostly the identity's (a
    transvection, a unit multiple, a transposition) starts from the identity
    table and corrects only the rows that differ.  Tables are filled in place,
    so a shape's tables are never held twice while they are built, and int32
    is enough for a carrier index while halving what the caches keep.
    """
    car = carrier(shape)
    n = shape.rank
    coords = car.coords_mat
    moduli, _ = _cell_places(shape)
    coeffs = entries % moduli * _scales(shape)  # e_ij * w_ij, each < p^ki
    eye = np.eye(n, dtype=np.int64)
    identity = np.arange(car.n, dtype=np.int32)
    out = np.empty((len(entries), car.n), dtype=np.int32)
    for table, coeff in zip(out, coeffs):
        changed = (coeff != eye).any(axis=1)
        from_identity = 2 * int(changed.sum()) < n
        table[:] = identity if from_identity else 0
        for i in np.nonzero(changed if from_identity else coeff.any(axis=1))[0]:
            acc = sum(c * coords[j] for j, c in enumerate(coeff[i].tolist()) if c)
            acc = acc % car.radices[i]
            if from_identity:
                acc = acc - coords[i]
            table += acc * car.strides[i]
    return out


# the tables serve the shape at hand; a sweep does not keep them for every
# shape it has passed through
@lru_cache(maxsize=8)
def aut_generator_tables(shape: GroupShape) -> np.ndarray:
    """Carrier tables of `aut_generators(shape)`, one int32 row per generator."""
    n = shape.rank
    ents = np.array([g.entries for g in aut_generators(shape)], dtype=np.int64)
    return _generator_tables(shape, ents.reshape(-1, n, n))


@lru_cache(maxsize=8)
def stability_test_tables(shape: GroupShape) -> np.ndarray:
    """Carrier tables of `stability_test_set(shape)`, one int32 row per map,
    built from the single-entry matrices directly."""
    n = shape.rank
    ents = np.zeros((n * n, n, n), dtype=np.int64)
    ents.reshape(n * n, n * n)[np.arange(n * n), np.arange(n * n)] = 1
    return _generator_tables(shape, ents)


def _rank_lookup(shape: GroupShape) -> np.ndarray:
    """(n, |G|) table: the rank of an endomorphism in `endo_entry_batches`
    is the sum over j of lookup[j, image of a_j].

    Only images that some endomorphism can give a_j (order at most p^kj)
    have a meaningful entry; the others read 0.
    """
    car = carrier(shape)
    fits = car.order_exponents()[:, None] <= np.array(shape.exponents)[None, :]
    images = np.where(fits, np.arange(car.n)[:, None], 0)  # (|G|, n)
    _, place = _cell_places(shape)
    return np.einsum("xij,ij->jx", entries_from_images(shape, images), place)


def aut_closure_tables(shape: GroupShape) -> np.ndarray:
    """Close `aut_generators` under composition, in generator-image space.

    An automorphism is fixed by where it sends the canonical generators, so
    the result is a (K, n) integer array with K = |Aut(G)|: row k, column j is
    the carrier index of the image of a_j under the k-th automorphism
    (`entries_from_images` turns rows back into matrices).  The breadth-first
    search composes a whole level with one generator table at a time, n
    look-ups per element, and dedupes rows by their rank in
    `endo_entry_batches`, kept in a bitmap over End(G).  So it is gated by the
    endo oracle cap before anything is allocated, and K by the aut closure
    cap.  This is oracle machinery: characteristic testing never needs the
    closure, only the generators.
    """
    total = endo_count(shape)
    cap = endo_oracle_cap()
    if total > cap:
        raise CapExceeded("endo-oracle", cap, total, f"|End| for {shape}")
    cap = aut_closure_cap()
    n = shape.rank
    lookup = _rank_lookup(shape)
    cols = np.arange(n)

    def codes_of(rows: np.ndarray) -> np.ndarray:
        return lookup[cols, rows].sum(axis=1)

    ident = np.array([carrier(shape).strides], dtype=np.int32)  # a_j sits at its stride
    seen = np.zeros(total, dtype=bool)
    seen[codes_of(ident)] = True
    found = [ident]
    size = 1
    frontier = ident
    while len(frontier):
        level = []
        # one generator at a time: composing with all of them at once holds
        # a level times the generator count and measured a higher peak RSS.
        # A generator is a bijection and the frontier rows are distinct, so
        # one composed batch holds no duplicates; only `seen` filters.
        for table in aut_generator_tables(shape):
            rows = table[frontier]
            codes = codes_of(rows)
            fresh = ~seen[codes]
            seen[codes[fresh]] = True
            level.append(rows[fresh])
            size += int(fresh.sum())
            if size > cap:
                raise CapExceeded("aut-closure", cap, size, f"closure for {shape}")
        frontier = np.concatenate(level) if level else ident[:0]
        found.append(frontier)
    return np.concatenate(found)


def random_endo(shape: GroupShape, rng: np.random.Generator) -> EndoMatrix:
    n = shape.rank
    entries = tuple(
        tuple(int(rng.integers(0, _cell_modulus(shape, i, j))) for j in range(n))
        for i in range(n)
    )
    return EndoMatrix(shape, entries)
