"""Endomorphisms and automorphisms of a shape, as batches of integer matrices.

With G = Z(p^k1) + ... + Z(p^kn) and generators a_1..a_n, an endomorphism is
determined by a matrix c where entry (i, j) encodes the map from summand j to
summand i sending a_j to c_ij * p^max(0, ki-kj) * a_i.  Entry (i, j) is
reduced mod p^min(ki, kj), so there are exactly p^min(ki,kj) distinct choices
per cell and prod p^min(ki,kj) endomorphisms in total.  Maps travel as
(B, n, n) int64 entry batches, and act through their carrier tables
(table[x] = index of the image of x).

An endomorphism is an automorphism iff its reduction mod p is invertible on
G/pG; with exponents ascending that reduction is block upper-triangular
(maps from a strictly lower to a strictly higher exponent pick up a factor of
p), so the fast test is that every equal-exponent diagonal block has nonzero
determinant mod p.  One routine gives the determinants (`_dets`): a block
coded in base p is read from a per-(p, r) table of every block's
determinant, and a run with too many blocks for a table expands each
determinant along the block's last row (`_expand`), reading the r minors
from the (r-1) x (r-1) table, or expanding them in turn where that table is
too large as well.  The tables are built by the same expansion.  The test
also runs by sweeps (below): the blocks above the last row, and the code or
the cofactors of rows 0..n-2 of the last run's block, are read once per
sweep head and paired with each of the c last rows by one gather or one
product.  The brute-force alternative reads the kernel: a homomorphism of a
finite p-group is bijective iff no element of the socle Ω = {x != 0 : px =
0} maps to 0, since a nontrivial kernel holds an element of order p.  The
two must agree, and the verification harness cross-checks that they do.

The harness does so exhaustively, with no carrier table built:
`endo_scan_batches` yields every entry matrix of `endo_entry_batches` with
its bijectivity flag and, for the bijective ones, the images of a_1..a_n,
which are compared with the closure.  Image coordinate i depends on row i
of the matrix alone (`_row_terms`), so every carrier table is the sum of
its n per-row terms stride_i * (coordinate i), with no reduction between
them (`induced_tables_batch`: n products of a row with the coordinates, not
one over all n^2 entries).  The last row varies fastest in the enumeration,
and its c = |G| codes make a sweep of matrices that share rows 0..n-2; the
scan builds each row's terms on the columns Ω and a_1..a_n once, sums rows
0..n-2 into one prefix per sweep, and pairs each prefix with each last-row
term.  Both terms are >= 0, so a map sends x to 0 iff both of its terms are
0 at x: it is bijective iff the zero sets of its prefix and of its last
row's term on Ω are disjoint, one AND of packed 64-bit words per map
(`bijective_flags_by_table`, sweep form).  The harness compares the
generator images of the bijective maps with the closure's rows as sorted
keys, each row packed positionally into int64 words.

The same matrix is also fixed by the images of a_1..a_n, so a batch of maps
can be carried as (K, n) rows of carrier indices (`entries_from_images`
converts them back).  The automorphism closure works in that form: composing
with a generator costs n table look-ups per element, not a whole carrier
table, and each element's rank in the enumeration (its key in the closure's
`seen` bitmap) is n one-column look-ups.  It is built coset by coset along
the chain {1} = H_0 <= H_1 <= ... of the subgroups spanned by the first
generators (Dimino's algorithm): each new left coset y o H_(i-1) is one
gather of a generator table over a coset already found, a candidate y
outside `seen` always opens a new coset because `seen` holds whole cosets
and cosets are disjoint, and a generator's own powers come by doubling
(g^(m+1)..g^(2m) from the table of g^m), so each automorphism is composed
about once instead of once per generator.  The closure is checked against
the exhaustive enumeration.

Generator and single-entry tables (`aut_generator_tables`,
`stability_test_tables`) are built here once per shape for every caller (a
prefix summand's generator tables are read off its group's,
`prefix_aut_generator_tables`).  A generator's table is the identity table
with the rows it changes corrected, one row at a time for every generator
at once: the generators that change row i get that row's `_row_terms`, one
product of their rows i with the coordinates.  The single-entry maps
E_i1..E_in into summand i are the identity's rows under that same
`_row_terms`: stride_i * (p^max(0, ki - kj) * x_j mod p^ki).

Random endomorphisms (`random_endo_entries`) come from the stdlib
`random.Random`: one `randrange` per matrix row over that row's codes,
decoded as the scan decodes its rows, so every matrix is exactly uniform;
the program never imports `numpy.random`, whose import costs milliseconds.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import Iterator

import numpy as np

from .caps import CapExceeded, aut_closure_cap, endo_oracle_cap
from .core import GroupShape, carrier


def _scales(shape: GroupShape) -> np.ndarray:
    """The (n, n) matrix of factors p^max(0, ki - kj): entry c_ij sends a_j to
    c_ij * p^max(0, ki - kj) * a_i."""
    exps = np.array(shape.exponents, dtype=np.int64)
    return shape.prime ** np.maximum(0, exps[:, None] - exps[None, :])


def entries_from_images(shape: GroupShape, rows: np.ndarray) -> np.ndarray:
    """(K, n) carrier indices of the images of a_1..a_n in, (K, n, n) entry
    matrices out.

    Coordinate i of the image of a_j is c_ij * p^max(0, ki - kj), so it must
    be divisible by that factor (a_j has order p^kj, and its image can have
    no larger order); the quotient reduced mod p^min(ki, kj) is the entry.
    """
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


def _equal_exponent_runs(shape: GroupShape) -> list[range]:
    runs = []
    start = 0
    exps = shape.exponents
    for i in range(1, len(exps) + 1):
        if i == len(exps) or exps[i] != exps[start]:
            runs.append(range(start, i))
            start = i
    return runs


# ---- exhaustive enumeration and generators ----------------------------------------


def endo_count(shape: GroupShape) -> int:
    p = shape.prime
    total = 1
    for ki in shape.exponents:
        for kj in shape.exponents:
            total *= p ** min(ki, kj)
    return total


def _cell_places(shape: GroupShape) -> tuple[np.ndarray, np.ndarray]:
    """(moduli, place): the (n, n) cell moduli p^min(ki, kj) and the
    row-major mixed-radix place values of the cells, so that an
    endomorphism's index in `endo_entry_batches` is sum(entries * place)."""
    n = shape.rank
    exps = np.array(shape.exponents, dtype=np.int64)
    moduli = shape.prime ** np.minimum(exps[:, None], exps[None, :])
    # the last cell varies fastest
    place = np.ones(n * n, dtype=np.int64)
    place[:-1] = np.cumprod(moduli.ravel()[::-1])[::-1][1:]
    return moduli, place.reshape(n, n)


def _batch_size(shape: GroupShape) -> int:
    """Matrices per batch: B * n * |G| stays around 2^17 cells, which bounds
    the (B, |G|) tables and the (B, |G|) int64 terms of `_row_terms` that
    `induced_tables_batch` sums; larger batches scan no faster and only
    raise peak memory."""
    return max(64, (1 << 17) // max(1, shape.rank * carrier(shape).n))


def endo_entry_batches(
    shape: GroupShape, batch_size: int | None = None
) -> Iterator[np.ndarray]:
    """Every endomorphism's entry matrix, as (B, n, n) int64 batches.

    Row-major entry order with ascending residues (the last cell varies
    fastest).  Guarded by the endo oracle cap; this is the brute-force oracle
    layer, batched so exhaustive sweeps stay in numpy instead of looping over
    a million matrices one at a time.

    Matrices come in sweeps of c, the last row's codes, that share rows
    0..n-2: a batch tiles the last row's (c, n) block, decoded once, under
    rows 0..n-2 decoded once per sweep (index // c).  Batches are whole
    sweeps: `batch_size` is rounded up to a multiple of c.
    """
    cap = endo_oracle_cap()
    total = endo_count(shape)
    if total > cap:
        raise CapExceeded("endo-oracle", cap, total, f"|End| for {shape}")
    n = shape.rank
    moduli, place = _cell_places(shape)
    c = int(moduli[-1].prod())
    step = -(-(batch_size or _batch_size(shape)) // c)  # sweeps per batch
    last = _row_codes(moduli, n - 1)
    # the place values of rows 0..n-2 are multiples of c: a sweep's number
    # is its first matrix's index // c
    prefix_moduli, prefix_place = moduli[:-1].ravel(), place[:-1].ravel() // c
    for start in range(0, total // c, step):
        sweeps = np.arange(start, min(start + step, total // c), dtype=np.int64)
        grid = np.empty((len(sweeps), c, n, n), dtype=np.int64)
        prefix = sweeps[:, None] // prefix_place % prefix_moduli
        grid[:, :, :-1] = prefix.reshape(len(sweeps), 1, n - 1, n)
        grid[:, :, -1] = last
        yield grid.reshape(-1, n, n)


def _row_places(moduli: np.ndarray) -> np.ndarray:
    """(n, n) mixed-radix place values of the cells within each matrix row,
    the last cell varying fastest: a row's code is sum_j row[j] *
    places[i, j], below prod_j moduli[i, j] (at most |G|)."""
    places = np.ones_like(moduli)
    places[:, :-1] = np.cumprod(moduli[:, :0:-1], axis=1)[:, ::-1]
    return places


def _row_codes(moduli: np.ndarray, i: int) -> np.ndarray:
    """Every row i of an entry matrix, reduced mod the cell moduli, as one
    (prod_j p^min(ki, kj), n) int64 array in enumeration order (the last cell
    varying fastest); `moduli` are those of `_cell_places`."""
    codes = np.arange(moduli[i].prod(), dtype=np.int64)
    return codes[:, None] // _row_places(moduli)[i] % moduli[i]


def _row_terms(
    shape: GroupShape, i: int, rows: np.ndarray, columns: tuple[int, ...] | None = None
) -> np.ndarray:
    """stride_i * (image coordinate i) of every element, or of the carrier
    indices `columns` only, one int64 row per row-i entry vector in a (B, n)
    batch: coordinate i of the image of x is sum_j e_ij * p^max(0, ki - kj) *
    x_j mod p^ki, whatever the other rows.

    Weights and coordinates are each < 2^16 under the carrier cap, so the
    sums stay far inside int64."""
    car = carrier(shape)
    coords = car.coords_mat if columns is None else car.coords_mat[:, columns]
    terms = np.einsum("bj,jx->bx", rows * _scales(shape)[i], coords)
    terms %= car.radices[i]
    terms *= car.strides[i]
    return terms


def induced_tables_batch(
    shape: GroupShape, entries: np.ndarray, columns: tuple[int, ...] | None = None
) -> np.ndarray:
    """Induced carrier tables, one int32 row per matrix in a (B, n, n) entry
    batch, evaluated on the carrier indices `columns` (every element by
    default).

    Row b is the table of entries[b], entries taken mod their cell moduli:
    row[x] is the index of sum_ij entries[b, i, j] * p^max(0, ki - kj) *
    x_j * a_i, the sum over i of the `_row_terms` of row i.  The terms are
    added into the output `_batch_size` matrices at a time, so no int64
    temporary is larger than one row's terms for one batch.
    """
    n = shape.rank
    if entries.ndim != 3 or entries.shape[1:] != (n, n):
        raise ValueError(f"expected a (B, {n}, {n}) entry array for {shape}")
    width = carrier(shape).n if columns is None else len(columns)
    out = np.empty((len(entries), width), dtype=np.int32)
    step = _batch_size(shape)
    for start in range(0, len(entries), step):
        chunk, sums = entries[start : start + step], out[start : start + step]
        sums[:] = _row_terms(shape, 0, chunk[:, 0], columns)
        for i in range(1, n):
            sums += _row_terms(shape, i, chunk[:, i], columns)
    return out


def endo_scan_batches(
    shape: GroupShape,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Every endomorphism with its bijectivity flag, and the generator
    images of the bijective ones, as (entries, bijective, images) batches in
    `endo_entry_batches` order.

    `bijective` holds one flag per matrix of `entries`: whether no element of
    the socle Ω = {x != 0 : px = 0} maps to 0 (`bijective_flags_by_table`).
    `images` holds one int row per flagged matrix, in batch order: the
    carrier indices of its images of a_1..a_n, as int16 up to |G| = 2^15 and
    int32 above.  No carrier table is built: a table cell is the sum of its
    n `_row_terms`, stride_i * (image coordinate i), with no reduction
    between them, so a map's table on a column x is its sweep's prefix (rows
    0..n-2 summed) plus its last row's term there.

    The last matrix row varies fastest and has c = |G| codes (exponents
    ascend, so cell (n, j) has p^kj choices), so every batch is made of
    whole sweeps of c matrices that share rows 0..n-2: `ents[::c]` are the
    sweep heads and `ents[:c, -1]` the c last rows (`automorphism_flags`
    reads a batch in that form).  Each row's `_row_terms` are built once on
    the columns Ω and a_1..a_n over every code of that row; rows 0..n-2 are
    summed by outer sums into the S = |End| / |G| sweep prefixes, in
    enumeration order.  Both terms of a cell are >= 0, so the cell is 0
    exactly when both are: a map sends x in Ω to 0 iff x lies in its
    prefix's zero set and in its last row's, and the sweep form of
    `bijective_flags_by_table` decides every map of a batch from those zero
    sets, packed into 64-bit words (the last rows' once per shape).  The
    arrays a batch allocates (entries, zero-set words and their AND, flags,
    index pairs and image rows, counted as if every map were bijective)
    hold together no more bytes than `_batch_size` matrices with whole int32
    tables, or one sweep where that is more.
    """
    n = shape.rank
    car = carrier(shape)
    socle = np.flatnonzero(car.order_exponents() == 1)
    columns = (*socle.tolist(), *car.strides)
    dtype = np.int16 if car.n <= 1 << 15 else np.int32
    moduli, _ = _cell_places(shape)
    step = _batch_size(shape)
    terms = []
    for i in range(n):
        rows = _row_codes(moduli, i)
        table = np.empty((len(rows), len(columns)), dtype=dtype)
        for start in range(0, len(rows), step):
            table[start : start + step] = _row_terms(
                shape, i, rows[start : start + step], columns
            )
        terms.append(table)
    *upper, last = terms
    prefixes = np.zeros((1, len(columns)), dtype=dtype)
    for table in upper:  # row 0 varies slowest
        prefixes = (prefixes[:, None] + table).reshape(-1, len(columns))
    c, words = car.n, -(-len(socle) // 64)
    last_zeros = _zero_words(last[:, :-n])
    # bytes a batch allocates: for each map its int64 entries, the AND of
    # its two zero sets (and one temporary while a second word is ORed in),
    # its flag and, were it bijective, its (sweep, last row) pair and three
    # image rows (two gathers and their sum); for each sweep its number, two
    # int64 copies of rows 0..n-2, its zero-set words and their unpacked bits
    per_map = 8 * n * n + 8 * min(words, 2) + 1 + 16 + 3 * n * last.itemsize
    per_sweep = 8 + 16 * (n - 1) * n + 72 * words
    whole = step * (8 * n * n + 4 * car.n)
    done = 0
    for ents in endo_entry_batches(shape, max(1, whole // (c * per_map + per_sweep)) * c):
        sweeps = prefixes[done : done + len(ents) // c]
        done += len(sweeps)
        bijective = bijective_flags_by_table(sweeps[:, :-n], last_zeros)
        heads, tails = np.nonzero(bijective.reshape(-1, c))
        yield ents, bijective, sweeps[heads, -n:] + last[tails, -n:]


def _zero_words(values: np.ndarray) -> np.ndarray:
    """The zero set of each row of a (B, m) array, as a (B, ceil(m / 64))
    array of uint64 bit sets (bit x set iff values[b, x] == 0)."""
    m = values.shape[1]
    bits = np.zeros((len(values), -(-m // 64) * 64), dtype=bool)
    np.equal(values, 0, out=bits[:, :m])
    return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)


def bijective_flags_by_table(
    socle_images: np.ndarray, last_zeros: np.ndarray | None = None
) -> np.ndarray:
    """Bijectivity flags of endomorphisms from their images of the socle Ω
    = {x != 0 : px = 0}: a map is bijective iff no element of Ω maps to 0.
    A homomorphism of a finite p-group is bijective iff its kernel is
    trivial, and a nontrivial kernel holds an element of order p.

    Pairwise form (`last_zeros` None): `socle_images` is a (B, |Ω|) batch
    of carrier indices, one flag per row, which must hold no 0.  Sweep form:
    `socle_images` holds the (S, |Ω|) socle columns of S sweep prefixes and
    `last_zeros` the zero sets of c last-row terms on Ω, packed by
    `_zero_words` (the scan packs them once per shape); both terms are >= 0,
    and the map of prefix s and last row l sends x to prefix[s, x] +
    last[l, x], which is 0 iff both terms are, so the map fails iff the zero
    sets of its two terms meet.  The prefixes' zero sets are packed the same
    way, and the S*c flags, head-major, are those of the maps whose two sets
    share no bit: one AND a word per map."""
    if last_zeros is None:
        return (socle_images != 0).all(axis=1)
    heads, tails = _zero_words(socle_images), last_zeros
    met = heads[:, None, 0] & tails[:, 0]
    for w in range(1, heads.shape[1]):
        met |= heads[:, None, w] & tails[:, w]
    return (met == 0).ravel()


# a run with more r x r blocks mod p than this expands its determinants along
# the block's last row (`_expand`) instead of reading them from one table;
# under the default endo-oracle cap only single-run shapes (2:1^4, 3:1^3) have
# such a run, and for them a table of every block would cost as much as their
# whole scan.  Their minors' tables are within it
_BLOCK_TABLE_LIMIT = 1 << 12


def _block_places(p: int, r: int) -> np.ndarray:
    """Base-p place values of the r*r cells of a row-major flattened block,
    the last cell varying fastest."""
    return p ** np.arange(r * r - 1, -1, -1, dtype=np.int64)


@lru_cache(maxsize=None)
def _block_dets(p: int, r: int) -> np.ndarray:
    """Read-only table of determinants mod p over every r x r block mod p,
    indexed by the block's code sum(block.ravel() * _block_places(p, r)); a
    block is nonsingular iff its entry is nonzero.  Built by `_expand` on all
    p^(r*r) blocks at once, so callers keep p^(r*r) within
    `_BLOCK_TABLE_LIMIT`."""
    codes = np.arange(p ** (r * r), dtype=np.int64)
    blocks = (codes[:, None] // _block_places(p, r) % p).reshape(len(codes), r, r)
    table = _expand(blocks, p)
    table.flags.writeable = False  # cached: shared by every later caller
    return table


# rows 0..r-2 of an r x r block, flattened, times column j of this
# ((r-1)*r, r) matrix give the `_block_dets(p, r - 1)` code of the minor
# without the last row and column j
@lru_cache(maxsize=None)
def _minor_places(p: int, r: int) -> np.ndarray:
    places = _block_places(p, r - 1).reshape(r - 1, r - 1)
    out = np.zeros((r - 1, r, r), dtype=np.int64)  # (row, column, deleted column)
    for j in range(r):
        out[:, np.arange(r) != j, j] = places
    out = out.reshape((r - 1) * r, r)
    out.flags.writeable = False  # cached: shared by every later caller
    return out


def _dets(blocks: np.ndarray, p: int, last: np.ndarray | None = None) -> np.ndarray:
    """Determinants mod p of r x r blocks reduced mod p.

    Pairwise (`last` None): a (B, r, r) batch gives B determinants.  Sweep:
    `blocks` holds S heads, rows 0..r-2 of a block as an (S, r-1, r) array,
    `last` holds c last rows as a (c, r) array, and every head paired with
    every last row gives an (S, c) array.  While `_block_dets(p, r)` is
    within `_BLOCK_TABLE_LIMIT` the determinant is read from it at the head's
    code plus the last row's (the code is linear in the rows); otherwise it
    is expanded along the last row, the cofactors once per head
    (`_cofactors`), then multiplied with each block's own last row (`_expand`)
    or, for a sweep, with every last row in one product."""
    sweep = last is not None
    top, last = (blocks, last) if sweep else (blocks[:, :-1], blocks[:, -1])
    r = last.shape[1]
    if p ** (r * r) <= _BLOCK_TABLE_LIMIT:
        places = _block_places(p, r)
        head = top.reshape(len(top), (r - 1) * r) @ places[:-r]
        tail = last @ places[-r:]
        return _block_dets(p, r)[np.add.outer(head, tail) if sweep else head + tail]
    if not sweep:
        return _expand(blocks, p)
    return _cofactors(top, p) @ last.T % p


def _cofactors(top: np.ndarray, p: int) -> np.ndarray:
    """(B, r) signed cofactors mod p along the last row of r x r blocks whose
    rows 0..r-2 are the (B, r-1, r) batch `top`, reduced mod p: the minors
    are coded with `_minor_places` and read from `_block_dets(p, r - 1)` when
    that table is within `_BLOCK_TABLE_LIMIT`, and expanded (`_expand`) in
    turn otherwise."""
    b, r = top.shape[0], top.shape[2]
    if p ** ((r - 1) * (r - 1)) <= _BLOCK_TABLE_LIMIT:
        minors = _block_dets(p, r - 1)[top.reshape(b, (r - 1) * r) @ _minor_places(p, r)]
    else:
        minors = np.stack([_expand(np.delete(top, j, axis=2), p) for j in range(r)], axis=1)
    # cofactor signs (-1)^(r-1+j) alternate from + at the last column
    return minors * (-1) ** np.arange(r - 1, 2 * r - 1)


def _expand(blocks: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a (B, r, r) batch of blocks reduced mod p, by
    Laplace expansion along the last row (`_cofactors`).  A 0 x 0 block has
    determinant 1."""
    b, r = blocks.shape[:2]
    if r == 0:
        return np.ones(b, dtype=np.int64)
    return (blocks[:, -1] * _cofactors(blocks[:, :-1], p)).sum(axis=1) % p


def automorphism_flags(
    shape: GroupShape, entries: np.ndarray, last_rows: np.ndarray | None = None
) -> np.ndarray:
    """Automorphism flags: every equal-exponent diagonal block must have a
    nonzero determinant mod p (`_dets`).

    Per-matrix form (`last_rows` None): one flag per matrix of a (B, n, n)
    entry batch.  Sweep form: `entries` holds S sweep heads, of which only
    rows 0..n-2 are read, and `last_rows` a (c, n) array of last rows; the
    S*c flags are those of each head completed by each last row in turn,
    head-major.  So for a batch `ents` of whole sweeps of c matrices in
    `endo_entry_batches` order, `automorphism_flags(shape, ents[::c],
    ents[:c, -1])` equals `automorphism_flags(shape, ents)`.  The runs that
    do not hold row n-1 are decided once per head, and the last run's
    determinants come from one table gather or one cofactor product."""
    p = shape.prime
    *upper, final = _equal_exponent_runs(shape)
    flags = np.ones(len(entries), dtype=bool)
    for run in upper:
        block = entries[:, run.start : run.stop, run.start : run.stop] % p
        flags &= _dets(block, p) != 0
    k = final.start
    if last_rows is None:
        return flags & (_dets(entries[:, k:, k:] % p, p) != 0)
    dets = _dets(entries[:, k:-1, k:] % p, p, last_rows[:, k:] % p)
    return (flags[:, None] & (dets != 0)).ravel()


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
    """Generators of (Z/p^k)*, as residues: none for the trivial (Z/2)*."""
    if p == 2:
        if k == 1:
            return []
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


def _aut_generator_entries(shape: GroupShape) -> np.ndarray:
    """A generating set for Aut(G), as one (G, n, n) int64 entry array of
    identity matrices with the cells of each generator changed.

    Three families: unipotent transvections I + E_ij for i != j, adjacent
    transpositions of equal-exponent summands, and diagonal unit
    multiplications on single summands (none on a Z(2) summand, whose only
    unit is 1).  Transvections come first; they are
    the maps that kill most non-characteristic subgroups fastest.
    """
    n = shape.rank
    exps = shape.exponents
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    swaps = [i for i in range(n - 1) if exps[i] == exps[i + 1]]
    units = [(i, u) for i in range(n) for u in _unit_generators(shape.prime, exps[i])]
    ents = np.tile(np.eye(n, dtype=np.int64), (len(off) + len(swaps) + len(units), 1, 1))
    for k, (i, j) in enumerate(off):
        ents[k, i, j] = 1
    for k, i in enumerate(swaps, start=len(off)):
        ents[k, i : i + 2, i : i + 2] = [[0, 1], [1, 0]]
    for k, (i, u) in enumerate(units, start=len(off) + len(swaps)):
        ents[k, i, i] = u
    return ents % _cell_places(shape)[0]


def _generator_tables(shape: GroupShape, entries: np.ndarray) -> np.ndarray:
    """Induced carrier tables of a (B, n, n) entry batch of maps that differ
    from the identity in a few rows (transvections, transpositions, unit
    multiples), one int32 row per map.

    Every table starts as the identity table, and each row i is corrected in
    the tables of the maps that change it, all at once: their `_row_terms`
    (stride_i times image coordinate i of every element, one product of
    their rows i with the coordinates) minus the identity's.  Tables are
    filled in place, so a shape's tables are never held twice while they are
    built, and int32 is enough for a carrier index while halving what the
    caches keep.
    """
    car = carrier(shape)
    moduli, _ = _cell_places(shape)
    eye = np.eye(shape.rank, dtype=np.int64)
    out = np.empty((len(entries), car.n), dtype=np.int32)
    out[:] = np.arange(car.n, dtype=np.int32)
    for i in range(shape.rank):
        changed = np.nonzero((entries[:, i] % moduli[i] != eye[i]).any(axis=1))[0]
        if len(changed):
            terms = _row_terms(shape, i, entries[changed, i])
            terms -= car.coords_mat[i] * car.strides[i]
            out[changed] += terms
    return out


# the tables serve the shape at hand; a sweep does not keep them for every
# shape it has passed through, and a prefix summand reads its tables off its
# group's (`prefix_aut_generator_tables`) instead of taking a cache slot
@lru_cache(maxsize=2)
def aut_generator_tables(shape: GroupShape) -> np.ndarray:
    """Carrier tables of the Aut(G) generators of `_aut_generator_entries`
    (transvections, then equal-exponent transpositions, then unit
    multiples), one int32 row per generator."""
    return _generator_tables(shape, _aut_generator_entries(shape))


def prefix_aut_generator_tables(shape: GroupShape, t: int) -> np.ndarray:
    """`aut_generator_tables` of the prefix summand A = Z(p^k1) + ... +
    Z(p^kt) of G, read off G's own generator tables instead of built.

    A's generators, extended by the identity on the other summands, are
    G's generators that differ from the identity only inside the leading
    t x t block, in the same order (transvections, swaps, units).
    Coordinate 0 varies fastest, so an element of A has the same index in
    A's carrier as in G's, and the generator's table on A is the first |A|
    cells of G's.
    """
    n = shape.rank
    outside = np.ones((n, n), dtype=bool)
    outside[:t, :t] = False
    changed = _aut_generator_entries(shape) != np.eye(n, dtype=np.int64)
    inside = ~(changed & outside).any(axis=(1, 2))
    return aut_generator_tables(shape)[inside, : shape.prime ** sum(shape.exponents[:t])]


@lru_cache(maxsize=8)
def stability_test_tables(shape: GroupShape) -> np.ndarray:
    """Carrier tables of the n^2 single-entry maps E_ij (the projections E_ii
    included), one int32 row per map, in row-major (i, j) order.

    A subset closed under addition is stable under every endomorphism iff it
    is stable under these: any matrix is an entrywise sum of multiples of the
    E_ij, and stability under a map passes to its integer multiples and sums.
    E_ij sends x to (p^max(0, ki - kj) * x_j mod p^ki) * a_i, so row block i
    (the n maps into summand i) is the `_row_terms` of the identity's rows,
    filled in place.
    """
    n = shape.rank
    out = np.empty((n, n, carrier(shape).n), dtype=np.int32)
    for i in range(n):
        out[i] = _row_terms(shape, i, np.eye(n, dtype=np.int64))
    return out.reshape(n * n, -1)


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
    """Close the Aut(G) generators under composition, in generator-image space.

    An automorphism is fixed by where it sends the canonical generators, so
    the result is a (K, n) integer array with K = |Aut(G)|: row k, column j is
    the carrier index of the image of a_j under the k-th automorphism
    (`entries_from_images` turns rows back into matrices).  Rows come coset
    by coset, the identity first; callers treat them as a set.

    The group is built along the chain H_0 = {1} <= H_1 <= ... <= H_m =
    Aut(G), where H_i adds the i-th generator that is not yet in H_(i-1) (one
    `seen` look-up skips the others), by Dimino's coset enumeration (Butler,
    *Fundamental Algorithms for Permutation Groups*, LNCS 559): H_i is a union
    of left cosets y o H_(i-1), each one gather of a generator table over the
    rows of a coset already found, n look-ups per element.

    * The powers of the new generator g come first, by doubling: with the
      rows of g^1..g^m and the table of g^m (itself the square of the table
      of g^(m/2)), g^(m+1)..g^(2m) is one gather, until the least power j
      inside H_(i-1) turns up.  The cosets g^0..g^(j-1) o H_(i-1) are then
      doubled the same way, so a cyclic step takes log j rounds.
    * The union U of the cosets found is H_i once t o U lies in U for every
      chain generator t, that is once t o y lies in U for every coset
      representative y (a coset's first row: H_(i-1) lists the identity
      first).  Each round tries every generator on the cosets the last round
      found; a candidate t o y outside `seen` opens the coset t o y o
      H_(i-1), whose rows are t applied to y's coset.
    * The dedupe is exact without comparing cosets: `seen` always holds whole
      cosets, which are disjoint, so a candidate outside it lies in a coset
      not yet found; and one generator's candidates from distinct cosets y o
      H_(i-1) open distinct cosets (t o y o H = t o y' o H iff y o H = y' o
      H).  Trying the generators one after another, each against the `seen`
      the last one left, keeps two generators from opening one coset twice.

    So each automorphism is composed about once, not once per generator.
    Elements are keyed by their rank in `endo_entry_batches`, n one-column
    look-ups, in a bitmap over End(G): the closure is gated by the endo
    oracle cap before anything is allocated, and its running size by the aut
    closure cap.  This is oracle machinery: characteristic testing never
    needs the closure, only the generators.
    """
    total = endo_count(shape)
    cap = endo_oracle_cap()
    if total > cap:
        raise CapExceeded("endo-oracle", cap, total, f"|End| for {shape}")
    cap = aut_closure_cap()
    n = shape.rank
    lookup = _rank_lookup(shape)

    def codes_of(rows: np.ndarray) -> np.ndarray:
        # one 1-d gather per column: with one broadcast 2-d fancy index over
        # all n columns, the closure of 3:1,1,3 took 55 ms against 29 ms
        codes = lookup[0][rows[:, 0]]
        for j in range(1, n):
            codes += lookup[j][rows[:, j]]
        return codes

    def grow(size: int) -> None:
        if size > cap:
            raise CapExceeded("aut-closure", cap, size, f"closure for {shape}")

    ident = np.array([carrier(shape).strides], dtype=np.int32)  # a_j sits at its stride
    seen = np.zeros(total, dtype=bool)
    seen[codes_of(ident)] = True
    group = ident  # H_(i-1), identity first
    chain = []  # the generators that extended the chain
    for table in aut_generator_tables(shape):
        powers = table[ident]  # g^1..g^m as rows
        if seen[codes_of(powers)[0]]:
            continue
        chain.append(table)
        doubled = [table]  # tables of g^1, g^2, g^4, ...
        while True:
            more = doubled[-1][powers]  # g^(m+1)..g^(2m)
            inside = np.flatnonzero(seen[codes_of(more)])
            if len(inside):
                index = len(powers) + int(inside[0]) + 1  # least power inside H_(i-1)
                break
            powers = np.concatenate([powers, more])
            doubled.append(doubled[-1][doubled[-1]])
        size = index * len(group)
        grow(size)
        # (cosets, |H_(i-1)|, n): g^0..g^(index-1) o H_(i-1), filled in place
        # by doubling; take's "clip" mode writes to `out` unbuffered
        cosets = np.empty((index, len(group), n), dtype=group.dtype)
        cosets[0] = group
        del group
        filled = 1
        for power_table in doubled:
            if filled == index:
                break
            block = cosets[filled : min(2 * filled, index)]
            np.take(power_table, cosets[: len(block)], out=block, mode="clip")
            seen[codes_of(block.reshape(-1, n))] = True
            filled += len(block)
        found, frontier = [cosets], cosets
        while True:
            level = []
            for t in chain:
                fresh = ~seen[codes_of(t[frontier[:, 0]])]
                if not fresh.any():
                    continue
                new = t[frontier[fresh]]
                size += new.shape[0] * new.shape[1]
                grow(size)
                seen[codes_of(new.reshape(-1, n))] = True
                level.append(new)
            if not level:
                break
            frontier = np.concatenate(level)
            found.append(frontier)
        # a step whose cosets all came from powers is one array already
        group = (cosets if len(found) == 1 else np.concatenate(found)).reshape(-1, n)
    return group


def random_endo_entries(shape: GroupShape, rng: random.Random, count: int) -> np.ndarray:
    """`count` uniformly random entry matrices as one (count, n, n) int64
    array: each row i of each matrix is one `rng.randrange` over the row's
    prod_j p^min(ki, kj) codes, matrix after matrix, decoded as `_row_codes`
    decodes them (the last cell varying fastest), so cell (i, j) is uniform
    in 0..p^min(ki, kj) - 1 and the cells are independent.  The stdlib
    generator keeps `numpy.random`, which costs milliseconds to import, out
    of the process."""
    n = shape.rank
    moduli, _ = _cell_places(shape)
    sizes = moduli.prod(axis=1).tolist()
    codes = np.array([rng.randrange(m) for _ in range(count) for m in sizes], dtype=np.int64)
    return codes.reshape(count, n, 1) // _row_places(moduli) % moduli
