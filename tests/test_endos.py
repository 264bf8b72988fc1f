"""Entry batches, induced tables, automorphism machinery.

Oracles: `dumb_endo_table` maps every element coordinate-wise in pure Python;
a `dumb_endo_table` row being a permutation is the ground truth for the fast
invertibility test; the closure of the generator set, as generator-image
rows, is compared against filtering the exhaustive endomorphism enumeration
and against the whole-table closure `dumb_aut_closure`.
"""

import functools
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import pgroups.endos as endos_mod
from conftest import (
    all_dumb_endo_tables,
    closed_subset_masks,
    dumb_aut_closure,
    dumb_aut_generators,
    dumb_coords,
    dumb_endo_entries,
    dumb_endo_table,
    dumb_index,
    dumb_radices,
    einsum_endo_tables,
    hillar_rhea_aut_order,
    mask_members,
)
from pgroups.caps import CapExceeded, endo_oracle_cap
from pgroups.core import GroupShape, carrier, make_shape
from pgroups.endos import (
    aut_closure_tables,
    aut_generator_tables,
    automorphism_flags,
    bijective_flags_by_table,
    endo_count,
    endo_entry_batches,
    endo_scan_batches,
    entries_from_images,
    induced_tables_batch,
    prefix_aut_generator_tables,
    random_endo_entries,
    stability_test_tables,
)
from pgroups.harness import build_corpus

# |Aut| for pinned shapes, confirmed below by two independent routes
KNOWN_AUT_ORDERS = {
    (2, (1, 1)): 6,
    (2, (1, 2)): 8,
    (2, (1, 3)): 16,
    (2, (2, 2)): 96,
    (2, (1, 1, 1)): 168,
    (2, (1, 1, 2)): 192,
    (3, (1, 1)): 48,
    (3, (1, 2)): 108,
    (5, (1, 1)): 480,
}


def _dumb_bijective(s, entries):
    """Ground truth: the pure-Python table of each matrix is a permutation."""
    return [len(set(dumb_endo_table(s, m))) == s.order for m in np.asarray(entries).tolist()]


def _socle(s):
    """Carrier indices of the socle {x != 0 : px = 0}, from coordinates."""
    p = s.prime
    radices = dumb_radices(s)
    return [
        x
        for x in range(1, s.order)
        if all(p * c % r == 0 for c, r in zip(dumb_coords(s, x), radices))
    ]


def _scan_columns(s):
    """The columns the scan builds its row terms on: the socle, then
    a_1..a_n."""
    return _socle(s) + list(carrier(s).strides)


def test_induced_table_matches_dumb_table(endo_oracle_shapes):
    rng = random.Random(7)
    for s in endo_oracle_shapes:
        ents = random_endo_entries(s, rng, 25)
        got = induced_tables_batch(s, ents).tolist()
        assert got == [dumb_endo_table(s, m) for m in ents.tolist()]


def test_compose_and_add_match_tables():
    s = make_shape(2, [1, 2])
    car = carrier(s)
    rng = random.Random(3)
    e1, e2 = random_endo_entries(s, rng, 40), random_endo_entries(s, rng, 40)
    t1, t2 = induced_tables_batch(s, e1), induced_tables_batch(s, e2)
    # m1 after m2 is the endomorphism with the composed generator images,
    # read at the strides (where a_1..a_n sit)
    composed = np.take_along_axis(t1, t2, axis=1)
    images = composed[:, list(car.strides)]
    assert np.array_equal(induced_tables_batch(s, entries_from_images(s, images)), composed)
    # the entrywise sum acts as the pointwise sum of the images
    added = induced_tables_batch(s, e1 + e2)
    for row, r1, r2 in zip(added.tolist(), t1.tolist(), t2.tolist()):
        assert row == [car.add_row(a)[b] for a, b in zip(r1, r2)]


def test_identity_and_single_entry():
    s = make_shape(2, [1, 2])
    car = carrier(s)
    identity = induced_tables_batch(s, np.eye(2, dtype=np.int64)[None])
    assert identity[0].tolist() == list(range(car.n))
    # single-entry tables run in row-major (i, j) order; E_10 is the third
    e10 = stability_test_tables(s)[1 * s.rank + 0]
    # maps a_0 to p^(2-1) a_1 and kills a_1
    assert car.element_at(int(e10[car.index_of((1, 0))])).coords == (0, 2)
    assert int(e10[car.index_of((0, 1))]) == 0


def test_fast_automorphism_test_vs_bijectivity(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        bij = [len(set(t)) == s.order for t in all_dumb_endo_tables(s)]
        fast, by_table = [], []
        for ents, bijective, _ in endo_scan_batches(s):
            fast.extend(automorphism_flags(s, ents).tolist())
            by_table.extend(bijective.tolist())
        assert fast == bij
        assert by_table == bij


def test_generators_are_automorphisms(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        assert automorphism_flags(s, endos_mod._aut_generator_entries(s)).all()
        assert bijective_flags_by_table(aut_generator_tables(s)[:, _socle(s)]).all()
        assert all(_dumb_bijective(s, dumb_aut_generators(s)))


def test_closure_equals_filtered_enumeration(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        rows = aut_closure_tables(s)
        strides = carrier(s).strides
        closure = {tuple(r) for r in rows.tolist()}
        filtered = {
            tuple(t[j] for j in strides)
            for t in all_dumb_endo_tables(s)
            if len(set(t)) == s.order
        }
        assert closure == filtered
        assert len(rows) == len(closure)
        key = (s.prime, s.exponents)
        if key in KNOWN_AUT_ORDERS:
            assert len(closure) == KNOWN_AUT_ORDERS[key]


def test_aut_order_of_cyclic_groups_is_totient():
    # Aut(Z(p^k)) sends the generator (index 1) to each unit u, which sits at index u
    for p, k in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2), (13, 1)]:
        rows = aut_closure_tables(make_shape(p, [k]))
        assert rows.shape == (p ** (k - 1) * (p - 1), 1)
        assert sorted(rows[:, 0].tolist()) == [u for u in range(p ** k) if u % p]


def test_closure_rows_match_table_closure():
    # the image rows are the generator columns of a plain whole-table BFS, on
    # every shape of three small corpora; shapes whose End(G) is over the
    # endo oracle cap must refuse instead
    shapes = [
        s
        for p, max_order in ((2, 64), (3, 81), (5, 25))
        for s in build_corpus(p, max_order).shapes
    ]
    for s in shapes:
        if endo_count(s) > endo_oracle_cap():
            with pytest.raises(CapExceeded, match="endo-oracle"):
                aut_closure_tables(s)
            continue
        rows = aut_closure_tables(s).tolist()
        strides = list(carrier(s).strides)
        reference = [t[strides].tolist() for t in dumb_aut_closure(s)]
        assert len(rows) == len(reference), s
        assert set(map(tuple, rows)) == set(map(tuple, reference)), s


def test_closure_size_is_the_closed_form_aut_order():
    # every shape of four corpora whose closure is within the caps: as many
    # distinct rows as Hillar and Rhea's |Aut(G)|
    checked = 0
    for p, max_order in ((2, 256), (3, 729), (5, 625), (7, 343)):
        for s in build_corpus(p, max_order).shapes:
            try:
                rows = aut_closure_tables(s)
            except CapExceeded:
                continue
            assert len(rows) == hillar_rhea_aut_order(s), s
            assert len(np.unique(rows, axis=0)) == len(rows), s
            checked += 1
    assert checked == 45 + 18 + 7 + 5


def test_hillar_rhea_matches_known_orders():
    for (p, exps), order in KNOWN_AUT_ORDERS.items():
        assert hillar_rhea_aut_order(GroupShape(p, exps)) == order
    # GL(n, p) on the elementary abelian groups, the totient on cyclic ones
    assert hillar_rhea_aut_order(GroupShape(2, (1, 1, 1, 1))) == 20160
    assert hillar_rhea_aut_order(GroupShape(3, (1, 1, 1))) == 11232
    assert hillar_rhea_aut_order(GroupShape(7, (4,))) == 7 ** 3 * 6
    assert hillar_rhea_aut_order(GroupShape(2, (1,))) == 1


def test_entries_from_images_matches_scalar_inverse(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        entries = list(dumb_endo_entries(s))
        p, exps, n = s.prime, s.exponents, s.rank
        # coordinate i of the image of a_j is e_ij * p^max(0, ki - kj)
        rows = np.array([
            [dumb_index(s, [e[i][j] * p ** max(0, exps[i] - exps[j]) for i in range(n)])
             for j in range(n)]
            for e in entries
        ])
        assert entries_from_images(s, rows).tolist() == entries
    s = make_shape(2, [1, 2])
    with pytest.raises(ValueError, match="no endomorphism"):
        entries_from_images(s, np.array([[carrier(s).strides[1], 0]]))  # a_1 -> a_2
    with pytest.raises(ValueError, match="image array"):
        entries_from_images(s, np.zeros((3, 3), dtype=np.int64))


def test_closure_is_gated_by_the_endo_oracle_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_ENDO_ORACLE_CAP", "8")
    with pytest.raises(CapExceeded, match="endo-oracle"):
        aut_closure_tables(make_shape(2, [1, 1]))


def test_stability_test_set_is_complete():
    # stable under the n^2 single-entry maps iff stable under every endo
    for s in [make_shape(2, [1, 2]), make_shape(2, [2, 2]), make_shape(3, [1, 1]),
              make_shape(2, [1, 1, 2])]:
        test_rows = stability_test_tables(s).tolist()
        all_tables = all_dumb_endo_tables(s)

        def stable(mask, rows):
            return all(
                (mask >> row[i]) & 1 for row in rows for i in mask_members(mask)
            )

        for mask in closed_subset_masks(s):
            assert stable(mask, test_rows) == stable(mask, all_tables)


def test_endo_count_matches_enumeration(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        endos = [tuple(m.ravel()) for ents in endo_entry_batches(s) for m in ents]
        assert len(endos) == endo_count(s)
        assert len(set(endos)) == len(endos)


def test_aut_closure_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_AUT_CLOSURE_CAP", "4")
    with pytest.raises(CapExceeded, match="aut-closure"):
        aut_closure_tables(make_shape(2, [1, 1]))


def test_random_endo_is_seeded_and_valid():
    s = make_shape(2, [1, 1, 2])
    a = random_endo_entries(s, random.Random(5), 20)
    b = random_endo_entries(s, random.Random(5), 20)
    assert np.array_equal(a, b)
    for m in a.tolist():
        for i in range(s.rank):
            for j in range(s.rank):
                assert 0 <= m[i][j] < 2 ** min(s.exponents[i], s.exponents[j])


# ---- batched oracle routes ---------------------------------------------------------


def test_entry_batches_match_scalar_enumeration(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        reference = list(dumb_endo_entries(s))
        batched = []
        for ents in endo_entry_batches(s, batch_size=s.order):  # one sweep a batch
            batched.extend(ents.tolist())
        assert batched == reference


def _indexed_entries(s, start, stop):
    """Reference: matrices start..stop-1 decoded cell by cell from their
    index, idx // place % moduli over all n^2 cells."""
    moduli, place = endos_mod._cell_places(s)
    idx = np.arange(start, stop, dtype=np.int64)
    return (idx[:, None] // place.ravel() % moduli.ravel()).reshape(-1, s.rank, s.rank)


def test_entry_batches_match_index_decoding():
    # c matrices per sweep of the last row; batches are whole sweeps, one or
    # several, and the default (269 for 3:2,3, not a multiple of 243) is
    # rounded up to two sweeps
    cases = {
        (3, (4,)): (81, [81, None]),
        (3, (2, 3)): (243, [243, 729, None]),
        (2, (1, 1, 1, 1)): (16, [16, 48, None]),
    }
    assert endos_mod._batch_size(make_shape(3, [2, 3])) == 269
    for (p, exps), (c, sizes) in cases.items():
        s = make_shape(p, list(exps))
        assert int(endos_mod._cell_places(s)[0][-1].prod()) == c
        for size in sizes:
            step = -(-(endos_mod._batch_size(s) if size is None else size) // c) * c
            start = 0
            for ents in endo_entry_batches(s, size):
                stop = min(start + step, endo_count(s))
                assert ents.dtype == np.int64 and ents.shape == (stop - start, s.rank, s.rank)
                assert np.array_equal(ents, _indexed_entries(s, start, stop)), (s, size, start)
                start = stop
            assert start == endo_count(s), (s, size)


def test_entry_batches_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_ENDO_ORACLE_CAP", "8")
    with pytest.raises(CapExceeded, match="endo-oracle"):
        list(endo_entry_batches(make_shape(2, [1, 2])))


def test_induced_tables_batch_matches_scalar():
    for s in [make_shape(2, [1, 2]), make_shape(2, [1, 1, 2]), make_shape(3, [1, 2])]:
        for ents in endo_entry_batches(s, batch_size=2 * s.order):
            tables = induced_tables_batch(s, ents)
            assert tables.tolist() == [dumb_endo_table(s, m) for m in ents.tolist()]
            break  # first batch is plenty per shape


def test_induced_tables_batch_rejects_bad_shape():
    s = make_shape(2, [1, 2])
    with pytest.raises(ValueError, match="entry array"):
        induced_tables_batch(s, np.zeros((4, 3, 3), dtype=np.int64))


def test_row_table_route_matches_einsum_kernel(endo_oracle_shapes):
    # `induced_tables_batch` sums the n row terms of each chunk: against the
    # dense einsum kernel on every endomorphism of the endo-oracle shapes
    rng = np.random.default_rng(2024)
    for s in endo_oracle_shapes:
        for ents in endo_entry_batches(s):
            want = einsum_endo_tables(s, ents)
            assert np.array_equal(induced_tables_batch(s, ents), want)
        # unreduced and negative entries reduce mod their cell moduli
        wild = rng.integers(-500, 500, size=(200, s.rank, s.rank))
        want = einsum_endo_tables(s, wild)
        assert np.array_equal(induced_tables_batch(s, wild), want)
        # and on a few columns only
        columns = tuple(_scan_columns(s))
        assert np.array_equal(induced_tables_batch(s, wild, columns), want[:, columns])


def test_shapes_above_the_row_table_budget_use_the_einsum_kernel():
    # 2:2,10 (4112 row vectors times 4096 elements) sums its terms 64
    # matrices at a time: 150 matrices are three chunks, the last one short
    s = make_shape(2, [2, 10])
    assert endos_mod._batch_size(s) == 64
    rng = np.random.default_rng(7)
    ents = rng.integers(-50, 50, size=(150, 2, 2))
    tables = induced_tables_batch(s, ents)
    assert tables.dtype == np.int32
    assert np.array_equal(tables, einsum_endo_tables(s, ents))
    some = [0, 63, 64, 149]
    assert tables[some].tolist() == [dumb_endo_table(s, e.tolist()) for e in ents[some]]


def _endo_oracle_corpus():
    return [
        s
        for p, max_order in ((2, 32), (3, 243), (5, 25))
        for s in build_corpus(p, max_order).shapes
        if endo_count(s) <= endo_oracle_cap()
    ]


def _whole_table_bijective(s, entries):
    """`_dumb_bijective` in numpy: the dense einsum table of each matrix
    holds |G| distinct values (sorted, no two neighbours are equal)."""
    tables = np.sort(einsum_endo_tables(s, entries), axis=1)
    return (tables[:, 1:] != tables[:, :-1]).all(axis=1)


def test_scan_flags_and_images_match_whole_tables():
    # ties the socle-kernel test to the definition on every endomorphism of
    # the corpus, and the scan's images to the bijective maps' generator
    # images
    rng = np.random.default_rng(22)
    shapes = _endo_oracle_corpus()
    for s in shapes:
        strides = list(carrier(s).strides)
        for ents, flags, images in endo_scan_batches(s):
            assert np.array_equal(flags, _whole_table_bijective(s, ents)), s
            some = rng.integers(0, len(ents), size=4)
            assert flags[some].tolist() == _dumb_bijective(s, ents[some]), s
            assert np.array_equal(images, induced_tables_batch(s, ents[flags])[:, strides]), s


def _assert_scan_batches_match(s, batches):
    """Each batch's flags against the pairwise form on its induced tables'
    socle columns, and its images against those tables' generator columns
    at the flagged maps; returns the batches' entries, concatenated."""
    socle, strides = _socle(s), list(carrier(s).strides)
    entries = []
    for ents, bijective, images in batches:
        tables = induced_tables_batch(s, ents)
        assert bijective.shape == (len(ents),) and bijective.dtype == bool
        assert np.array_equal(bijective, bijective_flags_by_table(tables[:, socle])), s
        assert np.array_equal(images, tables[bijective][:, strides]), s
        entries.append(ents)
    return np.concatenate(entries)


def test_table_batches_are_int16_with_the_int32_values():
    shapes = [
        make_shape(3, [1, 1, 3]),
        make_shape(2, [1, 8]),  # indices up to 511
        make_shape(5, [1, 3]),  # indices up to 624
        make_shape(3, [1, 5]),  # indices up to 728
    ]
    for s in shapes:
        strides = list(carrier(s).strides)
        for ents, bijective, images in endo_scan_batches(s):
            want = induced_tables_batch(s, ents[bijective])[:, strides]
            assert images.dtype == np.int16 and want.dtype == np.int32, s
            assert np.array_equal(images.astype(np.int32), want), s
    # above |G| = 2^15 the images are int32: on Z(2^16), x -> e*x is
    # bijective iff e is odd, and sends a_1 to e
    s = make_shape(2, [16])
    assert _scan_columns(s) == [1 << 15, 1]
    ((ents, bijective, images),) = endo_scan_batches(s)
    assert images.dtype == np.int32
    e = ents[:, 0, 0]
    assert np.array_equal(e, np.arange(1 << 16))
    assert np.array_equal(bijective, e % 2 == 1)
    assert np.array_equal(images[:, 0], e[bijective])


# largest ents.nbytes + tables.nbytes of one batch of whole int32 carrier
# tables at the batch sizes of `_batch_size`: making a scan batch allocates
# no more
_INT32_BATCH_BYTES = {
    (3, (1, 1, 3)): 253692,
    (2, (1, 1, 1, 1)): 393216,
    (2, (1, 1, 1, 2)): 262144,
}


def test_table_batches_hold_no_more_bytes_than_int32_batches():
    # dropping the tables must not turn into batches of more bytes.  numpy
    # reports its buffers to tracemalloc, so the peak traced while the scan
    # makes a batch, above what was traced before (the shape's term tables
    # and what the scan still holds of the batch before), is every array
    # making it allocates, temporaries included.  The first batch also
    # builds the term tables and is left out
    for (p, exps), limit in _INT32_BATCH_BYTES.items():
        s = make_shape(p, list(exps))
        scan = endo_scan_batches(s)
        next(scan)
        sizes = []
        tracemalloc.start()
        try:
            while True:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                if next(scan, None) is None:
                    break
                sizes.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
        assert len(sizes) > 1 and max(sizes) <= limit, (s, max(sizes))


def test_table_batches_match_entry_batches():
    # every endomorphism of the endo-oracle corpus, in `endo_entry_batches`
    # order, with its flag and, if bijective, its generator images
    shapes = _endo_oracle_corpus()
    assert any(s.rank >= 3 for s in shapes) and any(s.prime == 3 for s in shapes)
    for s in shapes:
        got = _assert_scan_batches_match(s, endo_scan_batches(s))
        assert np.array_equal(got, np.concatenate(list(endo_entry_batches(s)))), s


def test_table_batches_sweep_rank_1_and_fall_back_over_the_row_table_budget():
    # a rank-1 scan is one batch, one sweep of the last row under an empty
    # prefix: entries 0..|G|-1, x -> e*x bijective iff p does not divide e,
    # sending a_1 to e; on 3:4 and on Z(131^2), whose 17161 codes times 131
    # columns are the largest term table here
    for s in (make_shape(3, [4]), make_shape(131, [2])):
        ((ents, bijective, images),) = endo_scan_batches(s)
        e = ents[:, 0, 0]
        assert e.tolist() == list(range(s.order))
        assert np.array_equal(bijective, e % s.prime != 0)
        assert np.array_equal(images[:, 0], e[bijective])
    s3 = make_shape(3, [4])
    got = _assert_scan_batches_match(s3, endo_scan_batches(s3))
    assert got.ravel().tolist() == list(range(81))
    # 131:2 against whole tables on its last two maps only
    whole = [dumb_endo_table(s, e.tolist()) for e in ents[-2:]]
    assert [len(set(t)) == s.order for t in whole] == bijective[-2:].tolist() == [True, True]
    assert [[t[1]] for t in whole] == images[-2:].tolist()


def test_table_batches_are_whole_sweeps_on_both_routes():
    # every batch is whole sweeps of c = |G| matrices, each sharing rows
    # 0..n-2 and running through the same c last rows: on the endo-oracle
    # corpus, on 131:2, and on 29:1,1, whose byte budget (about 3400 maps)
    # would cut a sweep of 841 if batches were not rounded to sweeps
    cases = [(s, None) for s in _endo_oracle_corpus()]
    cases += [(make_shape(131, [2]), None), (make_shape(29, [1, 1]), 3)]
    for s, limit in cases:
        n, c = s.rank, s.order
        batches = list(itertools.islice(endo_scan_batches(s), limit))
        for ents, *_ in batches:
            assert len(ents) % c == 0, s
            sweeps = ents.reshape(-1, c, n, n)
            assert (sweeps[:, :, :-1] == sweeps[:, :1, :-1]).all(), s
            assert (sweeps[:, :, -1] == ents[:c, -1]).all(), s
        seen = sum(len(ents) for ents, *_ in batches)
        assert seen == (endo_count(s) if limit is None else 3 * limit * c), s
    # the first three batches of 29:1,1 are the first matrices in index
    # order, with their flags and images
    got = _assert_scan_batches_match(s, batches)
    assert np.array_equal(got, _indexed_entries(s, 0, len(got))), s


def _sweep_terms(s, ents):
    """The socle columns of the sweep prefixes of a batch of whole sweeps
    (each head with its last row 0) and of its c last-row terms (each last
    row with rows 0..n-2 0): a map's table is the sum of its two terms."""
    c, socle = s.order, tuple(_socle(s))
    heads, lasts = ents[::c].copy(), np.zeros_like(ents[:c])
    heads[:, -1] = 0
    lasts[:, -1] = ents[:c, -1]
    return induced_tables_batch(s, heads, socle), induced_tables_batch(s, lasts, socle)


def test_sweep_bijectivity_matches_the_pairwise_form():
    # every endomorphism of p=2 <= 32, p=3 <= 243 and p=11 <= 121; 11:1,1
    # has |Ω| = 120, so its zero sets take two words.  Zeroing one last-row
    # term of the last socle column flips the same flags in both forms: those
    # of the bijective maps with that last row whose prefix is 0 there
    shapes = [
        s
        for p, max_order in ((2, 32), (3, 243), (11, 121))
        for s in build_corpus(p, max_order).shapes
        if endo_count(s) <= endo_oracle_cap()
    ]
    assert max(len(_socle(s)) for s in shapes) == 120
    flipped = 0
    for s in shapes:
        socle, c = tuple(_socle(s)), s.order
        for ents, bijective, _ in endo_scan_batches(s):
            tables = induced_tables_batch(s, ents, socle)
            pairwise = bijective_flags_by_table(tables)
            assert np.array_equal(bijective, pairwise), s
            prefix, last = _sweep_terms(s, ents)
            assert np.array_equal((prefix[:, None] + last).reshape(tables.shape), tables), s
            zeros = endos_mod._zero_words(last)
            assert np.array_equal(bijective_flags_by_table(prefix, zeros), pairwise), s
            x = len(socle) - 1
            nonzero = np.flatnonzero(last[:, x])
            if not len(nonzero):
                continue
            l = nonzero[len(nonzero) // 2]
            last[l, x] = 0
            tampered = bijective_flags_by_table((prefix[:, None] + last).reshape(tables.shape))
            zeros = endos_mod._zero_words(last)
            assert np.array_equal(bijective_flags_by_table(prefix, zeros), tampered), s
            changed = np.flatnonzero(tampered != pairwise)
            assert (changed % c == l).all() and not tampered[changed].any(), s
            flipped += len(changed)
    assert flipped > 0


def test_bijective_flags_match_scalar(endo_oracle_shapes):
    for s in endo_oracle_shapes[:4]:
        for ents in endo_entry_batches(s):
            flags = bijective_flags_by_table(induced_tables_batch(s, ents)[:, _socle(s)])
            assert flags.tolist() == _dumb_bijective(s, ents)


def test_automorphism_flags_match_scalar(endo_oracle_shapes):
    # ties the batched block-determinant criterion to the definition
    for s in endo_oracle_shapes:
        for ents in endo_entry_batches(s):
            assert automorphism_flags(s, ents).tolist() == _dumb_bijective(s, ents)


def _row_space_size(rows, p):
    """Number of vectors in the span of `rows` over F_p, by listing it."""
    span = {(0,) * len(rows)}
    for row in rows:
        span = {tuple((a + c * b) % p for a, b in zip(v, row)) for v in span for c in range(p)}
    return len(span)


def test_block_tables_match_scalar_determinants():
    # an r x r block mod p is nonsingular iff its rows span all p^r vectors,
    # and its table entry is its Leibniz determinant mod p
    checked = []
    for p in (2, 3, 5, 7):
        r = 1
        while p ** (r * r) <= endos_mod._BLOCK_TABLE_LIMIT:
            table = endos_mod._block_dets(p, r)
            places = endos_mod._block_places(p, r)
            blocks = list(itertools.product(range(p), repeat=r * r))
            assert len(table) == len(blocks) and not table.flags.writeable
            for flat in blocks:
                rows = [flat[k * r : (k + 1) * r] for k in range(r)]
                code = int(np.dot(flat, places))
                assert table[code] == _leibniz_det(rows) % p
                assert (table[code] != 0) == (_row_space_size(rows, p) == p ** r)
            checked.append((p, r))
            r += 1
    assert checked == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]


def _leibniz_det(block):
    """Determinant of a square integer matrix (list of rows), by the
    permutation expansion."""
    return sum(
        sign * math.prod(row[col] for row, col in zip(block, perm))
        for sign, perm in _signed_permutations(len(block))
    )


@functools.lru_cache(maxsize=None)
def _signed_permutations(r):
    out = []
    for perm in itertools.permutations(range(r)):
        inversions = sum(perm[a] > perm[b] for a in range(r) for b in range(a + 1, r))
        out.append((-1 if inversions % 2 else 1, perm))
    return out


def test_dets_match_leibniz():
    # every block of a table-sized (p, r), and random blocks over the table
    # budget: 5 and 7 at r = 4, 5 read minors from tables or expand them in
    # turn, and 4099 (one entry already over the budget) expands down to the
    # 0 x 0 minors at r = 1 and to minors expanded in turn at r = 2
    rng = np.random.default_rng(17)
    cases = []
    for p, r in ((2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        codes = np.arange(p ** (r * r), dtype=np.int64)
        cases.append((p, (codes[:, None] // endos_mod._block_places(p, r) % p).reshape(-1, r, r)))
    for p, r in ((5, 4), (5, 5), (7, 4), (7, 5), (4099, 1), (4099, 2)):
        blocks = rng.integers(0, p, size=(240, r, r))
        blocks[:80, 0, 0] = 0  # a zero first entry
        blocks[80:120, :, 0] = 0  # a zero first column: singular
        blocks[120:160, 0, :] = 0  # a zero first row: singular
        if r > 1:
            blocks[160:200, 1] = blocks[160:200, 0]  # a repeated row: singular
            blocks[200:, :2, :2] = [[0, 1], [1, 0]]  # zero first and second diagonal entries
        cases.append((p, blocks))
    assert 4099 > endos_mod._BLOCK_TABLE_LIMIT
    nonsingular_with_zero_corner = 0
    for p, blocks in cases:
        want = [_leibniz_det(b) % p for b in blocks.tolist()]
        assert endos_mod._dets(blocks, p).tolist() == want, p
        nonsingular_with_zero_corner += sum(w != 0 for b, w in zip(blocks, want) if b[0, 0] == 0)
        assert 0 < sum(w != 0 for w in want) < len(want)
    assert nonsingular_with_zero_corner > 0


def test_automorphism_flags_by_expansion_match_scalar():
    # one run over the block-table budget whose minors fit one: 4x4 mod 2
    # (3x3 minors) and 3x3 mod 3 (2x2 minors), expanded along the last row
    for p, r in ((2, 4), (3, 3)):
        s = make_shape(p, [1] * r)
        assert p ** (r * r) > endos_mod._BLOCK_TABLE_LIMIT
        assert p ** ((r - 1) * (r - 1)) <= endos_mod._BLOCK_TABLE_LIMIT
        for ents in endo_entry_batches(s):
            assert automorphism_flags(s, ents).tolist() == _dumb_bijective(s, ents)


def test_automorphism_flags_by_recursive_expansion_over_both_tables(monkeypatch):
    # a limit below the minor tables of 2:1,1,1 (2^4) and 3:1,1 (3^1) makes
    # their runs expand each minor in turn, the route of a raised
    # endo-oracle cap
    monkeypatch.setattr(endos_mod, "_BLOCK_TABLE_LIMIT", 2)
    expanded = []
    real = endos_mod._expand

    def spy(blocks, p):
        expanded.append((blocks.shape[1], len(blocks)))
        return real(blocks, p)

    monkeypatch.setattr(endos_mod, "_expand", spy)
    for s in (make_shape(2, [1, 1, 1]), make_shape(3, [1, 1])):
        expanded.clear()
        for ents in endo_entry_batches(s):
            assert automorphism_flags(s, ents).tolist() == _dumb_bijective(s, ents)
        r = s.rank
        # every block is expanded, and so is each of its r minors
        assert sum(b for k, b in expanded if k == r) == endo_count(s), s
        assert sum(b for k, b in expanded if k == r - 1) == r * endo_count(s), s


def _assert_sweep_form_matches(s, rng, dumb=None):
    """The sweep form on every batch of `endo_scan_batches(s)` against the
    per-matrix form and the socle test, and against `_dumb_bijective` on
    `dumb` random matrices of each batch (all of them if None)."""
    c = s.order
    for ents, bijective, _ in endo_scan_batches(s):
        sweep = automorphism_flags(s, ents[::c], ents[:c, -1])
        assert np.array_equal(sweep, automorphism_flags(s, ents)), s
        assert np.array_equal(sweep, bijective), s
        some = np.arange(len(ents)) if dumb is None else rng.integers(0, len(ents), dumb)
        assert sweep[some].tolist() == _dumb_bijective(s, ents[some]), s


def test_sweep_form_matches_the_per_matrix_form():
    # every batch of the endo-oracle corpus, the expansion route (2:1^4 and
    # 3:1^3) included; `_dumb_bijective` in pure Python on samples only
    rng = np.random.default_rng(24)
    shapes = _endo_oracle_corpus()
    assert {(2, (1, 1, 1, 1)), (3, (1, 1, 1))} <= {(s.prime, s.exponents) for s in shapes}
    for s in shapes:
        _assert_sweep_form_matches(s, rng, dumb=4)


def test_sweep_form_by_recursive_expansion(monkeypatch):
    # the limit of `test_automorphism_flags_by_recursive_expansion_over_both_tables`:
    # every minor is expanded in turn, and only once per sweep head
    monkeypatch.setattr(endos_mod, "_BLOCK_TABLE_LIMIT", 2)
    expanded = []
    real = endos_mod._expand

    def spy(blocks, p):
        expanded.append((blocks.shape[1], len(blocks)))
        return real(blocks, p)

    monkeypatch.setattr(endos_mod, "_expand", spy)
    for s in (make_shape(2, [1, 1, 1]), make_shape(3, [1, 1])):
        expanded.clear()
        _assert_sweep_form_matches(s, None)
        heads = endo_count(s) // s.order
        r = s.rank
        # the per-matrix form expands each block and its r minors; the sweep
        # form only the r minors of each head
        assert sum(b for k, b in expanded if k == r) == endo_count(s), s
        assert sum(b for k, b in expanded if k == r - 1) == r * (endo_count(s) + heads), s


def test_automorphism_flags_on_unreduced_and_negative_entries():
    # runs under and over the block-table budget alike reduce entries mod
    # their cell moduli
    rng = np.random.default_rng(5)
    shapes = [
        make_shape(2, [1, 1, 1, 1]),
        make_shape(2, [1, 1, 1, 2, 2]),
        make_shape(3, [1, 1, 2]),
        make_shape(3, [1, 1, 1]),
        make_shape(7, [1, 1]),
    ]
    for s in shapes:
        ents = rng.integers(-500, 500, size=(300, s.rank, s.rank))
        bij = _dumb_bijective(s, ents)
        assert any(bij) and not all(bij)
        assert automorphism_flags(s, ents).tolist() == bij


def test_generator_tables_match_induced_tables():
    shapes = [
        *build_corpus(2, 256).shapes,
        *build_corpus(3, 729).shapes,
        *build_corpus(5, 625).shapes,
        # 7 is the first prime whose least primitive root is not 2, so its
        # unit generators come from a longer search
        *build_corpus(7, 2401).shapes,
        *build_corpus(11, 1331).shapes,
        make_shape(2, [1] * 10),
        # about 13 generators change each row
        make_shape(2, [1] * 12),
    ]
    for s in shapes:
        n = s.rank
        single = np.eye(n * n, dtype=np.int64).reshape(n * n, n, n)
        for tables, ents in [
            (aut_generator_tables(s), endos_mod._aut_generator_entries(s)),
            (stability_test_tables(s), single),
        ]:
            assert tables.dtype == np.int32
            # the dense einsum reference, pinned to `induced_tables_batch` and
            # to `dumb_endo_table` above
            assert np.array_equal(tables, einsum_endo_tables(s, ents)), s


def test_prefix_generator_tables_are_the_summands_own():
    shapes = [
        *build_corpus(2, 256).shapes,
        *build_corpus(3, 729).shapes,
        *build_corpus(5, 625).shapes,
    ]
    checked = 0
    for s in shapes:
        for t in range(1, s.rank):
            left = GroupShape(s.prime, s.exponents[:t])
            got = prefix_aut_generator_tables(s, t)
            assert np.array_equal(got, aut_generator_tables(left)), (s, t)
            checked += 1
    assert checked > 100


def test_generator_entries_match_scalar_construction():
    shapes = [
        *build_corpus(2, 256).shapes,
        *build_corpus(3, 729).shapes,
        *build_corpus(5, 625).shapes,
    ]
    for s in shapes:
        ents = endos_mod._aut_generator_entries(s)
        assert ents.tolist() == dumb_aut_generators(s), s
        # no generator is the identity (a Z(2) summand has no unit generator)
        assert not (ents == np.eye(s.rank, dtype=np.int64)).all(axis=(1, 2)).any(), s
