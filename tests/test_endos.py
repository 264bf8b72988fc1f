"""Endomorphism matrices, induced tables, automorphism machinery.

Oracles: `dumb_endo_table` maps every element coordinate-wise in pure Python;
bijectivity by table is the ground truth for the fast invertibility test; the
closure of the generator set, as generator-image rows, is compared against
filtering the exhaustive endomorphism enumeration and against the whole-table
closure `dumb_aut_closure`.
"""

import itertools

import numpy as np
import pytest

import pgroups.endos as endos_mod
from conftest import (
    all_dumb_endo_tables,
    closed_subset_masks,
    dumb_aut_closure,
    dumb_endo_entries,
    dumb_endo_table,
    mask_members,
)
from pgroups.caps import CapExceeded, endo_oracle_cap
from pgroups.core import carrier, element, make_shape
from pgroups.endos import (
    apply,
    aut_closure_tables,
    aut_generator_tables,
    aut_generators,
    automorphism_flags,
    bijective_flags_by_table,
    compose,
    endo,
    endo_count,
    endo_entry_batches,
    entries_from_images,
    from_generator_images,
    generator_images,
    identity_endo,
    induced_table,
    induced_tables_batch,
    is_automorphism,
    is_bijective_by_table,
    matrix_add,
    random_endo,
    single_entry,
    stability_test_set,
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


def test_entries_reduced_mod_cell_modulus():
    s = make_shape(2, [1, 3])
    m = endo(s, [[5, 9], [7, 11]])
    # cell modulus is p^min(ki,kj)
    assert m.entries == ((1, 1), (1, 3))


def test_entry_shape_validation():
    s = make_shape(2, [1, 1])
    with pytest.raises(ValueError):
        endo(s, [[1, 0]])


def _all_endos(s):
    for ents in endo_entry_batches(s):
        for mat in ents.tolist():
            yield endo(s, mat)


def test_apply_matches_dumb_formula():
    s = make_shape(2, [1, 3])
    car = carrier(s)
    for m in _all_endos(s):
        table = dumb_endo_table(s, m.entries)
        for idx in range(car.n):
            x = car.element_at(idx)
            assert car.index_of_element(apply(m, x)) == table[idx]


def test_induced_table_matches_dumb_table(endo_oracle_shapes):
    rng = np.random.default_rng(7)
    for s in endo_oracle_shapes:
        car = carrier(s)
        for _ in range(25):
            m = random_endo(s, rng)
            assert induced_table(m, car).tolist() == dumb_endo_table(s, m.entries)


def test_compose_and_add_match_tables():
    s = make_shape(2, [1, 2])
    car = carrier(s)
    rng = np.random.default_rng(3)
    for _ in range(40):
        m1 = random_endo(s, rng)
        m2 = random_endo(s, rng)
        t1, t2 = induced_table(m1, car), induced_table(m2, car)
        # compose(m1, m2) acts as m1 after m2
        assert induced_table(compose(m1, m2), car).tolist() == t1[t2].tolist()
        added = induced_table(matrix_add(m1, m2), car)
        for idx in range(car.n):
            want = car.add_row(int(t1[idx]))[int(t2[idx])]
            assert int(added[idx]) == want


def test_generator_images_roundtrip(endo_oracle_shapes):
    rng = np.random.default_rng(11)
    for s in endo_oracle_shapes:
        for _ in range(10):
            m = random_endo(s, rng)
            assert from_generator_images(s, generator_images(m)) == m


def test_identity_and_single_entry():
    s = make_shape(2, [1, 2])
    car = carrier(s)
    assert induced_table(identity_endo(s), car).tolist() == list(range(car.n))
    m = single_entry(s, 1, 0)
    # maps a_0 to p^(2-1) a_1 and kills a_1
    img = apply(m, element(s, (1, 0)))
    assert img.coords == (0, 2)
    assert apply(m, element(s, (0, 1))).coords == (0, 0)


def test_fast_automorphism_test_vs_bijectivity(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        car = carrier(s)
        for m in _all_endos(s):
            table = induced_table(m, car)
            bij = len(set(table.tolist())) == car.n
            assert is_automorphism(m) == bij
            assert is_bijective_by_table(m) == bij


def test_generators_are_automorphisms(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        for g in aut_generators(s):
            assert is_automorphism(g)
            assert is_bijective_by_table(g)


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
    # the image rows are the generator columns of the table BFS they replaced,
    # on every shape of three small corpora; shapes whose End(G) is over the
    # endo oracle cap must refuse instead
    shapes = [
        s
        for p, max_order in ((2, 32), (3, 81), (5, 25))
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


def test_entries_from_images_matches_scalar_inverse(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        car = carrier(s)
        for ents in endo_entry_batches(s, batch_size=64):
            rows = np.array(
                [
                    [car.index_of_element(y) for y in generator_images(endo(s, e))]
                    for e in ents.tolist()
                ]
            )
            batch = entries_from_images(s, rows)
            assert batch.shape == ents.shape
            for got, images in zip(batch.tolist(), rows.tolist()):
                expected = from_generator_images(s, [car.element_at(i) for i in images])
                assert tuple(map(tuple, got)) == expected.entries
            assert np.array_equal(batch, ents)
    s = make_shape(2, [1, 2])
    with pytest.raises(ValueError, match="no endomorphism"):
        entries_from_images(s, np.array([[carrier(s).strides[1], 0]]))  # a_1 -> a_2
    with pytest.raises(ValueError):
        entries_from_images(s, np.zeros((3, 3), dtype=np.int64))


def test_closure_is_gated_by_the_endo_oracle_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_ENDO_ORACLE_CAP", "8")
    with pytest.raises(CapExceeded, match="endo-oracle"):
        aut_closure_tables(make_shape(2, [1, 1]))


def test_stability_test_set_is_complete():
    # stable under the n^2 single-entry maps iff stable under every endo
    for s in [make_shape(2, [1, 2]), make_shape(2, [2, 2]), make_shape(3, [1, 1]),
              make_shape(2, [1, 1, 2])]:
        car = carrier(s)
        test_rows = [induced_table(m, car).tolist() for m in stability_test_set(s)]
        all_tables = all_dumb_endo_tables(s)

        def stable(mask, rows):
            return all(
                (mask >> row[i]) & 1 for row in rows for i in mask_members(mask)
            )

        for mask in closed_subset_masks(s):
            assert stable(mask, test_rows) == stable(mask, all_tables)


def test_endo_count_matches_enumeration(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        endos = list(_all_endos(s))
        assert len(endos) == endo_count(s)
        assert len(set(endos)) == len(endos)


def test_aut_closure_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_AUT_CLOSURE_CAP", "4")
    with pytest.raises(CapExceeded, match="aut-closure"):
        aut_closure_tables(make_shape(2, [1, 1]))


def test_random_endo_is_seeded_and_valid():
    s = make_shape(2, [1, 1, 2])
    a = [random_endo(s, np.random.default_rng(5)) for _ in range(20)]
    b = [random_endo(s, np.random.default_rng(5)) for _ in range(20)]
    assert a == b
    for m in a:
        for i in range(s.rank):
            for j in range(s.rank):
                assert 0 <= m.entries[i][j] < 2 ** min(s.exponents[i], s.exponents[j])


# ---- batched oracle routes ---------------------------------------------------------


def test_entry_batches_match_scalar_enumeration(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        reference = list(dumb_endo_entries(s))
        batched = []
        for ents in endo_entry_batches(s, batch_size=7):  # force ragged batches
            batched.extend(ents.tolist())
        assert batched == reference


def test_entry_batches_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_ENDO_ORACLE_CAP", "8")
    with pytest.raises(CapExceeded, match="endo-oracle"):
        list(endo_entry_batches(make_shape(2, [1, 2])))


def test_induced_tables_batch_matches_scalar():
    for s in [make_shape(2, [1, 2]), make_shape(2, [1, 1, 2]), make_shape(3, [1, 2])]:
        car = carrier(s)
        for ents in endo_entry_batches(s, batch_size=64):
            tables = induced_tables_batch(s, ents)
            for mat, row in zip(ents, tables):
                m = endo(s, mat.tolist())
                assert row.tolist() == induced_table(m, car).tolist()
            break  # first batch is plenty per shape


def test_induced_tables_batch_rejects_bad_shape():
    s = make_shape(2, [1, 2])
    with pytest.raises(ValueError, match="entry array"):
        induced_tables_batch(s, np.zeros((4, 3, 3), dtype=np.int64))


def test_row_table_route_matches_einsum_kernel(endo_oracle_shapes):
    rng = np.random.default_rng(2024)
    for s in endo_oracle_shapes:
        assert endos_mod._row_tables(s) is not None
        car = carrier(s)
        for ents in endo_entry_batches(s):
            want = endos_mod._induced_tables(car, ents)
            assert np.array_equal(induced_tables_batch(s, ents), want)
        # unreduced and negative entries reduce like `endo` does
        wild = rng.integers(-500, 500, size=(200, s.rank, s.rank))
        want = endos_mod._induced_tables(car, wild)
        assert np.array_equal(induced_tables_batch(s, wild), want)


def test_shapes_above_the_row_table_budget_use_the_einsum_kernel():
    s = make_shape(2, [2, 10])  # 4112 row vectors times 4096 elements
    assert endos_mod._row_tables(s) is None
    rng = np.random.default_rng(7)
    ents = rng.integers(-50, 50, size=(3, 2, 2))
    tables = induced_tables_batch(s, ents)
    assert [t.tolist() for t in tables] == [dumb_endo_table(s, e.tolist()) for e in ents]


def test_bijective_flags_match_unique_count():
    rng = np.random.default_rng(11)
    for n in (1, 2, 7, 64, 243):
        perms = np.stack([rng.permutation(n) for _ in range(20)])
        near = perms.copy()
        near[:, 0] = near[:, -1]  # one value twice, one slot missed
        hits = rng.integers(0, n, size=(20, n))
        tables = np.concatenate([perms, near, hits])
        rng.shuffle(tables)
        want = [len(np.unique(row)) == n for row in tables]
        if n > 1:
            assert any(want) and not all(want)
        for dtype in (np.int32, np.int64):
            assert bijective_flags_by_table(tables.astype(dtype)).tolist() == want
    assert bijective_flags_by_table(np.zeros((0, 5), dtype=np.int32)).shape == (0,)


def test_bijective_flags_match_scalar(endo_oracle_shapes):
    for s in endo_oracle_shapes[:4]:
        for ents in endo_entry_batches(s):
            tables = induced_tables_batch(s, ents)
            flags = bijective_flags_by_table(tables)
            scalar = [is_bijective_by_table(endo(s, m.tolist())) for m in ents]
            assert flags.tolist() == scalar


def test_automorphism_flags_match_scalar(endo_oracle_shapes):
    # ties the batched block-determinant criterion to the per-matrix one
    for s in endo_oracle_shapes:
        for ents in endo_entry_batches(s):
            flags = automorphism_flags(s, ents)
            scalar = [is_automorphism(endo(s, m.tolist())) for m in ents]
            assert flags.tolist() == scalar


def test_block_tables_match_scalar_determinants():
    checked = []
    for p in (2, 3, 5, 7):
        r = 1
        while p ** (r * r) <= endos_mod._BLOCK_TABLE_LIMIT:
            table = endos_mod._nonsingular_blocks(p, r)
            places = endos_mod._block_places(p, r)
            blocks = list(itertools.product(range(p), repeat=r * r))
            assert len(table) == len(blocks) and not table.flags.writeable
            for flat in blocks:
                rows = [list(flat[k * r : (k + 1) * r]) for k in range(r)]
                code = int(np.dot(flat, places))
                assert table[code] == (endos_mod._det_mod_p(rows, p) != 0)
            checked.append((p, r))
            r += 1
    assert checked == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2)]


def test_automorphism_flags_above_the_block_table_budget():
    # one 4x4 run mod 2: 2^16 blocks, so the flags come from elimination
    s = make_shape(2, [1, 1, 1, 1])
    assert 2 ** 16 > endos_mod._BLOCK_TABLE_LIMIT
    rng = np.random.default_rng(31)
    batches = list(endo_entry_batches(s))
    for k in sorted(rng.choice(len(batches), size=3, replace=False)):
        ents = batches[k]
        scalar = [is_automorphism(endo(s, m.tolist())) for m in ents]
        assert automorphism_flags(s, ents).tolist() == scalar


def test_automorphism_flags_on_unreduced_and_negative_entries():
    # runs under and over the block-table budget alike reduce like `endo`
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
        scalar = [is_automorphism(endo(s, m.tolist())) for m in ents]
        assert any(scalar) and not all(scalar)
        assert automorphism_flags(s, ents).tolist() == scalar


def test_generator_tables_match_induced_tables():
    shapes = [
        *build_corpus(2, 256).shapes,
        *build_corpus(3, 729).shapes,
        *build_corpus(5, 625).shapes,
        make_shape(2, [1] * 10),
    ]
    for s in shapes:
        car = carrier(s)
        for tables, maps in [
            (aut_generator_tables(s), aut_generators(s)),
            (stability_test_tables(s), stability_test_set(s)),
        ]:
            want = np.stack([induced_table(m, car) for m in maps])
            assert tables.dtype == np.int32
            assert np.array_equal(tables, want), s
