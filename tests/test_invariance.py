"""Characteristic/fully invariant testing, Aut-orbits, profiles.

The flag decisions (generator stability, single-entry test set) are checked
against `dumb_char_fi_flags`, which scans every endomorphism table built in
pure Python.
"""

from itertools import combinations

import pytest

import pgroups.invariance as invariance_mod
from conftest import (
    closed_subset_masks,
    dumb_char_fi_flags,
    dumb_coords,
    dumb_index,
    mask_members,
)
import pgroups.harness as harness_mod
from pgroups.core import GroupShape, carrier, element, make_shape, mask_from_bool, masks_to_bool
from pgroups.endos import aut_generator_tables, stability_test_tables
from pgroups.invariance import (
    characteristic_from_orbits,
    fi_from_profiles,
    fi_profile_iso_types,
    is_characteristic,
    is_fully_invariant,
    kaplansky_2group_predicate,
    layer_mask,
    layer_positions,
    profile_records,
    project_rows,
    projection_table,
    stable_flags,
    within_growth_bound,
)
from pgroups.lattice import Subgroup, enumerate_subgroups, span

# (char count, fi count, total) confirmed by the exhaustive oracle below
KNOWN_FLAG_COUNTS = {
    (2, (1, 2)): (4, 4, 8),
    (2, (1, 3)): (7, 6, 11),
    (2, (2, 2)): (3, 3, 15),
    (2, (1, 1, 2)): (4, 4, 27),
    (2, (1, 1, 1)): (2, 2, 16),
    (3, (1, 1)): (2, 2, 6),
    (3, (1, 2)): (4, 4, 10),
    (5, (1, 1)): (2, 2, 8),
}


def test_flags_match_exhaustive_endo_oracle(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        subs = enumerate_subgroups(s)
        oracle_char, oracle_fi = dumb_char_fi_flags(s, [h.mask for h in subs])
        got_char = [is_characteristic(h) for h in subs]
        got_fi = [is_fully_invariant(h) for h in subs]
        assert got_char == oracle_char
        assert got_fi == oracle_fi
        counts = KNOWN_FLAG_COUNTS[(s.prime, s.exponents)]
        assert (sum(got_char), sum(got_fi), len(subs)) == counts


def test_stable_flags_batches_match_oracles(endo_oracle_shapes, monkeypatch):
    cases = []
    for s in endo_oracle_shapes + [make_shape(2, [2, 4])]:
        subs = enumerate_subgroups(s)
        cases.append((s, subs, dumb_char_fi_flags(s, [h.mask for h in subs])))
    # a whole lattice in one call must flag each subgroup as a call of its
    # own does; the small budget makes a lattice span several chunks and
    # meet its tables one block at a time, one table per block at first
    for cells in (invariance_mod._FLAG_CELLS, 64):
        monkeypatch.setattr(invariance_mod, "_FLAG_CELLS", cells)
        for s, subs, (oracle_char, oracle_fi) in cases:
            masks = [h.mask for h in subs]
            for tables, one_mask, oracle in (
                (aut_generator_tables(s), is_characteristic, oracle_char),
                (stability_test_tables(s), is_fully_invariant, oracle_fi),
            ):
                assert stable_flags(s, masks, tables).tolist() == oracle
                # masks streamed from an iterator are flagged chunk by chunk
                streamed = stable_flags(s, (h.mask for h in subs), tables)
                assert streamed.tolist() == oracle
                assert [one_mask(h) for h in subs] == oracle
                assert stable_flags(s, iter(()), tables).shape == (0,)

    big = make_shape(2, [1, 12])
    assert all(is_characteristic(h) for h in characteristic_from_orbits(big))
    summand = span(big, [element(big, (1, 0))])  # moved by a_0 -> a_0 + 2^11 a_1
    assert not is_characteristic(summand) and not is_fully_invariant(summand)


def test_fully_invariant_implies_characteristic(endo_oracle_shapes):
    for s in endo_oracle_shapes:
        for h in enumerate_subgroups(s):
            if is_fully_invariant(h):
                assert is_characteristic(h)


def test_unique_char_not_fi_subgroup_of_2_1_3():
    s = make_shape(2, [1, 3])
    gap = [
        h
        for h in enumerate_subgroups(s)
        if is_characteristic(h) and not is_fully_invariant(h)
    ]
    assert len(gap) == 1
    witness = span(s, [element(s, (1, 2))])
    assert gap[0].mask == witness.mask
    car = carrier(s)
    expected = {
        car.index_of((0, 0)),
        car.index_of((1, 2)),
        car.index_of((1, 6)),
        car.index_of((0, 4)),
    }
    assert set(gap[0].members()) == expected


def test_characteristic_from_orbits_equals_enumeration():
    from pgroups.harness import build_corpus, compute_shape_lattice

    for p, max_order in ((2, 128), (3, 243), (5, 625)):
        for s in build_corpus(p, max_order).shapes:
            via_orbits = [h.mask for h in characteristic_from_orbits(s)]
            lat = compute_shape_lattice(s)
            brute = [h.mask for h, c in zip(lat.subgroups, lat.char_flags) if c]
            assert via_orbits == brute, s


@pytest.mark.parametrize(
    "exps,expected",
    [
        ([1], True),
        ([3], True),
        ([1, 2], True),
        ([2, 2], True),
        ([1, 3], False),
        ([1, 4], False),
        ([2, 4], False),
        ([2, 3], True),
        ([1, 1, 3], True),
        ([1, 2, 4], False),
        ([1, 1, 2], True),
        ([1, 2, 2], True),
    ],
)
def test_kaplansky_predicate_frozen_values(exps, expected):
    assert kaplansky_2group_predicate(make_shape(2, exps)) == expected


def test_char_equals_fi_matches_predicate_small_sweep():
    # every 2-group shape of order <= 32
    from pgroups.classify import classify
    from pgroups.harness import build_corpus

    for s in build_corpus(2, 32).shapes:
        assert classify(s).char_eq_fi == kaplansky_2group_predicate(s), s


def test_fi_from_profiles_equals_brute_filter():
    for s in [make_shape(2, [1, 2]), make_shape(2, [1, 3]), make_shape(2, [2, 2]),
              make_shape(2, [1, 1, 2]), make_shape(3, [1, 2]), make_shape(2, [1, 2, 3])]:
        brute = {h.mask for h in enumerate_subgroups(s) if is_fully_invariant(h)}
        via_profiles = fi_from_profiles(s)
        assert {h.mask for h in via_profiles} == brute
        orders = [h.order for h in via_profiles]
        assert orders == sorted(orders)


def _image_masks(shape, masks, positions):
    image = project_rows(masks_to_bool(masks, shape.order), projection_table(shape, positions))
    return [mask_from_bool(row) for row in image]


def test_fi_subgroups_split_into_layer_projections():
    s = make_shape(2, [1, 2, 3])
    masks = [h.mask for h in fi_from_profiles(s)]
    pieces = [_image_masks(s, masks, pos) for pos in ((0,), (1,), (2,))]
    for i, mask in enumerate(masks):
        total = span(s, [x for piece in pieces for x in carrier(s).elements_of(piece[i])])
        assert total.mask == mask


def test_profile_iso_arithmetic_matches_masks():
    for s in [make_shape(2, [1, 2]), make_shape(2, [2, 2]), make_shape(2, [1, 2, 3]),
              make_shape(3, [1, 2]), make_shape(2, [1, 1, 3])]:
        arithmetic = sorted(
            str(t) for _, t in fi_profile_iso_types(s) if not t.is_trivial_marker()
        )
        masked = sorted(
            str(h.iso_type())
            for h in fi_from_profiles(s)
            if not h.is_trivial()
        )
        assert arithmetic == masked


def test_profile_records_describe_their_masks():
    # each record answers what classify asks of a subgroup as its rendered
    # mask does: order, canonical generators, iso type, {0} and G.  The
    # corpora hold every shape of order <= 1024 that doubles another (p:1,1
    # for 7 <= p <= 31 among them), whose side of thm-2.1 is read from its
    # records alone
    from pgroups.harness import build_corpus

    corpora = [(2, 1024), (3, 729), (5, 625)]
    corpora += [(p, p * p) for p in (7, 11, 13, 17, 19, 23, 29, 31)]
    for p, max_order in corpora:
        for s in build_corpus(p, max_order).shapes:
            records = profile_records(s)
            subs = fi_from_profiles(s)
            assert len(records) == len(subs), s
            for rec, h in zip(records, subs):
                assert rec.order == h.order, (s, rec.m)
                assert [g.coords for g in rec.generators] == [g.coords for g in h.generators]
                assert rec.iso_type() == h.iso_type(), (s, rec.m)
                assert (rec.is_trivial(), rec.is_full()) == (h.is_trivial(), h.is_full())


def test_profile_endpoints(monkeypatch):
    # with every profile refused, the lemma-2.25 checker reports each one it reads
    monkeypatch.setattr(harness_mod, "within_growth_bound", lambda levels, vec: False)
    s = make_shape(2, [1, 1, 2])
    out = harness_mod._check_char_profiles(None, s)
    profiles = [v["witness"]["profile"] for v in out.violations]
    assert len(profiles) == len(characteristic_from_orbits(s))
    assert profiles[0] == [1, 2]  # {0}: every layer image is trivial
    assert profiles[-1] == [0, 0]  # G: every layer image is the whole layer


def test_profile_growth_rejects_jumps():
    assert within_growth_bound((1, 3), (0, 2))
    assert not within_growth_bound((1, 3), (0, 3))  # 3 > 0 + (3 - 1)
    assert not within_growth_bound((1, 3), (1, 0))  # not monotone


def test_layer_subgroups():
    # B_k is supported on the exponent-k positions; p^n B_k is its part of G[p^(k-n)]
    s = make_shape(2, [1, 1, 2])
    b1 = Subgroup(s, layer_mask(s, layer_positions(s, 1)))
    assert b1.order == 4
    assert b1.iso_type() == make_shape(2, [1, 1])
    pb2 = Subgroup(s, layer_mask(s, layer_positions(s, 2)) & carrier(s).socle_mask(1))
    assert pb2.order == 2
    assert layer_positions(s, 3) == ()


def _dumb_projection(shape, idx, positions):
    coords = dumb_coords(shape, idx)
    return dumb_index(shape, [c if i in positions else 0 for i, c in enumerate(coords)])


def test_projection_tables_match_coordinates(tiny_shapes):
    for s in tiny_shapes:
        masks = sorted(closed_subset_masks(s))
        for size in range(s.rank + 1):
            for pos in combinations(range(s.rank), size):
                want = [_dumb_projection(s, x, pos) for x in range(s.order)]
                assert projection_table(s, pos).tolist() == want
                fixed = sum(1 << x for x in range(s.order) if want[x] == x)
                assert layer_mask(s, pos) == fixed
                images = [
                    sum({1 << want[m] for m in mask_members(mask)}) for mask in masks
                ]
                assert _image_masks(s, masks, pos) == images


def test_prefix_projection_reads_as_a_mask_of_the_left_summand():
    s = make_shape(2, [1, 3])
    h = span(s, [element(s, (1, 2))])
    assert _image_masks(s, [h.mask], (1,)) == [span(s, [element(s, (0, 2))]).mask]
    # the split claims read a projection onto range(t) in the left summand's
    # own carrier; build that view coordinate by coordinate
    s = make_shape(2, [1, 2, 3])
    for t in (1, 2):
        left = GroupShape(2, s.exponents[:t])
        masks = [h.mask for h in enumerate_subgroups(s)]
        for mask, image in zip(masks, _image_masks(s, masks, tuple(range(t)))):
            view = {dumb_index(left, dumb_coords(s, m)[:t]) for m in mask_members(mask)}
            assert image == sum(1 << x for x in view)


def _recursive_profile_vectors(levels):
    """The depth-first construction `_profile_vectors` replaced."""
    if not levels:
        return
    first = levels[0]
    for start in range(first + 1):
        vec = [start]

        def extend(vec):
            depth = len(vec)
            if depth == len(levels):
                yield tuple(vec)
                return
            k_prev, k_here = levels[depth - 1], levels[depth]
            lo = vec[-1]
            hi = min(k_here, vec[-1] + (k_here - k_prev))
            for n in range(lo, hi + 1):
                vec.append(n)
                yield from extend(vec)
                vec.pop()

        yield from extend(vec)


def test_profile_vectors_match_the_recursion():
    level_sets = [
        levels
        for size in range(1, 6)  # six distinct levels sum to at least 21
        for levels in combinations(range(1, 17), size)
        if sum(levels) <= 16
    ]
    assert len(level_sets) > 100
    for levels in level_sets:
        assert list(invariance_mod._profile_vectors(levels)) == list(
            _recursive_profile_vectors(levels)
        )
