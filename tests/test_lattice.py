"""Subgroup enumeration, span, iso types.

The ground truth for enumeration is the subset oracle (every addition-closed
subset of the carrier); iso types are confirmed through element order
statistics, which determine finite abelian groups.
"""

import pytest

from conftest import (
    closed_subset_masks, dumb_coords, dumb_index, dumb_order_counter, iso_matches, mask_members,
    walk_subgroup_masks,
)
from pgroups.caps import DEFAULT_SUBGROUP_CAP, CapExceeded
from pgroups.core import GroupShape, carrier, element, make_shape
from pgroups.harness import build_corpus
from pgroups.lattice import Subgroup, enumerate_subgroups, span, subgroup_count

# confirmed against the subset oracle below
KNOWN_SUBGROUP_COUNTS = {
    (2, (1, 2)): 8,
    (2, (1, 3)): 11,
    (2, (2, 2)): 15,
    (2, (1, 1, 2)): 27,
    (2, (1, 1, 1, 1)): 67,
    (3, (1, 1)): 6,
}


def test_enumeration_matches_subset_oracle(tiny_shapes):
    for s in tiny_shapes:
        subs = enumerate_subgroups(s)
        masks = {h.mask for h in subs}
        assert masks == closed_subset_masks(s)
        assert len(masks) == len(subs)
        key = (s.prime, s.exponents)
        if key in KNOWN_SUBGROUP_COUNTS:
            assert len(subs) == KNOWN_SUBGROUP_COUNTS[key]


def _gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (5, 2)])
def test_elementary_counts_are_gaussian_sums(p, n):
    s = make_shape(p, [1] * n)
    expected = sum(_gaussian_binomial(n, k, p) for k in range(n + 1))
    assert len(enumerate_subgroups(s)) == expected


def test_subgroup_count_equals_enumeration():
    for p, max_order in ((2, 128), (3, 243), (5, 625), (7, 343)):
        for s in build_corpus(p, max_order).shapes:
            assert subgroup_count(s) == len(enumerate_subgroups(s)), s


def test_echelon_enumeration_equals_the_walk():
    # the echelon search against the breadth-first walk, masks and order
    shapes = [
        s for p, max_order in ((2, 64), (3, 243), (5, 625), (7, 343))
        for s in build_corpus(p, max_order).shapes
    ]
    for s in shapes + [make_shape(4093, [1]), make_shape(3, [1, 2, 3])]:
        assert [h.mask for h in enumerate_subgroups(s)] == walk_subgroup_masks(s), s


def test_enumeration_reads_no_add_rows():
    # every coset is moved as a whole mask, on p = 2 as on odd p
    for s in [make_shape(2, [1, 1, 2, 3]), make_shape(2, [1] * 6), make_shape(3, [1, 2]),
              make_shape(5, [1, 1, 2]), make_shape(4093, [1])]:
        car = carrier(s)
        car._add_rows.clear()
        assert len(enumerate_subgroups(s)) == subgroup_count(s)
        assert not car._add_rows, s


@pytest.mark.parametrize(
    "p,exps,expected",
    [(2, [1] * 8, 417_199), (2, [1] * 10, 229_755_605), (3, [1] * 7, 2_052_656)],
)
def test_subgroup_count_past_enumeration(p, exps, expected):
    # too many subgroups to enumerate in a test; the elementary ones are
    # also sums of Gaussian binomials
    s = make_shape(p, exps)
    assert subgroup_count(s) == expected
    n = len(exps)
    assert expected == sum(_gaussian_binomial(n, k, p) for k in range(n + 1))


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2)])
def test_cyclic_lattice_is_a_chain(p, k):
    s = make_shape(p, [k])
    subs = enumerate_subgroups(s)
    assert len(subs) == k + 1
    for smaller, larger in zip(subs, subs[1:]):
        assert smaller.mask & ~larger.mask == 0
        assert larger.order == smaller.order * p


def test_enumeration_is_deterministic_and_ordered():
    s = make_shape(2, [1, 2])
    a = enumerate_subgroups(s)
    b = enumerate_subgroups(s)
    assert [h.mask for h in a] == [h.mask for h in b]
    assert [h.order for h in a] == sorted(h.order for h in a)
    assert a[0].is_trivial()
    assert a[-1].is_full()


def test_span_is_minimal_closed_superset():
    s = make_shape(2, [1, 3])
    oracle = closed_subset_masks(s)
    car = carrier(s)
    gens = [element(s, (1, 2)), element(s, (0, 4))]
    h = span(s, gens)
    assert h.mask in oracle
    for g in gens:
        assert (h.mask >> car.index_of_element(g)) & 1
    for mask in oracle:
        if all((mask >> car.index_of_element(g)) & 1 for g in gens):
            assert mask & h.mask == h.mask  # h is below every closed superset


def test_span_of_members_is_identity():
    s = make_shape(2, [2, 2])
    for h in enumerate_subgroups(s):
        car = carrier(s)
        regenerated = span(s, [car.element_at(i) for i in h.members()])
        assert regenerated.mask == h.mask


def test_span_reads_one_add_row_per_generator():
    # H + <g> is built coset by coset from the add row of g alone; on
    # Z(4093) a row for each multiple j*g would be 4092 rows of 4093 ints
    s = make_shape(4093, [1])
    car = carrier(s)
    car._add_rows.clear()
    assert span(s, [element(s, (5,))]).mask == car.full_mask
    assert list(car._add_rows) == [5]
    car._add_rows.clear()
    assert [g.coords for g in Subgroup(s, car.full_mask).generators] == [(1,)]
    assert list(car._add_rows) == [1]


def test_odd_enumeration_reads_no_add_rows():
    # on odd p the search moves each coset H + c*b as a mask, so it caches no
    # add row: on Z(4093) a row for each multiple c*b would be 4092 rows of
    # 4093 ints.  On mixed radices the masks are as many as the closed form
    # counts, and closed under H -> H + <x> for p*x in H (the union of the
    # cosets H + j*x, j < p) taken from add rows
    s = make_shape(4093, [1])
    car = carrier(s)
    car._add_rows.clear()
    assert [h.mask for h in enumerate_subgroups(s)] == [1, car.full_mask]
    assert not car._add_rows
    for s in [make_shape(3, [1, 1, 2]), make_shape(5, [1, 2]), make_shape(7, [1, 1])]:
        car = carrier(s)
        car._add_rows.clear()
        masks = {h.mask for h in enumerate_subgroups(s)}
        assert not car._add_rows and len(masks) == subgroup_count(s), s
        for h in masks:
            members = mask_members(h)
            for x in range(car.n):
                if not h >> car.mul_row(s.prime)[x] & 1:
                    continue
                k = h
                for m in members:
                    for _ in range(s.prime - 1):
                        m = car.add_row(x)[m]
                        k |= 1 << m
                assert k in masks, (s, h, x)

def test_canonical_generators_regenerate():
    for s in [make_shape(2, [1, 3]), make_shape(2, [1, 1, 2]), make_shape(3, [1, 2])]:
        for h in enumerate_subgroups(s):
            assert span(s, h.generators).mask == h.mask
            assert len(h.generators) == h.iso_type().rank


def test_sum_and_intersection_against_oracle():
    s = make_shape(2, [1, 2])
    car = carrier(s)
    subs = enumerate_subgroups(s)
    oracle = closed_subset_masks(s)
    for h1 in subs:
        for h2 in subs:
            assert h1.mask & h2.mask in oracle
            total = span(s, car.elements_of(h1.mask | h2.mask))
            assert total.mask in oracle
            assert total.mask & h1.mask == h1.mask
            assert total.mask & h2.mask == h2.mask
            # minimality over the oracle lattice
            for mask in oracle:
                if mask & h1.mask == h1.mask and mask & h2.mask == h2.mask:
                    assert mask & total.mask == total.mask


def test_containment_and_equality():
    s = make_shape(2, [1, 2])
    triv, full = Subgroup(s, 1), Subgroup(s, carrier(s).full_mask)
    assert all(x in full for x in triv.elements())
    assert not all(x in triv for x in full.elements())
    assert triv == Subgroup(s, 1) and triv != full
    assert triv.order == 1 and full.order == 8


def test_power_and_socle_subgroups():
    # p^nG is spanned by the p^n a_j, and G[p^m] by the p^max(0, kj - m) a_j
    s = make_shape(2, [1, 3])
    car = carrier(s)
    for e in range(4):
        scaled = {x: [2 ** e * c for c in dumb_coords(s, x)] for x in range(s.order)}
        power = {dumb_index(s, coords) for coords in scaled.values()}
        killed = {x for x, coords in scaled.items() if dumb_index(s, coords) == 0}
        socle_factors = [2 ** max(0, k - e) for k in s.exponents]
        for factors, want in (((2 ** e,) * 2, power), (socle_factors, killed)):
            gens = [element(s, [f * (i == j) for i in range(2)]) for j, f in enumerate(factors)]
            assert span(s, gens).mask == sum(1 << x for x in want)
        assert car.socle_mask(e) == sum(1 << x for x in killed)
    assert Subgroup(s, car.socle_mask(1)).order == 4  # rank-2 shape, p = 2


def test_iso_types_match_order_statistics():
    for s in [make_shape(2, [1, 2]), make_shape(2, [1, 3]), make_shape(2, [2, 2]),
              make_shape(2, [1, 1, 2]), make_shape(3, [1, 2])]:
        for h in enumerate_subgroups(s):
            assert iso_matches(s, h.mask, h.iso_type())


def test_iso_type_endpoints():
    s = make_shape(2, [1, 2])
    assert Subgroup(s, 1).iso_type() == GroupShape(2, ())
    assert Subgroup(s, carrier(s).full_mask).iso_type() == s


def test_subgroup_order_is_popcount():
    s = make_shape(2, [2, 2])
    for h in enumerate_subgroups(s):
        assert h.order == len(mask_members(h.mask))
        assert dumb_order_counter(s, h.members()).total() == h.order


def test_subgroup_cap(monkeypatch):
    # the largest elementary shapes of the acceptance corpora stay under the
    # default, the next ranks go over it
    cap = DEFAULT_SUBGROUP_CAP
    assert subgroup_count(make_shape(2, [1] * 8)) <= cap < subgroup_count(make_shape(2, [1] * 9))
    assert subgroup_count(make_shape(3, [1] * 6)) <= cap < subgroup_count(make_shape(3, [1] * 7))
    monkeypatch.setenv("PGROUPS_SUBGROUP_CAP", "15")
    with pytest.raises(CapExceeded, match="subgroup cap exceeded: needs 16, cap is 15"):
        enumerate_subgroups(make_shape(2, [1, 1, 1]))
    monkeypatch.setenv("PGROUPS_SUBGROUP_CAP", "16")
    assert len(enumerate_subgroups(make_shape(2, [1, 1, 1]))) == 16


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_ENUM_CAP", "8")
    with pytest.raises(CapExceeded, match="enum"):
        enumerate_subgroups(make_shape(2, [1, 3]))
