"""Shapes, elements, carriers: everything checked against pure-Python oracles."""

import pytest

from conftest import (
    dumb_add_table,
    dumb_coords,
    dumb_element_order,
    dumb_index,
)
from pgroups.caps import CapExceeded
from pgroups.core import (
    INFINITE,
    GroupShape,
    carrier,
    element,
    element_order,
    format_shape,
    height,
    is_prime,
    make_shape,
    parse_shape,
    scalar_mul,
    ulm_invariants,
    ulm_sequence,
)


def test_is_prime():
    def sieve(n):
        return n > 1 and all(n % d for d in range(2, n))

    for n in range(-3, 200):
        assert is_prime(n) == sieve(n)


def test_make_shape_canonicalizes():
    s = make_shape(2, [3, 1, 2])
    assert s.exponents == (1, 2, 3)
    assert s.order == 64
    assert s.rank == 3
    assert s.exponent_class == 3
    assert format_shape(s) == "2:1,2,3"


@pytest.mark.parametrize(
    "prime,exps",
    [(4, [1]), (1, [1]), (2, []), (2, [0]), (2, [-1]), (6, [2])],
)
def test_make_shape_rejects(prime, exps):
    with pytest.raises(ValueError):
        make_shape(prime, exps)


def test_make_shape_respects_carrier_cap(monkeypatch):
    monkeypatch.setenv("PGROUPS_CARRIER_CAP", "64")
    with pytest.raises(CapExceeded, match="carrier"):
        make_shape(2, [7])


def test_parse_format_roundtrip():
    for text in ["2:1,3", "3:2,2", "5:1", "2:1,1,1,1"]:
        assert format_shape(parse_shape(text)) == text
    assert format_shape(parse_shape("2:3,1")) == "2:1,3"


@pytest.mark.parametrize("text", ["2", "x:1", "2:", "2:a", "4:1", "2:0"])
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_shape(text)


def test_trivial_marker():
    marker = GroupShape(2, ())
    assert marker.is_trivial_marker()
    assert marker.order == 1
    assert not make_shape(2, [1]).is_trivial_marker()


def test_element_arithmetic_matches_coordinates():
    s = make_shape(2, [1, 3])
    a = element(s, (1, 5))
    b = element(s, (1, 6))
    assert (a + b).coords == (0, 3)
    assert (-a).coords == (1, 3)
    assert (a - b).coords == (0, 7)
    assert (3 * a).coords == (1, 7)
    assert not element(s, [0] * s.rank)
    assert a
    assert scalar_mul(8, a).coords == (0, 0)


def test_element_order_against_oracle(tiny_shapes):
    for s in tiny_shapes:
        if s.order > 16:
            continue
        add = dumb_add_table(s)
        for idx in range(s.order):
            x = element(s, dumb_coords(s, idx))
            assert element_order(x) == dumb_element_order(s, idx, add)


def _dumb_height(shape, idx):
    # x has height >= n iff x is a p^n-th multiple of something
    if idx == 0:
        return INFINITE
    add = dumb_add_table(shape)
    reachable = set(range(shape.order))
    n = 0
    while True:
        nxt = set()
        for y in reachable:
            acc = 0
            for _ in range(shape.prime):
                acc = add[acc][y]
            nxt.add(acc)
        # nxt is p * reachable; idx in p^(n+1)G iff in p * (p^n G)
        if idx not in nxt:
            return n
        reachable = nxt
        n += 1


def test_height_against_oracle():
    for s in [make_shape(2, [1, 3]), make_shape(2, [2, 2]), make_shape(3, [1, 2])]:
        for idx in range(s.order):
            x = element(s, dumb_coords(s, idx))
            assert height(x) == _dumb_height(s, idx)


def test_ulm_sequence_shifts():
    s = make_shape(2, [1, 3])
    x = element(s, (1, 2))
    seq = ulm_sequence(x)
    px = 2 * x
    pseq = ulm_sequence(px)
    # dropping the head of U(x) must give U(px)
    assert seq.heights[1:] == pseq.heights
    zero_seq = ulm_sequence(element(s, [0] * s.rank))
    assert seq.pointwise_leq(zero_seq)
    assert not zero_seq.pointwise_leq(seq)


def test_ulm_sequence_strictly_increasing_until_infinite():
    s = make_shape(2, [1, 2, 4])
    for idx in range(1, 40):
        x = element(s, dumb_coords(s, idx))
        vals = ulm_sequence(x).heights
        assert vals[-1] == INFINITE
        finite = [v for v in vals if v != INFINITE]
        assert all(a < b for a, b in zip(finite, finite[1:]))


def test_ulm_invariants_count_summands():
    assert ulm_invariants(make_shape(2, [1, 1, 3])) == (2, 0, 1)
    assert ulm_invariants(make_shape(3, [2, 2])) == (0, 2)
    assert ulm_invariants(make_shape(2, [1])) == (1,)
    assert ulm_invariants(make_shape(2, [1, 2, 2, 5])) == (1, 2, 0, 0, 1)


def test_carrier_index_roundtrip(tiny_shapes):
    for s in tiny_shapes:
        car = carrier(s)
        assert car.n == s.order
        for idx in range(car.n):
            coords = car.coords_of(idx)
            assert list(coords) == dumb_coords(s, idx)
            assert car.index_of(coords) == idx
        assert car.full_mask == (1 << car.n) - 1


def test_carrier_tables_against_oracle():
    for s in [make_shape(2, [1, 2]), make_shape(2, [2, 2]), make_shape(3, [1, 1])]:
        car = carrier(s)
        add = dumb_add_table(s)
        for a in range(car.n):
            row = car.add_row(a)
            assert [row[b] for b in range(car.n)] == [add[a][b] for b in range(car.n)]
        for c in [0, 1, 2, s.prime, s.prime + 1]:
            mul = car.mul_row(c)
            for idx in range(car.n):
                expected = dumb_index(
                    s, [c * x for x in dumb_coords(s, idx)]
                )
                assert mul[idx] == expected


def test_carrier_socle_and_power_masks():
    s = make_shape(2, [1, 3])
    car = carrier(s)
    add = dumb_add_table(s)
    for m in range(0, 4):
        expect = 0
        for idx in range(car.n):
            if dumb_element_order(s, idx, add) <= 2 ** m:
                expect |= 1 << idx
        assert car.socle_mask(m) == expect
    # p^n G by brute multiplication, against the image of the p^n row
    for n in range(0, 4):
        expect = 0
        for idx in range(car.n):
            img = dumb_index(s, [(2 ** n) * c for c in dumb_coords(s, idx)])
            expect |= 1 << img
        assert sum(1 << x for x in set(car.mul_row(2 ** n))) == expect


def test_carrier_is_memoized():
    s = make_shape(2, [1, 2])
    assert carrier(s) is carrier(make_shape(2, [2, 1]))


def test_order_exponents_match_element_orders():
    s = make_shape(2, [1, 1, 2])
    car = carrier(s)
    add = dumb_add_table(s)
    exps = car.order_exponents()
    for idx in range(car.n):
        assert 2 ** int(exps[idx]) == dumb_element_order(s, idx, add)
