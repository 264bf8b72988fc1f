"""Randomized structural properties over small shapes."""

import numpy as np
from hypothesis import given, settings, strategies as st

from conftest import is_closed_mask
from pgroups.core import (
    add,
    carrier,
    element_order,
    format_shape,
    height,
    make_shape,
    parse_shape,
    scalar_mul,
    ulm_sequence,
)
from pgroups.endos import aut_generator_tables, entries_from_images, induced_tables_batch
from pgroups.invariance import is_characteristic, is_fully_invariant
from pgroups.lattice import Subgroup, span

# keep every generated group at order <= 64 so nothing here needs a cap bump
_MAX_TOTAL = {2: 6, 3: 3, 5: 2}


@st.composite
def small_shapes(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    budget = _MAX_TOTAL[p]
    rank = draw(st.integers(1, min(3, budget)))
    exps = []
    left = budget - (rank - 1)  # reserve 1 per remaining part
    for _ in range(rank):
        e = draw(st.integers(1, max(1, left)))
        exps.append(e)
        left -= e - 1
    return make_shape(p, exps)


@st.composite
def shape_with_indices(draw, k):
    s = draw(small_shapes())
    n = carrier(s).n
    idxs = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    return s, idxs


@st.composite
def shape_with_matrices(draw, k):
    s = draw(small_shapes())
    n = s.rank
    mats = [
        [[draw(st.integers(0, 63)) for _ in range(n)] for _ in range(n)]
        for _ in range(k)
    ]
    return s, np.array(mats, dtype=np.int64).reshape(k, n, n)


@given(shape_with_indices(3))
def test_span_is_closed_and_contains_generators(data):
    s, idxs = data
    car = carrier(s)
    h = span(s, [car.element_at(i) for i in idxs])
    assert is_closed_mask(s, h.mask)
    for i in idxs:
        assert h.mask >> i & 1


@given(shape_with_indices(2))
def test_fully_invariant_spans_are_characteristic(data):
    s, idxs = data
    car = carrier(s)
    h = span(s, [car.element_at(i) for i in idxs])
    if is_fully_invariant(h):
        assert is_characteristic(h)


@settings(max_examples=50)
@given(shape_with_indices(2))
def test_aut_image_preserves_order_and_type(data):
    s, idxs = data
    car = carrier(s)
    h = span(s, [car.element_at(i) for i in idxs])
    for t in aut_generator_tables(s):
        img = 0
        for m in h.members():
            img |= 1 << int(t[m])
        hi = Subgroup(s, img)
        assert hi.order == h.order
        assert hi.iso_type() == h.iso_type()


@given(shape_with_matrices(1), st.data())
def test_endos_are_additive(data, rnd):
    s, ents = data
    car = carrier(s)
    (t,) = induced_tables_batch(s, ents).tolist()
    x = car.element_at(rnd.draw(st.integers(0, car.n - 1)))
    y = car.element_at(rnd.draw(st.integers(0, car.n - 1)))

    def image(z):
        return car.element_at(t[car.index_of_element(z)])

    assert image(add(x, y)) == add(image(x), image(y))


@given(shape_with_matrices(2))
def test_compose_matches_table_composition(data):
    s, ents = data
    t1, t2 = induced_tables_batch(s, ents)
    composed = t1[t2]
    # the composite is the endomorphism fixed by its generator images
    images = composed[None, list(carrier(s).strides)]
    assert induced_tables_batch(s, entries_from_images(s, images))[0].tolist() == composed.tolist()


@given(shape_with_indices(1))
def test_multiplying_by_p_raises_height(data):
    s, (i,) = data
    car = carrier(s)
    x = car.element_at(i)
    px = scalar_mul(s.prime, x)
    if element_order(px) > 1:
        assert height(px) > height(x)


@given(shape_with_indices(1))
def test_ulm_sequence_shifts_under_p(data):
    s, (i,) = data
    x = carrier(s).element_at(i)
    if element_order(x) == 1:
        return  # zero's sequence is the bare terminal marker, nothing shifts
    px = scalar_mul(s.prime, x)
    assert ulm_sequence(x).heights[1:] == ulm_sequence(px).heights


@given(small_shapes())
def test_parse_format_round_trip(s):
    assert parse_shape(format_shape(s)) == s
