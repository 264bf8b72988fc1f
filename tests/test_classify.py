"""Classification verdicts: frozen truth table plus structural checks."""

import pytest

from pgroups.classify import (
    classify,
    ifi_criterion,
    iso_witnesses,
    subgroup_descriptor,
)
from pgroups.core import format_shape, make_shape
from pgroups.harness import build_corpus, compute_shape_lattice
from pgroups.lattice import Subgroup

# (ifi, ic, strongly_ifi, strongly_ic, weakly, criterion, char_eq_fi)
VERDICTS = {
    (2, (1,)): (True, True, True, True, False, True, True),
    (2, (2,)): (True, True, False, False, False, True, True),
    (2, (3,)): (False, False, False, False, False, False, True),
    (2, (1, 1)): (True, True, True, True, False, True, True),
    (5, (1, 1)): (True, True, True, True, False, True, True),
    (2, (2, 2)): (True, True, False, False, False, True, True),
    (2, (1, 2)): (False, False, False, False, False, False, True),
    (3, (1, 2)): (False, False, False, False, False, False, True),
    (2, (1, 3)): (False, False, False, False, False, False, False),
    (2, (1, 1, 2)): (False, False, False, False, False, False, True),
}


@pytest.mark.parametrize("key", sorted(VERDICTS))
def test_frozen_verdicts(key):
    p, exps = key
    shape = make_shape(p, exps)
    v = classify(shape)
    got = (
        v.is_ifi,
        v.is_ic,
        v.is_strongly_ifi,
        v.is_strongly_ic,
        v.is_weakly_ic,
        v.criterion_ifi,
        v.char_eq_fi,
    )
    assert got == VERDICTS[key]


def test_verdict_fields_match_iso_witnesses_on_enumerated_lattices():
    # classify reads the orbit and profile routes; here every field is
    # recomputed from the enumerated, flag-filtered lattices instead
    for corpus in (build_corpus(2, 64), build_corpus(3, 81)):
        for shape in corpus.shapes:
            lat = compute_shape_lattice(shape)
            chars = [h for h, c in zip(lat.subgroups, lat.char_flags) if c]
            fis = [h for h, f in zip(lat.subgroups, lat.fi_flags) if f]
            ifi_w, s_ifi_w = iso_witnesses(fis)
            ic_w, s_ic_w = iso_witnesses(chars)
            weakly = [h for h in chars if not h.is_full() and h.iso_type() == shape]
            witnesses = {
                name: {
                    "first": subgroup_descriptor(pair[0]),
                    "second": subgroup_descriptor(pair[1]),
                }
                for name, pair in (
                    ("ifi", ifi_w),
                    ("ic", ic_w),
                    ("strongly_ifi", s_ifi_w),
                    ("strongly_ic", s_ic_w),
                )
                if pair
            }
            if weakly:
                witnesses["weakly_ic"] = subgroup_descriptor(weakly[0])
            expected = {
                "shape": format_shape(shape),
                "is_ifi": ifi_w is None,
                "is_ic": ic_w is None,
                "is_strongly_ifi": s_ifi_w is None,
                "is_strongly_ic": s_ic_w is None,
                "is_weakly_ic": bool(weakly),
                "criterion_ifi": ifi_criterion(shape),
                "char_eq_fi": [h.mask for h in chars] == [h.mask for h in fis],
                "witnesses": witnesses,
            }
            assert classify(shape).to_dict() == expected, shape


@pytest.mark.parametrize(
    "p,exps,expected",
    [
        (2, [1, 1, 1, 1, 1], True),
        (3, [1, 1], True),
        (2, [2, 2, 2], True),
        (2, [2], True),
        (2, [1, 2], False),
        (2, [3], False),
        (2, [1, 1, 2], False),
        (3, [1, 1, 2, 2], False),
    ],
)
def test_ifi_criterion_closed_form(p, exps, expected):
    # pG = 0, or p^2 G = 0 with as many order-p^2 summands as summands
    assert ifi_criterion(make_shape(p, exps)) == expected


def test_witness_structure_for_2_1_3():
    v = classify(make_shape(2, [1, 3]))
    assert set(v.witnesses) == {"ifi", "ic", "strongly_ifi", "strongly_ic"}
    w = v.witnesses["ifi"]
    assert w["first"]["order"] == 2
    assert w["first"]["iso_type"] == "2:1"
    assert w["second"]["order"] == 4
    assert w["second"]["iso_type"] == "2:1,1"


def test_no_witnesses_when_everything_agrees():
    v = classify(make_shape(2, [1, 1]))
    assert v.witnesses == {}


def test_verdict_serialization_round_trip():
    d = classify(make_shape(2, [2, 2])).to_dict()
    assert d["shape"] == "2:2,2"
    assert d["is_ifi"] is True and d["is_strongly_ifi"] is False
    assert set(d) == {
        "shape",
        "is_ifi",
        "is_ic",
        "is_strongly_ifi",
        "is_strongly_ic",
        "is_weakly_ic",
        "criterion_ifi",
        "char_eq_fi",
        "witnesses",
    }


def test_weakly_ic_false_across_small_corpora():
    for corpus in (build_corpus(2, 32), build_corpus(3, 27)):
        for shape in corpus.shapes:
            assert not classify(shape).is_weakly_ic, shape


def test_subgroup_descriptor_of_trivial():
    d = subgroup_descriptor(Subgroup(make_shape(2, [1, 2]), 1))
    assert d == {"order": 1, "generators": [], "iso_type": None}
