"""Classification verdicts: frozen truth table plus structural checks."""

import json
import sys

import pytest

from pgroups import cli, core, endos
from pgroups.classify import (
    arithmetic_route_applies,
    carrier_verdict,
    classify,
    ifi_criterion,
    iso_witnesses,
    subgroup_descriptor,
)
from pgroups.core import format_shape, make_shape
from pgroups.harness import build_corpus, compute_shape_lattice
from pgroups.invariance import characteristic_from_orbits, fi_from_profiles
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


def test_classify_equals_the_carrier_verdict():
    # byte for byte, witnesses and their generators included, on every shape:
    # the records against the profile masks, and on the 2-groups outside the
    # predicate the size test against the mask comparison
    checked = 0
    for p, max_order in ((2, 1024), (3, 2187), (5, 625), (7, 343)):
        for shape in build_corpus(p, max_order).shapes:
            got = json.dumps(classify(shape).to_dict(), sort_keys=True)
            want = json.dumps(carrier_verdict(shape).to_dict(), sort_keys=True)
            assert got == want, shape
            checked += 1
    assert checked == 199


def test_classify_builds_no_fi_masks_or_single_entry_tables(monkeypatch):
    # the fully invariant side is always the profile records; only the
    # oracle renders them as masks and checks those against End(G)
    def refuse(shape):
        raise RuntimeError(f"fi masks or single-entry tables built for {shape}")

    classify_mod = sys.modules["pgroups.classify"]
    monkeypatch.setattr(classify_mod, "fi_from_profiles", refuse)
    built = endos.stability_test_tables
    for name, module in list(sys.modules.items()):
        if name.startswith("pgroups") and getattr(module, "stability_test_tables", None) is built:
            monkeypatch.setattr(module, "stability_test_tables", refuse)
    routes = set()
    for p, max_order in ((2, 1024), (3, 729), (5, 625)):
        for shape in build_corpus(p, max_order).shapes:
            classify(shape)
            routes.add(arithmetic_route_applies(shape))
    assert routes == {True, False}


def test_each_witness_is_found_and_described_once(monkeypatch):
    # one iso_witnesses call per family (one on the arithmetic route, where
    # the families are the same records), one descriptor per witness subgroup
    classify_mod = sys.modules["pgroups.classify"]
    families, described = [], []

    def witnesses(subs):
        families.append(subs)
        return iso_witnesses(subs)

    def descriptor(h):
        described.append(h)
        return subgroup_descriptor(h)

    monkeypatch.setattr(classify_mod, "iso_witnesses", witnesses)
    monkeypatch.setattr(classify_mod, "subgroup_descriptor", descriptor)
    shared = 0
    for p, max_order in ((2, 128), (3, 243)):
        for shape in build_corpus(p, max_order).shapes:
            families.clear()
            described.clear()
            verdict = classify(shape).to_dict()
            assert len(families) == (1 if arithmetic_route_applies(shape) else 2), shape
            assert len(described) == len(set(described)), shape
            entries = [
                d
                for w in verdict["witnesses"].values()
                for d in ((w["first"], w["second"]) if "first" in w else (w,))
            ]
            assert len(entries) >= len(described)
            shared += len(entries) > len(described)
    assert shared > 0


def _refuse_carriers(monkeypatch):
    # every module that bound `carrier`, and the routes that cache what it built
    def refuse(shape):
        raise RuntimeError(f"carrier built for {shape}")

    built = core.carrier
    for name, module in list(sys.modules.items()):
        if name.startswith("pgroups") and getattr(module, "carrier", None) is built:
            monkeypatch.setattr(module, "carrier", refuse)
    characteristic_from_orbits.cache_clear()
    fi_from_profiles.cache_clear()


@pytest.mark.parametrize("p, exps", [(3, [1, 2]), (5, [1, 1, 2]), (2, [1, 1, 2])])
def test_the_arithmetic_route_builds_no_carrier(monkeypatch, p, exps):
    shape = make_shape(p, exps)
    expected = carrier_verdict(shape).to_dict()
    _refuse_carriers(monkeypatch)
    assert classify(shape).to_dict() == expected


def test_2_1_2_3_takes_the_carrier_route(monkeypatch):
    shape = make_shape(2, [1, 2, 3])
    assert not arithmetic_route_applies(shape)
    assert not classify(shape).char_eq_fi
    _refuse_carriers(monkeypatch)
    with pytest.raises(RuntimeError, match="carrier built for 2:1,2,3"):
        classify(shape)


@pytest.mark.parametrize("table", [["--table"], []], ids=["table", "json"])
def test_classify_output_is_the_carrier_routes(capsys, monkeypatch, table):
    argv = ["classify", "--p", "3", "--partition", "1,1,3"] + table
    assert cli.run(argv) == 0
    arithmetic = capsys.readouterr().out
    monkeypatch.setattr(cli, "classify", carrier_verdict)
    assert cli.run(argv) == 0
    assert arithmetic == capsys.readouterr().out
