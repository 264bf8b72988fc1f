"""Corpus construction, claim execution, parallel determinism, negative controls."""

import dataclasses
import importlib
import itertools
import json
import math
import random

import numpy as np
import pytest

import pgroups.endos as endos_mod
import pgroups.harness as harness_mod
import pgroups.invariance as invariance_mod
from conftest import dumb_endo_table
from pgroups.core import GroupShape, carrier, format_shape, make_shape, parse_shape
from pgroups.endos import stability_test_tables
from pgroups.harness import (
    CheckOutcome,
    ClaimSpec,
    LatticeStore,
    UnknownClaimError,
    _check_char_eq_fi_holds,
    _shape_seed,
    all_claim_ids,
    build_corpus,
    compute_shape_lattice,
    registry,
    run_claims,
)
from pgroups.invariance import is_characteristic, stable_flags
from pgroups.lattice import Subgroup, enumerate_subgroups, span

classify_mod = importlib.import_module("pgroups.classify")  # the package binds the function


def test_corpus_contents_and_order():
    c = build_corpus(2, 8)
    assert [format_shape(s) for s in c.shapes] == [
        "2:1", "2:2", "2:3", "2:1,1", "2:1,2", "2:1,1,1",
    ]
    # partition counts: p(1..6) = 1,2,3,5,7,11
    assert len(build_corpus(2, 64).shapes) == 29
    assert len(build_corpus(3, 729).shapes) == 29
    assert len(build_corpus(2, 256).shapes) == 66
    assert build_corpus(2, 1).shapes == ()


def test_corpus_rejects_bad_input():
    with pytest.raises(ValueError):
        build_corpus(4, 16)
    with pytest.raises(ValueError):
        build_corpus(2, 0)


def test_registry_is_stable():
    ids = all_claim_ids()
    assert ids == list(registry())
    runnable = [cid for cid, spec in registry().items() if spec.kind != "out-of-scope"]
    assert set(runnable) <= set(ids)
    stubs = set(ids) - set(runnable)
    assert stubs  # out-of-scope entries keep the coverage gap explicit
    for cid in stubs:
        assert registry()[cid].reason


def test_unknown_claim_raises():
    with pytest.raises(UnknownClaimError):
        run_claims(["thm-2.5-i", "nope"], build_corpus(2, 4))


EXPECTED_STATUS = {
    cid: "pass" for cid, spec in registry().items() if spec.kind != "out-of-scope"
}
EXPECTED_STATUS["lemma-2.25"] = "adapted"  # sparse partitions in every corpus


def test_full_registry_on_small_corpus():
    corpus = build_corpus(2, 32)
    reports = run_claims(all_claim_ids(), corpus)
    assert [r.claim_id for r in reports] == all_claim_ids()
    for r in reports:
        assert r.total_violations == 0, (r.claim_id, r.violations)
        expected = EXPECTED_STATUS.get(r.claim_id, "out-of-scope")
        assert r.status == expected, (r.claim_id, r.status)
        assert r.prime == 2 and r.max_order == 32


def test_out_of_scope_reports():
    r = run_claims(["thm-2.1-ipi"], build_corpus(2, 8))[0]
    assert r.status == "out-of-scope"
    assert r.shapes_checked == 0
    assert any("untestable" in n for n in r.notes)


def test_inapplicable_claim_is_noted():
    r = run_claims(["prop-2.26"], build_corpus(3, 27))[0]  # claim is about p = 2
    assert r.status == "pass" and r.shapes_checked == 0
    assert any("applicability" in n for n in r.notes)


def _stripped(reports):
    out = []
    for r in reports:
        d = r.to_dict()
        d.pop("runtime_ms")
        out.append(d)
    return out


def test_parallel_runs_are_identical(tmp_path, monkeypatch):
    corpus = build_corpus(2, 16)
    ids = ["thm-2.1", "prop-2.26", "lemma-2.25", "oracle-crosscheck"]
    # uncapped, then with five shapes over the enumeration cap
    for enum_cap in (None, "8"):
        if enum_cap is not None:
            monkeypatch.setenv("PGROUPS_ENUM_CAP", enum_cap)
        cache_dir = tmp_path / f"cap-{enum_cap}"
        seq = _stripped(run_claims(ids, corpus, jobs=1))
        par = _stripped(run_claims(ids, corpus, jobs=3))
        cached = _stripped(run_claims(ids, corpus, jobs=2, cache_dir=cache_dir))
        recached = _stripped(run_claims(ids, corpus, jobs=1, cache_dir=cache_dir))
        assert seq == par == cached == recached


class _InlineContext:
    """A stand-in multiprocessing context: records each pool's size and runs
    the units in this process, so no worker is started."""

    def __init__(self):
        self.sizes = []

    def Pool(self, processes, initializer, initargs):
        self.sizes.append(processes)
        initializer(*initargs)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, work):
        return map(fn, work)


def test_no_more_workers_than_shapes(monkeypatch):
    import multiprocessing

    from pgroups import cli

    ctx = _InlineContext()
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: ctx)
    monkeypatch.setattr(harness_mod, "_WORKER_STORE", None)
    corpus = build_corpus(2, 4)  # 2:1, 2:2, 2:1,1
    ids = ["thm-2.5-i", "oracle-crosscheck"]
    assert _stripped(run_claims(ids, corpus, jobs=64)) == _stripped(run_claims(ids, corpus))
    assert _stripped(run_claims(ids, corpus, jobs=2)) == _stripped(run_claims(ids, corpus))
    monkeypatch.setenv("PGROUPS_JOBS", "64")
    assert cli.run(["verify", "--p", "2", "--max-order", "4", "--claims", "thm-2.5-i"]) == 0
    assert ctx.sizes == [3, 2, 3]


def test_report_json_is_sorted_and_schema_stable():
    r = run_claims(["thm-2.5-i"], build_corpus(2, 8))[0]
    doc = json.loads(r.to_json())
    assert list(doc) == sorted(doc)
    assert set(doc) == {
        "claim_id", "prime", "max_order", "shapes_checked", "status",
        "violations", "total_violations", "runtime_ms", "notes",
    }


def test_harness_detects_planted_violations(monkeypatch):
    # flip the closed-form predicate; the kaplansky check must start failing
    monkeypatch.setattr(
        harness_mod, "kaplansky_2group_predicate", lambda shape: False
    )
    corpus = build_corpus(2, 64)
    r = run_claims(["prop-2.26"], corpus)[0]
    assert r.status == "fail"
    assert r.total_violations > harness_mod.MAX_STORED_VIOLATIONS
    assert len(r.violations) == harness_mod.MAX_STORED_VIOLATIONS
    for v in r.violations:
        assert set(v) == {"shape", "witness"}


def test_violation_reports_carry_witnesses():
    # run the char-eq-fi checker on a shape where the equality genuinely fails
    out = _check_char_eq_fi_holds(LatticeStore(), make_shape(2, [1, 3]))
    assert len(out.violations) == 1
    w = out.violations[0]["witness"]["subgroup"]
    assert w["order"] == 4 and w["iso_type"] == "2:2"  # span{(1,2)} is cyclic


def test_family_claim_off_prime():
    r = run_claims(["example-2.18"], build_corpus(3, 27))[0]
    assert r.shapes_checked == 0
    assert any("p = 2" in n for n in r.notes)


def test_oracle_skip_notes_name_shapes():
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 32))[0]
    skip_notes = [n for n in r.notes if n.startswith("closure-vs-filtered-endos")]
    assert len(skip_notes) == 1
    assert "2:1,1,1,1,1" in skip_notes[0]


def test_a_skipped_closure_names_the_skipped_scan_too(monkeypatch):
    # the exhaustive endomorphism scan runs inside the closure comparison, so
    # wherever the closure is capped the scan is skipped on the same shapes
    monkeypatch.setenv("PGROUPS_AUT_CLOSURE_CAP", "4")
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 8))[0]
    assert r.status == "pass"
    skipped = "skipped on 3 of 6 shapes (oracle caps): 2:1,1, 2:1,2, 2:1,1,1"
    for part in ("closure-vs-filtered-endos", "fast-aut-vs-bijective-table"):
        assert f"{part}: {skipped}" in r.notes


def test_shapes_over_the_subgroup_cap_skip_the_lattice_parts(monkeypatch):
    # 2:1,1,1 has 16 subgroups: every part that reads its lattice, and the
    # closure built only where the lattice is, is skipped and named
    monkeypatch.setenv("PGROUPS_SUBGROUP_CAP", "10")
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 8))[0]
    assert r.status == "pass"
    parts = [
        "char-flag-vs-closure", "char-orbits-vs-flags", "closure-vs-filtered-endos",
        "fast-aut-vs-bijective-table", "fi-flag-vs-random-endos", "lattice-count-vs-birkhoff",
        "profile-route-vs-brute",
    ]
    assert r.notes == [f"{part}: skipped on 1 of 6 shapes (oracle caps): 2:1,1,1" for part in parts]


@pytest.mark.parametrize("n", [4, 5])
def test_packed_keys_compare_rows_exactly(n):
    # |G| = 2^16 takes 16 bits a value, so a row of 4 or 5 needs 64 or 80
    # bits: two words.  The rows include values that would run into their
    # neighbour's field in a packing one bit narrower (2^15 at position j
    # against 1 at j + 1), a repeated row, and a row swapped for another
    size = 1 << 16
    rng = np.random.default_rng(n)
    rows = rng.integers(0, size, size=(300, n))
    rows[:n] = 0
    rows[np.arange(n), np.arange(n)] = 1 << 15
    rows[n : 2 * n] = 0
    rows[np.arange(n, 2 * n), np.arange(n)] = 1
    rows[2 * n] = size - 1
    rows[-1] = rows[n + 1]
    keys = harness_mod._sorted_keys(rows, size)
    assert keys.shape == (len(rows), 2) and keys.dtype == np.int64
    distinct = np.unique(rows, axis=0)
    assert len(distinct) == len(rows) - 1
    repeated = (keys[1:] == keys[:-1]).all(axis=1)
    assert repeated.sum() == 1
    assert np.array_equal(keys[np.concatenate(([True], ~repeated))], np.unique(keys, axis=0))
    assert np.array_equal(harness_mod._sorted_keys(rows[::-1], size), keys)
    swapped = rows.copy()
    swapped[5] = rows[5] ^ 1
    assert not np.array_equal(np.unique(swapped, axis=0), distinct)
    assert not np.array_equal(harness_mod._sorted_keys(swapped, size), keys)
    # the same rows in another order, with the repeat dropped, give the same
    # keys once the repeat is dropped on both sides
    kept = np.unique(keys, axis=0)
    assert np.array_equal(harness_mod._sorted_keys(distinct[::-1], size), kept)


@pytest.fixture
def fresh_profile_caches():
    """Empty the profile caches before and after a test that patches what
    they are built from, so no faulty record outlives the patch."""
    caches = (invariance_mod.profile_records, invariance_mod.fi_from_profiles)
    for cached in caches:
        cached.cache_clear()
    yield
    for cached in caches:
        cached.cache_clear()


def test_iso_arithmetic_oracle_runs_above_the_enumeration_cap(
    monkeypatch, fresh_profile_caches
):
    # the arithmetic iso types need no lattice, so a wrong one is caught on
    # every shape, the five over the enumeration cap included; classify reads
    # the same records, and with {0} no longer of trivial type its verdict
    # differs from the masks' on every shape too
    iso_types = invariance_mod.fi_profile_iso_types
    monkeypatch.setattr(
        invariance_mod,
        "fi_profile_iso_types",
        lambda s: [(v, GroupShape(s.prime, t.exponents + (1,))) for v, t in iso_types(s)],
    )
    monkeypatch.setenv("PGROUPS_ENUM_CAP", "8")
    monkeypatch.setattr(harness_mod, "MAX_STORED_VIOLATIONS", 64)  # keep them all
    corpus = build_corpus(2, 16)
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail" and r.shapes_checked == 11
    assert [(v["shape"], v["witness"]["check"]) for v in r.violations] == [
        (format_shape(s), check)
        for s in corpus.shapes
        for check in ("profile-iso-arithmetic", "classify-vs-carrier")
    ]


def test_iso_arithmetic_oracle_compares_record_by_record(monkeypatch, fresh_profile_caches):
    # every iso type present but paired with the wrong profile: the multiset
    # of types is right, so only a comparison position by position sees it
    iso_types = invariance_mod.fi_profile_iso_types

    def rotated(s):
        vecs, isos = zip(*iso_types(s))
        return list(zip(vecs, isos[1:] + isos[:1]))

    monkeypatch.setattr(invariance_mod, "fi_profile_iso_types", rotated)
    corpus = build_corpus(3, 27)
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert [
        v["shape"] for v in r.violations if v["witness"]["check"] == "profile-iso-arithmetic"
    ] == [format_shape(s) for s in corpus.shapes]


def test_count_oracle_catches_a_dropped_subgroup(monkeypatch):
    # a subgroup flagged neither characteristic nor fully invariant leaves
    # every flag comparison as it was; only the closed-form count sees it
    def drop_one(shape):
        subs = enumerate_subgroups(shape)
        chars = {h.mask for h in harness_mod.characteristic_from_orbits(shape)}
        plain = [h for h in subs if h.mask not in chars]
        return [h for h in subs if h not in plain[:1]]

    monkeypatch.setattr(harness_mod, "enumerate_subgroups", drop_one)
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 16))[0]
    assert r.status == "fail"
    assert [v["shape"] for v in r.violations] == [
        "2:1,1", "2:1,2", "2:1,3", "2:2,2", "2:1,1,1", "2:1,1,2", "2:1,1,1,1",
    ]
    assert {v["witness"]["check"] for v in r.violations} == {"lattice-count-vs-birkhoff"}
    v = r.violations[0]["witness"]
    assert (v["enumerated"], v["birkhoff"]) == (4, 5)


def test_count_oracle_catches_a_repeated_subgroup(monkeypatch):
    # one subgroup flagged neither way listed twice in place of another keeps
    # the count and every flagged list; only the strict order sees it
    def repeat_one(shape):
        subs = enumerate_subgroups(shape)
        chars = {h.mask for h in harness_mod.characteristic_from_orbits(shape)}
        plain = [i for i, h in enumerate(subs) if h.mask not in chars]
        if len(plain) < 2:
            return subs
        i, j = plain[:2]
        return subs[:j] + [subs[i]] + subs[j + 1:]

    monkeypatch.setattr(harness_mod, "enumerate_subgroups", repeat_one)
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 16))[0]
    assert r.status == "fail"
    assert [v["shape"] for v in r.violations] == [
        "2:1,1", "2:1,2", "2:1,3", "2:2,2", "2:1,1,1", "2:1,1,2", "2:1,1,1,1",
    ]
    assert {v["witness"]["check"] for v in r.violations} == {"lattice-count-vs-birkhoff"}
    v = r.violations[0]["witness"]
    assert (v["enumerated"], v["birkhoff"], v["in_order"]) == (5, 5, False)


_profile_generators = invariance_mod._ProfileSubgroup.generators


def _drop_record_generators(monkeypatch):
    # only classify's witnesses read record generators
    monkeypatch.setattr(
        invariance_mod._ProfileSubgroup,
        "generators",
        property(lambda h: _profile_generators.fget(h)[:-1]),
    )


def _drop_a_fi_subgroup_from_the_orbit_route(monkeypatch):
    # on 2:1,3 the characteristic lattice is the fully invariant one plus one
    # subgroup; without a fully invariant one the two are equally large, so
    # classify's size test reads char_eq_fi true where the masks differ
    shape = make_shape(2, [1, 3])
    orbits = harness_mod.characteristic_from_orbits
    dropped = invariance_mod.fi_from_profiles(shape)[1]

    def drop_one(s):
        return tuple(h for h in orbits(s) if h != dropped)

    for module in (harness_mod, classify_mod):
        monkeypatch.setattr(module, "characteristic_from_orbits", drop_one)


def _reverse_the_record_order_key(monkeypatch):
    # the records' order is proved, not sorted by mask: fi_from_profiles
    # asserts it, so the oracle run stops on the first shape it reorders
    monkeypatch.setattr(
        invariance_mod, "_profile_order", lambda h: (h.order, tuple(-m for m in h.m))
    )


@pytest.mark.parametrize(
    "fault, corpus, found",
    [
        (
            _reverse_the_record_order_key,
            (3, 243),
            "profile records for 3:1,4 are not in enumeration order",
        ),
        (
            _reverse_the_record_order_key,
            (2, 64),
            "profile records for 2:1,2,3 are not in enumeration order",
        ),
        (
            _drop_record_generators,
            (3, 27),
            [
                ("3:2", "classify-vs-carrier", ["witnesses"]),
                ("3:3", "classify-vs-carrier", ["witnesses"]),
                ("3:1,2", "classify-vs-carrier", ["witnesses"]),
            ],
        ),
        (
            _drop_a_fi_subgroup_from_the_orbit_route,
            (2, 16),
            [
                ("2:1,3", "char-orbits-vs-flags", None),
                ("2:1,3", "classify-vs-carrier", ["char_eq_fi"]),
            ],
        ),
    ],
    ids=[
        "reversed-order-key",
        "reversed-order-key-p2",
        "dropped-generator",
        "orbit-route-drops-a-fi-subgroup",
    ],
)
def test_classify_oracle_catches_a_broken_arithmetic_route(
    monkeypatch, fresh_profile_caches, fault, corpus, found
):
    # a fault in the records' order stops the run with the order assertion
    # (the most costly shape it reorders is checked first); each other fault
    # breaks what classify reads on the shapes listed, and no other shape,
    # and classify-vs-carrier fires on every one of them
    fault(monkeypatch)
    if isinstance(found, str):
        with pytest.raises(AssertionError, match=found):
            run_claims(["oracle-crosscheck"], build_corpus(*corpus))
        return
    r = run_claims(["oracle-crosscheck"], build_corpus(*corpus))[0]
    assert r.status == "fail"
    assert [
        (v["shape"], v["witness"]["check"], v["witness"].get("fields")) for v in r.violations
    ] == found


def test_a_reversed_record_order_raises_in_fi_from_profiles(monkeypatch, fresh_profile_caches):
    # rendering the records as masks checks their order on every shape, so
    # the fault is caught on each shape with two records of one order, the
    # carrier-route 2-groups included
    _reverse_the_record_order_key(monkeypatch)
    raised = []
    for corpus in (build_corpus(3, 243), build_corpus(2, 64)):
        for shape in corpus.shapes:
            try:
                invariance_mod.fi_from_profiles(shape)
            except AssertionError as err:
                assert "not in enumeration order" in str(err)
                raised.append(format_shape(shape))
    assert raised == [
        "3:1,3", "3:1,4", "2:1,3", "2:1,4", "2:1,5", "2:2,4", "2:1,1,4", "2:1,2,3",
    ]


def test_closure_oracle_catches_a_missing_automorphism(monkeypatch):
    closure = harness_mod.aut_closure_tables
    monkeypatch.setattr(harness_mod, "aut_closure_tables", lambda s: closure(s)[1:])
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail"
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": 7,
            "repeated_rows": 0,
            "filtered_size": 8,
            "detail": "generator closure and filtered enumeration differ",
        }
    ]


def test_closure_oracle_catches_a_generating_set_without_units(monkeypatch):
    # the coset walk closes only what the generators give: without the unit
    # multiplications it misses the automorphisms only they reach (GL(r, 3)
    # needs none of them: transvections and swaps generate it)
    tables = endos_mod.aut_generator_tables

    def no_units(shape):
        units = sum(len(endos_mod._unit_generators(shape.prime, k)) for k in shape.exponents)
        kept = tables(shape)
        return kept[: len(kept) - units]

    monkeypatch.setattr(endos_mod, "aut_generator_tables", no_units)
    r = run_claims(["oracle-crosscheck"], build_corpus(3, 81))[0]
    assert r.status == "fail"
    assert [
        (v["shape"], v["witness"]["closure_size"], v["witness"]["filtered_size"])
        for v in r.violations
        if v["witness"]["check"] == "closure-vs-filtered-endos"
    ] == [
        ("3:1", 1, 2), ("3:2", 1, 6), ("3:3", 1, 18), ("3:4", 1, 54), ("3:1,2", 27, 108),
        ("3:1,3", 27, 324), ("3:2,2", 1296, 3888), ("3:1,1,2", 11664, 23328),
    ]


@pytest.mark.parametrize(
    "mangle, closure_size",
    [
        # one automorphism replaced by a copy of another: one is missing
        (lambda rows: np.concatenate([rows[:-1], rows[:1]]), 8),
        # every automorphism present, one of them twice
        (lambda rows: np.concatenate([rows, rows[-1:]]), 9),
    ],
    ids=["replaced", "appended"],
)
def test_closure_oracle_catches_a_repeated_automorphism(monkeypatch, mangle, closure_size):
    closure = harness_mod.aut_closure_tables
    monkeypatch.setattr(harness_mod, "aut_closure_tables", lambda s: mangle(closure(s)))
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail"
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": closure_size,
            "repeated_rows": 1,
            "filtered_size": 8,
            "detail": "generator closure and filtered enumeration differ",
        }
    ]


def test_oracle_catches_a_stability_test_that_keeps_everything(monkeypatch):
    # the enumerated lattice's flags come from the same `stable_flags` as the
    # orbit and profile routes; broken in the harness alone, it flags every
    # subgroup characteristic and fully invariant, which both route checks see
    monkeypatch.setattr(
        harness_mod,
        "stable_flags",
        lambda shape, masks, tables: np.ones(sum(1 for _ in masks), dtype=bool),
    )
    r = run_claims(["oracle-crosscheck"], build_corpus(2, 16))[0]
    assert r.status == "fail"
    assert r.total_violations == 14  # both checks, on each of the 7 non-cyclic shapes
    assert {v["witness"]["check"] for v in r.violations} == {
        "char-orbits-vs-flags",
        "profile-route-vs-brute",
    }


def _flip_block_det(monkeypatch):
    """Make the 3x3 mod-2 determinant table read 1 for one singular block,
    which it returns."""
    singular = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    real = endos_mod._block_dets
    code = int(np.dot(np.ravel(singular), endos_mod._block_places(2, 3)))
    assert real(2, 3)[code] == 0

    def flipped(p, r):
        table = real(p, r)
        if (p, r) == (2, 3):
            table = table.copy()
            table[code] = 1
        return table

    monkeypatch.setattr(endos_mod, "_block_dets", flipped)
    return singular


def test_block_test_oracle_catches_a_flipped_table_entry(monkeypatch):
    singular = _flip_block_det(monkeypatch)
    # only 2:1,1,1 has a 3x3 run mod 2; its one map with that block is the
    # block itself, so exactly one violation, and none on the other shapes
    shapes = ("2:1,1", "2:1,2", "2:2,2", "2:1,1,1", "2:1,1,2")
    corpus = harness_mod.Corpus(2, 16, tuple(parse_shape(s) for s in shapes))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail"
    assert [(v["shape"], v["witness"]) for v in r.violations] == [
        (
            "2:1,1,1",
            {
                "check": "fast-aut-vs-bijective-table",
                "entries": singular,
                "fast": True,
                "bijective": False,
            },
        )
    ]


def test_expansion_oracle_catches_a_flipped_minor_entry(monkeypatch):
    singular = _flip_block_det(monkeypatch)
    # 2:1^4 expands its 4x4 determinants along the last row into 3x3 minors
    # read from the same table; a flipped minor changes the expansion by
    # that cofactor's last-row entry, so a matrix is misflagged iff its last
    # row is odd on the columns j whose minor (rows 0..2 without column j)
    # is the flipped block
    s = make_shape(2, [1, 1, 1, 1])
    misflagged = []
    for flat in itertools.product(range(2), repeat=16):
        m = [list(flat[k : k + 4]) for k in range(0, 16, 4)]
        hits = [j for j in range(4) if [row[:j] + row[j + 1 :] for row in m[:3]] == singular]
        if sum(m[3][j] for j in hits) % 2:
            misflagged.append(m)
    assert len(misflagged) == 232
    monkeypatch.setattr(harness_mod, "MAX_STORED_VIOLATIONS", 1000)
    corpus = harness_mod.Corpus(2, 16, (parse_shape("2:1,1,1"), s))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail"

    def witness(m, bijective):
        return {
            "check": "fast-aut-vs-bijective-table",
            "entries": m,
            "fast": not bijective,
            "bijective": bijective,
        }

    want = [("2:1,1,1", witness(singular, False))] + [
        ("2:1,1,1,1", witness(m, len(set(dumb_endo_table(s, m))) == s.order))
        for m in misflagged
    ]
    assert [(v["shape"], v["witness"]) for v in r.violations] == want
    # both ways: singular maps flagged as automorphisms, and automorphisms missed
    assert {w["fast"] for _, w in want[1:]} == {True, False}


def _tamper_one_automorphism(monkeypatch, tamper):
    """Route the oracle's scan through a copy that passes the batch holding
    the first automorphism through `tamper(bijective, images, b)`, b being
    that automorphism's place in the batch (its image is images[0]);
    returns the tampered matrices."""
    real = harness_mod.endo_scan_batches
    tampered = []

    def batches(shape):
        for ents, bijective, images in real(shape):
            if not tampered and bijective.any():
                b = int(np.flatnonzero(bijective)[0])
                bijective, images = tamper(bijective.copy(), images.copy(), b)
                tampered.append(ents[b].tolist())
            yield ents, bijective, images

    monkeypatch.setattr(harness_mod, "endo_scan_batches", batches)
    return tampered


def test_scan_oracle_catches_a_socle_element_sent_to_zero(monkeypatch):
    # a socle element sent to 0 clears the map's flag and drops its image
    def drop(bijective, images, b):
        bijective[b] = False
        return bijective, images[1:]

    tampered = _tamper_one_automorphism(monkeypatch, drop)
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail"
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "fast-aut-vs-bijective-table",
            "entries": tampered[0],
            "fast": True,
            "bijective": False,
        },
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": 8,
            "repeated_rows": 0,
            "filtered_size": 7,
            "detail": "generator closure and filtered enumeration differ",
        },
    ]


def test_scan_oracle_catches_a_wrong_generator_image(monkeypatch):
    # the last column is the image of a_2; an automorphism never sends it to 0
    def zero_last_image(bijective, images, b):
        images[0, -1] = 0
        return bijective, images

    tampered = _tamper_one_automorphism(monkeypatch, zero_last_image)
    corpus = harness_mod.Corpus(2, 8, (make_shape(2, [1, 2]),))
    r = run_claims(["oracle-crosscheck"], corpus)[0]
    assert r.status == "fail" and len(tampered) == 1
    assert [v["witness"] for v in r.violations] == [
        {
            "check": "closure-vs-filtered-endos",
            "closure_size": 8,
            "repeated_rows": 0,
            "filtered_size": 8,
            "detail": "generator closure and filtered enumeration differ",
        },
    ]


def test_sampled_endos_are_the_scalar_draws():
    shapes = [
        *build_corpus(2, 256).shapes,
        *build_corpus(3, 729).shapes,
        *build_corpus(5, 625).shapes,
    ]
    n_sampled = harness_mod._SAMPLED_ENDOS
    for s in shapes:
        batch_rng = random.Random(_shape_seed(s))
        scalar_rng = random.Random(_shape_seed(s))
        got = endos_mod.random_endo_entries(s, batch_rng, n_sampled)
        # one draw per row over the row's codes, row-major, matrix after
        # matrix, read as mixed-radix digits with the last cell fastest
        moduli = [[s.prime ** min(ki, kj) for kj in s.exponents] for ki in s.exponents]

        def decode(code, row):
            digits = []
            for m in reversed(row):
                code, digit = divmod(code, m)
                digits.append(digit)
            return digits[::-1]

        want = [
            [decode(scalar_rng.randrange(math.prod(row)), row) for row in moduli]
            for _ in range(n_sampled)
        ]
        assert got.shape == (n_sampled, s.rank, s.rank)
        assert got.tolist() == want, s
        # the same stream: both generators stand at the same place afterwards
        assert batch_rng.getstate() == scalar_rng.getstate(), s


def test_custom_claim_runs_through_registry(monkeypatch):
    seen = []

    def check(ctx, shape):
        seen.append(format_shape(shape))
        out = CheckOutcome()
        if shape.order == 8:
            out.violations.append({"shape": format_shape(shape), "witness": {}})
        return out

    spec = ClaimSpec("tmp-claim", "test-only", "per-shape",
                     applies=lambda s: s.rank == 1, check=check)
    monkeypatch.setitem(harness_mod._REGISTRY, "tmp-claim", spec)
    r = run_claims(["tmp-claim"], build_corpus(2, 8))[0]
    # units are scheduled cost-first, so only the set of visits is stable
    assert sorted(seen) == ["2:1", "2:2", "2:3"]
    assert r.status == "fail" and r.total_violations == 1


def test_shape_lattice_flag_views():
    lat = compute_shape_lattice(make_shape(2, [1, 3]))
    assert sum(lat.char_flags) == 7
    assert sum(lat.fi_flags) == 6
    assert all(c for c, f in zip(lat.char_flags, lat.fi_flags) if f)


@pytest.mark.parametrize("prime, max_order", [(2, 64), (3, 81)])
def test_only_the_oracle_claim_enumerates(monkeypatch, prime, max_order):
    def refuse(*args):
        raise AssertionError("enumerated outside oracle-crosscheck")

    # the package's one caller of the enumerator is `compute_shape_lattice`
    monkeypatch.setattr(harness_mod, "enumerate_subgroups", refuse)
    get = LatticeStore.get
    monkeypatch.setattr(LatticeStore, "get", refuse)
    corpus = build_corpus(prime, max_order)
    claim_ids = [c for c in EXPECTED_STATUS if c != "oracle-crosscheck"]
    for r in run_claims(claim_ids, corpus):
        assert r.total_violations == 0, (r.claim_id, r.violations)
        assert r.status == EXPECTED_STATUS[r.claim_id], (r.claim_id, r.status)
    # with the store back, the oracle reaches the patched enumerator
    monkeypatch.setattr(LatticeStore, "get", get)
    with pytest.raises(AssertionError, match="outside oracle-crosscheck"):
        run_claims(["oracle-crosscheck"], corpus)[0]


def _member_coords(shape, mask):
    car = carrier(shape)
    return [car.coords_of(m) for m in Subgroup(shape, mask).members()]


def _reference_split_stability(store, shape):
    """lemma-2.14 one subgroup at a time: each projection rebuilt member by
    member in the left summand's carrier and tested on its own."""
    out = harness_mod.CheckOutcome()
    n = shape.rank
    tables = stability_test_tables(shape)
    for a_pos, b_pos in harness_mod._splits(n):
        left = GroupShape(shape.prime, tuple(shape.exponents[i] for i in a_pos))
        split = [list(a_pos), list(b_pos)]
        for h in harness_mod.characteristic_from_orbits(shape):
            desc = harness_mod.subgroup_descriptor(h)
            for s in a_pos:
                for u in b_pos:
                    if not stable_flags(shape, [h.mask], tables[u * n + s, None])[0]:
                        out.violations.append(harness_mod._violation(
                            shape, split=split, map_source=s, map_target=u, subgroup=desc,
                            detail="left-to-right single-entry map leaves the subgroup",
                        ))
            coords = _member_coords(shape, h.mask)
            view = {carrier(left).index_of([c[i] for i in a_pos]) for c in coords}
            standalone = Subgroup(left, sum(1 << x for x in view))
            if not is_characteristic(standalone):
                out.violations.append(harness_mod._violation(
                    shape, split=split, subgroup=desc,
                    detail="left projection is not characteristic in the left summand",
                ))
    return out


def _reference_slice_sums(store, shape):
    """lemma-2.17 one subgroup at a time: each sum spanned piece by piece and
    tested on its own."""
    out = harness_mod.CheckOutcome()
    n = shape.rank
    car = carrier(shape)
    decompositions = harness_mod._splits(n)
    singletons = tuple((i,) for i in range(n))
    if singletons not in decompositions:
        decompositions = decompositions + [singletons]
    for parts in decompositions:
        supports = [
            sum(1 << x for x in range(car.n)
                if all(c == 0 for i, c in enumerate(car.coords_of(x)) if i not in pos))
            for pos in parts
        ]
        for h in harness_mod.characteristic_from_orbits(shape):
            coords = _member_coords(shape, h.mask)
            images = [
                {car.index_of([c[i] if i in pos else 0 for i in range(n)]) for c in coords}
                for pos in parts
            ]
            pieces = {
                "sum of intersections": [h.mask & sup for sup in supports],
                "sum of projections": [sum(1 << x for x in image) for image in images],
            }
            for label, masks in pieces.items():
                members = [x for mask in masks for x in car.elements_of(mask)]
                if not is_characteristic(span(shape, members)):
                    out.violations.append(harness_mod._violation(
                        shape, parts=[list(p) for p in parts],
                        subgroup=harness_mod.subgroup_descriptor(h), combination=label,
                        detail=f"{label} over the split is not characteristic",
                    ))
    return out


class _NotPower(Exception):
    pass


def _reference_profile(shape, mask):
    """The layer profile (n_k) of a subgroup, one layer image at a time, each
    rebuilt member by member from coordinates; _NotPower when an image is not
    a power subgroup p^n B_k."""
    car = carrier(shape)
    coords = _member_coords(shape, mask)
    n_values = []
    for k in harness_mod.distinct_exponents(shape):
        positions = harness_mod.layer_positions(shape, k)
        image = {car.index_of([c[i] if i in positions else 0 for i in range(shape.rank)])
                 for c in coords}
        if image == {0}:
            n_values.append(k)
            continue
        e = max(int(car.order_exponents()[x]) for x in image)
        expected = harness_mod.layer_mask(shape, positions) & car.socle_mask(e)
        if k - e < 0 or sum(1 << x for x in image) != expected:
            raise _NotPower(f"projection onto exponent-{k} layer of {shape} is not a power subgroup")
        n_values.append(k - e)
    return n_values


def _reference_char_profiles(store, shape):
    """lemma-2.25 one subgroup at a time, with its own bounds, growth, tail and
    repeated-layer tests."""
    out = harness_mod.CheckOutcome()
    car = carrier(shape)
    levels = harness_mod.distinct_exponents(shape)
    if set(levels) != set(range(1, levels[-1] + 1)):
        out.adapted = True
        out.notes.append(
            f"{format_shape(shape)}: sparse exponent set, growth bound composed "
            "across the gaps (adapted statement)"
        )
    for h in harness_mod.characteristic_from_orbits(shape):
        desc = harness_mod.subgroup_descriptor(h)
        try:
            profile = _reference_profile(shape, h.mask)
        except _NotPower as exc:
            out.violations.append(harness_mod._violation(shape, subgroup=desc, detail=str(exc)))
            continue
        if not all(0 <= n <= k for k, n in zip(levels, profile)):
            out.violations.append(harness_mod._violation(
                shape, subgroup=desc, profile=profile, detail="projection exponent out of bounds",
            ))
        steps = zip(zip(levels, profile), zip(levels[1:], profile[1:]))
        if not all(n <= n2 <= n + (k2 - k) for (k, n), (k2, n2) in steps):
            out.violations.append(harness_mod._violation(
                shape, subgroup=desc, profile=profile,
                detail="projection exponents break the growth bound",
            ))
        for pos_k, (k, n) in enumerate(zip(levels, profile)):
            if n < k:
                for k2 in levels[pos_k + 1:]:
                    layer = harness_mod.layer_mask(shape, harness_mod.layer_positions(shape, k2))
                    if layer & car.socle_mask(k - n) & ~h.mask:
                        out.violations.append(harness_mod._violation(
                            shape, subgroup=desc, levels=[k, k2],
                            detail="tail of a higher layer is not contained",
                        ))
            positions = harness_mod.layer_positions(shape, k)
            if len(positions) >= 2:
                image = {car.index_of([c[i] if i in positions else 0 for i in range(shape.rank)])
                         for c in _member_coords(shape, h.mask)}
                if any(not h.mask >> x & 1 for x in image):
                    out.violations.append(harness_mod._violation(
                        shape, subgroup=desc, level=k,
                        detail="projection onto a repeated-exponent layer escapes",
                    ))
    return out


_PROFILE_KINDS = {
    "is not a power subgroup": "non-power",
    "break the growth bound": "growth",
    "tail of a higher layer": "tail",
    "repeated-exponent layer escapes": "repeated-layer",
}
# the lemma-2.25 violation kinds each corpus shows: every shape of 5-power
# order <= 25 has a single layer, so only the non-power test can fail there
_KINDS_SEEN = {2: set(_PROFILE_KINDS.values()), 3: set(_PROFILE_KINDS.values()), 5: {"non-power"}}


@pytest.mark.parametrize(
    "prime, max_order, totals",
    [(2, 32, [7381, 4764, 735]), (3, 81, [2117, 1444, 325]), (5, 25, [5, 4, 6])],
)
def test_split_claims_match_a_per_subgroup_reference(monkeypatch, prime, max_order, totals):
    # fed every subgroup, not only the characteristic ones, the three claims
    # find thousands of violations, which must come out as the reference lists
    # them; lemma-2.17 still looks its sums up in the true characteristic lattice
    orbit_route = harness_mod.characteristic_from_orbits

    def slice_sums_of_every_subgroup(store, shape):
        char_masks = {h.mask for h in orbit_route(shape)}
        return harness_mod._slice_sum_outcome(shape, enumerate_subgroups(shape), char_masks)

    monkeypatch.setattr(
        harness_mod, "characteristic_from_orbits", lambda s: tuple(enumerate_subgroups(s))
    )
    monkeypatch.setattr(harness_mod, "MAX_STORED_VIOLATIONS", 10 ** 6)
    spec = harness_mod._REGISTRY["lemma-2.17"]
    monkeypatch.setitem(
        harness_mod._REGISTRY, "lemma-2.17",
        dataclasses.replace(spec, check=slice_sums_of_every_subgroup),
    )
    corpus = build_corpus(prime, max_order)
    ids = ["lemma-2.14", "lemma-2.17", "lemma-2.25"]
    got = _stripped(run_claims(ids, corpus))
    references = (_reference_split_stability, _reference_slice_sums, _reference_char_profiles)
    for cid, check in zip(ids, references):
        spec = dataclasses.replace(harness_mod._REGISTRY[cid], check=check)
        monkeypatch.setitem(harness_mod._REGISTRY, cid, spec)
    assert got == _stripped(run_claims(ids, corpus))
    assert [r["total_violations"] for r in got] == totals
    kinds = {
        kind
        for v in got[2]["violations"]
        for phrase, kind in _PROFILE_KINDS.items()
        if phrase in v["witness"]["detail"]
    }
    assert kinds == _KINDS_SEEN[prime]


def test_split_claims_build_no_addition_rows():
    s = make_shape(2, [1, 2, 3])
    carrier.cache_clear()
    for r in run_claims(["lemma-2.14", "lemma-2.17"], harness_mod.Corpus(2, 64, (s,))):
        assert r.status == "pass" and r.shapes_checked == 1
    assert carrier(s)._add_rows == {}


@pytest.mark.parametrize("prime, max_order", [(2, 32), (3, 243)])
def test_doubling_reads_one_route_per_side(monkeypatch, prime, max_order):
    # G's side from its orbit lattice, the doubled side from its profile
    # records: no doubled shape is rendered as masks
    def refuse(shape):
        raise AssertionError(f"{format_shape(shape)} rendered as masks")

    monkeypatch.setattr(harness_mod, "fi_from_profiles", refuse)
    r = run_claims(["thm-2.1"], build_corpus(prime, max_order))[0]
    assert r.status == "pass" and r.total_violations == 0


def test_doubling_runs_on_every_shape():
    # 5:1,1,1,1 doubles past the carrier cap; the exponent arithmetic needs no carrier
    r = run_claims(["thm-2.1"], build_corpus(5, 625))[0]
    assert r.status == "pass" and r.shapes_checked == 11
    assert r.notes == []
