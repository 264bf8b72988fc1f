"""Lattice cache: round trips, invalidation, graceful degradation."""

import gzip
import json

import pytest

import pgroups.cache as cache_mod
from pgroups.cache import LatticeCache
from pgroups.cli import run
from pgroups.core import make_shape
from pgroups.harness import LatticeStore, compute_shape_lattice


@pytest.fixture
def shape():
    return make_shape(2, [1, 3])


def _payload(shape):
    lat = compute_shape_lattice(shape)
    isos = [
        "" if h.iso_type().is_trivial_marker() else str(h.iso_type())
        for h in lat.subgroups
    ]
    return [h.mask for h in lat.subgroups], list(lat.char_flags), list(lat.fi_flags), isos


def test_round_trip(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    masks, char, fi, isos = _payload(shape)
    cache.save(shape, masks, char, fi, isos)
    assert cache.load(shape) == (masks, char, fi, isos)


def test_empty_cache_is_absent(tmp_path, shape):
    assert LatticeCache(tmp_path).load(shape) is None


def test_write_is_deterministic(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    payload = _payload(shape)
    cache.save(shape, *payload)
    first = cache._path(shape).read_bytes()
    cache.save(shape, *payload)
    assert cache._path(shape).read_bytes() == first


def test_corrupted_entry_is_absent(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    cache.save(shape, *_payload(shape))
    path = cache._path(shape)
    path.write_bytes(path.read_bytes()[:-7])  # truncate the gzip stream
    assert cache.load(shape) is None
    path.write_bytes(b"not even gzip")
    assert cache.load(shape) is None
    with gzip.open(path, "wt") as fh:
        fh.write('{"version": 1, "shape": "2:1,3", "count": 3}')
    assert cache.load(shape) is None  # missing keys


def test_version_bump_invalidates(tmp_path, shape, monkeypatch):
    cache = LatticeCache(tmp_path)
    cache.save(shape, *_payload(shape))
    old_path = cache._path(shape)
    monkeypatch.setattr(cache_mod, "FORMAT_VERSION", 2)
    bumped = LatticeCache(tmp_path)
    # key includes the version, so the old entry is simply never addressed
    assert bumped._path(shape) != old_path
    assert bumped.load(shape) is None


def test_stamped_version_mismatch_is_absent(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    cache.save(shape, *_payload(shape))
    path = cache._path(shape)
    doc = gzip.open(path, "rt").read().replace('"version": 1', '"version": 99')
    with gzip.open(path, "wt") as fh:
        fh.write(doc)
    assert cache.load(shape) is None


def test_length_mismatch_is_absent(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    masks, char, fi, isos = _payload(shape)
    cache.save(shape, masks, char[:-1] + [char[-1]], fi, isos[:-1] + ["2:9"])
    path = cache._path(shape)
    doc = gzip.open(path, "rt").read().replace('"count": 11', '"count": 10')
    with gzip.open(path, "wt") as fh:
        fh.write(doc)
    assert cache.load(shape) is None


def test_unusable_root_degrades_with_warning(tmp_path, shape, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    cache = LatticeCache(blocker / "sub")
    assert "cache disabled" in capsys.readouterr().err
    cache.save(shape, *_payload(shape))  # no-op, must not raise
    assert cache.load(shape) is None


def test_cache_transparency(tmp_path, shape):
    fresh = LatticeStore().get(shape)
    primed = LatticeStore(LatticeCache(tmp_path))
    first = primed.get(shape)
    second = LatticeStore(LatticeCache(tmp_path)).get(shape)  # from disk
    for lat in (first, second):
        assert [h.mask for h in lat.subgroups] == [h.mask for h in fresh.subgroups]
        assert lat.char_flags == fresh.char_flags
        assert lat.fi_flags == fresh.fi_flags
        assert [str(h.iso_type()) for h in lat.subgroups] == [
            str(h.iso_type()) for h in fresh.subgroups
        ]


def _runtime_free(stdout: str) -> list[dict]:
    docs = [json.loads(line) for line in stdout.splitlines()]
    for doc in docs:
        doc.pop("runtime_ms")
    return docs


def test_entries_that_do_not_rebuild_are_recomputed(tmp_path, capsys):
    # a mask without the zero element, read through `verify`; its flags name
    # the subgroups the orbit and profile routes give, so only the mask check
    # turns the entry away
    verify = ["verify", "--p", "2", "--max-order", "2", "--claims", "oracle-crosscheck"]
    assert run(verify) == 0
    uncached = _runtime_free(capsys.readouterr().out)
    flags = [True, False, True]
    LatticeCache(tmp_path).save(make_shape(2, [1]), [1, 2, 3], flags, flags, ["", "2:1", "2:1"])
    assert run(verify + ["--cache", str(tmp_path)]) == 0
    assert _runtime_free(capsys.readouterr().out) == uncached

    # an iso string that does not parse, read through `enumerate`
    shape = make_shape(2, [2])
    masks, char, fi, isos = _payload(shape)
    listing = ["enumerate", "--p", "2", "--partition", "2"]
    assert run(listing) == 0
    uncached = capsys.readouterr().out
    LatticeCache(tmp_path).save(shape, masks, char, fi, isos[:-1] + ["2:x"])
    assert run(listing + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached


def test_store_rejects_masks_and_iso_types_that_do_not_fit(tmp_path):
    shape = make_shape(2, [2])
    masks, char, fi, isos = _payload(shape)
    fresh = [h.mask for h in compute_shape_lattice(shape).subgroups]
    for bad_masks, bad_isos in (
        (masks[:-1] + [masks[-1] | 1 << 4], isos),  # wider than the carrier
        (masks, isos[:-1] + ["2:1"]),  # iso type of another order
        (masks, isos[:-1] + ["2:100"]),  # beyond the carrier cap
    ):
        LatticeCache(tmp_path).save(shape, bad_masks, char, fi, bad_isos)
        lat = LatticeStore(LatticeCache(tmp_path)).get(shape)
        assert [h.mask for h in lat.subgroups] == fresh
        assert str(lat.subgroups[-1].iso_type()) == "2:2"


def test_entries_with_altered_flags_or_iso_strings_change_nothing(tmp_path, capsys):
    # each tampered entry, read through `enumerate`, must give the uncached
    # listing: flags that disagree with the orbit and profile routes make it
    # a miss, and iso strings are never read
    shape = make_shape(2, [2])
    masks, char, fi, isos = _payload(shape)
    assert masks[1] == 0b101  # the order-2 subgroup
    cleared = [True, False, True]
    for kind, bad_char, bad_fi, bad_isos in (
        ("characteristic", cleared, fi, isos),
        ("fully-invariant", char, cleared, isos),
        ("all", char, fi, isos[:-1] + ["2:1,1"]),
        ("characteristic", cleared, fi, isos[:-1] + ["2:1,1"]),
    ):
        listing = ["enumerate", "--p", "2", "--partition", "2", "--kind", kind]
        assert run(listing) == 0
        uncached = capsys.readouterr().out
        LatticeCache(tmp_path).save(shape, masks, bad_char, bad_fi, bad_isos)
        assert run(listing + ["--cache", str(tmp_path)]) == 0
        assert capsys.readouterr().out == uncached


def test_entries_out_of_order_or_repeated_are_recomputed(tmp_path, capsys):
    # flags and iso strings travel with their masks, so the orbit and profile
    # checks pass; only the order check turns these entries away
    shape = make_shape(2, [1, 1])
    payload = _payload(shape)
    assert payload[0] == [1, 0b11, 0b101, 0b1001, 0b1111]
    listing = ["enumerate", "--p", "2", "--partition", "1,1", "--kind", "all"]
    assert run(listing) == 0
    uncached = capsys.readouterr().out
    for picks in ([0, 1, 1, 2, 3, 4], [0, 2, 1, 3, 4]):  # a repeat, a swap
        LatticeCache(tmp_path).save(shape, *([seq[i] for i in picks] for seq in payload))
        assert run(listing + ["--cache", str(tmp_path)]) == 0
        assert capsys.readouterr().out == uncached
