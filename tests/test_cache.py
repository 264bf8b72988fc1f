"""Lattice cache: round trips, invalidation, graceful degradation."""

import gzip
import json
import re

import pytest

import pgroups.cache as cache_mod
from pgroups.cache import LatticeCache
from pgroups.cli import run
from pgroups.core import format_shape, make_shape
from pgroups.harness import LatticeStore, compute_shape_lattice
from pgroups.lattice import enumeration_key


@pytest.fixture
def shape():
    return make_shape(2, [1, 3])


def _payload(shape):
    lat = compute_shape_lattice(shape)
    return [h.mask for h in lat.subgroups], list(lat.char_flags), list(lat.fi_flags)


def test_round_trip(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    masks, char, fi = _payload(shape)
    cache.save(shape, masks, char, fi)
    assert cache.load(shape) == (masks, char, fi)


def test_empty_cache_is_absent(tmp_path, shape):
    assert LatticeCache(tmp_path).load(shape) is None


def test_write_is_deterministic(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    payload = _payload(shape)
    cache.save(shape, *payload)
    first = cache._path(shape).read_bytes()
    cache.save(shape, *payload)
    assert cache._path(shape).read_bytes() == first


def test_entry_written_at_level_9_loads(tmp_path, shape):
    # caches filled before saves moved to zlib's default level hold level-9 entries
    cache = LatticeCache(tmp_path)
    payload = _payload(shape)
    cache.save(shape, *payload)
    path = cache._path(shape)
    level_9 = gzip.compress(gzip.decompress(path.read_bytes()), compresslevel=9, mtime=0)
    assert level_9 != path.read_bytes()
    path.write_bytes(level_9)
    assert cache.load(shape) == tuple(payload)


def _whole_document(shape, masks, char, fi) -> str:
    """The entry text as one `json.dumps` of the whole document."""
    doc = {
        "version": cache_mod.FORMAT_VERSION,
        "shape": format_shape(shape),
        "count": len(masks),
        "masks": [format(m, "x") for m in masks],
        "char": "".join("1" if f else "0" for f in char),
        "fi": "".join("1" if f else "0" for f in fi),
    }
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("chunk", [1, 3, 16, 4096])
def test_entry_written_in_pieces_is_one_json_document(tmp_path, monkeypatch, chunk):
    # 2:1,1,1 has 16 subgroups: chunks of 1 and 3 split its masks, 16 and
    # 4096 write them in one piece
    shape = make_shape(2, [1, 1, 1])
    monkeypatch.setattr(cache_mod, "_MASK_CHUNK", chunk)
    cache = LatticeCache(tmp_path)
    payload = _payload(shape)
    assert len(payload[0]) == 16
    cache.save(shape, *payload)
    text = gzip.decompress(cache._path(shape).read_bytes()).decode()
    assert text == _whole_document(shape, *payload)
    assert cache.load(shape) == tuple(payload)


def test_entry_written_as_one_document_loads(tmp_path, shape):
    # entries written before saves went in pieces: one json.dumps, one write
    cache = LatticeCache(tmp_path)
    payload = _payload(shape)
    whole = _whole_document(shape, *payload).encode()
    cache._path(shape).write_bytes(gzip.compress(whole, compresslevel=6, mtime=0))
    assert cache.load(shape) == tuple(payload)


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
    monkeypatch.setattr(cache_mod, "FORMAT_VERSION", cache_mod.FORMAT_VERSION + 1)
    bumped = LatticeCache(tmp_path)
    # key includes the version, so the old entry is simply never addressed
    assert bumped._path(shape) != old_path
    assert bumped.load(shape) is None


def test_stamped_version_mismatch_is_absent(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    cache.save(shape, *_payload(shape))
    path = cache._path(shape)
    stamp = f'"version": {cache_mod.FORMAT_VERSION}'
    assert stamp in gzip.open(path, "rt").read()
    doc = gzip.open(path, "rt").read().replace(stamp, '"version": 99')
    with gzip.open(path, "wt") as fh:
        fh.write(doc)
    assert cache.load(shape) is None


def test_length_mismatch_is_absent(tmp_path, shape):
    cache = LatticeCache(tmp_path)
    masks, char, fi = _payload(shape)
    cache.save(shape, masks, char[:-1] + [char[-1]], fi)
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
    primed = LatticeStore(tmp_path)
    first = primed.get(shape)
    second = LatticeStore(tmp_path).get(shape)  # from disk
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
    LatticeCache(tmp_path).save(make_shape(2, [1]), [1, 2, 3], flags, flags)
    assert run(verify + ["--cache", str(tmp_path)]) == 0
    assert _runtime_free(capsys.readouterr().out) == uncached


def test_store_rejects_masks_and_iso_types_that_do_not_fit(tmp_path):
    shape = make_shape(2, [2])
    # a mask wider than the carrier; no iso type is stored, so each
    # subgroup's comes from its mask
    masks, char, fi = _payload(shape)
    fresh = [h.mask for h in compute_shape_lattice(shape).subgroups]
    LatticeCache(tmp_path).save(shape, masks[:-1] + [masks[-1] | 1 << 4], char, fi)
    lat = LatticeStore(tmp_path).get(shape)
    assert [h.mask for h in lat.subgroups] == fresh
    assert str(lat.subgroups[-1].iso_type()) == "2:2"


def test_entries_with_altered_flags_change_nothing(tmp_path, capsys):
    # each tampered entry, read through `enumerate --kind all` (the one kind
    # that reads the cache), must give the uncached listing: flags that
    # disagree with the orbit and profile routes make it a miss
    shape = make_shape(2, [2])
    masks, char, fi = _payload(shape)
    assert masks[1] == 0b101  # the order-2 subgroup
    cleared = [True, False, True]
    listing = ["enumerate", "--p", "2", "--partition", "2", "--kind", "all"]
    for bad_char, bad_fi in ((cleared, fi), (char, cleared)):
        assert run(listing) == 0
        uncached = capsys.readouterr().out
        LatticeCache(tmp_path).save(shape, masks, bad_char, bad_fi)
        assert run(listing + ["--cache", str(tmp_path)]) == 0
        assert capsys.readouterr().out == uncached


def test_entries_out_of_order_or_repeated_are_recomputed(tmp_path, capsys):
    # flags travel with their masks, so the orbit and profile
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


def test_entry_with_a_repeated_mask_in_place_of_another_is_recomputed(tmp_path, capsys):
    # 2:1,1 with its order-2 subgroup of mask 3 listed twice and the one of
    # mask 5 dropped: the count and both flagged lists hold, and the order
    # check of `lattice-count-vs-birkhoff` turns the entry away
    shape = make_shape(2, [1, 1])
    payload = _payload(shape)
    LatticeCache(tmp_path).save(shape, *([seq[i] for i in (0, 1, 1, 3, 4)] for seq in payload))
    assert LatticeStore(tmp_path)._load(shape) is None
    listing = ["enumerate", "--p", "2", "--partition", "1,1", "--kind", "all"]
    assert run(listing) == 0
    uncached = capsys.readouterr().out
    assert run(listing + ["--cache", str(tmp_path)]) == 0
    assert capsys.readouterr().out == uncached


_RUNTIME = re.compile(r'"runtime_ms": [0-9]+, ')


def _without_mask_3(payload):
    # 2:1,1 without its order-2 subgroup of mask 3, which is neither
    # characteristic nor fully invariant, so both flagged lists stay intact
    return [seq[:1] + seq[2:] for seq in payload]


def _with_unclosed_mask(payload):
    # 2:1,2 with an extra mask {0,1,2,4} in its (order, lexicographic) place:
    # four elements, not closed under addition, flagged neither way
    key = enumeration_key(make_shape(2, [1, 2]))
    at = sum(key(mask) < key(0b10111) for mask in payload[0])
    extras = (0b10111, False, False)
    return [seq[:at] + [extra] + seq[at:] for seq, extra in zip(payload, extras)]


@pytest.mark.parametrize(
    "exps, tamper", [((1, 1), _without_mask_3), ((1, 2), _with_unclosed_mask)]
)
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--p", "2", "--partition", "{partition}", "--kind", "all"],
        ["verify", "--p", "2", "--max-order", "8", "--claims", "oracle-crosscheck"],
    ],
    ids=["enumerate", "verify"],
)
def test_entries_with_a_missing_or_extra_mask_are_recomputed(
    tmp_path, capsys, exps, tamper, argv
):
    # the entry keeps its order and both flag checks; only the closed-form
    # subgroup count turns it away, so the lattice is enumerated and saved
    # again (`verify` prints the same reports either way: the oracle checks
    # the enumerated lattice, whose length is right)
    shape = make_shape(2, exps)
    argv = [arg.format(partition=",".join(map(str, exps))) for arg in argv]
    assert run(argv) == 0
    uncached = _RUNTIME.sub("", capsys.readouterr().out)
    payload = _payload(shape)
    LatticeCache(tmp_path).save(shape, *tamper(payload))
    assert run(argv + ["--cache", str(tmp_path)]) == 0
    assert _RUNTIME.sub("", capsys.readouterr().out) == uncached
    assert LatticeCache(tmp_path).load(shape) == payload
