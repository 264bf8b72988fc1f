"""Corpus sweeps: run registered claim checkers over shape families.

A claim is a named property of shapes (or of a fixed family) together with an
applicability filter.  `run_claims` walks the corpus shape by shape, feeds
each applicable checker, and merges the outcomes into one ClaimReport per
claim.  Shapes are independent work units, so the sweep parallelizes across
processes; reports are merged in corpus order and, runtime fields aside, are
byte-identical for a given corpus and claim set whatever the job count.

Every per-shape claim except `oracle-crosscheck` reads the characteristic
subgroups from Aut-orbits (`characteristic_from_orbits`) and the fully
invariant ones from the layer profiles: the ifi verdicts from the
carrier-free `profile_records` (for `thm-2.1`'s doubled shape too), the mask
comparisons from their rendering `fi_from_profiles`.  No route enumerates
the lattice.  Only `oracle-crosscheck` asks a `LatticeStore` for the
enumerated lattice and its brute-force flags, to check those routes, so a
report's `runtime_ms` charges enumeration (or the disk-cache read) to that
claim alone; a cached lattice that fails the same comparison
(`_lattice_disagreements`) is not read but enumerated again.  The oracle
also holds the records against their masks and `classify` against the
verdict read off both lattices' masks (`carrier_verdict`) on every shape.
Its parts whose inputs are over a cap or a scan limit are skipped and named
in the report notes; only the carrier cap ends a sweep.
Outside `verify`, only `enumerate --kind all` enumerates.

The registry also carries out-of-scope entries (no checker, a reason
instead) so the gap between what the source material states and what a
finite sweep can instantiate stays visible in one place.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Callable, Optional

import numpy as np

from .cache import LatticeCache
from .caps import CapExceeded, endo_oracle_cap
from .classify import (
    carrier_verdict,
    classify,
    ifi_criterion,
    iso_witnesses,
    subgroup_descriptor,
)
from .core import (
    GroupShape,
    carrier,
    element,
    format_shape,
    is_prime,
    make_shape,
    mask_from_bool,
    masks_to_bool,
)
from .endos import (
    aut_closure_tables,
    aut_generator_tables,
    automorphism_flags,
    endo_count,
    endo_scan_batches,
    entries_from_images,
    induced_tables_batch,
    prefix_aut_generator_tables,
    random_endo_entries,
    stability_test_tables,
)
from .invariance import (
    characteristic_from_orbits,
    distinct_exponents,
    fi_from_profiles,
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
from .lattice import Subgroup, enumerate_subgroups, enumeration_key, span, subgroup_count

MAX_STORED_VIOLATIONS = 16


# ---- corpus ------------------------------------------------------------------------


@dataclass(frozen=True)
class Corpus:
    prime: int
    max_order: int
    shapes: tuple[GroupShape, ...]


def _partitions_of(total: int, smallest: int = 1):
    """Ascending partitions of `total`."""
    if total == 0:
        yield ()
        return
    for part in range(smallest, total + 1):
        for rest in _partitions_of(total - part, part):
            yield (part,) + rest


def build_corpus(prime: int, max_order: int) -> Corpus:
    """Every shape with order <= max_order, ordered by (rank, exponents)."""
    if not is_prime(prime):
        raise ValueError(f"{prime} is not prime")
    if max_order < 1:
        raise ValueError("max_order must be positive")
    shapes: list[GroupShape] = []
    total = 1
    while prime ** total <= max_order:
        shapes.extend(make_shape(prime, part) for part in _partitions_of(total))
        total += 1
    shapes.sort(key=lambda s: (s.rank, s.exponents))
    return Corpus(prime, max_order, tuple(shapes))


# ---- per-shape lattice bundles -------------------------------------------------------


@dataclass
class ShapeLattice:
    """Every subgroup of one shape with its brute-force characteristic and
    fully invariant flags; read by `oracle-crosscheck`, `enumerate --kind
    all` and the disk cache."""

    shape: GroupShape
    subgroups: tuple[Subgroup, ...]
    char_flags: tuple[bool, ...]
    fi_flags: tuple[bool, ...]
    # true where `_lattice_disagreements` has found nothing, as it must for a
    # cache entry to be read
    checked: bool = False


def compute_shape_lattice(shape: GroupShape) -> ShapeLattice:
    subs = enumerate_subgroups(shape)
    # the masks stream from the subgroups: no second list of every mask
    char = stable_flags(shape, (h.mask for h in subs), aut_generator_tables(shape))
    fi = stable_flags(shape, (h.mask for h in subs), stability_test_tables(shape))
    char, fi = tuple(map(bool, char)), tuple(map(bool, fi))
    return ShapeLattice(shape, tuple(subs), char, fi)


def _lattice_disagreements(lat: ShapeLattice) -> list[dict]:
    """Where `lat` disagrees with the routes and the closed-form count, as
    `oracle-crosscheck` witnesses: its fully invariant flags against the
    profile route, its characteristic flags against the orbit route (each
    flagged list in lattice order) and its length against
    `subgroup_count`, with its masks in strictly increasing
    `enumeration_key` order.  Only the flagged masks are listed."""
    shape = lat.shape
    out = []
    profile_masks = [h.mask for h in fi_from_profiles(shape)]
    brute = [h.mask for h, f in zip(lat.subgroups, lat.fi_flags) if f]
    if brute != profile_masks:
        out.append(
            _violation(
                shape,
                check="profile-route-vs-brute",
                profile_count=len(profile_masks),
                brute_count=len(brute),
                detail="profile route and brute filtering disagree",
            )
        )
    orbit_masks = [h.mask for h in characteristic_from_orbits(shape)]
    flag_masks = [h.mask for h, c in zip(lat.subgroups, lat.char_flags) if c]
    if orbit_masks != flag_masks:
        out.append(
            _violation(
                shape,
                check="char-orbits-vs-flags",
                orbit_count=len(orbit_masks),
                flag_count=len(flag_masks),
                detail="orbit route and generator flags disagree",
            )
        )
    # a repeated subgroup breaks the strict order even where a dropped one
    # keeps the count
    count = subgroup_count(shape)
    keys = map(enumeration_key(shape), (h.mask for h in lat.subgroups))
    in_order = all(a < b for a, b in pairwise(keys))
    if len(lat.subgroups) != count or not in_order:
        out.append(
            _violation(
                shape,
                check="lattice-count-vs-birkhoff",
                enumerated=len(lat.subgroups),
                birkhoff=count,
                in_order=in_order,
                detail="enumerated lattice is not the closed-form count of"
                " subgroups in strictly increasing enumeration order",
            )
        )
    return out


class LatticeStore:
    """ShapeLattice provider: read from the disk cache under `cache_dir`, if
    given, or enumerate (and save).  Nothing is kept in memory, as a sweep
    asks for each shape's lattice once."""

    def __init__(self, cache_dir=None):
        self._cache = LatticeCache(cache_dir) if cache_dir else None

    def get(self, shape: GroupShape) -> ShapeLattice:
        lat = self._load(shape) if self._cache is not None else None
        if lat is None:
            lat = compute_shape_lattice(shape)
            if self._cache is not None:
                self._cache.save(
                    shape, [h.mask for h in lat.subgroups], lat.char_flags, lat.fi_flags
                )
        return lat

    def _load(self, shape: GroupShape) -> Optional[ShapeLattice]:
        """The cached lattice, or None (so it is recomputed) when the entry is
        absent, does not rebuild into subgroups of `shape` (a mask without
        the zero element or wider than the carrier), or fails the comparison
        that `oracle-crosscheck` reports (`_lattice_disagreements`: a length
        other than `subgroup_count(shape)`, masks not each listed once in
        `enumeration_key` order, or other subgroups flagged characteristic
        or fully invariant than the orbit and profile routes give).  No iso
        type is stored: each subgroup computes its type from its mask.
        Closure under addition is not checked: a subgroup's mask swapped for
        a non-subgroup keeps the count and is read."""
        got = self._cache.load(shape)
        if got is None:
            return None
        masks, char_flags, fi_flags = got
        full_mask = carrier(shape).full_mask
        if any(mask & ~full_mask or not mask & 1 for mask in masks):
            return None
        subs = tuple(Subgroup(shape, mask) for mask in masks)
        lat = ShapeLattice(shape, subs, tuple(char_flags), tuple(fi_flags))
        if _lattice_disagreements(lat):
            return None
        lat.checked = True
        return lat


# ---- claim plumbing ------------------------------------------------------------------


@dataclass
class CheckOutcome:
    violations: list = field(default_factory=list)
    adapted: bool = False
    notes: list = field(default_factory=list)
    skips: list = field(default_factory=list)  # crosscheck parts skipped under caps


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    summary: str
    kind: str  # "per-shape" | "family" | "out-of-scope"
    applies: Optional[Callable[[GroupShape], bool]] = None
    check: Optional[Callable[[LatticeStore, GroupShape], CheckOutcome]] = None
    family: Optional[Callable[[LatticeStore, Corpus], tuple[int, CheckOutcome]]] = None
    notes: tuple = ()
    reason: str = ""


@dataclass
class ClaimReport:
    claim_id: str
    prime: int
    max_order: int
    shapes_checked: int
    status: str  # pass | fail | adapted | out-of-scope
    violations: list = field(default_factory=list)
    total_violations: int = 0
    runtime_ms: int = 0
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "prime": self.prime,
            "max_order": self.max_order,
            "shapes_checked": self.shapes_checked,
            "status": self.status,
            "violations": self.violations,
            "total_violations": self.total_violations,
            "runtime_ms": self.runtime_ms,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class UnknownClaimError(ValueError):
    pass


def _violation(shape: GroupShape, **witness) -> dict:
    return {"shape": format_shape(shape), "witness": witness}


# ---- checkers ------------------------------------------------------------------------


def _check_ifi_criterion(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    got = iso_witnesses(profile_records(shape))[0] is None
    want = ifi_criterion(shape)
    if got != want:
        out.violations.append(
            _violation(shape, computed_ifi=got, closed_form=want)
        )
    return out


def _check_strongly_elementary(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    got = iso_witnesses(profile_records(shape))[1] is None
    want = all(k == 1 for k in shape.exponents)
    if got != want:
        out.violations.append(
            _violation(shape, computed_strongly_ifi=got, elementary=want)
        )
    return out


def _check_doubling(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    # not make_shape: only the exponent arithmetic reads the doubled shape, so
    # no doubled carrier is built and no cap applies
    doubled = GroupShape(shape.prime, tuple(sorted(shape.exponents * 2)))
    ic = iso_witnesses(characteristic_from_orbits(shape))[0] is None
    # the doubled side from its profile records alone: holding records against
    # their masks is `oracle-crosscheck`'s part
    ifi_doubled = iso_witnesses(profile_records(doubled))[0] is None
    if ic != ifi_doubled:
        out.violations.append(
            _violation(
                shape,
                doubled=format_shape(doubled),
                ic_of_base=ic,
                ifi_of_doubled=ifi_doubled,
            )
        )
    return out


def _check_char_eq_fi_holds(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    fi = {h.mask for h in fi_from_profiles(shape)}
    for h in characteristic_from_orbits(shape):
        if h.mask not in fi:
            out.violations.append(
                _violation(
                    shape,
                    subgroup=subgroup_descriptor(h),
                    detail="characteristic but not fully invariant",
                )
            )
    return out


def _check_kaplansky(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    eq = {h.mask for h in characteristic_from_orbits(shape)} == {
        h.mask for h in fi_from_profiles(shape)
    }
    want = kaplansky_2group_predicate(shape)
    if eq != want:
        out.violations.append(
            _violation(shape, char_eq_fi=eq, ulm_predicate=want)
        )
    return out


def _check_no_weakly_ic(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    for h in characteristic_from_orbits(shape):
        if not h.is_full() and h.iso_type() == shape:
            out.violations.append(
                _violation(
                    shape,
                    subgroup=subgroup_descriptor(h),
                    detail="proper characteristic subgroup isomorphic to the whole group",
                )
            )
    return out


def _splits(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(tuple(range(t)), tuple(range(t, n))) for t in range(1, n)]


def _check_split_stability(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    n = shape.rank
    chars = characteristic_from_orbits(shape)
    masks = [h.mask for h in chars]
    member = masks_to_bool(masks, carrier(shape).n)
    tables = stability_test_tables(shape)
    # kept[s, u][i]: the map a_s -> a_u keeps chars[i]; every split reads it
    kept = {
        (s, u): stable_flags(shape, masks, tables[u * n + s, None])
        for s in range(n)
        for u in range(s + 1, n)
    }
    for a_pos, b_pos in _splits(n):
        # A = range(t) is a prefix of the coordinates and coordinate 0 varies
        # fastest, so an element supported on A has the same index in A's own
        # carrier as in G's: the projected rows pack into masks of `left`
        left = GroupShape(shape.prime, shape.exponents[: len(a_pos)])
        image = project_rows(member, projection_table(shape, a_pos))
        left_char = stable_flags(
            left,
            [mask_from_bool(row) for row in image],
            prefix_aut_generator_tables(shape, len(a_pos)),
        )
        for i, h in enumerate(chars):
            for s in a_pos:
                for u in b_pos:
                    if not kept[s, u][i]:
                        out.violations.append(
                            _violation(
                                shape,
                                split=[list(a_pos), list(b_pos)],
                                map_source=s,
                                map_target=u,
                                subgroup=subgroup_descriptor(h),
                                detail="left-to-right single-entry map leaves the subgroup",
                            )
                        )
            if not left_char[i]:
                out.violations.append(
                    _violation(
                        shape,
                        split=[list(a_pos), list(b_pos)],
                        subgroup=subgroup_descriptor(h),
                        detail="left projection is not characteristic in the left summand",
                    )
                )
    return out


def _check_slice_sums(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    chars = characteristic_from_orbits(shape)
    return _slice_sum_outcome(shape, chars, {h.mask for h in chars})


def _slice_sum_outcome(shape: GroupShape, subgroups, char_masks: set[int]) -> CheckOutcome:
    """lemma-2.17 for each of `subgroups`: over every split, the sum of its
    slice intersections and the sum of its slice projections are
    characteristic.  Both sums are subgroups, and `char_masks` is the whole
    characteristic lattice, so each verdict is one set look-up."""
    out = CheckOutcome()
    n = shape.rank
    masks = [h.mask for h in subgroups]
    member = masks_to_bool(masks, carrier(shape).n)
    decompositions = _splits(n)
    singletons = tuple((i,) for i in range(n))
    if singletons not in decompositions:
        decompositions = decompositions + [singletons]
    labels = ("sum of intersections", "sum of projections")
    for parts in decompositions:
        # G is the direct sum of the parts, so x lies in a sum of K_j (K_j
        # supported on part j) iff pi_j(x) lies in K_j for every j; and
        # pi_j(x) lies in H & B_j iff it lies in H
        inter = np.ones_like(member)
        proj = np.ones_like(member)
        for pos in parts:
            table = projection_table(shape, pos)
            inter &= member[:, table]
            proj &= project_rows(member, table)[:, table]
        sums = [[mask_from_bool(row) for row in rows] for rows in (inter, proj)]
        for i, h in enumerate(subgroups):
            for label, found in zip(labels, sums):
                if found[i] not in char_masks:
                    out.violations.append(
                        _violation(
                            shape,
                            parts=[list(p) for p in parts],
                            subgroup=subgroup_descriptor(h),
                            combination=label,
                            detail=f"{label} over the split is not characteristic",
                        )
                    )
    return out


def _check_odd_split_support(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    chars = characteristic_from_orbits(shape)
    for a_pos, b_pos in _splits(shape.rank):
        amask = layer_mask(shape, a_pos)
        bmask = layer_mask(shape, b_pos)
        for h in chars:
            if h.mask & ~bmask and (h.mask & amask) == 1:
                out.violations.append(
                    _violation(
                        shape,
                        split=[list(a_pos), list(b_pos)],
                        subgroup=subgroup_descriptor(h),
                        detail="subgroup leaves the right summand but misses the left one",
                    )
                )
    return out


def _check_char_profiles(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    levels = distinct_exponents(shape)
    if set(levels) != set(range(1, levels[-1] + 1)):
        out.adapted = True
        out.notes.append(
            f"{format_shape(shape)}: sparse exponent set, growth bound composed "
            "across the gaps (adapted statement)"
        )
    car = carrier(shape)
    chars = characteristic_from_orbits(shape)
    member = masks_to_bool([h.mask for h in chars], car.n)
    outside = ~member
    order_exp = car.order_exponents()
    width = (len(chars), len(levels))
    # per subgroup i and layer j: the order exponent e of pi_k(H) (0 for a
    # trivial image), whether pi_k(H) is the power subgroup p^(k-e) B_k, and
    # whether it leaves H; tails[i, low, j]: the part of layer j killed by
    # p^e[i, low] leaves H (never for e = 0, as 0 is in H)
    e = np.zeros(width, dtype=np.int64)
    power = np.zeros(width, dtype=bool)
    escapes = np.zeros(width, dtype=bool)
    tails = np.zeros(width + (len(levels),), dtype=bool)
    for j, k in enumerate(levels):
        positions = layer_positions(shape, k)
        table = projection_table(shape, positions)
        layer = table == np.arange(car.n)
        image = project_rows(member, table)
        e[:, j] = np.where(image, order_exp, 0).max(axis=1)
        power[:, j] = (image == (layer & (order_exp <= e[:, j, None]))).all(axis=1)
        if len(positions) >= 2:
            escapes[:, j] = (image & outside).any(axis=1)
        for low in range(j):
            tails[:, low, j] = (layer & (order_exp <= e[:, low, None]) & outside).any(axis=1)
    profiles = (np.array(levels) - e).tolist()

    def report(h: Subgroup, **witness) -> None:
        out.violations.append(_violation(shape, subgroup=subgroup_descriptor(h), **witness))

    for i, h in enumerate(chars):
        if not power[i].all():
            k = levels[int(np.argmin(power[i]))]
            report(h, detail=f"projection onto exponent-{k} layer of {shape} is not a "
                   "power subgroup")
            continue
        profile = profiles[i]
        if not all(0 <= n <= k for k, n in zip(levels, profile)):
            report(h, profile=profile, detail="projection exponent out of bounds")
        if not within_growth_bound(levels, profile):
            report(h, profile=profile, detail="projection exponents break the growth bound")
        for j, k in enumerate(levels):
            for j2 in np.flatnonzero(tails[i, j]).tolist():
                report(
                    h, levels=[k, levels[j2]], detail="tail of a higher layer is not contained"
                )
            if escapes[i, j]:
                report(h, level=k, detail="projection onto a repeated-exponent layer escapes")
    return out


def _family_pinned_witnesses(store: LatticeStore, corpus: Corpus) -> tuple[int, CheckOutcome]:
    out = CheckOutcome()
    if corpus.prime != 2:
        out.notes.append("pinned family lives at p = 2; nothing to check here")
        return 0, out
    checked = 0
    for i in range(1, 5):
        fam = make_shape(2, (1, 2 * i + 1))
        h = span(fam, [element(fam, (1, 2 ** i))])
        checked += 1
        if not is_characteristic(h):
            out.violations.append(
                _violation(
                    fam,
                    generator=[1, 2 ** i],
                    detail="pinned cyclic subgroup is not characteristic",
                )
            )
        if is_fully_invariant(h):
            out.violations.append(
                _violation(
                    fam,
                    generator=[1, 2 ** i],
                    detail="pinned cyclic subgroup is unexpectedly fully invariant",
                )
            )
    return checked, out


def _check_implications(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()
    chars = characteristic_from_orbits(shape)
    fis = fi_from_profiles(shape)
    char_masks = {h.mask for h in chars}
    for h in fis:
        if h.mask not in char_masks:
            out.violations.append(
                _violation(
                    shape,
                    subgroup=subgroup_descriptor(h),
                    detail="fully invariant flag without characteristic flag",
                )
            )
    ic_w, s_ic_w = iso_witnesses(chars)
    ifi_w, s_ifi_w = iso_witnesses(fis)
    ic, s_ic, ifi, s_ifi = (w is None for w in (ic_w, s_ic_w, ifi_w, s_ifi_w))
    rules = [
        ("ic implies ifi", ic, ifi),
        ("strongly ic implies ic", s_ic, ic),
        ("strongly ic implies strongly ifi", s_ic, s_ifi),
        ("strongly ifi implies ifi", s_ifi, ifi),
    ]
    for name, premise, conclusion in rules:
        if premise and not conclusion:
            out.violations.append(_violation(shape, rule=name, detail="implication broken"))
    return out


# ---- oracle cross-checks --------------------------------------------------------------

_SAMPLED_ENDOS = 48
_SUBGROUP_SCAN_LIMIT = 512
_CLOSURE_SCAN_LIMIT = 1024


def _shape_seed(shape: GroupShape) -> int:
    digest = hashlib.sha256(format_shape(shape).encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _sorted_keys(rows: np.ndarray, size: int) -> np.ndarray:
    """The rows of a (K, n) array of values in 0..size-1 as sorted (K, W)
    int64 keys, equal iff the rows are: each value takes b =
    bit_length(size - 1) bits at its position, 63 // b values to a word, so
    a row wider than 63 bits takes several words."""
    b = max(1, (size - 1).bit_length())
    per = 63 // b
    n = rows.shape[1]
    keys = np.zeros((len(rows), -(-n // per)), dtype=np.int64)
    for j in range(n):
        keys[:, j // per] |= rows[:, j].astype(np.int64) << (b * (j % per))
    if keys.shape[1] == 1:
        keys.sort(axis=0)
        return keys
    return keys[np.lexsort(keys.T[::-1])]


def _capped(build: Callable, shape: GroupShape):
    """`build(shape)`, or None where that would exceed one of its caps."""
    try:
        return build(shape)
    except CapExceeded:
        return None


def _check_oracles(store: LatticeStore, shape: GroupShape) -> CheckOutcome:
    out = CheckOutcome()

    def runs(gate: bool, *names: str) -> bool:
        if not gate:
            out.skips.extend(names)
        return gate

    lat = _capped(store.get, shape)
    if runs(
        lat is not None,
        "profile-route-vs-brute",
        "char-orbits-vs-flags",
        "lattice-count-vs-birkhoff",
    ):
        # the brute-force flags against both routes, and the enumeration
        # against Birkhoff's closed-form subgroup count; a lattice read from
        # the cache has been through this already
        if not lat.checked:
            out.violations.extend(_lattice_disagreements(lat))
    # the profile records' arithmetic iso types against those of their masks,
    # position by position
    arith = [h.iso_type() for h in profile_records(shape)]
    masked = [h.iso_type() for h in fi_from_profiles(shape)]
    if arith != masked:
        out.violations.append(
            _violation(
                shape,
                check="profile-iso-arithmetic",
                detail="arithmetic iso types disagree with mask iso types",
            )
        )
    # classify's verdict against the one read off both lattices' masks
    by_classify = classify(shape).to_dict()
    by_carrier = carrier_verdict(shape).to_dict()
    fields = sorted(k for k in by_classify if by_classify[k] != by_carrier[k])
    if fields:
        out.violations.append(
            _violation(
                shape,
                check="classify-vs-carrier",
                fields=fields,
                detail="classify and the carrier verdict differ",
            )
        )

    # full closure against the filtered exhaustive enumeration, with the fast
    # invertibility test compared to the socle-kernel test on every
    # endomorphism.  The scan behind it costs one AND of two zero sets per
    # endomorphism plus its rows' term tables (|G|·(|Ω| + n) cells for the
    # last row), and of the oracle caps only the enumeration cap bounds |G|,
    # so the closure is built only where lat is.
    closure = _capped(aut_closure_tables, shape) if lat is not None else None
    if runs(closure is not None, "closure-vs-filtered-endos", "fast-aut-vs-bijective-table"):
        # compared as image rows packed into keys here rather than through
        # the closure's own rank codes, so the oracle stays independent of
        # it; the scan yields the bijective maps' generator images.  Batches
        # are whole sweeps of c = |G| matrices sharing rows 0..n-2, so the
        # fast test reads each sweep's head once
        c = shape.order
        filtered = []
        for ents, bij, images in endo_scan_batches(shape):
            fast = automorphism_flags(shape, ents[::c], ents[:c, -1])
            for b in np.nonzero(bij != fast)[0]:
                out.violations.append(
                    _violation(
                        shape,
                        check="fast-aut-vs-bijective-table",
                        entries=ents[b].tolist(),
                        fast=bool(fast[b]),
                        bijective=bool(bij[b]),
                    )
                )
            filtered.append(images)
        closure_keys = _sorted_keys(closure, shape.order)
        repeated = (closure_keys[1:] == closure_keys[:-1]).all(axis=1)
        closure_keys = closure_keys[np.concatenate(([True], ~repeated))]
        filtered_keys = _sorted_keys(np.concatenate(filtered), shape.order)
        if repeated.any() or not np.array_equal(closure_keys, filtered_keys):
            out.violations.append(
                _violation(
                    shape,
                    check="closure-vs-filtered-endos",
                    closure_size=len(closure),
                    repeated_rows=int(repeated.sum()),
                    filtered_size=len(filtered_keys),
                    detail="generator closure and filtered enumeration differ",
                )
            )

    # fully-invariant flags against sampled random endomorphisms
    scanned = lat is not None and len(lat.subgroups) <= _SUBGROUP_SCAN_LIMIT
    if runs(scanned, "fi-flag-vs-random-endos"):
        ents = random_endo_entries(shape, random.Random(_shape_seed(shape)), _SAMPLED_ENDOS)
        rows = induced_tables_batch(shape, ents)
        kept = stable_flags(shape, [h.mask for h in lat.subgroups], rows)
        for h, f, k in zip(lat.subgroups, lat.fi_flags, kept):
            if f and not k:
                out.violations.append(
                    _violation(
                        shape,
                        check="fi-flag-vs-random-endos",
                        subgroup=subgroup_descriptor(h),
                        detail="flagged fully invariant but a sampled endomorphism escapes",
                    )
                )

    # characteristic flags (decided from generators) against the full closure
    closure_scanned = closure is not None and len(closure) <= _CLOSURE_SCAN_LIMIT
    if runs(scanned and closure_scanned, "char-flag-vs-closure"):
        crows = induced_tables_batch(shape, entries_from_images(shape, closure))
        kept = stable_flags(shape, [h.mask for h in lat.subgroups], crows)
        for h, c, k in zip(lat.subgroups, lat.char_flags, kept):
            if k != c:
                out.violations.append(
                    _violation(
                        shape,
                        check="char-flag-vs-closure",
                        subgroup=subgroup_descriptor(h),
                        detail="generator stability disagrees with closure stability",
                    )
                )
    return out


# ---- registry ------------------------------------------------------------------------


def _always(shape: GroupShape) -> bool:
    return True


def _rank_at_least_2(shape: GroupShape) -> bool:
    return shape.rank >= 2


def _all_exponents_at_most_2(shape: GroupShape) -> bool:
    return all(k <= 2 for k in shape.exponents)


def _all_multiplicities_at_least_2(shape: GroupShape) -> bool:
    exps = shape.exponents
    return all(exps.count(k) >= 2 for k in set(exps))


def _odd_prime_rank_2(shape: GroupShape) -> bool:
    return shape.prime != 2 and shape.rank >= 2


def _odd_prime(shape: GroupShape) -> bool:
    return shape.prime != 2


def _is_2_group(shape: GroupShape) -> bool:
    return shape.prime == 2


_REGISTRY: dict[str, ClaimSpec] = {}


def _register(spec: ClaimSpec) -> None:
    _REGISTRY[spec.claim_id] = spec


_register(ClaimSpec(
    "thm-2.1",
    "the squared shape is ifi exactly when the base shape is ic",
    "per-shape", applies=_always, check=_check_doubling,
))
_register(ClaimSpec(
    "thm-2.5-i",
    "ifi matches the closed-form exponent criterion",
    "per-shape", applies=_always, check=_check_ifi_criterion,
))
_register(ClaimSpec(
    "thm-2.5-ii",
    "strongly ifi holds exactly on exponent-1 shapes",
    "per-shape", applies=_always, check=_check_strongly_elementary,
))
_register(ClaimSpec(
    "sq-zero-char-eq-fi",
    "characteristic equals fully invariant when every exponent is at most 2",
    "per-shape", applies=_all_exponents_at_most_2, check=_check_char_eq_fi_holds,
))
_register(ClaimSpec(
    "lemma-2.14",
    "characteristic subgroups absorb left-to-right single-entry maps and "
    "project onto characteristic subgroups of the left summand",
    "per-shape", applies=_rank_at_least_2, check=_check_split_stability,
))
_register(ClaimSpec(
    "prop-2.15",
    "characteristic equals fully invariant when every summand has an "
    "isomorphic partner",
    "per-shape", applies=_all_multiplicities_at_least_2, check=_check_char_eq_fi_holds,
))
_register(ClaimSpec(
    "prop-2.16",
    "no shape has a proper characteristic subgroup isomorphic to itself",
    "per-shape", applies=_always, check=_check_no_weakly_ic,
    notes=(
        "bounded case: every finite group is bounded, so this sweeps the "
        "bounded instance of the statement and the existence scan must come "
        "back empty",
    ),
))
_register(ClaimSpec(
    "lemma-2.17",
    "sums of slice intersections and slice projections of a characteristic "
    "subgroup are characteristic",
    "per-shape", applies=_rank_at_least_2, check=_check_slice_sums,
))
_register(ClaimSpec(
    "remark-2.17-odd",
    "for odd primes, a characteristic subgroup that leaves the right summand "
    "meets the left summand",
    "per-shape", applies=_odd_prime_rank_2, check=_check_odd_split_support,
))
_register(ClaimSpec(
    "example-2.18",
    "the pinned cyclic witnesses in shapes 2:1,3 through 2:1,9 are "
    "characteristic and not fully invariant",
    "family", family=_family_pinned_witnesses,
))
_register(ClaimSpec(
    "lemma-2.25",
    "layer projections of characteristic subgroups are power subgroups with "
    "bounded, slowly growing exponents, contained tails, and absorbed "
    "repeated-layer projections",
    "per-shape", applies=_always, check=_check_char_profiles,
))
_register(ClaimSpec(
    "prop-2.26",
    "for 2-groups, characteristic equals fully invariant exactly when at most "
    "two multiplicity-one exponents occur and, if two, they are adjacent",
    "per-shape", applies=_is_2_group, check=_check_kaplansky,
))
_register(ClaimSpec(
    "odd-p-char-eq-fi",
    "exploratory: characteristic equals fully invariant on every odd-prime "
    "shape in range",
    "per-shape", applies=_odd_prime, check=_check_char_eq_fi_holds,
    notes=(
        "exploratory sweep beyond the stated p = 2 equivalence; a fail here "
        "is an empirical finding about the range, not an implementation bug",
    ),
))
_register(ClaimSpec(
    "defs-implications",
    "verdict implications (strong to plain, ic to ifi) and the "
    "fully-invariant-implies-characteristic flag invariant",
    "per-shape", applies=_always, check=_check_implications,
))
_register(ClaimSpec(
    "oracle-crosscheck",
    "internal shortcuts agree with independent brute-force oracles",
    "per-shape", applies=_always, check=_check_oracles,
))

for _claim_id, _reason in [
    ("thm-2.1-ipi", "the third equivalence clause names a group class that "
                    "comes with no definition; untestable"),
    ("torsion-free-branches", "homogeneous torsion-free groups of idempotent "
                              "type have no finite instances"),
    ("divisible-groups", "nontrivial divisible groups are infinite"),
    ("unbounded-weakly-ic", "weakly-ic existence results require unbounded "
                            "groups; every finite group is bounded"),
    ("separable-and-basic", "separable, torsion-complete, and basic-subgroup "
                            "results concern infinite groups"),
    ("endo-ring-examples", "the endomorphism-ring and p-adic constructions "
                           "build infinite groups"),
]:
    _register(ClaimSpec(_claim_id, "out of scope", "out-of-scope", reason=_reason))


def registry() -> dict[str, ClaimSpec]:
    return dict(_REGISTRY)


def all_claim_ids() -> list[str]:
    return list(_REGISTRY)


# ---- execution ------------------------------------------------------------------------


def _unit_cost(shape: GroupShape, claim_ids: list[str]) -> int:
    cost = shape.order * (2 ** shape.rank)
    if "oracle-crosscheck" in claim_ids:
        total = endo_count(shape)
        if total <= endo_oracle_cap():
            cost += total // 4
    return cost


def _run_unit(store: LatticeStore, shape: GroupShape, claim_ids: list[str]) -> dict:
    results = {}
    for cid in claim_ids:
        spec = _REGISTRY[cid]
        if not spec.applies(shape):
            continue
        started = time.perf_counter()
        outcome = spec.check(store, shape)
        elapsed_ms = int((time.perf_counter() - started) * 1000)
        results[cid] = (outcome, elapsed_ms)
    return results


_WORKER_STORE: Optional[LatticeStore] = None


def _worker_init(cache_dir) -> None:
    global _WORKER_STORE
    _WORKER_STORE = LatticeStore(cache_dir)


def _worker_run(args):
    shape, claim_ids = args
    return format_shape(shape), _run_unit(_WORKER_STORE, shape, claim_ids)


def run_claims(
    claim_ids,
    corpus: Corpus,
    *,
    jobs: int = 1,
    cache_dir=None,
) -> list[ClaimReport]:
    """One report per requested claim, in request order."""
    for cid in claim_ids:
        if cid not in _REGISTRY:
            raise UnknownClaimError(f"unknown claim: {cid}")
    per_shape = [c for c in claim_ids if _REGISTRY[c].kind == "per-shape"]

    unit_results: dict[str, dict] = {}
    if per_shape and corpus.shapes:
        units = sorted(
            corpus.shapes, key=lambda s: _unit_cost(s, per_shape), reverse=True
        )
        if jobs > 1 and len(units) > 1:
            import multiprocessing

            mp = multiprocessing.get_context("fork")
            workers = min(jobs, len(units))
            with mp.Pool(workers, initializer=_worker_init, initargs=(cache_dir,)) as pool:
                work = [(shape, per_shape) for shape in units]
                for key, res in pool.imap_unordered(_worker_run, work):
                    unit_results[key] = res
        else:
            local = LatticeStore(cache_dir)
            for shape in units:
                unit_results[format_shape(shape)] = _run_unit(local, shape, per_shape)

    reports = []
    for cid in claim_ids:
        spec = _REGISTRY[cid]
        report = ClaimReport(
            claim_id=cid,
            prime=corpus.prime,
            max_order=corpus.max_order,
            shapes_checked=0,
            status="pass",
            notes=list(spec.notes),
        )
        if spec.kind == "out-of-scope":
            report.status = "out-of-scope"
            report.notes.append(spec.reason)
            reports.append(report)
            continue

        started = time.perf_counter()
        adapted = False
        all_violations: list[dict] = []
        skip_shapes: dict[str, list[str]] = {}
        if spec.kind == "family":
            local = LatticeStore(cache_dir)
            checked, outcome = spec.family(local, corpus)
            report.shapes_checked = checked
            all_violations.extend(outcome.violations)
            adapted = adapted or outcome.adapted
            report.notes.extend(outcome.notes)
            report.runtime_ms += int((time.perf_counter() - started) * 1000)
        else:
            for shape in corpus.shapes:
                res = unit_results.get(format_shape(shape), {})
                if cid not in res:
                    continue
                outcome, elapsed_ms = res[cid]
                report.runtime_ms += elapsed_ms
                report.shapes_checked += 1
                adapted = adapted or outcome.adapted
                all_violations.extend(outcome.violations)
                report.notes.extend(outcome.notes)
                for name in outcome.skips:
                    skip_shapes.setdefault(name, []).append(format_shape(shape))
        for name in sorted(skip_shapes):
            shapes = skip_shapes[name]
            listed = ", ".join(shapes[:12]) + (", ..." if len(shapes) > 12 else "")
            report.notes.append(
                f"{name}: skipped on {len(shapes)} of {report.shapes_checked} shapes "
                f"(oracle caps): {listed}"
            )
        if spec.kind == "per-shape" and report.shapes_checked == 0:
            report.notes.append("no shape in this corpus matches the applicability filter")
        report.total_violations = len(all_violations)
        report.violations = all_violations[:MAX_STORED_VIOLATIONS]
        if all_violations:
            report.status = "fail"
        elif adapted:
            report.status = "adapted"
        reports.append(report)
    return reports
