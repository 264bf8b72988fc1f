"""Characteristic and fully invariant subgroups, Aut-orbits, projections.

Every stability question (do these maps keep this subgroup?) is one batched
`stable_flags` call on masks and a stack of carrier tables:

* `is_characteristic` asks it about the automorphism generators; alpha(H) <= H
  gives equality by finiteness, so stability under the generated group
  (inverses included) comes for free.
* `is_fully_invariant` asks it about the n^2 single-entry maps; every
  endomorphism is an entrywise combination of those, and a subgroup is closed
  under sums and integer multiples.

The fully invariant lattice is stated once, by `profile_records`: group the
cyclic summands into homocyclic layers B_k (one per distinct exponent k);
fully invariant subgroups are exactly the sums of power subgroups p^(n_k) B_k
whose profile (n_k) is monotone and grows at most by the exponent gap
between consecutive layers (Kaplansky, *Infinite Abelian Groups*).
Projections onto layers are endomorphisms, which is what pins every fully
invariant subgroup to that form.  The records carry each subgroup's order,
iso type and canonical generators by exponent arithmetic, in enumeration
order, with no carrier; `fi_from_profiles` renders them as masks, checking
each against the single-entry maps and their order against
`enumeration_key`.  The brute-force route, the enumerated lattice filtered
by `stable_flags`, lives only in the harness's `compute_shape_lattice`, as
the oracle the routes are cross-checked against; nothing here enumerates.

The characteristic-side route is `characteristic_from_orbits`: a
characteristic subgroup is an addition-closed union of Aut-orbits, so the
lattice is closed up from orbit labels without enumerating subgroups, and it
too is cross-checked against the generator flags of the enumerated lattice.

A coordinate projection is an endomorphism, so it is one more carrier table
(`projection_table`): the images of a whole (subgroups x |G|) membership
matrix are one scatter (`project_rows`), membership in a sum of pieces
supported on disjoint coordinates is a gather per piece, and the layer masks
are its fixed points.  A layer image is a power subgroup p^n B_k exactly when
it equals the part of B_k killed by p^(k - n), so a lattice's profiles are
read off its images with no per-subgroup projection.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Iterable

import numpy as np

from .core import GroupElement, GroupShape, carrier, mask_from_bool, masks_to_bool, ulm_invariants
from .endos import aut_generator_tables, stability_test_tables
from .lattice import Subgroup, enumeration_key

# Cells (subgroups x tables x |G|) one gather may touch.  2^20 flagged the
# lattice of 2:1^8 slower (1.9 s against 1.5 s) with 4x the temporaries.
_FLAG_CELLS = 1 << 18


def stable_flags(shape: GroupShape, masks: Iterable[int], tables: np.ndarray) -> np.ndarray:
    """flags[i]: every row of `tables` maps the members of masks[i] into masks[i].

    Masks are taken from the iterable and unpacked `_FLAG_CELLS // |G|` at a
    time, so a caller can stream them without listing them all, and the
    tables tried in blocks of max(1, _FLAG_CELLS // (alive * |G|)) on the
    `alive` masks not yet refuted: one mask meets all its tables in one
    gather, while a lattice is cut down a table at a time until its few
    survivors meet the rest at once.
    """
    size = carrier(shape).n
    masks = iter(masks)
    flags = [np.zeros(0, dtype=bool)]
    while chunk := list(islice(masks, max(1, _FLAG_CELLS // size))):
        member = masks_to_bool(chunk, size)
        alive = np.arange(len(member))
        done = 0
        while done < len(tables) and len(alive):
            block = tables[done : done + max(1, _FLAG_CELLS // (len(alive) * size))]
            rows = member[alive]
            # a member mapped outside the subgroup refutes it
            kept = (rows[:, None, :] <= rows[:, block]).all(axis=(1, 2))
            alive = alive[kept]
            done += len(block)
        out = np.zeros(len(member), dtype=bool)
        out[alive] = True
        flags.append(out)
    return np.concatenate(flags)


def is_characteristic(h: Subgroup) -> bool:
    """True iff every automorphism maps H into (hence onto) H."""
    return bool(stable_flags(h.shape, [h.mask], aut_generator_tables(h.shape))[0])


def is_fully_invariant(h: Subgroup) -> bool:
    """True iff every endomorphism maps H into H."""
    return bool(stable_flags(h.shape, [h.mask], stability_test_tables(h.shape))[0])


# ---- characteristic lattice from Aut-orbits ------------------------------------------


def _aut_orbits(shape: GroupShape) -> tuple[np.ndarray, np.ndarray]:
    """(labels, reps): the Aut-orbit label of every carrier index, and the
    least member of each orbit.

    Each index starts labelled by itself; pulling the least label back along
    every generator table, plus pointer jumping, reaches the orbit minimum
    (a finite group's orbit is strongly connected under its generators).
    Orbits are numbered by least member, so orbit 0 is {0}.
    """
    tables = aut_generator_tables(shape)
    least = np.arange(carrier(shape).n, dtype=np.int64)
    while True:
        prev = least
        for t in tables:
            least = np.minimum(least, least[t])
        least = least[least]
        if np.array_equal(least, prev):
            break
    reps, labels = np.unique(least, return_inverse=True)
    return labels, reps


def _orbit_sums(shape: GroupShape, labels: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """sums[a, b, c]: whether reps[a] + (orbit b) meets orbit c.

    x + orbit b meets the same orbits for every x in orbit a, because an
    automorphism carrying reps[a] to x fixes orbit b setwise; so one
    representative per orbit gives the whole orbit-sum relation.
    """
    car = carrier(shape)
    k = len(reps)
    radices = np.array(car.radices, dtype=np.int64)[:, None]
    strides = np.array(car.strides, dtype=np.int64)
    out = np.zeros((k, k, k), dtype=bool)
    for a, rep in enumerate(reps.tolist()):
        moved = strides @ ((car.coords_mat + car.coords_mat[:, rep : rep + 1]) % radices)
        out[a, labels, labels[moved]] = True
    return out


# each of the two lattice routes below runs once per shape: a sweep reads it
# in the cache's load check, in several claims and in the oracle cross-check
@lru_cache(maxsize=4)
def characteristic_from_orbits(shape: GroupShape) -> tuple[Subgroup, ...]:
    """The characteristic lattice, built from Aut-orbits.

    A characteristic subgroup is an addition-closed union of orbits, so it
    is the sum of the spans of the orbits it holds.  Spans and sums are taken
    on orbit-label sets through the orbit-sum relation; starting from {0} and
    adding one orbit span at a time reaches every such sum.  Masks are built
    only at the end, in the (order, lexicographic) order of
    `enumerate_subgroups`, and every result is still checked for stability
    under the automorphism generators.
    """
    labels, reps = _aut_orbits(shape)
    k = len(reps)
    sums = _orbit_sums(shape, labels, reps)

    spans = {}
    for a in range(k):
        span_a = np.zeros(k, dtype=bool)
        span_a[[0, a]] = True
        while True:
            grown = span_a | sums[span_a, a].any(axis=0)
            if np.array_equal(grown, span_a):
                break
            span_a = grown
        spans[span_a.tobytes()] = span_a
    # plus[d, x, c]: orbit x + span d meets orbit c
    plus = np.stack([sums[:, span_d].any(axis=1) for span_d in spans.values()])

    zero_only = np.zeros(k, dtype=bool)
    zero_only[0] = True
    found = {zero_only.tobytes(): zero_only}
    frontier = [zero_only]
    while frontier:
        nxt = []
        for members in frontier:
            for total in plus[:, members].any(axis=1):
                key = total.tobytes()
                if key not in found:
                    found[key] = total
                    nxt.append(total)
        frontier = nxt
    masks = sorted(
        (mask_from_bool(row[labels]) for row in found.values()),
        key=enumeration_key(shape),
    )
    if not stable_flags(shape, masks, aut_generator_tables(shape)).all():
        raise AssertionError(
            f"orbit closure for {shape} produced a non characteristic subgroup"
        )
    return tuple(Subgroup(shape, m) for m in masks)


def kaplansky_2group_predicate(shape: GroupShape) -> bool:
    """For p = 2: at most two Ulm invariants equal 1, successive if exactly two.

    This is the combinatorial side of the char-equals-fi dichotomy for finite
    abelian 2-groups.
    """
    if shape.prime != 2:
        raise ValueError("predicate is specific to p = 2")
    ones = [n for n, f in enumerate(ulm_invariants(shape)) if f == 1]
    if len(ones) > 2:
        return False
    if len(ones) == 2:
        return ones[1] == ones[0] + 1
    return True


# ---- layers and projections --------------------------------------------------------


def distinct_exponents(shape: GroupShape) -> tuple[int, ...]:
    return tuple(sorted(set(shape.exponents)))


def layer_positions(shape: GroupShape, k: int) -> tuple[int, ...]:
    return tuple(i for i, e in enumerate(shape.exponents) if e == k)


def projection_table(shape: GroupShape, positions: tuple[int, ...]) -> np.ndarray:
    """table[x] = index of x with all coordinates outside `positions` zeroed."""
    car = carrier(shape)
    pos = list(positions)
    return np.array(car.strides, dtype=np.int64)[pos] @ car.coords_mat[pos]


@lru_cache(maxsize=512)
def layer_mask(shape: GroupShape, positions: tuple[int, ...]) -> int:
    """Mask of elements supported only on `positions`: the projection's fixed points."""
    table = projection_table(shape, positions)
    return mask_from_bool(table == np.arange(len(table)))


def project_rows(member: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Images of a (k, |G|) membership matrix under the map `table` (usually a
    `projection_table`), as bool rows of G, through one scatter."""
    rows, cols = np.nonzero(member)
    image = np.zeros_like(member)
    image[rows, table[cols]] = True
    return image


# ---- projection profiles -----------------------------------------------------------


def within_growth_bound(levels: tuple[int, ...], vec) -> bool:
    """Profile (n_k) over the ascending `levels` is monotone and grows by at
    most the exponent gap between consecutive layers."""
    return all(
        a <= b <= a + (l - k)
        for k, l, a, b in zip(levels, levels[1:], vec, vec[1:])
    )


def _profile_vectors(levels: tuple[int, ...]):
    """All (n_k) with 0 <= n_k <= k, monotone, gaps bounded by exponent gaps,
    in lexicographic order."""
    for vec in product(*(range(k + 1) for k in levels)):
        if within_growth_bound(levels, vec):
            yield vec


@dataclass(frozen=True)
class _ProfileSubgroup:
    """The fully invariant subgroup sum_i p^(m_i) Z(p^(k_i)) of `shape`, held
    by its per-coordinate exponents m and its iso type: it answers what
    `iso_witnesses` and `subgroup_descriptor` ask of a `Subgroup`, without a
    carrier.

    Its order is p^(sum (k_i - m_i)), its iso type sorted(k_i - m_i > 0), and
    its canonical generators are the p^(m_i) e_i in coordinate order over the
    i with m_i < k_i.  (The greedy generator search starts from pH, the same
    sum with every m_i raised by one; its least member outside is p^(m_i) e_i
    for the first i still missing, since a member with a smaller index is zero
    on every later coordinate and below p^(m_i) on coordinate i.)
    """

    shape: GroupShape
    m: tuple[int, ...]
    iso: GroupShape

    @property
    def order(self) -> int:
        return self.shape.prime ** sum(k - m for k, m in zip(self.shape.exponents, self.m))

    @property
    def generators(self) -> tuple[GroupElement, ...]:
        p, rank = self.shape.prime, self.shape.rank
        return tuple(
            GroupElement(self.shape, tuple(p ** m if j == i else 0 for j in range(rank)))
            for i, (k, m) in enumerate(zip(self.shape.exponents, self.m))
            if m < k
        )

    def iso_type(self) -> GroupShape:
        return self.iso

    def is_trivial(self) -> bool:
        return self.iso.is_trivial_marker()

    def is_full(self) -> bool:
        return not any(self.m)


def _profile_order(h: _ProfileSubgroup) -> tuple:
    """`enumeration_key` order on profile records (see `profile_records`)."""
    return h.order, h.m


# one statement of the fully invariant lattice per shape: classify, the ifi
# claims, the mask rendering and the oracle part all read it
@lru_cache(maxsize=4)
def profile_records(shape: GroupShape) -> tuple[_ProfileSubgroup, ...]:
    """The fully invariant lattice: one `_ProfileSubgroup` per layer profile,
    in enumeration order.  Builds no carrier.

    Complete because projections onto layers are endomorphisms (so any fully
    invariant H splits as the sum of its layer projections) and the fully
    invariant subgroups of a homocyclic layer are its power subgroups.  A
    record's m_i is the profile entry n_k of its coordinate's layer.

    `enumeration_key` orders subgroups by order, then by the membership
    bit-vector, the subgroup present at the first differing index first.  On
    records of one order that is m in lexicographic order, smaller first.
    Proof: let i be the first coordinate where m^H_i < m^K_i (they agree
    before it).  A carrier index x below p^(m^H_i) stride_i is zero on every
    coordinate after i and below p^(m^H_i) on coordinate i, so it lies in H
    exactly when it lies in K: they agree on the coordinates before i, and on
    coordinate i both need it to be 0.  The index p^(m^H_i) stride_i itself,
    p^(m^H_i) e_i, is in H and not in K, as m^H_i < m^K_i <= k_i.
    `fi_from_profiles` checks this order on every shape it renders.
    """
    levels = distinct_exponents(shape)
    layer_of = [levels.index(k) for k in shape.exponents]
    return tuple(
        sorted(
            (
                _ProfileSubgroup(shape, tuple(vec[j] for j in layer_of), iso)
                for vec, iso in fi_profile_iso_types(shape)
            ),
            key=_profile_order,
        )
    )


@lru_cache(maxsize=4)
def fi_from_profiles(shape: GroupShape) -> tuple[Subgroup, ...]:
    """The fully invariant lattice as masks over the carrier: `profile_records`
    rendered in record order, a record with exponents m as the elements whose
    coordinate i is divisible by p^(m_i).

    Every mask is still checked against the single-entry maps, and the
    records' order against `enumeration_key`.
    """
    car = carrier(shape)
    records = profile_records(shape)
    masks = []
    for rec in records:
        keep = np.ones(car.n, dtype=bool)
        for i, m in enumerate(rec.m):
            if m:
                keep &= car.coords_mat[i] % shape.prime ** m == 0
        masks.append(mask_from_bool(keep))
    flags = stable_flags(shape, masks, stability_test_tables(shape))
    if not flags.all():
        rec = records[int(np.argmin(flags))]
        raise AssertionError(
            f"profile {rec.m} for {shape} produced a non fully invariant subgroup"
        )
    key = enumeration_key(shape)
    keys = [key(mask) for mask in masks]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise AssertionError(f"profile records for {shape} are not in enumeration order")
    return tuple(Subgroup(shape, mask) for mask in masks)


def fi_profile_iso_types(shape: GroupShape) -> list[tuple[tuple[int, ...], GroupShape]]:
    """(profile vector, iso type) pairs, by exponent arithmetic alone:
    sum_k p^(n_k) B_k has one Z(p^(k - n_k)) per exponent-k summand.  Never
    touches the carrier; `profile_records` is built on it, and the
    `profile-iso-arithmetic` oracle part holds its types against the masks'."""
    levels = distinct_exponents(shape)
    mult = {k: len(layer_positions(shape, k)) for k in levels}
    out = []
    for vec in _profile_vectors(levels):
        exps = []
        for k, n in zip(levels, vec):
            if k - n > 0:
                exps.extend([k - n] * mult[k])
        out.append((vec, GroupShape(shape.prime, tuple(sorted(exps)))))
    return out
