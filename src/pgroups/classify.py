"""Verdicts about a group's characteristic / fully invariant landscape.

Conventions: "non-trivial" excludes both {0} and G, "non-zero" excludes only
{0}.  The verdicts:

* ifi: all non-trivial fully invariant subgroups are pairwise isomorphic
* ic: all non-trivial characteristic subgroups are pairwise isomorphic
* strongly_ifi / strongly_ic: same but over non-zero subgroups (so G itself
  participates, and for finite groups this forces the lattice to be {0, G})
* weakly_ic: some proper characteristic subgroup is isomorphic to G itself;
  impossible for finite groups on cardinality grounds, but computed honestly
  by scanning, not short-circuited

The first four verdicts are one predicate, `iso_witnesses`, applied to the
fully invariant or the characteristic lattice.

`ifi_criterion` is the closed-form test the ifi verdict is measured against
on sweeps: pG = 0, or p^2 G = 0 with rank(G) = rank(pG); for shapes that
reads "all exponents equal 1 or all exponents equal 2".

Every false verdict carries a minimal witness in enumeration order.

`classify` takes one of two routes to the same verdict.

* The arithmetic route (`arithmetic_verdict`) is taken where the
  characteristic lattice is known to equal the fully invariant one
  (`arithmetic_route_applies`): for every odd p, and for p = 2 exactly when
  `kaplansky_2group_predicate` holds (Kaplansky, *Infinite Abelian Groups*,
  the section on fully invariant subgroups; the `odd-p-char-eq-fi` and
  `prop-2.26` sweeps check both facts).  There the one lattice is the
  profile lattice, and each of its subgroups is read off its profile with no
  carrier: with m_i = n_(k_i) on the summand Z(p^(k_i)), the subgroup is
  the sum of the p^(m_i) Z(p^(k_i)), of order p^(sum (k_i - m_i)), type
  sorted(k_i - m_i > 0), and canonical generators p^(m_i) e_i in coordinate
  order over the i with m_i < k_i.  (The greedy generator search starts from
  pH, the same sum with every m_i raised by one; its least member outside is
  p^(m_i) e_i for the first i still missing, since a member with a smaller
  index is zero on every later coordinate and below p^(m_i) on coordinate i.)
  `char_eq_fi` is true by the theorem, ic and strong ic are the ifi
  verdicts, and weakly_ic scans the same records.
* The carrier route (`carrier_verdict`) reads the characteristic lattice
  from Aut-orbits and the fully invariant one from profile masks, and
  compares their masks for `char_eq_fi`.  It serves every other 2-group,
  and the `classify-arith-vs-carrier` oracle part runs it next to the
  arithmetic route on every shape where both apply.

Both routes list subgroups in `enumeration_key` order: by order, then by the
membership bit-vector, the subgroup present at the first differing index
first.  On profile subgroups of one order that is m in lexicographic order,
smaller first.  Proof: let i be the first coordinate where m^H_i < m^K_i
(they agree before it).  A carrier index x below p^(m^H_i) stride_i is zero
on every coordinate after i and below p^(m^H_i) on coordinate i, so it lies
in H exactly when it lies in K: they agree on the coordinates before i, and
on coordinate i both need it to be 0.  The index p^(m^H_i) stride_i itself,
p^(m^H_i) e_i, is in H and not in K, as m^H_i < m^K_i <= k_i.

Either way the carrier cap of `make_shape` bounds the shapes `classify` is
given; no subgroup is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import GroupElement, GroupShape, format_shape
from .invariance import (
    characteristic_from_orbits,
    distinct_exponents,
    fi_from_profiles,
    fi_profile_iso_types,
    kaplansky_2group_predicate,
)
from .lattice import Subgroup


def subgroup_descriptor(h: Subgroup) -> dict:
    """JSON-able snapshot: order, canonical generators, iso type."""
    iso = h.iso_type()
    return {
        "order": h.order,
        "generators": [list(g.coords) for g in h.generators],
        "iso_type": None if iso.is_trivial_marker() else format_shape(iso),
    }


def iso_witnesses(subs: list[Subgroup]):
    """The shared predicate behind the ifi and ic verdicts and their strong
    forms, applied to one subgroup family (of `Subgroup`s, or of the
    arithmetic route's profile records, which answer the same questions).

    Returns (proper, nonzero).  `proper` is None when all non-trivial members
    (neither {0} nor G) are pairwise isomorphic, and otherwise the first
    clashing pair (first member, first member of another iso type) in list
    order; `nonzero` is the same over the members other than {0}.
    """
    nonzero = [h for h in subs if not h.is_trivial()]
    proper = [h for h in nonzero if not h.is_full()]
    return _first_clash(proper), _first_clash(nonzero)


def _first_clash(subs: list[Subgroup]):
    for other in subs[1:]:
        if other.iso_type() != subs[0].iso_type():
            return subs[0], other
    return None


def ifi_criterion(shape: GroupShape) -> bool:
    """Closed-form ifi test: every exponent is 1, or every exponent is 2."""
    exps = set(shape.exponents)
    return exps == {1} or exps == {2}


@dataclass(frozen=True)
class ClassificationVerdict:
    shape: GroupShape
    is_ifi: bool
    is_ic: bool
    is_strongly_ifi: bool
    is_strongly_ic: bool
    is_weakly_ic: bool
    criterion_ifi: bool
    char_eq_fi: bool
    witnesses: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "shape": format_shape(self.shape),
            "is_ifi": self.is_ifi,
            "is_ic": self.is_ic,
            "is_strongly_ifi": self.is_strongly_ifi,
            "is_strongly_ic": self.is_strongly_ic,
            "is_weakly_ic": self.is_weakly_ic,
            "criterion_ifi": self.criterion_ifi,
            "char_eq_fi": self.char_eq_fi,
            "witnesses": self.witnesses,
        }


def _verdict(shape: GroupShape, fi, chars, char_eq_fi: bool) -> ClassificationVerdict:
    """The verdict on the fully invariant and characteristic families, each
    in enumeration order."""
    ifi_w, s_ifi_w = iso_witnesses(fi)
    ic_w, s_ic_w = iso_witnesses(chars)
    weakly_hits = [
        h for h in chars if not h.is_full() and h.iso_type() == shape
    ]
    witnesses: dict = {}
    for name, pair in (
        ("ifi", ifi_w),
        ("ic", ic_w),
        ("strongly_ifi", s_ifi_w),
        ("strongly_ic", s_ic_w),
    ):
        if pair:
            first, second = pair
            witnesses[name] = {
                "first": subgroup_descriptor(first),
                "second": subgroup_descriptor(second),
            }
    if weakly_hits:
        # can only happen for infinite groups; recorded for honesty
        witnesses["weakly_ic"] = subgroup_descriptor(weakly_hits[0])

    return ClassificationVerdict(
        shape=shape,
        is_ifi=ifi_w is None,
        is_ic=ic_w is None,
        is_strongly_ifi=s_ifi_w is None,
        is_strongly_ic=s_ic_w is None,
        is_weakly_ic=bool(weakly_hits),
        criterion_ifi=ifi_criterion(shape),
        char_eq_fi=char_eq_fi,
        witnesses=witnesses,
    )


def carrier_verdict(shape: GroupShape) -> ClassificationVerdict:
    """The verdict from the characteristic lattice (from Aut-orbits) and the
    fully invariant one (from profiles), both as masks over the carrier."""
    fi = fi_from_profiles(shape)
    chars = characteristic_from_orbits(shape)
    char_eq_fi = {h.mask for h in chars} == {h.mask for h in fi}
    return _verdict(shape, fi, chars, char_eq_fi)


@dataclass(frozen=True)
class _ProfileSubgroup:
    """The fully invariant subgroup sum_i p^(m_i) Z(p^(k_i)) of `shape`, held
    by its per-coordinate exponents m and its iso type: it answers what
    `iso_witnesses` and `subgroup_descriptor` ask of a `Subgroup`, without a
    carrier."""

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
    """`enumeration_key` order on profile subgroups (see the module docstring)."""
    return h.order, h.m


def arithmetic_route_applies(shape: GroupShape) -> bool:
    """Whether the characteristic subgroups are known to be exactly the fully
    invariant ones: p odd, or `kaplansky_2group_predicate`."""
    return shape.prime != 2 or kaplansky_2group_predicate(shape)


def profile_records(shape: GroupShape) -> list[_ProfileSubgroup]:
    """One `_ProfileSubgroup` per layer profile, in enumeration order: the
    subgroups the arithmetic route reads, and that the
    `classify-arith-vs-carrier` oracle part holds against `fi_from_profiles`
    position by position.  Builds no carrier."""
    levels = distinct_exponents(shape)
    layer_of = [levels.index(k) for k in shape.exponents]
    return sorted(
        (
            _ProfileSubgroup(shape, tuple(vec[j] for j in layer_of), iso)
            for vec, iso in fi_profile_iso_types(shape)
        ),
        key=_profile_order,
    )


def arithmetic_verdict(shape: GroupShape) -> ClassificationVerdict:
    """The verdict by exponent arithmetic over the layer profiles, for a shape
    where `arithmetic_route_applies`; builds no carrier."""
    subs = profile_records(shape)
    return _verdict(shape, subs, subs, char_eq_fi=True)


def classify(shape: GroupShape) -> ClassificationVerdict:
    """Full verdict: by the arithmetic route where characteristic equals fully
    invariant by theorem, and by the carrier route elsewhere.  Neither
    enumerates subgroups, so only the carrier cap applies."""
    if arithmetic_route_applies(shape):
        return arithmetic_verdict(shape)
    return carrier_verdict(shape)
