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

`classify` reads the fully invariant lattice as `profile_records`: each
subgroup's order, iso type and canonical generators by exponent arithmetic,
in enumeration order, with no carrier.  The characteristic lattice is those
same records where it is known to equal the fully invariant one
(`arithmetic_route_applies`): for every odd p, and for p = 2 exactly when
`kaplansky_2group_predicate` holds (Kaplansky, *Infinite Abelian Groups*,
the section on fully invariant subgroups; the `odd-p-char-eq-fi` and
`prop-2.26` sweeps check both facts).  Every other 2-group reads it from
Aut-orbits (`characteristic_from_orbits`), as masks over the carrier.
Either way `char_eq_fi` compares the two lattices' sizes: every fully
invariant subgroup is characteristic, so lattices of equal size are equal.

`carrier_verdict` reads both lattices as masks (`fi_from_profiles` and the
orbit route) and compares the masks for `char_eq_fi`.  It is the oracle:
the `classify-vs-carrier` part of `oracle-crosscheck` holds `classify`
against it, field by field, on every shape.

Both list subgroups in `enumeration_key` order (`profile_records` gives the
proof for the records).  The carrier cap of `make_shape` bounds the shapes
`classify` is given; no subgroup is ever enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import GroupShape, format_shape
from .invariance import (
    characteristic_from_orbits,
    fi_from_profiles,
    kaplansky_2group_predicate,
    profile_records,
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
    forms, applied to one subgroup family (of `Subgroup`s, or of
    `profile_records`, which answer the same questions).

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


def arithmetic_route_applies(shape: GroupShape) -> bool:
    """Whether the characteristic subgroups are known to be exactly the fully
    invariant ones: p odd, or `kaplansky_2group_predicate`."""
    return shape.prime != 2 or kaplansky_2group_predicate(shape)


def classify(shape: GroupShape) -> ClassificationVerdict:
    """Full verdict from the profile records, and from the orbit route where
    characteristic is not known to equal fully invariant.  Nothing is
    enumerated, so only the carrier cap applies."""
    fi = profile_records(shape)
    chars = fi if arithmetic_route_applies(shape) else characteristic_from_orbits(shape)
    return _verdict(shape, fi, chars, char_eq_fi=len(chars) == len(fi))
