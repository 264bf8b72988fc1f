"""Subgroup enumeration and the invariance flags.

Enumerates every subgroup of a small shape, marks which are characteristic
(stable under all automorphisms) and which are fully invariant (stable under
all endomorphisms), and rebuilds the one subgroup that separates the two
notions.
"""

from pgroups import (
    element,
    enumerate_subgroups,
    format_shape,
    is_characteristic,
    is_fully_invariant,
    make_shape,
    span,
)

s = make_shape(2, [1, 3])
subs = enumerate_subgroups(s)
chars = [h for h in subs if is_characteristic(h)]
fis = [h for h in subs if is_fully_invariant(h)]
print(f"{format_shape(s)}: {len(subs)} subgroups, "
      f"{len(chars)} characteristic, {len(fis)} fully invariant")

for h in subs:
    tags = []
    if h in chars:
        tags.append("char")
    if h in fis:
        tags.append("fi")
    gens = ", ".join(str(tuple(g.coords)) for g in h.generators)
    print(f"  order {h.order:2d} type {format_shape(h.iso_type()):8s} "
          f"gens [{gens}] {' '.join(tags)}")

# the gap between the two flag counts is a single subgroup: the span of a+2b
h = span(s, [element(s, (1, 2))])
print(f"\nspan{{(1,2)}}: members {sorted(tuple(x.coords) for x in h.elements())}")
print(f"characteristic: {is_characteristic(h)}, "
      f"fully invariant: {is_fully_invariant(h)}")
