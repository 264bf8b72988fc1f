"""Finite abelian p-groups: subgroup lattices, characteristic and fully
invariant subgroups, classification verdicts, and corpus-wide claim sweeps
with independent oracles.

Shapes are exponent partitions (`make_shape(2, [1, 3])` is Z2 + Z8); dense
carriers index every element, subgroups are bitmasks over that index, and
everything expensive sits behind an overridable resource cap.

The top level carries what the CLI, the demos and the README examples use,
plus the types those calls return; everything else is imported from its
submodule (`pgroups.endos`, `pgroups.invariance`, ...).
"""

import os
import sys

# pgroups makes no BLAS call: every numpy product it runs (`@`, `einsum`) is
# on integer arrays, which numpy computes in its own loops.  Yet once numpy
# loads, OpenBLAS's idle server thread busy-waits for 0.1-0.2 s before it
# sleeps, which doubles the CPU time of a short run.  So when pgroups is the
# first to load numpy, and the caller has chosen no thread count, OpenBLAS
# gets one thread and starts no server.  This must run before `.cache`
# imports `.core`, which imports numpy.
if "numpy" not in sys.modules and not any(
    var in os.environ for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cache import LatticeCache
from .caps import CapExceeded
from .classify import ClassificationVerdict, classify
from .core import (
    GroupElement,
    GroupShape,
    UlmSequence,
    element,
    element_order,
    format_shape,
    height,
    make_shape,
    parse_shape,
    ulm_invariants,
    ulm_sequence,
)
from .harness import (
    ClaimReport,
    ClaimSpec,
    Corpus,
    UnknownClaimError,
    all_claim_ids,
    build_corpus,
    registry,
    run_claims,
)
from .invariance import is_characteristic, is_fully_invariant
from .lattice import Subgroup, enumerate_subgroups, span

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "ClaimReport",
    "ClaimSpec",
    "ClassificationVerdict",
    "Corpus",
    "GroupElement",
    "GroupShape",
    "LatticeCache",
    "Subgroup",
    "UlmSequence",
    "UnknownClaimError",
    "all_claim_ids",
    "build_corpus",
    "classify",
    "element",
    "element_order",
    "enumerate_subgroups",
    "format_shape",
    "height",
    "is_characteristic",
    "is_fully_invariant",
    "make_shape",
    "parse_shape",
    "registry",
    "run_claims",
    "span",
    "ulm_invariants",
    "ulm_sequence",
]
