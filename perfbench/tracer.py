"""Layer tracing from outside the package.

`install()` replaces public pgroups functions with timing wrappers, in every
module that bound the name (``from .lattice import enumerate_subgroups``
copies the function into the importing module, so wrapping only its home
module would miss those callers).  Methods are wrapped on their class.

Spans nest: each wrapper keeps a running total of its children's time, so a
layer's self time is its span minus the child spans inside it.  Counters are
taken at the same boundaries.  Nothing here changes what a call returns.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from types import ModuleType

perf = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._children: list[float] = []  # child time of each open span

    def _close(self, layer: str, started: float) -> None:
        child = self._children.pop()
        took = perf() - started
        self.self_s[layer] += took - child
        self.calls[layer] += 1
        if self._children:
            self._children[-1] += took

    def span(self, layer: str, fn, count=None):
        """Wrap `fn`; `count(result)` adds to the layer's work counter."""

        def wrapper(*args, **kwargs):
            started = perf()
            self._children.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, started)
            if count is not None:
                self.counts[layer] += count(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def generator_span(self, layer: str, fn, count):
        """Wrap a generator function, timing each step but not the consumer."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                started = perf()
                self._children.append(0.0)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(layer, started)
                self.counts[layer] += count(item)
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def cached_span(self, layer: str, fn):
        """Wrap an lru_cache function; only calls that miss the cache count."""

        def wrapper(*args, **kwargs):
            misses = fn.cache_info().misses
            started = perf()
            result = fn(*args, **kwargs)
            took = perf() - started
            if fn.cache_info().misses != misses:
                self.self_s[layer] += took
                self.calls[layer] += 1
                if self._children:
                    self._children[-1] += took
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def inclusive_if(self, layer: str, fn, triggers: tuple[str, ...]):
        """Charge a call's whole span to `layer` when a `triggers` layer ran in it.

        Used for lattice look-ups: a look-up that had to enumerate or read the
        disk cache is a build; a memo hit is not.
        """

        def wrapper(*args, **kwargs):
            before = [self.calls[t] for t in triggers]
            started = perf()
            result = fn(*args, **kwargs)
            took = perf() - started
            if [self.calls[t] for t in triggers] != before:
                self.self_s[layer] += took
                self.calls[layer] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(original, wrapper) -> None:
    for name, module in list(sys.modules.items()):
        if not isinstance(module, ModuleType):
            continue
        if name != "pgroups" and not name.startswith("pgroups."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap the traced pgroups functions; import the package first."""
    from pgroups import cache, core, endos, harness, invariance, lattice

    classify_mod = sys.modules["pgroups.classify"]  # pgroups.classify is the function

    def length(result) -> int:
        return len(result)

    plain = [
        (lattice.enumerate_subgroups, "lattice.enumerate", length),
        (invariance.is_characteristic, "invariance.char_test", None),
        (invariance.is_fully_invariant, "invariance.fi_test", None),
        (invariance.fi_from_profiles, "invariance.fi_profile", None),
        (invariance.fi_profile_iso_types, "invariance.fi_profile", None),
        (endos.aut_closure_tables, "endos.aut_closure", length),
        (endos.induced_tables_batch, "endos.endo_scan", None),
        (endos.bijective_flags_by_table, "endos.endo_scan", None),
        (endos.automorphism_flags, "endos.endo_scan", None),
        (classify_mod.classify, "classify.verdict", None),
    ]
    for fn, layer, count in plain:
        _rebind(fn, tracer.span(layer, fn, count))
    batches = endos.endo_entry_batches
    _rebind(batches, tracer.generator_span("endos.endo_scan", batches, lambda b: b.shape[0]))
    _rebind(core.carrier, tracer.cached_span("core.carrier", core.carrier))

    def hit(result) -> int:
        if result is None:
            return 0
        tracer.counts["cache.subgroups_loaded"] += len(result[0])
        return 1

    cache.LatticeCache.load = tracer.span("cache.load", cache.LatticeCache.load, hit)
    cache.LatticeCache.save = tracer.span("cache.save", cache.LatticeCache.save)
    harness.LatticeStore.get = tracer.inclusive_if(
        "harness.lattice_build",
        harness.LatticeStore.get,
        ("lattice.enumerate", "cache.load"),
    )
