"""Resource caps.

Everything expensive in this package is gated by a cap: carriers are dense,
subgroup enumeration is exponential in the worst case, and the brute-force
oracles (exhaustive endomorphism enumeration, automorphism closure) blow up
fast.  Caps have defaults chosen so that the shipped verification sweeps fit
in minutes, and each can be overridden by an environment variable:

    PGROUPS_CARRIER_CAP      max group order for which a carrier is built
    PGROUPS_ENUM_CAP         max group order for full subgroup enumeration
                             (`enumerate --kind all`; in `verify`,
                             `oracle-crosscheck` skips its lattice parts
                             above it; `classify` and the other `enumerate`
                             kinds never enumerate)
    PGROUPS_SUBGROUP_CAP     max number of subgroups for full subgroup
                             enumeration (the closed-form count, read
                             before enumeration starts; same callers as
                             PGROUPS_ENUM_CAP)
    PGROUPS_ENDO_ORACLE_CAP  max |End(G)| for exhaustive endo enumeration
    PGROUPS_AUT_CLOSURE_CAP  max closure size when expanding Aut generators

One more variable, PGROUPS_JOBS, is not a cap: it sets the default worker
count for `verify`.
"""

from __future__ import annotations

import os

DEFAULT_CARRIER_CAP = 2 ** 16
DEFAULT_ENUM_CAP = 2 ** 12
DEFAULT_SUBGROUP_CAP = 2 ** 20
DEFAULT_ENDO_ORACLE_CAP = 2 ** 20
DEFAULT_AUT_CLOSURE_CAP = 2 ** 18


class CapExceeded(Exception):
    """A configured resource cap would be exceeded.

    The message always names the cap so callers (and the CLI, which turns
    this into exit code 3) can say which knob to turn.
    """

    def __init__(self, cap_name: str, limit: int, needed: int | str, detail: str = ""):
        self.cap_name = cap_name
        self.limit = limit
        self.needed = needed
        msg = f"{cap_name} cap exceeded: needs {needed}, cap is {limit}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def carrier_cap() -> int:
    return _env_int("PGROUPS_CARRIER_CAP", DEFAULT_CARRIER_CAP)


def enum_cap() -> int:
    return _env_int("PGROUPS_ENUM_CAP", DEFAULT_ENUM_CAP)


def subgroup_cap() -> int:
    return _env_int("PGROUPS_SUBGROUP_CAP", DEFAULT_SUBGROUP_CAP)


def endo_oracle_cap() -> int:
    return _env_int("PGROUPS_ENDO_ORACLE_CAP", DEFAULT_ENDO_ORACLE_CAP)


def aut_closure_cap() -> int:
    return _env_int("PGROUPS_AUT_CLOSURE_CAP", DEFAULT_AUT_CLOSURE_CAP)


def default_jobs() -> int:
    return _env_int("PGROUPS_JOBS", 1)
