"""The settings of a run, set for a ``with`` block by ``settings(...)`` as
``decimal.localcontext`` does, and read by each layer where it uses them:
``precision``, of a completion (unset: the ring's own over a completed ring,
20 over a discrete one, so nothing is silently refined); ``K`` and ``lag``,
the stage and lag bounds of the probes of ``towers.lim_lim1`` (the lag also
bounds the weak-proregularity question); ``budget``, the reduction steps of
each Groebner construction and of each query on it (unset: ``LODUA_BUDGET``
when that is set, else 100000).
"""

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import NamedTuple

from .errors import InvalidInput

DEFAULT_PRECISION = 20


class Settings(NamedTuple):
    precision: int | None = None
    K: int = 12
    lag: int = 6
    budget: int | None = None


_LEAST = {"precision": 1, "K": 1, "lag": 0, "budget": 1}
_CURRENT = ContextVar("lodua_settings", default=Settings())


def at_least(key, value, least):
    """``value`` (an int or a string, not a boolean) as an integer of at
    least ``least``; anything else is invalid input."""
    try:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError
        n = int(value)
    except ValueError:
        raise InvalidInput(f"{key} must be an integer, not {value!r}") from None
    if n < least:
        raise InvalidInput(f"{key} must be at least {least}, not {n}")
    return n


def current():
    """The settings in force."""
    return _CURRENT.get()


@contextmanager
def settings(**given):
    """A ``with`` block under the current settings with ``given`` replacing
    some of them, each an integer of at least 1 (``lag``: of at least 0);
    on leaving the block, however it is left, they are what they were."""
    checked = {key: at_least(key, value, _LEAST[key])
               for key, value in given.items()}
    token = _CURRENT.set(current()._replace(**checked))
    try:
        yield current()
    finally:
        _CURRENT.reset(token)


def precision_for(ring):
    """The precision of a completion over ``ring``."""
    n = current().precision
    if n is None:
        n = ring.precision if ring.is_completed else DEFAULT_PRECISION
    return n


def budget():
    """The step budget of a Groebner construction or query."""
    n = current().budget
    if n is None:
        n = at_least("LODUA_BUDGET", os.environ.get("LODUA_BUDGET", 100000), 1)
    return n


def resolved(ring):
    """The settings in force with each one worked out as a computation over
    ``ring`` reads it: the precision of a completion and the step budget
    (``current()`` leaves both unset outside the CLI).  A memo keyed on them
    misses whenever a cold computation could come out otherwise."""
    return current()._replace(precision=precision_for(ring), budget=budget())
