"""Capacity limits: the caps every capped route checks, and nothing else
(each tolerance is a constant of the module that applies it).

The caps can be overridden only through the environment variable
``BETHE_COVER_LIMITS``, which every capped call reads afresh: a
comma-separated list of ``key=value`` pairs with keys ``enum``
(configurations enumerated), ``contract`` (complex entries of any one
array sized by the input) and ``covers`` (the ``(M!)**(|E|-|V|+c)``
covers the exhaustive mean visits).  A malformed value raises
:class:`~bethecover.errors.ValidationError`.  Every capped route asks
:func:`check_capacity` before it allocates anything sized by the request.
"""

import os
from dataclasses import dataclass

from .errors import CapacityError, ValidationError


@dataclass
class Limits:
    enum: int = 2**24        # configurations partition_exact will visit
    contract: int = 2**26    # complex entries of one contraction intermediate
    covers: int = 10**5      # gauge-fixed covers the exhaustive mean visits


def limits():
    """Capacity limits, honoring the BETHE_COVER_LIMITS environment."""
    lim = Limits()
    for part in os.environ.get("BETHE_COVER_LIMITS", "").split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ("enum", "contract", "covers"):
            raise ValidationError(f"unknown BETHE_COVER_LIMITS key: {key!r}")
        try:
            setattr(lim, key, int(value))
        except ValueError:
            raise ValidationError(
                f"BETHE_COVER_LIMITS {key}={value.strip()!r} is not an "
                "integer") from None
    return lim


def check_capacity(key, requested, what):
    """Raise :class:`~bethecover.errors.CapacityError` when ``requested``
    (entries, configurations or covers of ``what``) exceeds the ``key``
    limit.  The error carries ``limit`` and ``requested`` and reads
    ``"<what>: <requested> over the <key> cap <limit>"``; a request of
    2**63 or more is reported as 2**63, a lower bound ("at least 2**63").
    """
    limit = getattr(limits(), key)
    if requested > limit:
        shown = min(requested, 2**63)
        text = "at least 2**63" if shown == 2**63 else shown
        raise CapacityError(f"{what}: {text} over the {key} cap {limit}",
                            limit=limit, requested=shown)
