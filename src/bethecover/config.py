"""Global tolerances and capacity limits.

Capacity limits can be overridden through the environment variable
``BETHE_COVER_LIMITS``, a comma-separated list of ``key=value`` pairs with
keys ``enum`` (configuration enumeration limit), ``contract`` (complex
entries allowed in one intermediate tensor) and ``covers`` (covers visited
by the exhaustive mean).  A malformed value raises
:class:`~bethecover.errors.ValidationError`.
"""

import os
from dataclasses import dataclass

from .errors import ValidationError


@dataclass
class Tolerances:
    herm: float = 1e-9          # Hermitian defect allowed in a Choi matrix
    psd: float = 1e-9           # eigenvalue slack for the PSD test
    fixed_point: float = 1e-9   # message residual declaring convergence
    zero: float = 1e-12         # degenerate-edge trigger inside the SPA
    z_edge: float = 1e-9        # smallest usable edge normalizer Z_e
    b_one: float = 1e-12        # trigger for the beta_e(0)=1 parameter branch
    b_fragile: float = 1e-6     # below this |1-beta_e(0)| is flagged fragile
    biorth: float = 1e-10       # biorthogonality residual of edge matrices


TOLS = Tolerances()


@dataclass
class Limits:
    enum: int = 2**24        # configurations partition_exact will visit
    contract: int = 2**26    # complex entries of one contraction intermediate
    covers: int = 10**5      # covers averaged by the exhaustive estimator


def _parse_limits(text):
    lim = Limits()
    for part in text.split(","):
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


def limits():
    """Capacity limits, honoring the BETHE_COVER_LIMITS environment."""
    text = os.environ.get("BETHE_COVER_LIMITS")
    if not text:
        return Limits()
    return _parse_limits(text)

