"""Loop-calculus transform of a factor graph at a sum-product fixed point.

Each edge is split by a biorthogonal pair of square matrices built from
the two opposing fixed-point messages; absorbing the matrices into the
endpoint functions yields an equivalent graph whose all-zero configuration
carries exactly the message-based Bethe partition value and whose
weight-one configurations vanish.  Works with zero-valued message
components; the only hard requirement is a positive edge overlap Z_e.
"""

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateParameterError, InternalConsistencyError,
                     LctInapplicableError, ValidationError)
from .nfg import complex_pairs, configurations, serialize as serialize_graph
from .spa import Z_EDGE_TOL, MessageVector, SpaReport, bethe_value

_REAL_TOL = 1e-9       # relative imaginary part allowed in a real value
_WEIGHT_FLOOR = 1e-12  # loop-series terms below this share of g0 are dropped
_B_ONE_TOL = 1e-12     # |1 - b0| at or below this takes the b0 = 1 branch
_B_FRAGILE_TOL = 1e-6  # |1 - b0| below this, off that branch, is fragile
_BIORTH_TOL = 1e-10    # biorthogonality residual allowed in edge matrices


@dataclass
class EdgeParams:
    """Resolved transform constants for one edge.

    The two endpoints are the lower-index (``i``) and higher-index (``j``)
    node of the edge.  All constants are real; they satisfy
    ``zeta_i*zeta_j = 1/z_e``, ``chi_i*chi_j = 1``, ``delta_i*delta_j = z_e``
    and the closure relation tying delta/eps to the opposing message's
    value at the special element.
    """

    eid: str
    z_e: float
    b0: float               # edge belief at the special element
    zeta_i: float
    zeta_j: float
    chi_i: float
    chi_j: float
    delta_i: float
    delta_j: float
    eps_i: float
    eps_j: float
    branch_one: bool         # True when the b0 = 1 parameterization is used
    fragile: bool            # |1 - b0| in the numerically delicate band


def _real_scalar(z, what):
    z = complex(z)
    if abs(z.imag) > _REAL_TOL * (1.0 + abs(z)):
        raise LctInapplicableError(
            f"{what} is not real within tolerance: {z!r}")
    return z.real


def resolve_params(mu_i, mu_j, eid="e", zeta_i=None, chi_i=None,
                   delta_i=None, eps_i=None):
    """Resolve the per-edge constants from the two opposing messages.

    The defaults are the symmetric choice ``zeta = z_e**-0.5``, ``chi = 1``
    and (away from b0=1) ``delta = z_e**0.5``.  Any of ``zeta_i``,
    ``chi_i`` may be overridden; ``delta_i`` may be overridden away from
    the b0=1 branch and ``eps_i`` on it.  Partner values follow from the
    constraint system.
    """
    mu_i = np.asarray(mu_i, dtype=np.complex128)
    mu_j = np.asarray(mu_j, dtype=np.complex128)
    z_e = _real_scalar(np.sum(mu_i * mu_j), f"edge {eid!r}: Z_e")
    if z_e <= Z_EDGE_TOL:
        raise LctInapplicableError(
            f"edge {eid!r}: Z_e = {z_e:.3e} is not positive")
    mu_i0 = _real_scalar(mu_i[0], f"edge {eid!r}: message value at 0")
    mu_j0 = _real_scalar(mu_j[0], f"edge {eid!r}: message value at 0")
    b0 = mu_i0 * mu_j0 / z_e

    zeta_i = z_e ** -0.5 if zeta_i is None else float(zeta_i)
    if zeta_i == 0.0:
        raise DegenerateParameterError(f"edge {eid!r}: zeta must be nonzero")
    zeta_j = 1.0 / (z_e * zeta_i)
    chi_i = 1.0 if chi_i is None else float(chi_i)
    if chi_i == 0.0:
        raise DegenerateParameterError(f"edge {eid!r}: chi must be nonzero")
    chi_j = 1.0 / chi_i

    branch_one = abs(1.0 - b0) <= _B_ONE_TOL
    fragile = _B_ONE_TOL < abs(1.0 - b0) < _B_FRAGILE_TOL
    if branch_one:
        if delta_i is not None and abs(delta_i - mu_j0) > _B_ONE_TOL:
            raise DegenerateParameterError(
                f"edge {eid!r}: on the b0=1 branch delta is forced to the "
                f"opposing message value {mu_j0!r}")
        delta_i, delta_j = mu_j0, mu_i0
        if abs(delta_i + delta_j) < Z_EDGE_TOL:
            raise DegenerateParameterError(
                f"edge {eid!r}: delta_i + delta_j vanishes; the b0=1 "
                "closure cannot be solved")
        if eps_i is None:
            eps_i = -1.0 / (delta_i + delta_j)
            eps_j = eps_i
        else:
            eps_i = float(eps_i)
            if abs(delta_i) < Z_EDGE_TOL:
                raise DegenerateParameterError(
                    f"edge {eid!r}: delta_i vanishes, eps_j undetermined")
            eps_j = -(1.0 + delta_j * eps_i) / delta_i
    else:
        if eps_i is not None:
            raise DegenerateParameterError(
                f"edge {eid!r}: eps is determined away from the b0=1 branch")
        delta_i = z_e ** 0.5 if delta_i is None else float(delta_i)
        if delta_i == 0.0:
            raise DegenerateParameterError(
                f"edge {eid!r}: delta must be nonzero")
        delta_j = z_e / delta_i
        scale = z_e * (1.0 - b0)
        eps_i = (mu_j0 - delta_i) / scale
        eps_j = (mu_i0 - delta_j) / scale

    params = EdgeParams(eid, z_e, b0, zeta_i, zeta_j, chi_i, chi_j,
                        delta_i, delta_j, eps_i, eps_j, branch_one, fragile)
    bad = {k: v for k, v in constraint_residuals(params, mu_i0, mu_j0).items()
           if v > 1e-12 * max(1.0, z_e)}
    if bad:
        raise InternalConsistencyError(
            f"edge {eid!r}: parameter constraints violated: {bad}")
    return params


def constraint_residuals(p, mu_i0, mu_j0):
    """Absolute residuals of the parameter constraint system."""
    res = {
        "zeta_product": abs(p.zeta_i * p.zeta_j - 1.0 / p.z_e),
        "chi_product": abs(p.chi_i * p.chi_j - 1.0),
        "delta_product": abs(p.delta_i * p.delta_j - p.z_e),
    }
    if p.branch_one:
        res["closure"] = abs(1.0 + p.delta_i * p.eps_j + p.delta_j * p.eps_i)
    else:
        scale = p.z_e * (1.0 - p.b0)
        res["closure_i"] = abs(p.delta_i + scale * p.eps_i - mu_j0)
        res["closure_j"] = abs(p.delta_j + scale * p.eps_j - mu_i0)
    return res


def build_m_matrices(mu_i, mu_j, params):
    """The biorthogonal matrix pair for one edge.

    Row index is the original edge variable, column index the transformed
    one; column 0 stores the scaled message itself.  Raises when the
    biorthogonality residual exceeds its tolerance.
    """
    mu_i = np.asarray(mu_i, dtype=np.complex128)
    mu_j = np.asarray(mu_j, dtype=np.complex128)
    n = mu_i.size
    p = params

    def one_side(mu_self, mu_other, zeta, chi, delta, eps):
        m = np.empty((n, n), dtype=np.complex128)
        m[:, 0] = zeta * mu_self
        if n > 1:
            m[0, 1:] = -zeta * chi * mu_other[1:]
            block = eps * np.outer(mu_self[1:], mu_other[1:])
            block[np.diag_indices(n - 1)] += delta
            m[1:, 1:] = zeta * chi * block
        return m

    m_i = one_side(mu_i, mu_j, p.zeta_i, p.chi_i, p.delta_i, p.eps_i)
    m_j = one_side(mu_j, mu_i, p.zeta_j, p.chi_j, p.delta_j, p.eps_j)
    gram = m_i @ m_j.T
    res = float(np.max(np.abs(gram - np.eye(n))))
    if res > _BIORTH_TOL:
        raise InternalConsistencyError(
            f"edge {p.eid!r}: biorthogonality residual {res:.3e}")
    return m_i, m_j


@dataclass
class LctResult:
    transformed: object                # same topology, transformed functions
    m_matrices: dict                   # eid -> (m_i, m_j)
    params: dict                       # eid -> EdgeParams
    g0: complex                        # transformed global value at all-zero
    zb_spa: complex                    # Bethe value of the fixed point
    diagnostics: dict = field(default_factory=dict)


def _messages_of(fixed_point):
    if isinstance(fixed_point, SpaReport):
        if not fixed_point.converged:
            raise ValidationError(
                "the transform needs a converged fixed point")
        return fixed_point.messages
    if isinstance(fixed_point, MessageVector):
        return fixed_point
    raise TypeError("expected an SpaReport or MessageVector")


def transform(g, fixed_point, param_overrides=None):
    """Apply the loop-calculus transform at a fixed point of ``g``.

    ``param_overrides`` optionally maps edge ids to keyword dictionaries
    accepted by :func:`resolve_params` (used to exercise non-default but
    valid parameter choices).
    """
    m = _messages_of(fixed_point)
    _z_f, z_e, zb = bethe_value(g, m)
    if zb is None:
        worst = min(z_e, key=lambda k: abs(z_e[k]))
        raise LctInapplicableError(
            f"edge {worst!r}: Z_e = {z_e[worst]!r} vanishes")
    if zb.real <= 0.0:
        raise ValidationError(
            f"the Bethe value at this fixed point is not positive: {zb!r}")

    overrides = param_overrides or {}
    params, mats = {}, {}
    for i, e in enumerate(g.edges):
        mu_i = m[(i, e.head)]
        mu_j = m[(i, e.tail)]
        p = resolve_params(mu_i, mu_j, eid=e.eid,
                           **overrides.get(e.eid, {}))
        params[e.eid] = p
        mats[e.eid] = build_m_matrices(mu_i, mu_j, p)

    new_tensors = []
    for k in range(g.n_nodes):
        t = np.asarray(g.tensors[k])
        for a, i in enumerate(g.incidences[k]):
            e = g.edges[i]
            mat = mats[e.eid][0] if k == e.head else mats[e.eid][1]
            t = np.moveaxis(np.tensordot(t, mat, axes=([a], [0])), -1, a)
        new_tensors.append(t)
    transformed = g.with_tensors(new_tensors, weak_sense=True)

    g0 = 1.0 + 0.0j
    for t in transformed.tensors:
        g0 *= complex(t[(0,) * t.ndim])

    biorth = {}
    for e in g.edges:
        m_i, m_j = mats[e.eid]
        eye = np.eye(m_i.shape[0])
        biorth[e.eid] = (float(np.max(np.abs(m_i @ m_j.T - eye))),
                         float(np.max(np.abs(m_i.T @ m_j - eye))))
    diagnostics = {
        "biorthogonality": biorth,
        "fragile_edges": [eid for eid, p in params.items() if p.fragile],
        "g0_vs_bethe_rel": abs(g0 - zb) / abs(zb),
    }
    return LctResult(transformed=transformed, m_matrices=mats,
                     params=params, g0=g0, zb_spa=zb,
                     diagnostics=diagnostics)


# ------------------------------------------------------------------ #
# consumers of a transform                                            #
# ------------------------------------------------------------------ #

def loop_series(lr):
    """Correction terms of the transformed graph relative to its all-zero
    configuration.

    Returns a list of (configuration, weight) pairs: a configuration is a
    tuple of axis indices, one per edge in ``g.edges`` order, as
    :func:`bethecover.nfg.configurations` enumerates them; its weight is
    its value divided by the all-zero value, which is itself omitted.
    Terms whose magnitude is below 1e-12 relative to the all-zero value
    are dropped.

    The all-zero configuration is the first row of the first chunk of
    :func:`bethecover.nfg.configurations`; a kept row's configuration is
    read off one ``itertools.product`` over the axis indices, which runs
    in the chunks' row-major order, a chunk's length at a time.
    """
    g = lr.transformed
    floor = _WEIGHT_FLOOR * abs(lr.g0)
    rows = itertools.product(*(range(g.axis_size(i))
                               for i in range(g.n_edges)))
    out = []
    for k, vals in enumerate(configurations(g)):
        keep = np.abs(vals) > floor
        if k == 0:
            keep[0] = False
        out.extend(zip(itertools.compress(itertools.islice(rows, len(vals)),
                                          keep.tolist()),
                       (vals[keep] / lr.g0).tolist()))
    return out


@dataclass
class ConditionReport:
    """Outcome of the checkable dominance condition.

    ``mass`` is the product over nodes of the absolute sums of the
    transformed functions; ``z_star`` the Bethe value.  The two booleans
    (dominance and the equivalent alpha < 1/2 form) must agree.
    """

    mass: float
    z_star: float
    alpha: float
    condition: bool
    alpha_condition: bool


def check_condition(lr):
    z_star = complex(lr.g0)
    if abs(z_star.imag) > _REAL_TOL * (1.0 + abs(z_star)) or z_star.real <= 0.0:
        raise ValidationError(
            f"the all-zero value {z_star!r} is not a positive real")
    z_star = z_star.real
    mass = 1.0
    for t in lr.transformed.tensors:
        mass *= float(np.sum(np.abs(t)))
    condition = z_star > (2.0 / 3.0) * mass
    alpha = (mass - z_star) / z_star
    alpha_condition = alpha < 0.5
    if condition != alpha_condition:
        raise InternalConsistencyError(
            f"dominance booleans disagree: mass={mass!r} z*={z_star!r}")
    return ConditionReport(mass=mass, z_star=z_star, alpha=alpha,
                           condition=condition,
                           alpha_condition=alpha_condition)


# ------------------------------------------------------------------ #
# audit serialization                                                 #
# ------------------------------------------------------------------ #

def serialize_result(lr):
    """Transform result as a JSON document (same format family as the
    graph files; matrices as row-major complex pairs)."""
    doc = {
        "schema": "lct-1",
        "zb_spa": [lr.zb_spa.real, lr.zb_spa.imag],
        "g0": [lr.g0.real, lr.g0.imag],
        "edges": {
            eid: {
                "params": {k: getattr(p, k) for k in
                           ("z_e", "b0", "zeta_i", "zeta_j", "chi_i",
                            "chi_j", "delta_i", "delta_j", "eps_i",
                            "eps_j", "branch_one", "fragile")},
                "m_i": complex_pairs(lr.m_matrices[eid][0]),
                "m_j": complex_pairs(lr.m_matrices[eid][1]),
            }
            for eid, p in sorted(lr.params.items())
        },
        "diagnostics": {
            "fragile_edges": lr.diagnostics["fragile_edges"],
            "g0_vs_bethe_rel": lr.diagnostics["g0_vs_bethe_rel"],
            "biorthogonality": {
                eid: list(v) for eid, v
                in sorted(lr.diagnostics["biorthogonality"].items())},
        },
        "transformed": json.loads(serialize_graph(lr.transformed)),
    }
    return json.dumps(doc, indent=1)
