"""Loop-calculus transform of a factor graph at a sum-product fixed point.

Each edge is split by a biorthogonal pair of square matrices built from
the two opposing fixed-point messages; absorbing the matrices into the
endpoint functions yields an equivalent graph whose all-zero configuration
carries exactly the message-based Bethe partition value and whose
weight-one configurations vanish.  Works with zero-valued message
components; the only hard requirement is a positive edge overlap Z_e.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from . import config
from ._kernels import enum_configs
from .errors import (CapacityError, DegenerateParameterError,
                     InternalConsistencyError, LctInapplicableError,
                     ValidationError)
from .nfg import serialize as serialize_graph
from .spa import (MessageVector, SpaReport, bethe_partition_value,
                  edge_normalizers, node_normalizers, raw_updates)


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


def _real_scalar(z, what, tol=1e-9):
    z = complex(z)
    if abs(z.imag) > tol * (1.0 + abs(z)):
        raise LctInapplicableError(
            f"{what} is not real within tolerance: {z!r}")
    return z.real


def resolve_params(mu_i, mu_j, eid="e", zeta_i=None, chi_i=None,
                   delta_i=None, eps_i=None, tols=None):
    """Resolve the per-edge constants from the two opposing messages.

    The defaults are the symmetric choice ``zeta = z_e**-0.5``, ``chi = 1``
    and (away from b0=1) ``delta = z_e**0.5``.  Any of ``zeta_i``,
    ``chi_i`` may be overridden; ``delta_i`` may be overridden away from
    the b0=1 branch and ``eps_i`` on it.  Partner values follow from the
    constraint system.
    """
    tols = config.TOLS if tols is None else tols
    mu_i = np.asarray(mu_i, dtype=np.complex128)
    mu_j = np.asarray(mu_j, dtype=np.complex128)
    z_e = _real_scalar(np.sum(mu_i * mu_j), f"edge {eid!r}: Z_e")
    if z_e <= tols.z_edge:
        raise LctInapplicableError(
            f"edge {eid!r}: Z_e = {z_e:.3e} is not positive", edge=eid)
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

    branch_one = abs(1.0 - b0) <= tols.b_one
    fragile = tols.b_one < abs(1.0 - b0) < tols.b_fragile
    if branch_one:
        if delta_i is not None and abs(delta_i - mu_j0) > tols.b_one:
            raise DegenerateParameterError(
                f"edge {eid!r}: on the b0=1 branch delta is forced to the "
                f"opposing message value {mu_j0!r}")
        delta_i, delta_j = mu_j0, mu_i0
        if abs(delta_i + delta_j) < tols.z_edge:
            raise DegenerateParameterError(
                f"edge {eid!r}: delta_i + delta_j vanishes; the b0=1 "
                "closure cannot be solved")
        if eps_i is None:
            eps_i = -1.0 / (delta_i + delta_j)
            eps_j = eps_i
        else:
            eps_i = float(eps_i)
            if abs(delta_i) < tols.z_edge:
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
            f"edge {eid!r}: parameter constraints violated: {bad}",
            residual=max(bad.values()))
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


def build_m_matrices(mu_i, mu_j, params, tols=None):
    """The biorthogonal matrix pair for one edge.

    Row index is the original edge variable, column index the transformed
    one; column 0 stores the scaled message itself.  Raises when the
    biorthogonality residual exceeds its tolerance.
    """
    tols = config.TOLS if tols is None else tols
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
    if res > tols.biorth:
        raise InternalConsistencyError(
            f"edge {p.eid!r}: biorthogonality residual {res:.3e}",
            residual=res)
    return m_i, m_j


@dataclass
class LctResult:
    base: object                       # the original graph
    transformed: object                # same topology, transformed functions
    m_matrices: dict                   # eid -> (m_i, m_j)
    params: dict                       # eid -> EdgeParams
    messages: MessageVector
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


def transform(g, fixed_point, param_overrides=None, tols=None):
    """Apply the loop-calculus transform at a fixed point of ``g``.

    ``param_overrides`` optionally maps edge ids to keyword dictionaries
    accepted by :func:`resolve_params` (used to exercise non-default but
    valid parameter choices).
    """
    tols = config.TOLS if tols is None else tols
    m = _messages_of(fixed_point)
    z_f = node_normalizers(g, m)
    z_e = edge_normalizers(g, m)
    zb = bethe_partition_value(z_f, z_e)
    if zb is None:
        worst = min(z_e, key=lambda k: abs(z_e[k]))
        raise LctInapplicableError(
            f"edge {worst!r}: Z_e = {z_e[worst]!r} vanishes", edge=worst)
    if zb.real <= 0.0:
        raise ValidationError(
            f"the Bethe value at this fixed point is not positive: {zb!r}")

    overrides = param_overrides or {}
    params, mats = {}, {}
    for e in g.edges:
        mu_i = m[(e.eid, e.head)]
        mu_j = m[(e.eid, e.tail)]
        p = resolve_params(mu_i, mu_j, eid=e.eid, tols=tols,
                           **overrides.get(e.eid, {}))
        params[e.eid] = p
        mats[e.eid] = build_m_matrices(mu_i, mu_j, p, tols=tols)

    new_tensors = []
    for k in range(g.n_nodes):
        t = np.asarray(g.tensors[k])
        for a, eid in enumerate(g.incidences[k]):
            e = g.edge(eid)
            mat = mats[eid][0] if k == e.head else mats[eid][1]
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
    return LctResult(base=g, transformed=transformed, m_matrices=mats,
                     params=params, messages=m, g0=g0, zb_spa=zb,
                     diagnostics=diagnostics)


# ------------------------------------------------------------------ #
# consumers of a transform                                            #
# ------------------------------------------------------------------ #

def _config_values(g):
    """Yield (digits, values) chunks over all configurations of ``g``."""
    sizes = [g.axis_size(e.eid) for e in g.edges]
    pos = {e.eid: k for k, e in enumerate(g.edges)}
    node_edges = [[pos[eid] for eid in inc] for inc in g.incidences]
    return enum_configs(list(g.tensors), node_edges, sizes)


def loop_series(lr, limit=None, weight_floor=1e-12):
    """Correction terms of the transformed graph relative to its all-zero
    configuration.

    Returns a list of (configuration, weight) pairs with configurations in
    the format accepted by :func:`bethecover.nfg.global_eval`; the all-zero
    term itself is omitted.  Terms whose magnitude is below
    ``weight_floor`` relative to the all-zero value are dropped.
    """
    g = lr.transformed
    lim = config.limits().enum if limit is None else limit
    count = g.config_count()
    if count > lim:
        raise CapacityError(
            f"{count} transformed configurations exceed the limit {lim}",
            limit=lim, requested=count)
    g0 = lr.g0
    floor = weight_floor * abs(g0)
    out = []
    for digits, vals in _config_values(g):
        keep = np.nonzero(np.abs(vals) > floor)[0]
        for row in keep:
            if not digits[row].any():
                continue
            cfg = {}
            for k, e in enumerate(g.edges):
                v = int(digits[row, k])
                if g.kind == "standard":
                    cfg[e.eid] = v
                else:
                    n = e.alphabet
                    cfg[e.eid] = (v // n, v % n)
            out.append((cfg, complex(vals[row] / g0)))
    return out


def nonzero_edge_subgraph_degrees(g, cfg):
    """Node degrees of the subgraph induced by nonzero edge values."""
    deg = [0] * g.n_nodes
    for e in g.edges:
        v = cfg[e.eid]
        nonzero = (v != 0) if g.kind == "standard" else (v != (0, 0))
        if nonzero:
            deg[e.head] += 1
            deg[e.tail] += 1
    return deg


def induced_fixed_point_check(lr):
    """Residual of the all-zero indicator messages under one plain
    sum-product update on the transformed graph, after per-message
    rescaling."""
    g = lr.transformed
    data = {}
    for eid, node in g.directed_keys():
        vec = np.zeros(g.axis_size(eid), dtype=np.complex128)
        vec[0] = 1.0
        data[(eid, node)] = vec
    m = MessageVector(data)
    raw, _kappa = raw_updates(g, m)
    worst = 0.0
    for key, vec in raw.items():
        lead = vec[0]
        if abs(lead) == 0.0:
            worst = max(worst, float(np.max(np.abs(vec))))
            continue
        worst = max(worst, float(np.max(np.abs(vec[1:] / lead)))
                    if vec.size > 1 else 0.0)
    return worst


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


def check_condition(lr, tol=1e-9):
    z_star = complex(lr.g0)
    if abs(z_star.imag) > tol * (1.0 + abs(z_star)) or z_star.real <= 0.0:
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

def _matrix_pairs(mat):
    return [[float(z.real), float(z.imag)] for z in np.asarray(mat).ravel()]


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
                "m_i": _matrix_pairs(lr.m_matrices[eid][0]),
                "m_j": _matrix_pairs(lr.m_matrices[eid][1]),
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
