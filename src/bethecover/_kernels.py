"""Numeric kernels: configuration enumeration and the Hermitian eigensolver.

``enum_configs`` is the one enumeration routine of the package: the
partition-function oracle ``nfg.partition_exact`` and the loop series both
walk configurations through it, by way of ``nfg.configurations``, which
checks the ``enum`` cap first.  ``jacobi_eigh`` decomposes a stack of
Hermitian matrices; the sum-product algorithm projects every attempt of
its random messages onto the PSD cone with one call per draw round
(``nfg.validate`` calls ``np.linalg.eigvalsh`` itself).
"""

import numpy as np

_CHUNK = 65536


def enum_configs(node_arrays, node_edges, sizes):
    """Yield ``(digits, values)`` chunks over every configuration.

    ``node_arrays[f]`` is the dense tensor of node ``f`` whose axes follow
    ``node_edges[f]`` (global edge indices); ``sizes[e]`` is the axis size
    of edge ``e``.  Configurations run in row-major order (the last edge
    varies fastest), at most 65536 per chunk: ``digits`` holds one row of
    edge values per configuration and ``values`` the product of the node
    entries it selects, inf or NaN (without a warning) where it overflows.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    radix = _place_values(sizes)
    gathers = []
    for arr, edges in zip(node_arrays, node_edges):
        edges = np.asarray(edges, dtype=np.int64)
        flat = np.ascontiguousarray(arr, dtype=np.complex128).ravel()
        gathers.append((flat, edges, _place_values(sizes[edges])))
    total = int(np.prod(sizes)) if len(sizes) else 1
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % sizes[None, :]
        values = np.ones(hi - lo, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            for flat, edges, strides in gathers:
                values *= flat[digits[:, edges] @ strides]
        yield digits, values


def _place_values(sizes):
    """Row-major place value of each digit of a number with these digit
    sizes: the product of the sizes after it."""
    return np.cumprod(np.r_[sizes, 1][:0:-1])[::-1]


def jacobi_eigh(matrix):
    """Eigenvalues (descending) and orthonormal eigenvectors of a
    Hermitian matrix, or of each matrix of a stack ``(..., n, n)``, by
    LAPACK through ``np.linalg.eigh``.

    The name does not describe the algorithm; it is kept because
    ``bench/tracing.py`` wraps the function by it.  The caller is
    responsible for the Hermitian check; each matrix is replaced by its
    Hermitian part ``(A + A^H) / 2`` before decomposing.  A stack gives
    every matrix the bits one call on that matrix gives.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    vals, vecs = np.linalg.eigh((A + np.swapaxes(A, -1, -2).conj()) / 2.0)
    return vals[..., ::-1], vecs[..., ::-1]
