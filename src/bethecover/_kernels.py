"""Numeric kernels: configuration enumeration and the Hermitian eigensolver.

``enum_configs`` is the one enumeration routine of the package: the
partition-function oracle :func:`enum_partition` and the loop series both
walk configurations through it.  ``jacobi_eigh`` is the one eigensolver.
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
    entries it selects.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    n_edges = len(sizes)
    # row-major place value of each digit
    radix = np.ones(n_edges, dtype=np.int64)
    for e in range(n_edges - 2, -1, -1):
        radix[e] = radix[e + 1] * sizes[e + 1]
    gathers = []
    for arr, edges in zip(node_arrays, node_edges):
        edges = np.asarray(edges, dtype=np.int64)
        strides = np.ones(len(edges), dtype=np.int64)
        for k in range(len(edges) - 2, -1, -1):
            strides[k] = strides[k + 1] * sizes[edges[k + 1]]
        flat = np.ascontiguousarray(arr, dtype=np.complex128).ravel()
        gathers.append((flat, edges, strides))
    total = int(np.prod(sizes)) if n_edges else 1
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        idx = np.arange(lo, hi, dtype=np.int64)
        digits = (idx[:, None] // radix[None, :]) % sizes[None, :]
        values = np.ones(hi - lo, dtype=np.complex128)
        for flat, edges, strides in gathers:
            values *= flat[digits[:, edges] @ strides]
        yield digits, values


def enum_partition(node_arrays, node_edges, sizes):
    """Sum of products of node-tensor entries over every configuration.

    Arguments as for :func:`enum_configs`.  Chunk sums are added in fixed
    order, so the result is deterministic.
    """
    total = 0.0 + 0.0j
    for _, values in enum_configs(node_arrays, node_edges, sizes):
        total += values.sum()
    return complex(total)


def jacobi_eigh(matrix):
    """Eigenvalues (descending) and orthonormal eigenvectors of a
    Hermitian matrix, by LAPACK through ``np.linalg.eigh``.

    The name does not describe the algorithm; it is kept because
    ``bench/tracing.py`` and ``bench/selftest.py`` look the function up by
    it.  The caller is responsible for the Hermitian check; the matrix is
    replaced by its Hermitian part ``(A + A^H) / 2`` before decomposing.
    """
    A = np.asarray(matrix, dtype=np.complex128)
    vals, vecs = np.linalg.eigh((A + A.conj().T) / 2.0)
    return vals[::-1], vecs[:, ::-1]
