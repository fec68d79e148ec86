"""Dense complex tensors with labeled axes, plus the pair-axis reshuffles
between a double-edge tensor and its matrix representation.

A labeled tensor is a plain ``(labels, array)`` pair; the network it
belongs to is checked once, by :func:`nfg.plan_contraction`, which also
records each pairwise merge as a :class:`Merge`, so that
:func:`contract` runs it as one matrix product.
"""

from typing import NamedTuple

import numpy as np


def stored_array(arr):
    """A read-only C-contiguous complex copy of ``arr``, made in one
    allocation, so a caller's writable array stays writable and its later
    writes never reach the copy."""
    arr = np.array(arr, dtype=np.complex128, order="C")
    arr.flags.writeable = False
    return arr


class ComplexTensor(NamedTuple):
    """A dense array whose k-th axis carries ``labels[k]``."""

    labels: tuple
    array: np.ndarray

    @property
    def sizes(self):
        return self.array.shape


class Merge(NamedTuple):
    """One pairwise merge as one matrix product.  The left operand's axes
    go in the order ``left_axes`` (its free axes, then its paired ones)
    and are viewed as ``left_shape``, (free entries, paired entries); the
    right's go in the order ``right_axes`` (its paired axes, matching the
    left's, then its free ones) and are viewed as ``right_shape``.  The
    product is viewed as ``shape`` and carries ``labels``."""

    left_axes: tuple
    left_shape: tuple
    right_axes: tuple
    right_shape: tuple
    shape: tuple
    labels: tuple


def contract(a, b, merge):
    """The merge of ``a`` and ``b`` that ``merge`` describes: the
    transposes and the single ``np.dot`` that ``np.tensordot`` performs
    over the same axis pairs, so its values are bit-identical; the result
    keeps a's free axes, then b's.  :func:`nfg.plan_contraction` records
    the merges of a checked network."""
    pa, sa, pb, sb, shape, labels = merge
    product = np.dot(a.array.transpose(pa).reshape(sa),
                     b.array.transpose(pb).reshape(sb))
    return ComplexTensor(labels, product.reshape(shape))


# ------------------------------------------------------------------ #
# pair-axis (double-edge) reshuffles                                  #
# ------------------------------------------------------------------ #

def choi_from_paired(array, base_sizes):
    """Matrix view of a tensor whose axes are paired variables.

    Axis ``k`` of ``array`` has size ``base_sizes[k]**2`` and is indexed
    unprimed-major.  The result is the square matrix with row index
    (x_1,..,x_d) and column index (x'_1,..,x'_d).
    """
    sizes = list(base_sizes)
    interleaved = [s for n in sizes for s in (n, n)]
    t = np.asarray(array).reshape(interleaved)
    d = len(sizes)
    order = list(range(0, 2 * d, 2)) + list(range(1, 2 * d, 2))
    big = int(np.prod(sizes)) if d else 1
    return t.transpose(order).reshape(big, big)


def paired_from_choi(matrix, base_sizes):
    """Inverse of :func:`choi_from_paired`."""
    sizes = list(base_sizes)
    d = len(sizes)
    t = np.asarray(matrix).reshape(sizes + sizes)
    order = [k for i in range(d) for k in (i, d + i)]
    return t.transpose(order).reshape([n * n for n in sizes])
