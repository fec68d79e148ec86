"""Dense complex tensors with labeled axes, plus the pair-axis reshuffles
between a double-edge tensor and its matrix representation.

A labeled tensor is a plain ``(labels, array)`` pair; the network it
belongs to is checked once, by :func:`nfg.plan_contraction`.
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


def contract(a, b, axes):
    """One ``np.tensordot`` of ``a`` and ``b`` over the axis pairs
    ``axes = (a's axes, b's axes)``; the result keeps a's free axes, then
    b's, with their labels.  The caller pairs axes of one size and leaves
    distinct free labels, as :func:`nfg.plan_contraction` does."""
    ax_a, ax_b = axes
    labels = ([lab for k, lab in enumerate(a.labels) if k not in ax_a]
              + [lab for k, lab in enumerate(b.labels) if k not in ax_b])
    return ComplexTensor(tuple(labels),
                         np.tensordot(a.array, b.array, axes=axes))


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
