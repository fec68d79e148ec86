"""Dense complex tensors with labeled axes, plus the pair-axis reshuffles
between a double-edge tensor and its matrix representation.

Tensors are immutable value objects: the underlying array is stored
read-only by :func:`stored_array`, so instances can be shared freely.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError


def stored_array(arr):
    """``arr`` as a read-only C-contiguous complex array that owns its
    data: a copy unless ``arr`` already is one, so a caller's writable
    array stays writable and its later writes never reach the copy."""
    arr = np.asarray(arr, dtype=np.complex128)
    if (arr.flags.writeable or not arr.flags.owndata
            or not arr.flags.c_contiguous):
        # note: ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = arr.copy(order="C")
        arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ComplexTensor:
    """A dense complex array whose axes carry distinct labels."""

    labels: tuple
    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        arr = stored_array(self.array)
        if len(labels) != arr.ndim:
            raise DimensionError(
                f"{len(labels)} labels for an array of rank {arr.ndim}")
        if len(set(labels)) != len(labels):
            raise DimensionError(f"axis labels not distinct: {labels}")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "array", arr)

    @property
    def sizes(self):
        return self.array.shape

    def size_of(self, label):
        return self.array.shape[self.labels.index(label)]


def contract(a, b, shared_labels):
    """Contract two tensors over ``shared_labels``.

    The result carries the symmetric difference of the axes (a's free
    labels followed by b's); entries are sums of products over all
    assignments of the shared labels.
    """
    shared = list(shared_labels)
    ax_a, ax_b = [], []
    for lab in shared:
        if lab not in a.labels or lab not in b.labels:
            raise DimensionError(f"label {lab!r} not shared by both tensors")
        ia, ib = a.labels.index(lab), b.labels.index(lab)
        if a.array.shape[ia] != b.array.shape[ib]:
            raise DimensionError(
                f"label {lab!r}: size {a.array.shape[ia]} vs "
                f"{b.array.shape[ib]}")
        ax_a.append(ia)
        ax_b.append(ib)
    out = np.tensordot(a.array, b.array, axes=(ax_a, ax_b))
    out.flags.writeable = False     # nothing else holds it: store, not copy
    keep_a = [lab for lab in a.labels if lab not in shared]
    keep_b = [lab for lab in b.labels if lab not in shared]
    clash = set(keep_a) & set(keep_b)
    if clash:
        raise DimensionError(
            f"free labels {sorted(clash)} appear on both operands; "
            "contract over them instead")
    return ComplexTensor(tuple(keep_a + keep_b), out)


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
