"""Dense complex tensors with labeled axes, plus small Hermitian-matrix
utilities (PSD tests, eigendecompositions, Kronecker products).

Tensors are immutable value objects: the underlying array is marked
read-only on construction, so instances can be shared freely.
"""

from dataclasses import dataclass, field

import numpy as np

from . import config
from ._kernels import jacobi_eigh
from .errors import DimensionError, ValidationError


@dataclass(frozen=True)
class ComplexTensor:
    """A dense complex array whose axes carry distinct string labels."""

    labels: tuple
    array: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        arr = np.asarray(self.array, dtype=np.complex128)
        if len(labels) != arr.ndim:
            raise DimensionError(
                f"{len(labels)} labels for an array of rank {arr.ndim}")
        if len(set(labels)) != len(labels):
            raise DimensionError(f"axis labels not distinct: {labels}")
        # note: ascontiguousarray would promote 0-d scalars to shape (1,)
        arr = np.asarray(arr, dtype=np.complex128, order="C")
        if arr.base is not None or not arr.flags.owndata:
            arr = arr.copy(order="C")
        arr.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_flat(cls, labels, sizes, flat):
        flat = np.asarray(flat, dtype=np.complex128)
        expected = int(np.prod(sizes)) if len(sizes) else 1
        if flat.size != expected:
            raise DimensionError(
                f"flat data has {flat.size} entries, axes need {expected}")
        return cls(tuple(labels), flat.reshape(tuple(sizes)))

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
    keep_a = [lab for lab in a.labels if lab not in shared]
    keep_b = [lab for lab in b.labels if lab not in shared]
    clash = set(keep_a) & set(keep_b)
    if clash:
        raise DimensionError(
            f"free labels {sorted(clash)} appear on both operands; "
            "contract over them instead")
    return ComplexTensor(tuple(keep_a + keep_b), out)


def kron(a, b):
    """Kronecker product of two matrices."""
    return np.kron(np.asarray(a), np.asarray(b))


# ------------------------------------------------------------------ #
# Hermitian matrices                                                  #
# ------------------------------------------------------------------ #

@dataclass(frozen=True)
class ChoiMatrix:
    """Square complex matrix, rows indexed by unprimed and columns by
    primed variable tuples."""

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionError(f"expected a square matrix, got {m.shape}")
        m = np.ascontiguousarray(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def side(self):
        return self.matrix.shape[0]

    def hermitian_defect(self):
        m = self.matrix
        return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


@dataclass(frozen=True)
class EigenDecomposition:
    eigenvalues: np.ndarray   # real, sorted descending
    eigenvectors: np.ndarray  # orthonormal columns

    def reconstruction_error(self, matrix):
        w, v = self.eigenvalues, self.eigenvectors
        rebuilt = (v * w) @ v.conj().T
        return float(np.max(np.abs(np.asarray(matrix) - rebuilt)))


def _as_choi(c):
    return c if isinstance(c, ChoiMatrix) else ChoiMatrix(np.asarray(c))


def hermitian_eigendecompose(c, tol_herm=None):
    """Eigendecomposition of a Hermitian matrix (LAPACK through numpy);
    eigenvalues come out sorted descending."""
    c = _as_choi(c)
    tol = config.TOLS.herm if tol_herm is None else tol_herm
    defect = c.hermitian_defect()
    if defect > tol:
        raise ValidationError(
            f"matrix is not Hermitian: defect {defect:.3e} > {tol:.3e}")
    vals, vecs = jacobi_eigh(c.matrix)
    return EigenDecomposition(vals, vecs)


def is_psd(c, tol=None):
    """True iff the Hermitian matrix has minimum eigenvalue >= -tol."""
    c = _as_choi(c)
    tol = config.TOLS.psd if tol is None else tol
    dec = hermitian_eigendecompose(c)
    if dec.eigenvalues.size == 0:
        return True
    return bool(dec.eigenvalues[-1] >= -tol)


def min_eigenvalue(matrix):
    vals, _ = jacobi_eigh(np.asarray(matrix))
    return float(vals[-1]) if vals.size else 0.0


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
