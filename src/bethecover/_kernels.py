"""The Hermitian eigensolver.

``jacobi_eigh`` decomposes a stack of Hermitian matrices; the sum-product
algorithm projects every attempt of its random messages onto the PSD cone
with one call per draw round (``nfg.validate`` calls
``np.linalg.eigvalsh`` itself).  It lives in a module of its own because
``bench/tracing.py`` wraps it by this module and name.
"""

import numpy as np


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
