"""Tensor contraction, pair-axis reshuffles, the Hermitian eigensolver
and the Hermitian/PSD check of node validation."""

import itertools
import tracemalloc

import numpy as np
import pytest

from bethecover import nfg
from bethecover._kernels import jacobi_eigh
from bethecover.errors import StructuralError
from bethecover.tensor import (ComplexTensor, choi_from_paired, contract,
                               paired_from_choi, stored_array)

from conftest import graph_with_choi
from oracles import merge_of


def loop_contract(a, b, axes):
    """Nested-loop reference for contract(): sums of products over every
    assignment of the labels on the paired axes."""
    shared = [a.labels[k] for k in axes[0]]
    assert shared == [b.labels[k] for k in axes[1]]
    keep_a = [lab for lab in a.labels if lab not in shared]
    keep_b = [lab for lab in b.labels if lab not in shared]
    out_labels = keep_a + keep_b
    sizes = {}
    for t in (a, b):
        for lab, s in zip(t.labels, t.sizes):
            sizes[lab] = s
    out = np.zeros([sizes[lab] for lab in out_labels], dtype=np.complex128)
    free_ranges = [range(sizes[lab]) for lab in out_labels]
    shared_ranges = [range(sizes[lab]) for lab in shared]
    for free in itertools.product(*free_ranges):
        env = dict(zip(out_labels, free))
        acc = 0.0 + 0.0j
        for bound in itertools.product(*shared_ranges):
            env.update(zip(shared, bound))
            va = a.array[tuple(env[lab] for lab in a.labels)]
            vb = b.array[tuple(env[lab] for lab in b.labels)]
            acc += va * vb
        out[free] = acc
    return ComplexTensor(tuple(out_labels), out)


def contract_axes(a, b, axes):
    """:func:`contract` over the axis pairs ``axes``, with the merge laid
    out by the test oracle rather than the planner."""
    return contract(a, b, merge_of(a, b, axes))


class TestContract:
    def test_identity_times_vector(self):
        eye = ComplexTensor(("x", "y"), np.eye(2))
        vec = ComplexTensor(("y",), np.array([3.0, 4.0]))
        out = contract_axes(eye, vec, ((1,), (0,)))
        assert out.labels == ("x",)
        assert np.allclose(out.array, [3.0, 4.0])

    def test_matrix_pair_product(self):
        # the two local functions of the degenerate 2-cycle example
        a = ComplexTensor(("x", "y"), np.array([[1.0, 1.0], [0.0, 1.0]]))
        b = ComplexTensor(("y", "z"), np.eye(2))
        out = contract_axes(a, b, ((1,), (0,)))
        assert np.allclose(out.array, [[1.0, 1.0], [0.0, 1.0]])

    def test_random_rank3_against_loop_oracle(self, rng):
        a = ComplexTensor(("p", "q", "r"),
                          rng.standard_normal((2, 2, 2))
                          + 1j * rng.standard_normal((2, 2, 2)))
        b = ComplexTensor(("r", "s", "t"),
                          rng.standard_normal((2, 2, 2))
                          + 1j * rng.standard_normal((2, 2, 2)))
        out = contract_axes(a, b, ((2,), (0,)))
        ref = loop_contract(a, b, ((2,), (0,)))
        assert out.labels == ref.labels
        assert np.allclose(out.array, ref.array, atol=1e-13)

    @pytest.mark.parametrize("shape_a,shape_b,shared", [
        ((2,), (2,), ["s0"]),
        ((4, 3), (4,), ["s0"]),
        ((2, 3, 4), (2, 3, 2), ["s0", "s1"]),
        ((4, 4, 4), (4, 4, 4), ["s0", "s1", "s2"]),
        ((8, 8), (8, 8), ["s0"]),
        ((2, 2, 2, 2), (2, 2), ["s0"]),
    ])
    def test_oracle_sweep(self, shape_a, shape_b, shared, rng):
        # total sizes stay <= 4096 so the nested-loop oracle is exhaustive
        la = [f"s{k}" for k in range(len(shared))]
        la += [f"a{k}" for k in range(len(shape_a) - len(shared))]
        lb = [f"s{k}" for k in range(len(shared))]
        lb += [f"b{k}" for k in range(len(shape_b) - len(shared))]
        a = ComplexTensor(tuple(la), rng.standard_normal(shape_a)
                          + 1j * rng.standard_normal(shape_a))
        b = ComplexTensor(tuple(lb), rng.standard_normal(shape_b)
                          + 1j * rng.standard_normal(shape_b))
        assert a.array.size <= 4096 and b.array.size <= 4096
        axes = (tuple(range(len(shared))),) * 2
        out = contract_axes(a, b, axes)
        ref = loop_contract(a, b, axes)
        assert out.labels == ref.labels
        assert np.allclose(out.array, ref.array, atol=1e-12)
        assert np.array_equal(out.array,
                              np.tensordot(a.array, b.array, axes))
        # a's axes reversed: the paired ones trail and leave in a new order
        flip = ComplexTensor(a.labels[::-1], a.array.transpose())
        back = tuple(len(shape_a) - 1 - k for k in axes[0])
        out = contract_axes(flip, b, (back, axes[1]))
        assert np.array_equal(
            out.array, np.tensordot(flip.array, b.array, (back, axes[1])))

    def test_bilinear(self, rng):
        def mk(labels):
            return ComplexTensor(labels, rng.standard_normal((3, 3))
                                 + 1j * rng.standard_normal((3, 3)))

        a1, a2 = mk(("u", "v")), mk(("u", "v"))
        b = mk(("v", "w"))
        lhs = contract_axes(ComplexTensor(("u", "v"),
                                          2.0 * a1.array + 3.0 * a2.array),
                            b, ((1,), (0,)))
        rhs = (2.0 * contract_axes(a1, b, ((1,), (0,))).array
               + 3.0 * contract_axes(a2, b, ((1,), (0,))).array)
        assert np.allclose(lhs.array, rhs, atol=1e-12)

    def test_duplicate_labels_rejected(self):
        # the planner checks the network; without the check it would pair
        # the tensor's two "x" axes with each other
        tensors = [ComplexTensor(("x", "x"), np.ones((2, 2)))]
        with pytest.raises(StructuralError, match="once each"):
            nfg.contract_network(tensors)


def read_only(a):
    a.flags.writeable = False
    return a


class TestStorage:
    @pytest.mark.parametrize("make", [
        lambda: np.array([1.0, 2.0], dtype=np.complex128),
        lambda: np.array([1.0, 2.0]),
        lambda: np.array([[1.0, 0.0], [2.0, 0.0]])[:, 0],
        lambda: read_only(np.array([1.0, 2.0], dtype=np.complex128)),
    ], ids=["complex-owned", "real", "strided-view", "read-only-owned"])
    def test_caller_array_stays_writable_and_unshared(self, make):
        a = make()
        writable = a.flags.writeable
        stored = stored_array(a)
        assert a.flags.writeable == writable
        a.flags.writeable = True
        a[0] = 5.0
        assert a[0] == 5.0
        assert stored.tolist() == [1, 2]
        assert not stored.flags.writeable and stored.flags.c_contiguous

    def test_real_input_is_copied_in_one_allocation(self):
        # 512 x 512 float64 -> a 4 MiB complex result, with no complex
        # intermediate before the copy
        a = np.ones((512, 512))
        tracemalloc.start()
        try:
            stored = stored_array(a)
            _, peak_bytes = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert stored.nbytes == 4 * 2**20
        assert peak_bytes <= 1.1 * stored.nbytes


def char_poly_eigvals(h):
    """Eigenvalues of a 2x2 or 3x3 Hermitian matrix from the
    characteristic polynomial (independent of any eigensolver)."""
    n = h.shape[0]
    if n == 2:
        tr = (h[0, 0] + h[1, 1]).real
        det = (h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]).real
        disc = np.sqrt(max(tr * tr - 4 * det, 0.0))
        return np.sort([(tr + disc) / 2, (tr - disc) / 2])[::-1]
    if n == 3:
        c2 = -np.trace(h).real
        minors = 0.0
        for i, j in itertools.combinations(range(3), 2):
            sub = h[np.ix_([i, j], [i, j])]
            minors += (sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0]).real
        c1 = minors
        c0 = -np.linalg.det(h).real
        roots = np.roots([1.0, c2, c1, c0])
        return np.sort(roots.real)[::-1]
    raise ValueError(n)


def reconstruction_error(h, vals, vecs):
    return float(np.max(np.abs((vecs * vals) @ vecs.conj().T - h)))


def node_status(choi):
    """Validation status of a degree-1 double-edge node whose matrix is
    ``choi``; its single edge leads to a node with the identity matrix."""
    side = choi.shape[0]
    g = graph_with_choi([("f1", ["e1"]), ("f2", ["e1"])],
                        [("e1", ("f1", "f2"), side)],
                        {"f1": choi, "f2": np.eye(side)})
    return nfg.validate(g).node_status["f1"]


class TestEigendecompose:
    def test_identity(self):
        vals, _ = jacobi_eigh(np.eye(2))
        assert np.allclose(vals, [1.0, 1.0])

    def test_diag(self):
        vals, _ = jacobi_eigh(np.diag([2.0, 0.0]))
        assert np.allclose(vals, [2.0, 0.0])
        assert vals[0] >= vals[1]

    @pytest.mark.parametrize("side", [2, 3])
    @pytest.mark.parametrize("seed", range(6))
    def test_against_char_poly(self, side, seed):
        rng = np.random.default_rng(seed)
        a = (rng.standard_normal((side, side))
             + 1j * rng.standard_normal((side, side)))
        h = a @ a.conj().T
        vals, vecs = jacobi_eigh(h)
        assert vals[-1] >= -1e-12
        assert reconstruction_error(h, vals, vecs) < 1e-10
        assert np.allclose(vals, char_poly_eigvals(h), atol=1e-9, rtol=1e-9)

    @pytest.mark.parametrize("side", [2, 4, 7, 11, 16])
    def test_reconstruction_and_orthonormality(self, side, rng):
        a = (rng.standard_normal((side, side))
             + 1j * rng.standard_normal((side, side)))
        h = (a + a.conj().T) / 2
        vals, vecs = jacobi_eigh(h)
        assert reconstruction_error(h, vals, vecs) < 1e-10
        gram = vecs.conj().T @ vecs
        assert np.max(np.abs(gram - np.eye(side))) < 1e-10
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_stack_gives_every_matrix_its_own_bits(self, side):
        rng = np.random.default_rng(side)
        a = (rng.standard_normal((500, side, side))
             + 1j * rng.standard_normal((500, side, side)))
        vals, vecs = jacobi_eigh(a)
        assert vals.shape == (500, side) and vecs.shape == a.shape
        for k in range(500):
            one_vals, one_vecs = jacobi_eigh(a[k])
            assert vals[k].tobytes() == one_vals.tobytes(), k
            assert vecs[k].tobytes() == one_vecs.tobytes(), k

    def test_non_hermitian_rejected(self):
        # validation reports the defect and takes no eigenvalue
        st = node_status(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert st.hermitian_defect == 1.0
        assert np.isnan(st.min_eigenvalue) and not st.psd


class TestIsPsd:
    def test_identity(self):
        assert node_status(np.eye(3)).psd

    def test_indefinite_symmetric(self):
        st = node_status(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert not st.psd
        assert st.min_eigenvalue == pytest.approx(-1.0)

    @pytest.mark.parametrize("side", [2, 3, 5, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_gram_matrices(self, side, seed):
        rng = np.random.default_rng([seed, side])
        a = (rng.standard_normal((side, side))
             + 1j * rng.standard_normal((side, side)))
        assert node_status(a @ a.conj().T).psd

    def test_choi_wrapper(self):
        st = node_status(np.eye(4))
        assert st.hermitian_defect == 0.0
        assert st.min_eigenvalue == pytest.approx(1.0)
        assert st.psd


class TestPairedReshuffle:
    def test_round_trip(self, rng):
        bases = [2, 3]
        side = 6
        c = (rng.standard_normal((side, side))
             + 1j * rng.standard_normal((side, side)))
        t = paired_from_choi(c, bases)
        assert t.shape == (4, 9)
        assert np.array_equal(choi_from_paired(t, bases), c)

    def test_entry_convention(self):
        # pair axes are unprimed-major: axis value x*n + x'
        c = np.arange(16.0).reshape(4, 4)
        t = paired_from_choi(c, [2, 2])
        # row (x1, x2) = (1, 0), column (x1', x2') = (0, 1) -> c[2, 1]
        assert t[1 * 2 + 0, 0 * 2 + 1] == c[2, 1]
