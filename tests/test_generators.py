"""Instance generators: determinism, validity, ensemble properties."""

import numpy as np
import pytest

from bethecover import nfg
from bethecover.errors import ValidationError
from bethecover.generators import GeneratorSpec, gen

from oracles import is_forest


def test_deterministic_for_seed():
    spec = GeneratorSpec(topology="fig3", ensemble="psd-random", seed=5)
    assert nfg.serialize(gen(spec)) == nfg.serialize(gen(spec))
    other = GeneratorSpec(topology="fig3", ensemble="psd-random", seed=6)
    assert nfg.serialize(gen(other)) != nfg.serialize(gen(spec))


def test_psd_random_is_strict_sense():
    g = gen(GeneratorSpec(topology="fig3", ensemble="psd-random", seed=7))
    report = nfg.validate(g)
    assert report.valid
    assert report.classification == "strict-sense"


def test_near_identity_is_strict_sense():
    g = gen(GeneratorSpec(topology="fig-b", ensemble="psd-near-identity",
                          eta=0.1, seed=2))
    assert g.n_edges == 6
    report = nfg.validate(g)
    assert report.valid
    assert report.classification == "strict-sense"


def test_positive_standard_entries():
    g = gen(GeneratorSpec(topology="fig3", kind="standard",
                          ensemble="positive-s-nfg", seed=1))
    for t in g.tensors:
        assert np.all(t.real > 0.0)
        assert np.all(t.real <= 1.0)
        assert np.all(t.imag == 0.0)


def test_cycle_and_tree_shapes():
    c = gen(GeneratorSpec(topology="cycle", n=5, ensemble="psd-random",
                          seed=0))
    assert c.n_nodes == 5 and c.n_edges == 5
    assert not is_forest(c)
    t = gen(GeneratorSpec(topology="tree", n=6, ensemble="psd-random",
                          seed=0))
    assert t.n_nodes == 6 and t.n_edges == 5
    assert is_forest(t)


def test_two_node_cycle_is_parallel_pair():
    g = gen(GeneratorSpec(topology="cycle", n=2, ensemble="psd-random",
                          seed=3))
    assert g.n_nodes == 2 and g.n_edges == 2


def test_unitary_chain_partition_is_one():
    g = gen(GeneratorSpec(topology="unitary-chain", alphabet=3, seed=9))
    z = nfg.partition_exact(g)
    assert z.real == pytest.approx(1.0, rel=1e-10)
    assert abs(z.imag) < 1e-12


def test_kind_ensemble_mismatch():
    with pytest.raises(ValidationError):
        gen(GeneratorSpec(topology="fig3", kind="standard",
                          ensemble="psd-random", seed=0))
    with pytest.raises(ValidationError):
        gen(GeneratorSpec(topology="fig3", kind="double-edge",
                          ensemble="positive-s-nfg", seed=0))


@pytest.mark.parametrize("field", [dict(scale=float("nan")),
                                   dict(scale=float("inf")),
                                   dict(eta=float("nan"),
                                        ensemble="psd-near-identity")])
def test_non_finite_functions_fail_validation(field):
    with pytest.raises(ValidationError, match="non-finite entries"):
        gen(GeneratorSpec(topology="fig3", seed=0, **field))


def test_custom_file_round_trip(tmp_path):
    g = gen(GeneratorSpec(topology="fig3", ensemble="psd-random", seed=4))
    path = tmp_path / "custom.nfg.json"
    nfg.save(g, path)
    g2 = nfg.load(path)
    assert nfg.serialize(g2) == nfg.serialize(g)


def test_scale_factor():
    base = gen(GeneratorSpec(topology="fig3", ensemble="psd-random",
                             seed=11, scale=1.0))
    double = gen(GeneratorSpec(topology="fig3", ensemble="psd-random",
                               seed=11, scale=2.0))
    assert np.allclose(2.0 * base.tensors[0], double.tensors[0])
