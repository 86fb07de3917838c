"""The records and value types keep the semantics of frozen records:
immutable, equal and hashed by value, no tuple behaviour on a matrix or a
module, and only curves serialized by the CLI."""

import copy
import pickle

import pytest

from semistable_lab import cli
from semistable_lab.curves import (SingularCurveError, WeierstrassCurve,
                                   local_data)
from semistable_lab.galois import build_rep
from semistable_lab.padic import Lattice, PadicContext, PadicMatrix
from semistable_lab.polynomials import GF
from semistable_lab.quadratic import QuadForm, controlled_two_extension
from semistable_lab.ramification import RamFiltration


def _lattice():
    ctx = PadicContext(3, 2)
    return Lattice.from_generators(ctx, 3, [(1, 3, 0), (0, 1, 1), (1, 4, 1)])


def _matrix():
    return PadicMatrix.from_rows(PadicContext(5, 3), [[1, 2], [3, 4]])


# each builder makes a fresh value on every call, equal to the last one
BUILDERS = {
    "WeierstrassCurve": lambda: WeierstrassCurve(1, -1, 1, -1, -14),
    "PadicContext": lambda: PadicContext(3, 5),
    "PadicMatrix": _matrix,
    "Lattice": _lattice,
    "GF": lambda: GF(5, (2, 0, 1)),
    "QuadForm": lambda: QuadForm(2, 1, 3),
    "RamFiltration": lambda: RamFiltration((12, 6, 2, 1, 1), "tag"),
    "GaloisRep": lambda: build_rep(3, 2, 3, 5),
    "ControlledExtensionReport": lambda: controlled_two_extension(41),
}
# attributes of each, derived ones included
ATTRIBUTES = {
    "WeierstrassCurve": ("a1", "a6"),
    "PadicContext": ("ell", "modulus"),
    "PadicMatrix": ("ctx", "rows"),
    "Lattice": ("basis", "pivots"),
    "GF": ("p", "ring"),
    "QuadForm": ("a", "c"),
    "RamFiltration": ("orders", "sums"),
    "GaloisRep": ("omega", "tau"),
    "ControlledExtensionReport": ("h", "dihedral"),
}


@pytest.mark.parametrize("name", BUILDERS)
class TestRecordSemantics:
    def test_attributes_cannot_be_assigned(self, name):
        value = BUILDERS[name]()
        for attr in (*ATTRIBUTES[name], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, attr, 0)
        for attr in ATTRIBUTES[name]:
            with pytest.raises(AttributeError):
                delattr(value, attr)
        assert not hasattr(value, "extra")
        assert BUILDERS[name]() == value

    def test_equal_values_compare_and_hash_alike(self, name):
        a, b = BUILDERS[name](), BUILDERS[name]()
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)

    def test_copies_are_equal(self, name):
        value = BUILDERS[name]()
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("name", ["PadicMatrix", "Lattice"])
def test_matrix_and_module_are_not_tuples(name):
    value = BUILDERS[name]()
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        value + value


def test_replace_runs_the_checks():
    """`_replace` of a checked record builds through the constructor."""
    curve = BUILDERS["WeierstrassCurve"]()
    assert curve._replace(a6=-13) == WeierstrassCurve(1, -1, 1, -1, -13)
    with pytest.raises(SingularCurveError):
        WeierstrassCurve(0, 0, 0, 0, 1)._replace(a6=0)
    with pytest.raises(ValueError, match="positive definite"):
        BUILDERS["QuadForm"]()._replace(a=0)


def test_jsonable_refuses_records_other_than_curves():
    curve = BUILDERS["WeierstrassCurve"]()
    assert cli._jsonable({"curve": curve}) == {"curve": [1, -1, 1, -1, -14]}
    with pytest.raises(TypeError, match="LocalData"):
        cli._jsonable({"local": [local_data(curve, 17)]})
    with pytest.raises(TypeError, match="ControlledExtensionReport"):
        cli._jsonable(BUILDERS["ControlledExtensionReport"]())
