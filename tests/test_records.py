"""The record types' contract: validation, immutability, value equality,
repr and slots."""

import pytest

from toriclat.codes import generator_set
from toriclat.distance import distance_report
from toriclat.interleaving import build_interleaver, simulate
from toriclat.lattice import TorusLattice
from toriclat.params import CodeParams, compare, toric_code_params
from toriclat.tessellation import Polyomino, canonical_polyomino, tessellate

LATTICE = TorusLattice(5)


def _stats():
    # uniform-cluster fails often at q = 5, so exemplars are replayed
    return simulate(LATTICE, 200, 3, model="uniform-cluster")


# one maker per record type; each call builds a new, equal value
RECORDS = {
    "TorusLattice": lambda: TorusLattice(5),
    "GeneratorSet": lambda: generator_set(LATTICE),
    "DistanceReport": lambda: distance_report(LATTICE),
    "Polyomino": lambda: canonical_polyomino(LATTICE),
    "Tiling": lambda: tessellate(LATTICE, canonical_polyomino(LATTICE)),
    "InterleaverMap": lambda: build_interleaver(LATTICE),
    "FailureExemplar": lambda: _stats().exemplars[0],
    "SimulationStats": _stats,
    "CodeParams": lambda: toric_code_params(LATTICE),
    "ComparisonRow": lambda: compare(5),
}


@pytest.mark.parametrize("make, message", [
    (lambda: TorusLattice(4), "q must be odd and >= 5, got 4"),
    (lambda: TorusLattice(6), "q must be odd and >= 5, got 6"),
    (lambda: Polyomino(()), "polyomino needs at least one cell"),
    (lambda: Polyomino(((0, 0), (0, 0))), "duplicate cells"),
    (lambda: Polyomino(((1, 1), (1, 2))),
     "cells must be normalized; use Polyomino.from_cells"),
    (lambda: Polyomino(((0, 0), (2, 0), (0, 1))),
     "cells must form one edge-connected component"),
    (lambda: CodeParams("toric", 2, 2, None, 1), "n must exceed k"),
    (lambda: CodeParams("toric", 10, 2, 5, 1), "t=1 inconsistent with d=5"),
], ids=["q4", "q6", "empty", "repeated", "unnormalised", "disconnected",
        "n<=k", "t-vs-d"])
def test_invalid_values_raise_value_error(make, message):
    with pytest.raises(ValueError) as got:
        make()
    assert str(got.value) == message


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    record, twin = RECORDS[name](), RECORDS[name]()
    assert type(record).__name__ == name
    assert record == twin == tuple(twin) and record is not twin
    assert hash(record) == hash(twin)
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(twin, field))
    assert record == twin


def test_repr_names_the_record_and_its_fields():
    assert repr(TorusLattice(5)) == "TorusLattice(q=5)"
    assert repr(toric_code_params(LATTICE)) == \
        "CodeParams(family='toric', n=10, k=2, d=3, t=1)"
    assert repr(canonical_polyomino(LATTICE)) == \
        "Polyomino(cells=((0, 0), (1, 0), (0, 1), (1, 1), (2, 1)))"
    assert repr(distance_report(LATTICE)) == (
        "DistanceReport(q=5, distance=3, achieving_vector=(1, 2), "
        "candidate_weights=(((1, -3), 4),))")
    assert repr(build_interleaver(LATTICE)).startswith(
        "InterleaverMap(lattice=TorusLattice(q=5), shape=Polyomino(cells=")


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_slotted(name):
    record = RECORDS[name]()
    assert vars(type(record))["__slots__"] == ()
    assert not hasattr(record, "__dict__")
