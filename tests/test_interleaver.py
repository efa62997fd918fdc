import json
from math import comb, sqrt

import pytest
from hypothesis import given

from oracles import (PROPERTY, block_grid_by_cover, block_grid_by_labels,
                     odd_q_and_polyomino)
from toriclat.interleaving import (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER,
                                   build_interleaver,
                                   burst_exhaustive_report, cluster_cells,
                                   deinterleave,
                                   double_slot_uncorrectable_exhaustive,
                                   is_correctable, simulate)
from toriclat.lattice import SLOT_LEFT, SLOT_TOP, Edge, TorusLattice
from toriclat.tessellation import (Polyomino, canonical_polyomino, lee_sphere,
                                   tessellate)


def test_stream_placement_q5():
    mapping = build_interleaver(TorusLattice(5))
    stream = mapping.stream_to_edge
    assert stream[0] == Edge(0, 0, SLOT_TOP)
    assert stream[1] == Edge(1, 2, SLOT_TOP)
    assert stream[5] == Edge(0, 0, SLOT_LEFT)
    assert len(stream) == 50
    assert len(set(stream)) == 50


def test_block_anchors_are_the_shape_cells_starting_at_origin():
    mapping = build_interleaver(TorusLattice(7))
    assert mapping.shape.cells[0] == (0, 0)
    assert [mapping.block_grid[y * 7 + x]
            for x, y in mapping.shape.cells] == list(range(7))


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_stream_map_is_a_bijection(q):
    mapping = build_interleaver(TorusLattice(q))
    assert len(set(mapping.stream_to_edge)) == 2 * q * q


@pytest.mark.parametrize("q", [5, 7, 9])
def test_stream_indices_stay_inside_their_block(q):
    mapping = build_interleaver(TorusLattice(q))
    for i, edge in enumerate(mapping.stream_to_edge):
        assert mapping.edge_block(edge) == i // (2 * q)


def test_both_slots_of_a_cell_share_a_block():
    mapping = build_interleaver(TorusLattice(9))
    for x, y in mapping.lattice.cells():
        assert mapping.edge_block(Edge(x, y, SLOT_TOP)) == \
            mapping.edge_block(Edge(x, y, SLOT_LEFT))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_every_cluster_translate_hits_all_blocks_once(q):
    lat = TorusLattice(q)
    mapping = build_interleaver(lat)
    for anchor in lat.cells():
        blocks = [mapping.block_grid[cy * q + cx]
                  for cx, cy in cluster_cells(lat, mapping.shape, anchor)]
        assert sorted(blocks) == list(range(q))


def test_build_rejects_non_fundamental_shapes():
    # (1,2) - (0,0) is a codeword, so these two cells share a coset
    ell = Polyomino.from_cells([(0, 0), (1, 0), (1, 1), (1, 2), (0, 2)])
    with pytest.raises(ValueError, match=r"cells \(0, 0\) and \(1, 2\) lie "
                                         r"in the same coset"):
        build_interleaver(TorusLattice(5), ell)
    tetromino = Polyomino.from_cells([(0, 0), (1, 0), (0, 1), (1, 1)])
    with pytest.raises(ValueError, match="shape has 4 cells"):
        build_interleaver(TorusLattice(5), tetromino)


@pytest.mark.parametrize("q", [*range(5, 42, 2), 301])
def test_block_grid_matches_the_cover_oracle_on_canonical_shapes(q):
    lat = TorusLattice(q)
    assert build_interleaver(lat).block_grid == \
        block_grid_by_cover(lat, canonical_polyomino(lat))


def test_sliced_block_grid_matches_the_label_built_grid_at_large_q():
    lat = TorusLattice(1001)
    shape = canonical_polyomino(lat)
    assert build_interleaver(lat, shape).block_grid == \
        block_grid_by_labels(lat, shape)


@PROPERTY
@given(odd_q_and_polyomino())
def test_block_grid_matches_the_cover_oracle_on_random_shapes(q_and_shape):
    q, shape = q_and_shape
    lat = TorusLattice(q)
    try:
        expected = block_grid_by_cover(lat, shape)
    except ValueError:
        with pytest.raises(ValueError) as got:
            build_interleaver(lat, shape)
        with pytest.raises(ValueError) as tiling:
            tessellate(lat, shape)
        assert str(got.value) == str(tiling.value)
    else:
        assert build_interleaver(lat, shape).block_grid == expected


def test_build_accepts_the_lee_sphere():
    mapping = build_interleaver(TorusLattice(5), lee_sphere())
    assert len(set(mapping.stream_to_edge)) == 50


def test_deinterleave_counts():
    lat = TorusLattice(5)
    mapping = build_interleaver(lat)
    assert deinterleave(mapping, set()) == [0] * 5
    single = {Edge(0, 0, SLOT_TOP)}
    assert deinterleave(mapping, single) == [1, 0, 0, 0, 0]
    cluster = cluster_cells(lat, mapping.shape, (0, 0))
    one_each = {Edge(x, y, SLOT_TOP) for x, y in cluster}
    assert deinterleave(mapping, one_each) == [1] * 5


def test_deinterleave_round_trip_recovers_per_block_counts():
    lat = TorusLattice(5)
    mapping = build_interleaver(lat)
    target = [2, 0, 1, 3, 0]
    errors = set()
    for block, count in enumerate(target):
        base = block * 2 * lat.q
        errors.update(mapping.stream_to_edge[base + i] for i in range(count))
    assert deinterleave(mapping, errors) == target


def test_edges_are_taken_mod_q():
    mapping = build_interleaver(TorusLattice(5))
    for spelt, edge in ((Edge(-1, 0, SLOT_TOP), Edge(4, 0, SLOT_TOP)),
                        (Edge(5, 0, SLOT_TOP), Edge(0, 0, SLOT_TOP)),
                        (Edge(0, 5, SLOT_LEFT), Edge(0, 0, SLOT_LEFT)),
                        (Edge(-6, 13, SLOT_LEFT), Edge(4, 3, SLOT_LEFT))):
        assert mapping.edge_block(spelt) == mapping.edge_block(edge)
        assert deinterleave(mapping, {spelt}) == deinterleave(mapping, {edge})
    assert mapping.edge_block(Edge(-1, 0, SLOT_TOP)) == 4
    assert mapping.edge_block(Edge(5, 0, SLOT_TOP)) == 0
    # two spellings of one edge are one error
    twice = {Edge(4, 0, SLOT_TOP), Edge(-1, 5, SLOT_TOP)}
    assert deinterleave(mapping, twice) == [0, 0, 0, 0, 1]


def test_is_correctable():
    lat = TorusLattice(5)
    mapping = build_interleaver(lat)
    cluster = cluster_cells(lat, mapping.shape, (3, 2))
    one_each = {Edge(x, y, SLOT_TOP) for x, y in cluster}
    ok, offending = is_correctable(mapping, one_each)
    assert ok and offending == []
    doubled = {Edge(2, 2, SLOT_TOP), Edge(2, 2, SLOT_LEFT)}
    ok, offending = is_correctable(mapping, doubled)
    assert not ok
    assert offending == [mapping.edge_block(Edge(2, 2, SLOT_TOP))]
    assert is_correctable(mapping, set())[0]


def test_exhaustive_burst_guarantee_small_q():
    report = burst_exhaustive_report(TorusLattice(5))
    assert report == (25 * 3 ** 5, 0, None)
    with pytest.raises(ValueError):
        burst_exhaustive_report(TorusLattice(11))


def test_negative_control_every_doubled_cell_is_flagged():
    assert double_slot_uncorrectable_exhaustive(TorusLattice(5))


def test_simulate_one_per_cell_never_fails():
    stats = simulate(TorusLattice(5), trials=10_000, seed=31,
                     model=MODEL_ONE_PER_CELL)
    assert stats.failures == 0
    assert stats.correctable == 10_000
    assert stats.exemplars == ()


def test_simulate_uniform_cluster_fails_and_is_frozen_by_seed():
    stats = simulate(TorusLattice(5), trials=2000, seed=42,
                     model=MODEL_UNIFORM_CLUSTER)
    # frozen counts for (q=5, seed=42, trials=2000); about 2^q / C(2q, q)
    # of the draws pick one edge per cell and are correctable
    assert stats.correctable == 248
    assert stats.failures == 1752
    assert [ex.trial for ex in stats.exemplars] == [1, 2, 3, 4, 5]


def test_simulate_uniform_cluster_matches_the_exact_failure_rate():
    # each cell of a fundamental cluster is alone in its block, so a
    # trial is correctable exactly when it errs one edge of every cell
    q, trials = 5, 20_000
    p = 1 - 2 ** q / comb(2 * q, q)
    stats = simulate(TorusLattice(q), trials=trials, seed=20261018,
                     model=MODEL_UNIFORM_CLUSTER)
    assert abs(stats.failures - trials * p) <= 5 * sqrt(trials * p * (1 - p))


def test_simulate_exemplars_replay_to_uncorrectable_clusters():
    lat = TorusLattice(5)
    mapping = build_interleaver(lat)
    stats = simulate(lat, trials=500, seed=7, model=MODEL_UNIFORM_CLUSTER)
    assert stats.failures > 0 and stats.exemplars
    for ex in stats.exemplars:
        cells = cluster_cells(lat, mapping.shape, ex.anchor)
        assert len(ex.errored_edges) == 5
        for edge in ex.errored_edges:
            assert (edge.x, edge.y) in cells
        ok, _ = is_correctable(mapping, set(ex.errored_edges))
        assert not ok


def test_simulate_is_deterministic_and_worker_independent():
    lat = TorusLattice(7)
    runs = [simulate(lat, trials=3000, seed=99, model=MODEL_UNIFORM_CLUSTER)
            for _ in range(3)]
    assert all(r == runs[0] for r in runs[1:])


def test_simulate_validation():
    lat = TorusLattice(5)
    with pytest.raises(ValueError):
        simulate(lat, trials=0, seed=1)
    with pytest.raises(ValueError):
        simulate(lat, trials=10, seed=1, model="bogus")


def test_simulate_stats_roundtrip_shape():
    stats = simulate(TorusLattice(5), trials=5, seed=3)
    payload = {
        "q": stats.q, "model": stats.model, "seed": stats.seed,
        "trials": stats.trials, "correctable": stats.correctable,
        "failures": stats.failures,
    }
    assert json.loads(json.dumps(payload)) == payload
