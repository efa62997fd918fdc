import json
from math import comb, sqrt

import pytest
from hypothesis import given

from oracles import (PROPERTY, block_grid_by_cover, block_grid_by_labels,
                     edge_block, grid_of, odd_q_and_polyomino)
from toriclat import interleaving, kernels
from toriclat.commands.interleave import _map_json
from toriclat.interleaving import (MODEL_ONE_PER_CELL, MODEL_UNIFORM_CLUSTER,
                                   build_interleaver, burst_exhaustive_report,
                                   cluster_cells, deinterleave,
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
    assert [grid_of(mapping)[y * 7 + x]
            for x, y in mapping.shape.cells] == list(range(7))


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_stream_map_is_a_bijection(q):
    mapping = build_interleaver(TorusLattice(q))
    assert len(set(mapping.stream_to_edge)) == 2 * q * q


@pytest.mark.parametrize("q", [5, 7, 9])
def test_stream_indices_stay_inside_their_block(q):
    mapping = build_interleaver(TorusLattice(q))
    for i, edge in enumerate(mapping.stream_to_edge):
        assert edge_block(mapping, edge) == i // (2 * q)


def test_both_slots_of_a_cell_share_a_block():
    mapping = build_interleaver(TorusLattice(9))
    for x, y in mapping.lattice.cells():
        assert edge_block(mapping, Edge(x, y, SLOT_TOP)) == \
            edge_block(mapping, Edge(x, y, SLOT_LEFT))


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13])
def test_every_cluster_translate_hits_all_blocks_once(q):
    lat = TorusLattice(q)
    mapping = build_interleaver(lat)
    grid = grid_of(mapping)
    for anchor in lat.cells():
        blocks = [grid[cy * q + cx]
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


def _assert_the_table_gives_each_shape_cell_its_label(mapping):
    # the map keeps q entries, a permutation of the blocks, and the label
    # (y - g*x) mod q of shape cell b is block b's entry
    q, g = mapping.lattice.q, mapping.lattice.g
    assert sorted(mapping.blocks) == list(range(q))
    assert [mapping.blocks[(y - g * x) % q]
            for x, y in mapping.shape.cells] == list(range(q))


@pytest.mark.parametrize("q", [*range(5, 62, 2), 301])
def test_block_grid_matches_the_cover_oracle_on_canonical_shapes(q):
    lat = TorusLattice(q)
    mapping = build_interleaver(lat)
    assert grid_of(mapping) == \
        block_grid_by_cover(lat, canonical_polyomino(lat))
    _assert_the_table_gives_each_shape_cell_its_label(mapping)


def test_sliced_block_grid_matches_the_label_built_grid_at_large_q():
    lat = TorusLattice(1001)
    shape = canonical_polyomino(lat)
    assert grid_of(build_interleaver(lat, shape)) == \
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
        mapping = build_interleaver(lat, shape)
        assert grid_of(mapping) == expected
        _assert_the_table_gives_each_shape_cell_its_label(mapping)
        _assert_runs_follow_the_coset_label(mapping)


def _assert_runs_follow_the_coset_label(mapping):
    q, g = mapping.lattice.q, mapping.lattice.g
    runs = list(mapping.runs())
    assert len(runs) == 2 * q
    assert [first for first, _, _, _ in runs] == list(range(0, 2 * q * q, q))
    assert [slot for _, slot, _, _ in runs] == [SLOT_TOP, SLOT_LEFT] * q
    covered = []
    for (bx, by), top, left in zip(mapping.shape.cells, runs[::2], runs[1::2]):
        assert top[2:] == left[2:]
        block = list(zip(*top[2:], strict=True))
        assert block == [((bx + k) % q, (by + k * g) % q) for k in range(q)]
        assert {(y - g * x) % q for x, y in block} == {(by - g * bx) % q}
        covered += block
    assert sorted(covered) == sorted(mapping.lattice.cells())


@pytest.mark.parametrize("q", range(5, 62, 2))
def test_block_columns_follow_the_coset_label(q):
    # each block's x and y columns, as its two runs carry them
    # q = 9, 15, ...: g = q - 3 is then not invertible mod q
    _assert_runs_follow_the_coset_label(build_interleaver(TorusLattice(q)))


def _assert_the_tiling_and_the_map_are_one_coset_layout(lat, shape):
    # tessellate's rows and the runs' strided slices lay out the same
    # cosets: stream position i sits on the cell of translate i % q, and
    # its block i // 2q is the block of the cell's label
    q = lat.q
    anchors = tessellate(lat, shape).cell_to_anchor
    mapping = build_interleaver(lat, shape)
    stream = mapping.stream_to_edge
    assert [anchors[y * q + x] for x, y, _ in stream] == \
        [i % q for i in range(2 * q * q)]
    assert [mapping.blocks[label]
            for label in lat.labels((x, y) for x, y, _ in stream)] == \
        [i // (2 * q) for i in range(2 * q * q)]


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_tiling_and_map_are_one_coset_layout_on_canonical_shapes(q):
    lat = TorusLattice(q)
    _assert_the_tiling_and_the_map_are_one_coset_layout(
        lat, canonical_polyomino(lat))


def test_tiling_and_map_are_one_coset_layout_on_the_lee_sphere():
    _assert_the_tiling_and_the_map_are_one_coset_layout(
        TorusLattice(5), lee_sphere())


@PROPERTY
@given(odd_q_and_polyomino(fundamental=True))
def test_tiling_and_map_are_one_coset_layout_on_random_shapes(q_and_shape):
    q, shape = q_and_shape
    _assert_the_tiling_and_the_map_are_one_coset_layout(TorusLattice(q),
                                                        shape)


def test_build_accepts_the_lee_sphere():
    # a shape that is not canonical: its first cell is not the origin
    mapping = build_interleaver(TorusLattice(5), lee_sphere())
    assert len(set(mapping.stream_to_edge)) == 50
    assert mapping.shape.cells[0] != (0, 0)
    _assert_runs_follow_the_coset_label(mapping)
    edges = [Edge((bx + k) % 5, (by + 2 * k) % 5, slot)
             for bx, by in mapping.shape.cells
             for slot in (SLOT_TOP, SLOT_LEFT) for k in range(5)]
    assert mapping.stream_to_edge == tuple(edges)
    payload = {"q": 5, "map": [[i, *edge] for i, edge in enumerate(edges)]}
    assert _map_json(mapping) == json.dumps(payload, indent=2) + "\n"


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
        assert edge_block(mapping, spelt) == edge_block(mapping, edge)
        assert deinterleave(mapping, {spelt}) == deinterleave(mapping, {edge})
    assert edge_block(mapping, Edge(-1, 0, SLOT_TOP)) == 4
    assert edge_block(mapping, Edge(5, 0, SLOT_TOP)) == 0
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
    assert offending == [edge_block(mapping, Edge(2, 2, SLOT_TOP))]
    assert is_correctable(mapping, set())[0]


def test_exhaustive_burst_guarantee_small_q():
    # the count is one product over the map's q-entry table, so no q is too
    # large for it; a loop over the q^2 anchors would not finish q = 1001
    for q in (*range(5, 42, 2), 101, 1001):
        assert burst_exhaustive_report(build_interleaver(TorusLattice(q))) \
            == (q * q * 3 ** q, 0, None)


def test_negative_control_every_doubled_cell_is_flagged(monkeypatch):
    # one verdict per torus cell: a cell's verdict does not depend on the
    # anchor whose cluster holds it
    calls = []
    real = interleaving.is_correctable

    def counting(mapping, errors, t=1):
        calls.append(frozenset(errors))
        return real(mapping, errors, t)

    monkeypatch.setattr(interleaving, "is_correctable", counting)
    assert double_slot_uncorrectable_exhaustive(
        build_interleaver(TorusLattice(5)))
    assert calls == [frozenset({Edge(x, y, SLOT_TOP), Edge(x, y, SLOT_LEFT)})
                     for x, y in TorusLattice(5).cells()]


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


# the exemplars of `simulate --q 13 --trials 100000 --model
# uniform-cluster --seed 2026`, each (trial, anchor, errored edges as
# (x, y, slot)), recorded from the replay that drew exemplars before
# kernels.trial_errors did
EXEMPLARS_Q13_SEED_2026 = (
    (0, (7, 12), ((10, 12, 1), (11, 12, 0), (8, 12, 0), (7, 1, 1),
                  (7, 12, 0), (11, 12, 1), (10, 1, 1), (8, 0, 1), (7, 1, 0),
                  (7, 0, 0), (9, 12, 0), (9, 1, 1), (8, 1, 0))),
    (1, (5, 10), ((7, 10, 1), (6, 10, 0), (7, 12, 1), (5, 10, 0),
                  (9, 10, 0), (9, 10, 1), (6, 11, 1), (8, 10, 1), (6, 12, 1),
                  (8, 12, 1), (8, 11, 0), (8, 11, 1), (5, 11, 0))),
    (2, (4, 9), ((5, 11, 1), (5, 9, 1), (8, 9, 1), (5, 10, 0), (6, 9, 1),
                 (4, 9, 1), (6, 10, 1), (5, 10, 1), (5, 9, 0), (7, 11, 1),
                 (4, 9, 0), (4, 11, 1), (4, 11, 0))),
    (3, (5, 10), ((8, 11, 0), (5, 10, 0), (5, 10, 1), (6, 11, 0),
                  (8, 12, 0), (6, 11, 1), (7, 12, 1), (8, 10, 1), (7, 11, 0),
                  (7, 10, 0), (5, 11, 0), (7, 10, 1), (9, 10, 1))),
    (4, (7, 12), ((7, 12, 0), (10, 0, 0), (7, 0, 0), (9, 12, 0), (10, 1, 0),
                  (9, 0, 1), (9, 1, 0), (8, 12, 1), (10, 12, 0), (7, 12, 1),
                  (10, 0, 1), (11, 12, 0), (8, 0, 0))),
)


def test_the_benchmark_sized_run_pins_its_exemplars_edge_for_edge():
    stats = simulate(TorusLattice(13), 100000, seed=2026,
                     model=MODEL_UNIFORM_CLUSTER)
    assert stats.exemplars == tuple(
        (trial, anchor, tuple(Edge(*edge) for edge in edges))
        for trial, anchor, edges in EXEMPLARS_Q13_SEED_2026)


# kernels.trial_errors on the q = 7 canonical shape: (model, seed, trial,
# anchor, (cell index, slot) hits), recorded from the same replay; under
# one-per-cell choice 1 erred the top edge and choice 2 the left edge.
# A hit (i, slot) is edge slot of cell i of the anchored cluster.
TRIAL_ERRORS_Q7 = (
    (MODEL_ONE_PER_CELL, 0, 0, (2, 1),
     [(0, 0), (1, 0), (2, 0), (4, 1), (5, 1), (6, 1)]),
    (MODEL_ONE_PER_CELL, 2026, 17, (5, 6),
     [(1, 1), (2, 0), (4, 1), (5, 0), (6, 1)]),
    (MODEL_ONE_PER_CELL, 2 ** 64 - 1, 2 ** 64 - 1, (5, 3),
     [(0, 0), (2, 1), (4, 1), (5, 1), (6, 1)]),
    (MODEL_ONE_PER_CELL, 5, 123456, (2, 2),
     [(0, 0), (1, 1), (2, 0), (3, 1), (5, 1), (6, 1)]),
    (MODEL_UNIFORM_CLUSTER, 0, 0, (2, 1),
     [(4, 1), (6, 1), (0, 0), (3, 1), (1, 1), (0, 1), (1, 0)]),
    (MODEL_UNIFORM_CLUSTER, 2026, 17, (5, 6),
     [(1, 0), (2, 0), (1, 1), (5, 0), (5, 1), (4, 1), (6, 0)]),
    (MODEL_UNIFORM_CLUSTER, 2 ** 64 - 1, 2 ** 64 - 1, (5, 3),
     [(1, 1), (3, 1), (6, 1), (6, 0), (5, 1), (5, 0), (2, 0)]),
    (MODEL_UNIFORM_CLUSTER, 5, 123456, (2, 2),
     [(0, 1), (3, 1), (3, 0), (1, 0), (4, 1), (6, 1), (5, 1)]),
)


@pytest.mark.parametrize("case", range(len(TRIAL_ERRORS_Q7)))
def test_trial_errors_are_pinned_for_both_models(case):
    model, seed, trial, anchor, hits = TRIAL_ERRORS_Q7[case]
    lattice = TorusLattice(7)
    mapping = build_interleaver(lattice)
    cells = cluster_cells(lattice, mapping.shape, anchor)
    assert kernels.trial_errors(mapping, seed, trial, model) == \
        (anchor, tuple(Edge(*cells[i], slot) for i, slot in hits))


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
