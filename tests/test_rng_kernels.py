import random

import pytest
from hypothesis import given, strategies as st

import oracles
from oracles import (PROPERTY, block_grid_by_cover, burst_by_enumeration,
                     grid_of, simulate_by_streams, unmix64)
from toriclat import interleaving, kernels
from toriclat.interleaving import (build_interleaver, burst_exhaustive_report,
                                   cluster_cells)
from toriclat.kernels import GOLDEN, M64, SplitMix64, mix64, stream
from toriclat.lattice import TorusLattice


def test_mix64_is_stable():
    # frozen values pin the generator across refactors and backends
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(0x9E3779B97F4A7C15) == 16294208416658607535


def test_splitmix_reference_sequence():
    # the published first three outputs of splitmix64 for seed 0
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_streams_are_reproducible_and_independent():
    a = stream(42, 7)
    b = stream(42, 7)
    c = stream(42, 8)
    seq_a = [a.next_u64() for _ in range(8)]
    assert seq_a == [b.next_u64() for _ in range(8)]
    assert seq_a != [c.next_u64() for _ in range(8)]


def test_below_bounds_and_edge_cases():
    rng = SplitMix64(123)
    for n in (1, 2, 3, 5, 64, 1000):
        for _ in range(50):
            assert 0 <= rng.below(n) < n
    assert all(SplitMix64(i).below(1) == 0 for i in range(20))
    with pytest.raises(ValueError):
        rng.below(0)


def test_negative_seed_masks_like_two_complement():
    assert [stream(-1, 0).next_u64() for _ in range(4)] == \
        [stream(M64, 0).next_u64() for _ in range(4)]


def _interleaver_args(q):
    mapping = build_interleaver(TorusLattice(q))
    return q, mapping.shape.cells, grid_of(mapping)


def test_chunked_runs_reproduce_the_whole_run():
    mapping = build_interleaver(TorusLattice(7))
    model = kernels.MODEL_UNIFORM_CLUSTER
    whole = kernels.simulate_trials(mapping, 9, 0, 1000, model)
    parts = [kernels.simulate_trials(mapping, 9, s, 250, model)
             for s in (0, 250, 500, 750)]
    assert whole[0] == sum(p[0] for p in parts)
    assert whole[1] == sum(p[1] for p in parts)
    assert len(whole[2]) == 5
    assert whole[2] == [i for p in parts for i in p[2]][:5]


def test_the_benchmark_sees_the_kernel_backend_and_its_calls(monkeypatch):
    # benchmark results carry kernels.BACKEND and are compared only when
    # it matches; its tracer times the kernel by patching the module
    # attribute, which a from-import in interleaving would bypass
    assert kernels.BACKEND == "python"
    real = kernels.simulate_trials
    calls = []

    def traced(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("toriclat.kernels.simulate_trials", traced)
    stats = interleaving.simulate(TorusLattice(5), trials=20, seed=1)
    assert len(calls) == 1
    assert stats.correctable + stats.failures == 20


def _burst_by_is_correctable(q, shape, mapping):
    """Reference enumeration through the public API, for cross-checking."""
    from itertools import product

    from toriclat.interleaving import cluster_cells, is_correctable
    from toriclat.lattice import Edge

    cases = failures = 0
    first = None
    for ay in range(q):
        for ax in range(q):
            cells = cluster_cells(mapping.lattice, shape, (ax, ay))
            for pi, pattern in enumerate(product((0, 1, 2), repeat=q)):
                errors = {Edge(c[0], c[1], choice - 1)
                          for c, choice in zip(cells, pattern) if choice}
                ok, _ = is_correctable(mapping, errors)
                if not ok:
                    failures += 1
                    if first is None:
                        first = (ax, ay, pi)
                cases += 1
    return cases, failures, first


def test_burst_kernel_agrees_with_the_public_api_enumeration():
    q = 5
    mapping = build_interleaver(TorusLattice(q))
    reference = _burst_by_is_correctable(q, mapping.shape, mapping)
    assert burst_exhaustive_report(build_interleaver(TorusLattice(q))) == \
        burst_by_enumeration(*_interleaver_args(q)) == reference == \
        (6075, 0, None)


def _corrupted_map(q):
    # the label of shape cell 1 goes to block 0, so every cluster meets
    # block 0 twice: in its cells 0 and 1 at the anchor (0, 0)
    mapping = build_interleaver(TorusLattice(q))
    blocks = list(mapping.blocks)
    blocks[mapping.lattice.labels(mapping.shape.cells[1:2])[0]] = 0
    return mapping._replace(blocks=tuple(blocks))


def _corrupted_grid(q):
    mapping = _corrupted_map(q)
    return mapping.shape.cells, grid_of(mapping)


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_every_anchor_of_the_interleavers_map_meets_each_block_once(q):
    # the fact the kernel's one verdict per map stands for
    mapping = build_interleaver(TorusLattice(q))
    for ay in range(q):
        for ax in range(q):
            assert sorted(oracles.cluster_blocks(mapping, ax, ay)) == \
                list(range(q))


@pytest.mark.parametrize("q", [5, 7])
def test_cluster_blocks_read_the_grid_at_the_translated_cells(q):
    lattice = TorusLattice(q)
    mapping = build_interleaver(lattice)
    _, bad_grid = _corrupted_grid(q)
    shared = []  # per grid, the anchors whose cluster meets a block twice
    for grid, read in ((block_grid_by_cover(lattice, mapping.shape), mapping),
                       (bad_grid, _corrupted_map(q))):
        shared.append(0)
        for ax, ay in lattice.cells():
            blocks = oracles.cluster_blocks(read, ax, ay)
            assert blocks == [grid[y * q + x] for x, y in cluster_cells(
                lattice, mapping.shape, (ax, ay))]
            shared[-1] += sorted(blocks) != list(range(q))
    assert shared[0] == 0 < shared[1]


def test_burst_kernel_agrees_with_the_api_on_a_failing_layout():
    # corrupt the block map so collisions exist, then compare routes
    q = 5
    cells, bad_grid = _corrupted_grid(q)
    broken = _corrupted_map(q)
    reference = _burst_by_is_correctable(q, broken.shape, broken)
    fast = burst_exhaustive_report(broken)
    assert fast == burst_by_enumeration(q, cells, bad_grid) == reference
    assert fast[1] > 0


def test_burst_witness_reports_the_failing_case():
    q = 5
    cases, failures, witness = burst_exhaustive_report(_corrupted_map(q))
    assert cases == 25 * 3 ** 5
    assert failures > 0
    # both cells collide at anchor (0,0); the first failing pattern errs
    # the top edges of cells 0 and 1 only
    assert witness == (0, 0, 3 ** 4 + 3 ** 3)


def test_burst_counts_match_the_enumeration_oracle_at_q7():
    args = _interleaver_args(7)
    assert burst_exhaustive_report(build_interleaver(TorusLattice(7))) == \
        burst_by_enumeration(*args) == (49 * 3 ** 7, 0, None)


@pytest.mark.parametrize("q", range(5, 42, 2))
def test_the_table_count_equals_the_per_anchor_oracle(q):
    # the count reads the table once; the oracle takes a product at each
    # of the q^2 anchors and finds the first failing one in row-major order
    mapping = build_interleaver(TorusLattice(q))
    rng = random.Random(q)
    tables = [mapping.blocks, _corrupted_map(q).blocks]
    for _ in range(4):
        blocks = list(mapping.blocks)
        for _ in range(rng.randint(1, 3)):
            blocks[rng.randrange(q)] = rng.randrange(q)
        tables.append(tuple(blocks))
    reports = []
    for blocks in tables:
        edited = mapping._replace(blocks=blocks)
        reports.append(burst_exhaustive_report(edited))
        assert reports[-1] == oracles.burst_by_anchors(edited)
    assert reports[0] == (q * q * 3 ** q, 0, None)
    assert reports[1][2] == (0, 0, 3 ** (q - 1) + 3 ** (q - 2))
    assert sum(failures > 0 for _, failures, _ in reports) >= 3


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_burst_counts_match_the_oracle_on_corrupted_grids(edits):
    mapping = build_interleaver(TorusLattice(5))
    blocks = list(mapping.blocks)
    for label, block in edits:
        blocks[label] = block
    mapping = mapping._replace(blocks=tuple(blocks))
    assert burst_exhaustive_report(mapping) == \
        burst_by_enumeration(5, mapping.shape.cells, grid_of(mapping))


def test_unmix64_inverts_mix64():
    r = random.Random(13)
    for v in [0, 1, M64] + [r.getrandbits(64) for _ in range(2000)]:
        assert unmix64(mix64(v)) == v
        assert mix64(unmix64(v)) == v


def _seed_drawing(value, trial, d):
    """A seed whose stream for `trial` puts `value` at raw draw d.

    stream(seed, trial) starts from mix64(seed ^ mix64(trial)) and its
    draw d is mix64(start + (d + 1) * GOLDEN).
    """
    return unmix64((unmix64(value) - (d + 1) * GOLDEN) & M64) ^ mix64(trial)


class _KeepEveryDraw(SplitMix64):
    """A stream whose below(n) never rejects: what a kernel that ignored
    rejections would compute."""

    def below(self, n):
        return self.next_u64() % n


def _outcome_without_rejection(monkeypatch, args):
    with monkeypatch.context() as patch:
        patch.setattr(oracles, "stream", lambda seed, index: _KeepEveryDraw(
            mix64((seed & M64) ^ mix64(index))))
        return simulate_by_streams(*args)


# (q, block table, model, draw): the anchor's x; the second Fisher-Yates
# draw; and a cell's choice under one-per-cell, which counts only on a
# table whose clusters meet a block twice.  Each draw decides its
# trial's outcome, which the test checks.
REJECTION_CASES = {
    "anchor": (5, "corrupted", kernels.MODEL_ONE_PER_CELL, 0),
    "fisher-yates": (5, "canonical", kernels.MODEL_UNIFORM_CLUSTER, 3),
    "one-per-cell-cell": (7, "corrupted", kernels.MODEL_ONE_PER_CELL, 5),
}


@pytest.mark.parametrize("case", REJECTION_CASES)
def test_a_rejected_draw_reruns_its_trial_through_the_stream(
        monkeypatch, case):
    # below(n) rejects raw outputs under 2^64 % n, which sampling never
    # meets; a raw 0 is rejected for every n > 1 that is not a power of 2
    q, layout, model, d = REJECTION_CASES[case]
    mapping = (_corrupted_map(q) if layout == "corrupted"
               else build_interleaver(TorusLattice(q)))
    trial = 1000
    seed = _seed_drawing(0, trial, d)
    rng = stream(seed, trial)
    assert [rng.next_u64() for _ in range(d + 1)][d] == 0
    one = (mapping, seed, trial, 1, model, 1, 1)
    assert simulate_by_streams(*one) != \
        _outcome_without_rejection(monkeypatch, one)
    assert kernels.simulate_trials(*one) == simulate_by_streams(*one)
    # the trial in the fourth lane of its block, among ordinary trials
    window = (mapping, seed, trial - 3, 8, model, 1, 8)
    assert kernels.simulate_trials(*window) == simulate_by_streams(*window)


def _cells_drawn(seed, trial, q, steps):
    """The cells of the first `steps` Fisher-Yates draws of a
    uniform-cluster trial on the canonical q-cell shape, through stream."""
    rng = stream(seed, trial)
    rng.below(q), rng.below(q)
    perm = list(range(2 * q))
    for i in range(steps):
        j = i + rng.below(2 * q - i)
        perm[i], perm[j] = perm[j], perm[i]
    return [e >> 1 for e in perm[:steps]]


# at q = 13 the first phase ends after Fisher-Yates step 5, where the
# survival 26/26 * 24/25 * ... * 16/21 first falls to 1/2 or below, so it
# packs draws 0-7: raw draw 8 is step 6, the first draw of the second
# phase, which only the trials whose steps 0-5 drew six distinct cells
# read; raw draw 7 is step 5, which a trial whose steps 0-4 repeat a cell
# never reads, though its lane packs it.  below(20) and below(21) reject
# the 16 raw values under 2^64 % 20 = 2^64 % 21 = 16.  Either way the
# lane leaves the packed lanes and trial_errors judges the trial, as it
# does in the window of ordinary trials around it
PHASE_CASES = {
    "past-the-first-phase": (8, lambda cells: len(set(cells)) == 6),
    "never-read": (7, lambda cells: len(set(cells[:5])) < 5),
}


@pytest.mark.parametrize("case", PHASE_CASES)
def test_a_rejected_value_in_a_phase_row_sends_its_lane_off(monkeypatch,
                                                            case):
    d, wanted = PHASE_CASES[case]
    mapping = build_interleaver(TorusLattice(13))
    model = kernels.MODEL_UNIFORM_CLUSTER
    trial = 1000
    seed = next(seed for seed in (_seed_drawing(v, trial, d)
                                  for v in range(16))
                if wanted(_cells_drawn(seed, trial, 13, 6)))
    one = (mapping, seed, trial, 1, model, 1, 1)
    calls = []
    real = kernels.trial_errors

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "trial_errors", counting)
    assert kernels.simulate_trials(*one) == simulate_by_streams(*one)
    window = (mapping, seed, trial - 3, 8, model, 1, 8)
    assert kernels.simulate_trials(*window) == simulate_by_streams(*window)
    assert calls == [trial, trial]


def test_the_packed_rows_cover_fewer_than_10_draws_per_trial(monkeypatch):
    # each trial's lane is packed only in the phases it is alive at the
    # start of: at q = 13, 8 draws in the first phase and about 1.5 more on
    # average, where packing every draw of every lane covers 15
    covered = []
    real = kernels._unpack

    def counting(packed, lanes):
        covered.append(lanes)
        return real(packed, lanes)

    monkeypatch.setattr(kernels, "_unpack", counting)
    mapping = build_interleaver(TorusLattice(13))
    assert kernels.simulate_trials(mapping, 2026, 0, 100000,
                                   kernels.MODEL_UNIFORM_CLUSTER) == \
        (72, 99928, [0, 1, 2, 3, 4])
    assert sum(covered) / 100000 < 10


@pytest.mark.parametrize("model", [kernels.MODEL_ONE_PER_CELL,
                                   kernels.MODEL_UNIFORM_CLUSTER])
def test_runs_off_the_lanes_pack_no_row(monkeypatch, model):
    # at t = 0, and on a table that repeats a block, every trial goes
    # through trial_errors, so no block packs its draws
    runs = [(build_interleaver(TorusLattice(7)), 11, -3, 300, model, 0, 300),
            (_corrupted_map(7), 11, -3, 300, model, 1, 300)]
    expected = [simulate_by_streams(*args) for args in runs]

    def pack(values):
        raise AssertionError("a run off the lanes packed a row")

    monkeypatch.setattr(kernels, "_pack", pack)
    assert [kernels.simulate_trials(*args) for args in runs] == expected


@pytest.mark.parametrize("d", [0, 1])
def test_a_rejected_anchor_draw_leaves_the_lanes(monkeypatch, d):
    # on a built map a one-per-cell run at t = 1 returns before it draws,
    # and every other uniform-cluster trial is dealt on the lanes, so
    # only the rejected anchor draw sends this one to trial_errors
    mapping = build_interleaver(TorusLattice(5))
    trial = 1000
    seed = _seed_drawing(0, trial, d)
    calls = []
    real = kernels.trial_errors

    def counting(*args):
        calls.append(args[2])
        return real(*args)

    monkeypatch.setattr(kernels, "trial_errors", counting)
    for model in (kernels.MODEL_ONE_PER_CELL, kernels.MODEL_UNIFORM_CLUSTER):
        window = (mapping, seed, trial - 3, 8, model, 1, 8)
        assert kernels.simulate_trials(*window) == \
            simulate_by_streams(*window)
    assert calls == [trial]


@pytest.mark.parametrize("start", [0, 2 ** 64 - 3, -3])
def test_packed_draws_are_the_streams_draws_lane_for_lane(start):
    # a phase packs only its live lanes, in lane order, and may start past
    # draw 0
    for lanes in (list(range(40)), [1, 2, 6, 17, 39]):
        rows, off = kernels._rows(99, start, lanes, range(1, 4), [5] * 4)
        assert off == set()
        for p, k in enumerate(lanes):
            rng = stream(99, start + k)
            assert [row[p] for row in rows] == \
                [rng.next_u64() for _ in range(4)][1:]


@pytest.mark.parametrize("model,t", [
    pytest.param(kernels.MODEL_ONE_PER_CELL, 1, id="one-per-cell"),
    pytest.param(kernels.MODEL_UNIFORM_CLUSTER, 1, id="uniform-cluster"),
    # at t = 0 every trial goes through kernels.trial_errors
    pytest.param(kernels.MODEL_ONE_PER_CELL, 0, id="one-per-cell-t0"),
    pytest.param(kernels.MODEL_UNIFORM_CLUSTER, 0, id="uniform-cluster-t0"),
    # at t = 2 a trial on the built table passes without drawing its
    # cells, and one on the corrupted table goes through trial_errors
    pytest.param(kernels.MODEL_ONE_PER_CELL, 2, id="one-per-cell-t2"),
    pytest.param(kernels.MODEL_UNIFORM_CLUSTER, 2, id="uniform-cluster-t2"),
])
@pytest.mark.parametrize("start,count", [
    (0, 0),
    # two blocks and five trials, starting two before a multiple of LANES
    (kernels.LANES - 2, 2 * kernels.LANES + 5),
    # trial indices are taken mod 2^64, as mix64 masks them: past 2^64
    # and below 0
    (2 ** 64 - 3, 300),
    (-3, 300),
])
def test_the_kernel_matches_the_oracle_across_lane_blocks(model, t, start,
                                                          count):
    # the built table keeps its trials on the lanes, the corrupted one
    # sends every trial through trial_errors
    for mapping in (build_interleaver(TorusLattice(7)), _corrupted_map(7)):
        args = (mapping, 11, start, count, model, t, count)
        assert kernels.simulate_trials(*args) == simulate_by_streams(*args)


def test_max_record_fills_across_a_block_boundary():
    # one-per-cell fails where both cluster cells in block 0 are errored,
    # 4 in 9 trials
    mapping = _corrupted_map(41)
    model = kernels.MODEL_ONE_PER_CELL
    first_block = simulate_by_streams(mapping, 5, 3, kernels.LANES,
                                      model)[1]
    args = (mapping, 5, 3, 2 * kernels.LANES, model, 1, first_block + 2)
    result = kernels.simulate_trials(*args)
    assert result == simulate_by_streams(*args)
    assert len(result[2]) == first_block + 2
    assert result[2][-1] >= 3 + kernels.LANES


# the 72 correctable trials of `simulate --q 13 --trials 100000 --model
# uniform-cluster --seed 2026`, recorded from the one-lane-at-a-time
# kernel this one replaced
CORRECTABLE_Q13_SEED_2026 = (
    3381, 3848, 4829, 6754, 8401, 8499, 9301, 9621, 11202, 11551, 12319,
    14309, 15605, 16966, 18794, 22700, 23878, 25069, 25359, 25941, 30908,
    31146, 32496, 32790, 35945, 42498, 45874, 46374, 47605, 47653, 48450,
    48935, 49146, 49436, 49959, 51701, 52549, 52963, 53714, 54151, 55178,
    58148, 59712, 60657, 64543, 69375, 69917, 71719, 72194, 72867, 74739,
    75297, 77702, 78258, 82197, 84269, 85538, 87172, 88405, 89857, 91034,
    91202, 91527, 93004, 93401, 94042, 95105, 96413, 97532, 97668, 98192,
    99832)


def test_the_benchmark_sized_run_is_pinned_trial_for_trial():
    # the benchmark checks simulate's counts only to 5 sigma, so an exact
    # count is held here
    mapping = build_interleaver(TorusLattice(13))
    model = kernels.MODEL_UNIFORM_CLUSTER
    assert kernels.simulate_trials(mapping, 2026, 0, 100000,
                                   model) == (72, 99928, [0, 1, 2, 3, 4])
    _, _, failing = kernels.simulate_trials(mapping, 2026, 0, 100000,
                                            model, 1, 100000)
    assert tuple(sorted(set(range(100000)) - set(failing))) == \
        CORRECTABLE_Q13_SEED_2026


@st.composite
def kernel_arguments(draw):
    """simulate_trials arguments on a canonical or edited block table."""
    q = draw(st.sampled_from(range(5, 42, 2)))
    mapping = build_interleaver(TorusLattice(q))
    blocks = list(mapping.blocks)
    edits = draw(st.lists(st.tuples(st.integers(0, q - 1),
                                    st.integers(0, q - 1)),
                          max_size=3))
    for label, block in edits:
        blocks[label] = block
    return (mapping._replace(blocks=tuple(blocks)),
            draw(st.integers(0, M64)),
            draw(st.integers(0, 2 ** 40)), draw(st.integers(0, 300)),
            draw(st.sampled_from((kernels.MODEL_ONE_PER_CELL,
                                  kernels.MODEL_UNIFORM_CLUSTER))),
            draw(st.integers(0, 3)), draw(st.sampled_from((0, 1, 5))))


@PROPERTY
@given(kernel_arguments())
def test_pure_kernel_matches_the_stream_oracle(args):
    assert kernels.simulate_trials(*args) == simulate_by_streams(*args)


def test_safe_anchor_skip_keeps_the_failures_of_a_corrupted_grid():
    # every cluster meets block 0 twice, so one-per-cell can fail
    args = (_corrupted_map(7), 3, 0, 2000, kernels.MODEL_ONE_PER_CELL, 1,
            2000)
    result = kernels.simulate_trials(*args)
    assert result[1] > 0
    assert result == simulate_by_streams(*args)


@pytest.mark.parametrize("model,t,count", [
    pytest.param("bogus", 1, 1, id="bogus-1"),
    pytest.param(kernels.MODEL_ONE_PER_CELL, -1, 1, id="one-per-cell--1"),
    pytest.param(kernels.MODEL_UNIFORM_CLUSTER, -1, 1,
                 id="uniform-cluster--1"),
    # a negative count would report a negative number of failures
    pytest.param(kernels.MODEL_ONE_PER_CELL, 1, -1,
                 id="one-per-cell-count--1"),
    pytest.param(kernels.MODEL_UNIFORM_CLUSTER, 1, -1,
                 id="uniform-cluster-count--1"),
])
def test_pure_kernel_rejects_unknown_models_and_negative_t(model, t, count):
    # with t < 0 even an error-free trial would fail, which the early
    # exits do not model
    mapping = build_interleaver(TorusLattice(5))
    with pytest.raises(ValueError):
        kernels.simulate_trials(mapping, 1, 0, count, model, t)


@pytest.mark.parametrize("model", ["bogus", "one_per_cell"])
def test_trial_errors_rejects_unknown_models(model):
    # a near miss of a model name must not draw the other channel
    mapping = build_interleaver(TorusLattice(5))
    with pytest.raises(ValueError) as got:
        kernels.trial_errors(mapping, 1, 0, model)
    assert str(got.value) == f"unknown model {model!r}"


@pytest.mark.parametrize("q", [5, 13, 41])
def test_one_per_cell_never_fails_on_the_canonical_grid(q):
    mapping = build_interleaver(TorusLattice(q))
    assert kernels.simulate_trials(
        mapping, 5, 0, 3000, kernels.MODEL_ONE_PER_CELL) == \
        (3000, 0, [])


@pytest.mark.parametrize("model", [kernels.MODEL_ONE_PER_CELL,
                                   kernels.MODEL_UNIFORM_CLUSTER])
@pytest.mark.parametrize("q", [5, 13, 41])
def test_the_interleavers_own_grid_never_leaves_the_lanes(monkeypatch, q,
                                                          model):
    # the canonical table gives each label its own block, so at t = 1 no
    # trial needs kernels.trial_errors; a verdict that sent them there
    # would keep every result and run ~5x slower.  The verdict is the
    # map's, so no cell's label, hence no anchor's cluster, is looked up
    mapping = build_interleaver(TorusLattice(q))
    expected = kernels.simulate_trials(mapping, 8, 0, 3000, model)
    calls = []
    real = kernels.trial_errors

    def counting(*args):
        calls.append(args)
        return real(*args)

    def per_anchor(*args):
        raise AssertionError("the kernel looked up a cell's label")

    monkeypatch.setattr(kernels, "trial_errors", counting)
    monkeypatch.setattr(TorusLattice, "labels", per_anchor)
    result = kernels.simulate_trials(mapping, 8, 0, 3000, model)
    assert result == expected and sum(result[:2]) == 3000
    assert calls == []

    # where a block's bound (1 under one-per-cell, 2 under uniform-cluster)
    # is <= t no trial can fail, so the run returns its count before it
    # draws, also over trial 1000 whose anchor draw the second seed rejects
    def draw(*args):
        raise AssertionError("a run no trial can fail drew")

    monkeypatch.setattr(kernels, "_pack", draw)
    monkeypatch.setattr(kernels, "trial_errors", draw)
    bound = 1 if model == kernels.MODEL_ONE_PER_CELL else 2
    for t in (bound, bound + 1):
        for count in (1, 2 * kernels.LANES + 5):
            for start in (0, -3, 2 ** 64 - 3):
                for seed in (8, _seed_drawing(0, 1000, 0)):
                    assert kernels.simulate_trials(
                        mapping, seed, start, count, model, t) == \
                        (count, 0, [])
