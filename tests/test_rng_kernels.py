import pytest
from hypothesis import given, strategies as st

from oracles import PROPERTY, burst_by_enumeration, simulate_by_streams
from toriclat import interleaving, kernels
from toriclat.interleaving import (build_interleaver, burst_exhaustive_report,
                                   burst_pattern_counts)
from toriclat.lattice import TorusLattice
from toriclat.rng import M64, SplitMix64, mix64, stream


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
    return q, mapping.shape.cells, mapping.block_grid


def test_chunked_runs_reproduce_the_whole_run():
    q, cells, grid = _interleaver_args(7)
    model = kernels.MODEL_UNIFORM_CLUSTER
    whole = kernels.simulate_trials(q, cells, grid, 9, 0, 1000, model)
    parts = [kernels.simulate_trials(q, cells, grid, 9, s, 250, model)
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
    assert burst_exhaustive_report(TorusLattice(q)) == \
        burst_by_enumeration(*_interleaver_args(q)) == reference == \
        (6075, 0, None)


def _corrupted_grid(q):
    # relabel so two different cells of the cluster at (0,0) share block 0
    q, cells, grid = _interleaver_args(q)
    bad_grid = list(grid)
    bad_grid[cells[1][1] * q + cells[1][0]] = \
        bad_grid[cells[0][1] * q + cells[0][0]]
    return cells, bad_grid


def test_burst_kernel_agrees_with_the_api_on_a_failing_layout():
    # corrupt the block map so collisions exist, then compare routes
    q = 5
    cells, bad_grid = _corrupted_grid(q)
    mapping = build_interleaver(TorusLattice(q))
    broken = mapping._replace(block_grid=tuple(bad_grid))
    reference = _burst_by_is_correctable(q, broken.shape, broken)
    fast = burst_pattern_counts(q, cells, bad_grid)
    assert fast == burst_by_enumeration(q, cells, bad_grid) == reference
    assert fast[1] > 0


def test_burst_witness_reports_the_failing_case():
    q = 5
    cells, bad_grid = _corrupted_grid(q)
    cases, failures, witness = burst_pattern_counts(q, cells, bad_grid)
    assert cases == 25 * 3 ** 5
    assert failures > 0
    # both cells collide at anchor (0,0); the first failing pattern errs
    # the top edges of cells 0 and 1 only
    assert witness == (0, 0, 3 ** 4 + 3 ** 3)


def test_burst_counts_match_the_enumeration_oracle_at_q7():
    args = _interleaver_args(7)
    assert burst_exhaustive_report(TorusLattice(7)) == \
        burst_by_enumeration(*args) == (49 * 3 ** 7, 0, None)


@PROPERTY
@given(st.lists(st.tuples(st.integers(0, 24), st.integers(0, 4)),
                min_size=1, max_size=4))
def test_burst_counts_match_the_oracle_on_corrupted_grids(edits):
    q, cells, grid = _interleaver_args(5)
    grid = list(grid)
    for index, block in edits:
        grid[index] = block
    assert burst_pattern_counts(q, cells, grid) == \
        burst_by_enumeration(q, cells, grid)


def test_redraw_steps_past_rejected_outputs_like_below():
    # the kernel's rejection path, which real thresholds (2^64 % n < n)
    # make too rare to reach by sampling: half the outputs fall under 2^63
    floor = 1 << 63
    for state in range(50):
        rng = SplitMix64(state)
        v = rng.next_u64()
        while v < floor:
            v = rng.next_u64()
        after, z = kernels._redraw(state, floor)
        assert z == v
        assert SplitMix64(after).next_u64() == rng.next_u64()


@st.composite
def kernel_arguments(draw):
    """simulate_trials arguments on a canonical or edited block grid."""
    q, cells, grid = _interleaver_args(draw(st.sampled_from(range(5, 42, 2))))
    grid = list(grid)
    edits = draw(st.lists(st.tuples(st.integers(0, q * q - 1),
                                    st.integers(0, q - 1)),
                          max_size=3 * q))
    for index, block in edits:
        grid[index] = block
    return (q, cells, grid, draw(st.integers(0, M64)),
            draw(st.integers(0, 2 ** 40)), draw(st.integers(0, 300)),
            draw(st.sampled_from((kernels.MODEL_ONE_PER_CELL,
                                  kernels.MODEL_UNIFORM_CLUSTER))),
            draw(st.integers(0, 3)), draw(st.sampled_from((0, 1, 5))))


@PROPERTY
@given(kernel_arguments())
def test_pure_kernel_matches_the_stream_oracle(args):
    assert kernels.simulate_trials(*args) == simulate_by_streams(*args)


def test_safe_anchor_skip_keeps_the_failures_of_a_corrupted_grid():
    # the cluster at (0, 0) meets one block twice, so one-per-cell can fail
    q = 7
    cells, bad_grid = _corrupted_grid(q)
    args = (q, cells, bad_grid, 3, 0, 2000, kernels.MODEL_ONE_PER_CELL, 1,
            2000)
    result = kernels.simulate_trials(*args)
    assert result[1] > 0
    assert result == simulate_by_streams(*args)


@pytest.mark.parametrize("model,t", [
    ("bogus", 1), (kernels.MODEL_ONE_PER_CELL, -1),
    (kernels.MODEL_UNIFORM_CLUSTER, -1)])
def test_pure_kernel_rejects_unknown_models_and_negative_t(model, t):
    # with t < 0 even an error-free trial would fail, which the early
    # exits do not model
    q, cells, grid = _interleaver_args(5)
    with pytest.raises(ValueError):
        kernels.simulate_trials(q, cells, grid, 1, 0, 1, model, t)


@pytest.mark.parametrize("q", [5, 13, 41])
def test_one_per_cell_never_fails_on_the_canonical_grid(q):
    q, cells, grid = _interleaver_args(q)
    assert kernels.simulate_trials(
        q, cells, grid, 5, 0, 3000, kernels.MODEL_ONE_PER_CELL) == \
        (3000, 0, [])
