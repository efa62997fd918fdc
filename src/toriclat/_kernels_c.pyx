# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of the _kernels_py simulation kernel.

The draw sequences and results must match the pure implementation bit
for bit; tests compare the two backends directly.
"""

from libc.stdlib cimport free, malloc

ctypedef unsigned long long u64

cdef u64 GOLDEN = 0x9E3779B97F4A7C15ULL

MODEL_ONE_PER_CELL = 0
MODEL_UNIFORM_CLUSTER = 1


cdef inline u64 mix64(u64 z) noexcept nogil:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL
    return z ^ (z >> 31)


cdef inline u64 next_u64(u64 *state) noexcept nogil:
    state[0] = state[0] + GOLDEN
    return mix64(state[0])


cdef inline u64 below(u64 *state, u64 n) noexcept nogil:
    # unbiased: reject the low remainder zone, as in rng.SplitMix64.below
    cdef u64 threshold = (0 - n) % n
    cdef u64 v
    while True:
        v = next_u64(state)
        if v >= threshold:
            return v % n


def simulate_trials(int q, cells, block_grid, u64 seed, long long start,
                    long long count, int model, int t=1, int max_record=5):
    """See _kernels_py.simulate_trials."""
    if model != MODEL_ONE_PER_CELL and model != MODEL_UNIFORM_CLUSTER:
        raise ValueError(f"unknown model {model}")
    cdef int ncells = len(cells)
    cdef int nedges = 2 * ncells
    cdef int *pxs = <int *> malloc(ncells * sizeof(int))
    cdef int *pys = <int *> malloc(ncells * sizeof(int))
    cdef int *grid = <int *> malloc(q * q * sizeof(int))
    cdef int *blocks = <int *> malloc(ncells * sizeof(int))
    cdef int *counts = <int *> malloc(q * sizeof(int))
    cdef int *perm = <int *> malloc(nedges * sizeof(int))
    if pxs == NULL or pys == NULL or grid == NULL or blocks == NULL \
            or counts == NULL or perm == NULL:
        free(pxs)
        free(pys)
        free(grid)
        free(blocks)
        free(counts)
        free(perm)
        raise MemoryError()
    cdef long long correctable = 0, trial
    cdef int ax, ay, i, j, tmp, worst
    cdef u64 state
    failing = []
    try:
        for i in range(ncells):
            pxs[i] = cells[i][0]
            pys[i] = cells[i][1]
        for i in range(q * q):
            grid[i] = block_grid[i]
        for trial in range(start, start + count):
            state = mix64(seed ^ mix64(<u64> trial))
            ax = <int> below(&state, q)
            ay = <int> below(&state, q)
            for i in range(ncells):
                blocks[i] = grid[((ay + pys[i]) % q) * q + (ax + pxs[i]) % q]
            for i in range(q):
                counts[i] = 0
            if model == MODEL_ONE_PER_CELL:
                for i in range(ncells):
                    if below(&state, 3):
                        counts[blocks[i]] += 1
            else:
                for i in range(nedges):
                    perm[i] = i
                for i in range(ncells):
                    j = i + <int> below(&state, nedges - i)
                    tmp = perm[i]
                    perm[i] = perm[j]
                    perm[j] = tmp
                    counts[blocks[perm[i] >> 1]] += 1
            worst = 0
            for i in range(q):
                if counts[i] > worst:
                    worst = counts[i]
            if worst <= t:
                correctable += 1
            elif len(failing) < max_record:
                failing.append(trial)
    finally:
        free(pxs)
        free(pys)
        free(grid)
        free(blocks)
        free(counts)
        free(perm)
    return correctable, count - correctable, failing
