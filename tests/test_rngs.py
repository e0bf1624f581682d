import concurrent.futures  # the pool's import, loaded before any measurement
import threading
import time
import tracemalloc

import numpy as np
import pytest

from smartp import DegenerateMissingnessError
from smartp.rngs import CHUNK, check_redraws, chunk_map


def test_check_redraws_overall_share():
    check_redraws(10, 1000)
    with pytest.raises(DegenerateMissingnessError, match="11 all-missing redraws for 1000 rows"):
        check_redraws(11, 1000)


@pytest.mark.parametrize("workers", [1, 3])
def test_chunk_map_runs_fixed_chunks_in_order(workers):
    got = list(chunk_map(lambda chunk, size: (chunk, size), 10, 4, workers))
    assert got == [(0, 4), (1, 4), (2, 2)]


@pytest.mark.parametrize("workers", [1, 2])
def test_chunk_map_draws_chunk_sizes_as_it_goes(workers):
    """The first of a million chunks arrives, under tracemalloc, within 1 MB: the chunk sizes are
    drawn as the chunks run, where a list of them held 8 MB of pointers alone before the first
    chunk ran (8.45 MB at one worker)."""
    tracemalloc.start()
    try:
        results = chunk_map(lambda chunk, size: size, CHUNK * 10**6, CHUNK, workers)
        first = next(results)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    results.close()
    assert first == CHUNK and peak <= 1e6


def test_chunk_map_keeps_at_most_workers_plus_one_chunks_ahead():
    """With a slow consumer, two workers start no chunk more than three past the one yielded,
    and give the results of one worker in the same order; when the consumer raises, the chunks
    past that window never run."""
    workers, started, lock = 2, [], threading.Lock()

    def run(chunk, size):
        with lock:
            started.append(chunk)
        return chunk, np.random.default_rng(chunk).standard_normal(size).sum()

    got = []
    for chunk, total in chunk_map(run, 60, 4, workers):
        time.sleep(0.005)  # the pool runs ahead while the consumer waits
        with lock:
            assert max(started) <= chunk + workers + 1
        got.append((chunk, total))
    assert got == list(chunk_map(run, 60, 4, 1)) and len(got) == 15

    started.clear()
    results = chunk_map(run, 60, 4, workers)
    with pytest.raises(RuntimeError, match="consumer failed at chunk 3"):
        for chunk, _ in results:
            if chunk == 3:
                raise RuntimeError("consumer failed at chunk 3")
    results.close()  # what dropping the generator does; it waits for the running chunks
    assert sorted(started) == list(range(max(started) + 1)) and max(started) <= 3 + workers + 1
