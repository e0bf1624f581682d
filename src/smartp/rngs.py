"""Reproducible RNG substreams and the chunked Monte Carlo rules.

Every stochastic routine in the package draws from an SFC64 generator keyed
by (seed, domain tag, *indices), which feeds numpy's normal sampler faster than
PCG64.  Work split into fixed-size chunks keyed
this way gives results that do not depend on execution order or on how
many workers process the chunks: ``chunk_map`` runs the chunks and hands
back their results in key order.  ``check_redraws`` says when too many
all-missing index rows were dropped, each one a row drawn again by ``moments._index_sweep``.
"""

from __future__ import annotations

import itertools
from collections import deque
from collections.abc import Callable, Iterator

import numpy as np

from .errors import DegenerateMissingnessError

# domain tags keep substream families disjoint
MOMENTS = 101
TRIAL = 102
POWER = 103

#: replicates per chunk for chunked Monte Carlo (fixed, not tunable: results
#: must not depend on it at runtime)
CHUNK = 65536

#: all-missing redraws allowed: this share of the rows, plus REDRAW_SLACK within one batch
MAX_REDRAW_FRACTION = 0.01
REDRAW_SLACK = 50


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *key)."""
    seq = np.random.SeedSequence((int(seed),) + tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(seq))


def chunk_map(run: Callable[[int, int], object], total: int, per_chunk: int, workers: int) -> Iterator:
    """``run(chunk, size)`` over ``total`` items in chunks of ``per_chunk`` (the last takes the
    rest) on ``workers`` threads; results come in chunk order whatever order they finish in.

    With more than one worker, at most ``workers + 1`` chunks are submitted beyond the one
    being yielded, so a slow consumer holds a bounded number of results; the chunks not yet
    started are cancelled when the consumer stops.
    """
    sizes = (min(per_chunk, total - start) for start in range(0, total, per_chunk))
    if workers == 1:
        yield from map(run, itertools.count(), sizes)
        return
    # imported here: a one-worker run skips concurrent.futures and the logging it loads
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending = deque()
        try:
            for chunk, size in enumerate(sizes):
                pending.append(pool.submit(run, chunk, size))
                if len(pending) > workers + 1:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()


def check_redraws(n_redrawn: int, n_rows: int, slack: int = 0) -> None:
    """Raise DegenerateMissingnessError past ``MAX_REDRAW_FRACTION * n_rows + slack`` redraws."""
    if n_redrawn > MAX_REDRAW_FRACTION * n_rows + slack:
        raise DegenerateMissingnessError(
            f"{n_redrawn} all-missing redraws for {n_rows} rows; "
            "the missingness model implies near-total loss"
        )
