import pytest

from smartp import DegenerateMissingnessError
from smartp.rngs import check_redraws, chunk_map


def test_check_redraws_overall_share():
    check_redraws(10, 1000)
    with pytest.raises(DegenerateMissingnessError, match="11 all-missing redraws for 1000 rows"):
        check_redraws(11, 1000)


@pytest.mark.parametrize("workers", [1, 3])
def test_chunk_map_runs_fixed_chunks_in_order(workers):
    got = list(chunk_map(lambda chunk, size: (chunk, size), 10, 4, workers))
    assert got == [(0, 4), (1, 4), (2, 2)]
