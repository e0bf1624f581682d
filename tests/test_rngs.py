import numpy as np
import pytest

from smartp import DegenerateMissingnessError
from smartp.rngs import check_redraws, chunk_map, redraw_all_missing


def test_redraw_sees_rounds_and_only_the_empty_rows():
    counts = np.array([0, 3, 0, 2, 0])
    seen = []

    def draw(round_no, rows):
        seen.append((round_no, rows.tolist()))
        # row 2 stays empty once more; the others fill
        return np.where(rows == 2, 0 if round_no == 1 else 4, 1)

    assert redraw_all_missing(counts, draw) == 4
    assert seen == [(1, [0, 2, 4]), (2, [2])]
    assert counts.tolist() == [1, 3, 4, 2, 1]


def test_redraw_without_empty_rows_never_draws():
    def draw(round_no, rows):
        raise AssertionError("nothing to redraw")

    assert redraw_all_missing(np.array([1, 2]), draw) == 0


def test_redraw_raises_at_the_first_round_past_the_limit():
    """1% of 1000 rows plus 50 allows 60 redraws: a row that never fills passes round 60 and
    is refused in round 61, before its 61st draw."""
    rounds = []

    def draw(round_no, rows):
        rounds.append(round_no)
        return np.zeros(rows.size, dtype=int)

    counts = np.ones(1000, dtype=int)
    counts[7] = 0
    with pytest.raises(DegenerateMissingnessError, match="61 all-missing redraws for 1000 rows"):
        redraw_all_missing(counts, draw)
    assert rounds == list(range(1, 61))


def test_check_redraws_overall_share():
    check_redraws(10, 1000)
    with pytest.raises(DegenerateMissingnessError, match="11 all-missing redraws for 1000 rows"):
        check_redraws(11, 1000)


@pytest.mark.parametrize("workers", [1, 3])
def test_chunk_map_runs_fixed_chunks_in_order(workers):
    got = list(chunk_map(lambda chunk, size: (chunk, size), 10, 4, workers))
    assert got == [(0, 4), (1, 4), (2, 2)]
