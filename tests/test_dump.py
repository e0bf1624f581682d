"""The ``--dump-trials`` helper: its rows against ``csv.writer`` with ``repr``, from the
formatter and from the helper process fed through ``cli._trial_writer``."""

import numpy as np
import pytest

from smartp import _dump, cli, periodontitis_default
from smartp.simtrial import TrialDataset
from helpers import dump_rows_reference

FIELDS = ["1,1,1", "1,0,2", "2,1,3"]
#: values whose repr is easy to get wrong: signs, the signed zero, the smallest subnormal, and
#: the switches to exponent notation at 1e16 and below 1e-4
EDGES = [-2.5, -0.0, 0.0, 5e-324, -5e-324, 1e16, 1e-5, -1e-5, 9999999999999998.0, 0.1, 1 / 3]


def chunks(n: int, reps: int, per_chunk: int, seed: int, n_paths: int = len(FIELDS)):
    """Hand-made chunks of ``per_chunk`` reps of ``n`` rows (the last takes the rest): random
    paths and counts, the EDGES first and then normals at scales from 1e-300 to 1e300."""
    rng = np.random.default_rng(seed)
    rows = n * reps
    ybar = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    ybar[:len(EDGES)] = EDGES[:rows]
    path = rng.integers(0, n_paths, rows)
    units = rng.integers(1, 29, rows)
    for first in range(0, reps, per_chunk):
        part = slice(first * n, min(reps, first + per_chunk) * n)
        yield first, path[part], ybar[part], units[part]


@pytest.mark.parametrize("n, reps, per_chunk", [(1, 7, 3), (3, 10, 4), (197, 5, 2), (1500, 3, 1)],
                         ids=["n1", "n3", "n197", "n1500"])
def test_formatter_writes_the_csv_writer_rows(n, reps, per_chunk):
    """Every chunk, the short last one included, and reps longer than the formatter's piece of
    ``STEP`` rows (n = 1500) give exactly the rows of the ``csv.writer`` reference."""
    for first, path, ybar, units in chunks(n, reps, per_chunk, seed=n):
        got = "".join(_dump.chunk_text(FIELDS, n, first, path.tolist(), ybar.tolist(),
                                       units.tolist()))
        assert got == dump_rows_reference(FIELDS, n, first, path, ybar, units)


def test_helper_process_writes_the_chunks_it_is_sent(tmp_path):
    """The helper started by ``cli._trial_writer``, sent int64 paths and counts as the trials
    make them, writes the header and then every chunk's reference rows."""
    design = periodontitis_default()
    fields = [f"{p.arm + 1},{int(p.responder)},{p.index + 1}" for p in design.paths]
    n, reps, per_chunk, expected = 1100, 5, 2, [_dump.HEADER.decode()]
    out = tmp_path / "trials.csv"
    with cli._outputs(dump_trials=str(out)) as (fh,):
        with cli._trial_writer(fh, design, n) as send:
            for first, path, ybar, units in chunks(n, reps, per_chunk, 5, len(fields)):
                send(first, TrialDataset(path, ybar, units))
                expected.append(dump_rows_reference(fields, n, first, path, ybar, units))
    assert out.read_bytes() == "".join(expected).encode()
