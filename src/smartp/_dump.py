"""The ``smartp power --dump-trials`` writer, which ``cli`` runs as a helper interpreter
(``python -I -S _dump.py N FIELDS...``) whose standard output is the dump file, so that the
rows are formatted on another core while the trials run.

Standard input carries each chunk of trials that ``mc_power`` hands to ``on_chunk``: ``HEAD``
(first rep, 0-based; row count), then the raw path (int32), observed sub-unit (int32) and Ybar
(float64) columns of its whole reps of N rows.  The rows are the bytes ``csv.writer`` writes,
with ``repr`` for Ybar; FIELDS[p] holds path p's ``arm,R,path``.  The exit status is 0, or the
errno of an OSError.  Standard library only, so it starts without numpy; importing it does
nothing.
"""

import signal
import struct
import sys

HEADER = b"rep,i,arm,R,path,Ybar,n_teeth\r\n"
#: a chunk's first rep (0-based) and its row count, in native byte order; 16 bytes a row follow
HEAD = struct.Struct("=qq")
#: rows formatted per piece of text, so that memory does not grow with N
STEP = 1024


def chunk_text(fields, n, first_rep, path, ybar, units):
    """Yield the CSV rows of a chunk of whole reps of ``n`` rows, the first being rep
    ``first_rep`` (0-based), in pieces of at most ``STEP`` rows."""
    # every field but Ybar is looked up as text, formatted once per chunk
    cells, paths = [f",{i}," for i in range(1, n + 1)], [f"{f}," for f in fields]
    ends = [f",{k}\r\n" for k in range(max(units, default=0) + 1)]
    for top in range(0, len(path), n):
        rep = str(first_rep + 1 + top // n)
        for start in range(0, n, STEP):
            part = slice(top + start, top + min(n, start + STEP))
            yield "".join([f"{rep}{i}{paths[p]}{y!r}{ends[k]}" for i, p, y, k
                           in zip(cells[start:start + STEP], path[part], ybar[part], units[part])])


def main(argv) -> int:
    n, fields = int(argv[1]), argv[2:]
    read = sys.stdin.buffer.read
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # on an interrupt the sender closes the pipe
    try:
        with open(sys.stdout.fileno(), "wb", closefd=False) as out:
            out.write(HEADER)
            while head := read(HEAD.size):
                first_rep, rows = HEAD.unpack(head)
                body = memoryview(read(16 * rows))
                if len(body) < 16 * rows:  # the sender stopped within a chunk
                    return 1
                path, units = body[:4 * rows].cast("i"), body[4 * rows:8 * rows].cast("i")
                ybar = body[8 * rows:].cast("d")
                for text in chunk_text(fields, n, first_rep, path.tolist(), ybar.tolist(),
                                       units.tolist()):
                    out.write(text.encode())
    except OSError as exc:
        return exc.errno or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
