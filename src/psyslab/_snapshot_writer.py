"""Format raw snapshots on stdin as ``snapshots.csv``'s rows on stdout.

``psyslab simulate`` runs ``python -I -S _snapshot_writer.py <n>`` beside
the solver, with the part file it has opened and headed as its stdout,
and feeds it on stdin, so that the solver and the formatting use two
CPUs.  Only ``sys`` and ``array`` are imported: the process needs no
``site`` or ``PYTHON*`` variable, starts in tens of ms, and the pipe
does not fill while it loads numpy.

Input: one record per snapshot, until end of input: t, u_0, v_0, u_1,
v_1, ..., u_{n-1}, v_{n-1} as float64 in native byte order.  The nodes
are x_j = j/n, the same bits as ``PeriodicGrid(n).nodes``.

Each record is written to stdout as it arrives, as the n rows ``t,x,u,v``
with every value to 17 significant digits.  The writer exits 0 at the
end of input.  A truncated record or any other failure exits non-zero
with the reason on stderr, and the caller discards what it wrote.
"""

import sys
from array import array


def row_templates(n: int) -> list:
    """One row template ``,<x>,%.17g,%.17g`` per node x_j = j/n: each x
    is formatted once, for every snapshot."""
    return [",%.17g,%%.17g,%%.17g\n" % (j / n) for j in range(n)]


def snapshot_block(templates: list, record) -> str:
    """The rows ``t,x,u,v`` of one record (t, u_0, v_0, ...): t is
    formatted once and joined in front of every row, and only u and v
    are formatted per row."""
    ts = "%.17g" % record[0]
    return (ts + ts.join(templates)) % tuple(record[1:])


def main(n: int):
    templates = row_templates(n)
    size = 8 * (2 * n + 1)
    while data := sys.stdin.buffer.read(size):
        if len(data) != size:
            raise EOFError(f"a record ended after {len(data)} of "
                           f"{size} bytes")
        record = array("d")
        record.frombytes(data)
        sys.stdout.write(snapshot_block(templates, record))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <n>")
    main(int(sys.argv[1]))
