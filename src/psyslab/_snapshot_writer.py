"""Format ``snapshots.csv`` in a process of its own, from raw snapshots.

``psyslab simulate`` runs ``python _snapshot_writer.py <path> <n> <head>``
beside the solver and feeds it on stdin, so that the solver and the
formatting use two CPUs.  Only the standard library is imported: the
process starts in a few tens of ms, and the pipe does not fill while it
loads numpy.

Input: one record per snapshot, until end of input: t, u_0, v_0, u_1,
v_1, ..., u_{n-1}, v_{n-1} as float64 in native byte order.  The nodes
are x_j = j/n, the same bits as ``PeriodicGrid(n).nodes``.

``<head>`` is written to ``<path>`` first, then each record as it
arrives, as the n rows ``t,x,u,v`` with every value to 17 significant
digits.  The writer exits 0 at the end of input.  A truncated record or
any other failure exits non-zero with the reason on stderr, and the
caller discards ``<path>``.
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


def main(path: str, n: int, head: str):
    stream = sys.stdin.buffer
    # open first, so that a path it cannot write fails before any input
    with open(path, "w") as out:
        out.write(head)
        templates = row_templates(n)
        size = 8 * (2 * n + 1)
        while data := stream.read(size):
            if len(data) != size:
                raise EOFError(f"a record ended after {len(data)} of "
                               f"{size} bytes")
            record = array("d")
            record.frombytes(data)
            out.write(snapshot_block(templates, record))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(f"usage: {sys.argv[0]} <path> <n> <head>")
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
