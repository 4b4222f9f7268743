"""Format ``snapshots.csv`` in a process of its own, from raw snapshots.

``psyslab simulate`` runs ``python _snapshot_writer.py <path>`` beside the
solver and feeds it on stdin, so that the solver and the formatting use
two CPUs.  Only the standard library is imported: the process starts in
a few tens of ms, and the pipe does not fill while it loads numpy.

Input, in native byte order:

* the CSV head: its byte length as uint64, then its UTF-8 bytes
  (``preamble`` builds these first two items);
* n as uint64, then the n nodes x_j as float64;
* one record per snapshot, until end of input: t, u_0, v_0, u_1, v_1,
  ..., u_{n-1}, v_{n-1} as float64.

The head is written to ``<path>`` first, then each record as it arrives,
as the n rows ``t,x,u,v`` with every value to 17 significant digits.
The writer exits 0 at the end of input.  A truncated record or any other
failure exits non-zero with the reason on stderr, and the caller
discards ``<path>``.
"""

import struct
import sys
from array import array

_U64 = struct.Struct("=Q")


def preamble(head: str, nodes) -> bytes:
    """The bytes a writer reads before its first record."""
    data = head.encode()
    return (_U64.pack(len(data)) + data + _U64.pack(len(nodes))
            + array("d", nodes).tobytes())


def row_templates(nodes) -> list:
    """One row template ``,<x>,%.17g,%.17g`` per node: each x is
    formatted once, for every snapshot."""
    return [",%s,%%.17g,%%.17g\n" % ("%.17g" % x) for x in nodes]


def snapshot_block(templates: list, record) -> str:
    """The rows ``t,x,u,v`` of one record (t, u_0, v_0, ...): t is
    formatted once and joined in front of every row, and only u and v
    are formatted per row."""
    ts = "%.17g" % record[0]
    return (ts + ts.join(templates)) % tuple(record[1:])


def _read(stream, size: int) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise EOFError(f"input ended after {len(data)} of {size} bytes")
    return data


def main(path: str):
    stream = sys.stdin.buffer
    # open first, so that a path it cannot write fails before any input
    with open(path, "w") as out:
        head = _read(stream, _U64.unpack(_read(stream, _U64.size))[0])
        out.write(head.decode())
        (n,) = _U64.unpack(_read(stream, _U64.size))
        nodes = array("d")
        nodes.frombytes(_read(stream, 8 * n))
        templates = row_templates(nodes)
        size = 8 * (2 * n + 1)
        while data := stream.read(size):
            if len(data) != size:
                raise EOFError(f"a record ended after {len(data)} of "
                               f"{size} bytes")
            record = array("d")
            record.frombytes(data)
            out.write(snapshot_block(templates, record))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} <path>")
    main(sys.argv[1])
