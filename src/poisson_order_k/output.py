"""Row output of the command-line front end: CSV or JSON, streamed.

Every command that prints rows hands them to ``_emit`` as an iterable, and
they are encoded as they arrive and written in batches.  A float is printed
with 12 significant digits and a tuple of indices as one ``;``-joined cell,
in CSV and JSON alike.  Kept apart from :mod:`.cli` so that each compiles
small: run without bytecode caches, a command's peak memory is set by the
largest module it compiles.
"""

import itertools
import sys


def _joined(indices: tuple) -> str:
    # a tuple of indices is one cell, "0;2", in CSV and JSON alike
    return ";".join(map(str, indices))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return format(x, ".12g")
    if isinstance(x, tuple):
        return _joined(x)
    return str(x)


def _json_value(x):
    if isinstance(x, float):
        # reparse the 12-digit form so JSON and CSV carry identical values
        return float(format(x, ".12g"))
    if isinstance(x, tuple):
        return _joined(x)
    return x


# characters passed on per write: with unbuffered stdout (python -u,
# PYTHONUNBUFFERED) every write is a system call, so rows are not written
# one by one
_BATCH = 1 << 16


class _Batched:
    """A text sink that passes what it is given on in writes of about ``_BATCH``
    characters (``csv.writer`` writes to it as to a file)."""

    __slots__ = ("_out", "_parts", "_size")

    def __init__(self, out) -> None:
        self._out, self._parts, self._size = out, [], 0

    def write(self, text: str) -> None:
        self._parts.append(text)
        self._size += len(text)
        if self._size >= _BATCH:
            self.flush()

    def flush(self) -> None:
        if self._parts:
            text = "".join(self._parts)
            self._parts.clear()
            self._size = 0
            self._out.write(text)


class _Rows:
    """Rows made as they are read, with their number known up front:
    ``perfbench/traced.py`` counts the emitted rows with ``len``."""

    __slots__ = ("_n", "_rows")

    def __init__(self, n: int, rows) -> None:
        self._n, self._rows = n, rows

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(self._rows)


def _emit(rows, header: list[str], args) -> None:
    """Write the rows to stdout or ``--out`` as they arrive, in batched writes.

    Nothing is written, and ``--out`` is neither created nor truncated,
    before the first row arrives (or the rows turn out to be none), so a
    command that fails before it leaves no output.  A failure after it
    leaves the rows that arrived first: an incomplete document.
    """
    rows = iter(rows)
    first = next(rows, None)
    out = sys.stdout
    if args.out is not None:
        out = open(args.out, "w", encoding="utf-8", newline="")
    sink = _Batched(out)
    try:
        if args.format == "csv":
            import csv  # here: verify and --format json never use it

            writer = csv.writer(sink, lineterminator="\n")
            writer.writerow(header)
            if first is not None:
                writer.writerows(
                    [_fmt(row[h]) for h in header]
                    for row in itertools.chain((first,), rows)
                )
        elif first is None:
            sink.write("[]\n")
        else:
            import json  # here: only --format json needs it

            # a flat object in json.dumps(rows, indent=2) is the C encoder's
            # one-line form with these separators, wrapped in its indented braces
            encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
            lead = "[\n  {\n    "
            for row in itertools.chain((first,), rows):
                body = encode({h: _json_value(row[h]) for h in header})
                sink.write(lead + body[1:-1] + "\n  }")
                lead = ",\n  {\n    "
            sink.write("\n]\n")
    finally:
        sink.flush()
        if out is not sys.stdout:
            out.close()
