"""Row output of the command-line front end: CSV or JSON, streamed.

Every command that prints rows hands them to ``_emit`` as an iterable, and
they are encoded as they arrive and written in batches.  A float is printed
with 12 significant digits and a tuple of indices as one ``;``-joined cell,
in CSV and JSON alike.  Kept apart from :mod:`.cli` so that each compiles
small: run without bytecode caches, a command's peak memory is set by the
largest module it compiles.  ``cli._emit`` loads it on its first call, so
``verify``, which prints no rows, never does.
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


def _csv_cell(text: str) -> str:
    # quoted where csv.writer quotes, and also around a lone \r, which
    # csv.writer(lineterminator="\n") leaves bare and csv.reader then refuses
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


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
    characters; the rows are written to it as to a file."""

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


def _emit(rows, header: list[str], args) -> None:
    """Write the rows to stdout or ``--out`` as they arrive, in batched writes.

    Nothing is written, and ``--out`` is neither created nor truncated,
    before the first row arrives (or the rows turn out to be none), so a
    command that fails before it leaves no output.  A failure after it
    leaves the rows that arrived first: an incomplete document.  An
    ``--out`` that cannot be opened is a ``ValueError`` naming it.
    """
    rows = iter(rows)
    first = next(rows, None)
    out = sys.stdout
    if args.out is not None:
        try:
            out = open(args.out, "w", encoding="utf-8", newline="")
        except OSError as exc:  # an invalid parameter: exit 1, not a traceback
            raise ValueError(f"--out {args.out}: {exc.strerror or exc}") from exc
    sink = _Batched(out)
    try:
        if args.format == "csv":
            sink.write(",".join(map(_csv_cell, header)) + "\n")
            if first is not None:
                for row in itertools.chain((first,), rows):
                    cells = [_csv_cell(_fmt(row[h])) for h in header]
                    sink.write(",".join(cells) + "\n")
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
