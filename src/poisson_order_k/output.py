"""Row output of the command-line front end: CSV or JSON, streamed.

Every command that prints rows hands them to ``_emit`` as an iterable, and
each row is encoded and written as it arrives; the stream does its own
buffering.  A float is printed with 12 significant digits and a tuple of
indices as one ``;``-joined cell, in CSV and JSON alike.
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


def _emit(rows, header: list[str], args) -> None:
    """Write the rows to stdout or ``--out`` as they arrive.

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
    try:
        if args.format == "csv":
            out.write(",".join(map(_csv_cell, header)) + "\n")
            if first is not None:
                for row in itertools.chain((first,), rows):
                    cells = [_csv_cell(_fmt(row[h])) for h in header]
                    out.write(",".join(cells) + "\n")
        elif first is None:
            out.write("[]\n")
        else:
            import json  # here: only --format json needs it

            # a flat object in json.dumps(rows, indent=2) is the C encoder's
            # one-line form with these separators, wrapped in its indented braces
            encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
            lead = "[\n  {\n    "
            for row in itertools.chain((first,), rows):
                body = encode({h: _json_value(row[h]) for h in header})
                out.write(lead + body[1:-1] + "\n  }")
                lead = ",\n  {\n    "
            out.write("\n]\n")
    finally:
        if out is not sys.stdout:
            out.close()
