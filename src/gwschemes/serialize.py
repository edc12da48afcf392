"""Scheme files and the JSON and CSV forms of scalar tables.

A scheme file is JSON: version, point count, class labels, the label matrix
rows run-length encoded as [label_index, count, label_index, count, ...], and
an optional provenance record describing how the scheme was built.  Loading
re-verifies the axioms from scratch, so a loaded AssociationScheme is as
trustworthy as a freshly constructed one.  The writer emits exactly the text
json.dumps gives for the record, built from numpy blocks of rows: each number
of a block is copied with its separator text from a table of NUL-padded
slots one machine word wide, and the padding is dropped in one pass.

A file is read by one of two readers.  The canonical reader takes every file
that is the text json.dumps gives for the record it decodes to, runs of any
length and the final newline optional.  It reads the rows block by block from
the file's bytes in numpy, without decoding them as JSON or encoding them
back: the separators tile the rows text, every separator byte is checked,
every number is digits without a leading zero, and no number is wider than
the largest the file may hold, so what it takes is json.dumps text (see
_read_canonical).  Every other file, such as a pretty-printed, reordered,
hand-edited or malformed one, goes to the json reader, which parses the whole
record and checks it one row at a time (_read_json).  Both pass the same
integers, in row order, to the same header and row checks, which word every
input error, so the two agree.  Both decode into the compact label dtype the
scheme stores (see schemes); the file bytes do not depend on it.

The tables print each scalar in the text form of algebra.scalar_to_str.
A bgw or gh provenance record is parsed by designs.provenance_parameters.
"""
from __future__ import annotations

import csv
import io
import json

import numpy as np

from .algebra import CycField, CycScalar, scalar_to_str
from .builders import bgw_automorphisms, gh_automorphisms
from . import designs
from .errors import InputError, SymmetryObstruction
from .schemes import AssociationScheme, check_labels, label_dtype, row_blocks

FILE_VERSION = 1


_ROWS = b', "rows": [['  # from the header to the first run
_PROVENANCE = b', "provenance": '
_CLOSE, _COMMA, _SPACE, _OPEN = b"], ["  # the bytes of the separator of two rows
_ZERO = ord("0")
_PAIR = int.from_bytes(b", ", "little")
_SCAN = 1 << 20  # bytes of rows text per numpy step of the canonical reader's "]" scan


def _head(v: int, labels) -> bytes:
    """The text of a scheme file up to its first run."""
    header = {"version": FILE_VERSION, "v": v, "labels": list(labels)}
    return json.dumps(header)[:-1].encode() + _ROWS


def _tail(provenance: dict | None) -> bytes:
    """The text of a scheme file after the "]]" that closes its rows, without
    the final newline."""
    if provenance is None:
        return b"}"
    return _PROVENANCE + json.dumps(provenance).encode() + b"}"


def _slot(top: int) -> int:
    """The slot width in bytes, 4, 8, 16, ..., of the run text of numbers up
    to top for _rows_text: a number of d digits takes d + 3 bytes with its
    separator text, so 4 bytes hold one digit and 8 bytes five."""
    width = 4
    while 10 ** (width - 3) <= top:
        width *= 2
    return width


def _text_table(n: int, width: int) -> np.ndarray:
    """The run text of the numbers 0..k for _rows_text, k = n or the largest
    that fits, each NUL-padded to a slot of width bytes: entry j is "j, ",
    entry k + 1 + j is "[j, ", the first number of a row, and entry
    2k + 2 + j is "j], ", the last."""
    k = min(n, 10 ** (width - 3) - 1)
    digits = np.arange(k + 1).astype(f"S{len(str(k))}")
    text = np.char.add(np.char.add([[b""], [b"["], [b""]], digits), [[b", "], [b", "], [b"], "]])
    return text.astype(f"S{width}").view(f"V{width}").reshape(-1)


def _runs(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of L run-length encoded: the [label, count] pairs of all rows
    in row order, and the bounds of each row in them, row x holding the
    pairs rows[x]..rows[x + 1]."""
    r, v = L.shape
    # a run starts at column 0 and wherever the label changes along a row
    new = np.empty((r, v), dtype=bool)
    new[:, 0] = True
    np.not_equal(L[:, 1:], L[:, :-1], out=new[:, 1:])
    starts = np.flatnonzero(new)
    runs = np.empty((len(starts), 2), dtype=np.int64)
    runs[:, 0] = L.reshape(-1)[starts]
    np.subtract(starts[1:], starts[:-1], out=runs[:-1, 1])
    runs[-1, 1] = r * v - starts[-1]
    return runs, np.searchsorted(starts, v * np.arange(r + 1))


def _rows_text(L: np.ndarray, n: int, tables: dict) -> bytes:
    """The JSON text of the rows L, a block of a label matrix whose labels
    and run lengths are at most n, each row run-length encoded and written
    "[" ... "], ".  Each number is copied with its separator text from one
    slot of _text_table(n, w), for the slot width w of the block's largest
    number: 4 bytes when every number has one digit and 8 up to five digits,
    one machine word, which numpy copies whole.  The table of each width is
    built once and kept in tables for the next block.  One bytes.translate
    then drops the NUL padding of every slot."""
    runs, rows = _runs(L)
    width = _slot(int(runs.max()))
    if width not in tables:
        tables[width] = _text_table(n, width)
    table = tables[width]
    k = len(table) // 3  # the numbers in the table
    runs[rows[:-1], 0] += k  # the label that opens a row
    runs[rows[1:] - 1, 1] += 2 * k  # the count that closes it
    # three copies of the text, each freed once the next is made: the
    # slots, their bytes, and what translate keeps of them
    text = np.take(table, runs)
    del runs
    text = text.tobytes()
    return text.translate(None, b"\0")


def _fill_rows(
    Lb: np.ndarray, x0: int, runs: np.ndarray, pairs: np.ndarray, nlabels: int
) -> str | None:
    """Fill the rows Lb, at least one, rows x0.. of a file, from their flat
    runs, pairs[x] of them (at least one) in row x0 + x; or give the message
    of the first row with a label outside 0..nlabels-1, a run length outside
    1..v, or lengths that do not cover the row, checked in that order.  Both
    readers leave the value checks to this function, the canonical reader
    passing a block of rows and the json reader one row; the first bad row
    is worded only once the rows have failed their range test or their
    coverage test."""
    v = Lb.shape[1]
    lbl, count = runs[0::2], runs[1::2]
    firsts = np.cumsum(pairs) - pairs
    # a count outside 1..v fails the range test, whatever the sum of its row
    uncovered = np.add.reduceat(count, firsts) != v
    in_range = 0 <= lbl.min() and lbl.max() < nlabels and 1 <= count.min() and count.max() <= v
    if not in_range or uncovered.any():
        bad_lbl = np.logical_or.reduceat((lbl < 0) | (lbl >= nlabels), firsts)
        bad_count = np.logical_or.reduceat((count < 1) | (count > v), firsts)
        x = int(np.argmax(bad_lbl | bad_count | uncovered))
        if bad_lbl[x]:
            return f"row {x0 + x} has a label outside 0..{nlabels - 1}"
        if bad_count[x]:
            return f"row {x0 + x} has a run length outside 1..{v}"
        return f"row {x0 + x} does not cover all columns"
    Lb[:] = np.repeat(lbl.astype(Lb.dtype), count).reshape(Lb.shape)
    return None


def _check_header(data) -> tuple[int, list]:
    """The point count and labels of a file record; raises InputError unless
    data has the shape of a scheme file up to the contents of its rows,
    which is checked before the label matrix is allocated."""
    if not isinstance(data, dict):
        raise InputError("a scheme file holds one JSON object")
    if data.get("version") != FILE_VERSION or type(data["version"]) is not int:
        raise InputError(f"unsupported file version {data.get('version')!r}")
    missing = [key for key in ("v", "labels", "rows") if key not in data]
    if missing:
        raise InputError(f"scheme file has no {', '.join(missing)}")
    v, labels, rows = data["v"], data["labels"], data["rows"]
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"v must be a positive integer, not {v!r}")
    try:
        check_labels(labels)
    except ValueError as e:
        raise InputError(str(e)) from None
    if not isinstance(rows, list) or len(rows) != v:
        raise InputError(f"v is {v} but rows is not a list of {v} rows")
    if v > designs.MAX_POINTS:  # read at call time, so raising the limit lifts it here too
        raise InputError(f"{v} points exceed the limit of {designs.MAX_POINTS}")
    if not isinstance(data.get("provenance", {}), dict):
        raise InputError("provenance must be a JSON object")
    return v, labels


def _read_json(raw: bytes, path) -> tuple[np.ndarray, list, dict | None]:
    """The label matrix, labels and provenance of a scheme file parsed as
    JSON; raises InputError unless it has the shape of a scheme file,
    checked before the label matrix is allocated and then row by row as it
    is filled: shape and type here, then the value checks of _fill_rows."""
    try:
        data = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
        raise InputError(f"{path} is not a JSON file: {e}") from e
    v, labels = _check_header(data)
    L = np.empty((v, v), dtype=label_dtype(len(labels)))
    for x, rle in enumerate(data["rows"]):
        # by type, since numpy would read a JSON true among integers as 1
        if not isinstance(rle, list) or not rle or len(rle) % 2 or set(map(type, rle)) != {int}:
            raise InputError(f"row {x} is not a list of label, count pairs")
        # int64, or float64 or object past int64, where every such number is out of range
        if error := _fill_rows(L[x : x + 1], x, np.array(rle), [len(rle) // 2], len(labels)):
            raise InputError(error)
    return L, labels, data.get("provenance")


def _pairs(b: np.ndarray) -> int:
    """The number of ", " in the bytes b, each the 2-byte word _PAIR at an
    even or at an odd offset."""
    even, odd = len(b) // 2 * 2, max(len(b) - 1, 0) // 2 * 2
    return int(np.count_nonzero(b[:even].view("<u2") == _PAIR)) + int(
        np.count_nonzero(b[1 : 1 + odd].view("<u2") == _PAIR)
    )


def _block_runs(
    a: np.ndarray, s: int, e: int, closes: np.ndarray, top: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """The flat runs of the rows a[s:e] of a file's bytes a, a block of whole
    rows, and the pairs in each row; None unless a[s:e] is the text
    json.dumps gives for them, each row closed by "], [" but the last, with
    every number in 0..top and every row of even length.  closes holds every
    "]" in a[s:e], each of which must already be checked to start "], [", as
    _read_canonical does for all of them at once."""
    if e - s >= 2**31:  # offsets are int32 below; a block of json.dumps rows is far shorter
        return None
    block = a[s:e]
    sp = np.flatnonzero(block == _SPACE)  # offsets into the block
    if _pairs(block) != len(sp):  # so each space ends ", "
        return None
    seps = np.searchsorted(sp, closes - (s - 2))  # the index in sp of each row separator's space
    # the first byte of each number: the block's first, and the one after
    # each space but two after the space of a row separator "], ["
    runs = np.empty(len(sp) + 1, np.uint8)
    runs[0] = a[s]  # inside a, since a[e] is the "]" that ends the block
    np.take(a[s + 1 :], sp, out=runs[1:])
    runs[seps + 1] = a[s + 2 :][sp[seps]]
    # number k runs from the end of separator k - 1 to the start of separator
    # k; int32 offsets into the block, filled in place, so sp and two
    # half-size arrays coexist
    start, width = np.zeros(len(sp) + 1, np.int32), np.full(len(sp) + 1, e - s, np.int32)
    np.add(sp, 1, out=start[1:])
    start[seps + 1] += 1
    np.subtract(sp, 1, out=width[:-1])
    width[seps] -= 1
    width -= start
    del sp
    if width.min() < 1 or width.max() > len(str(top)):
        return None
    runs -= _ZERO  # uint8, so a byte below "0" wraps past 9 too
    wide = np.flatnonzero(width > 1)
    if (runs > 9).any() or not runs[wide].all():  # a non-digit, or a leading zero
        return None
    runs = runs.astype(np.int64)
    for j in range(1, int(width.max())):  # digit j of the numbers wider than j
        digit = block[(start[wide] + j).astype(np.intp)] - _ZERO  # numpy gathers fastest by intp
        if (digit > 9).any():
            return None
        runs[wide] = 10 * runs[wide] + digit
        wide = wide[width[wide] > j + 1]
    items = np.diff(seps, prepend=-1, append=len(runs) - 1)
    if runs.max() > top or (items % 2).any():
        return None
    return runs, items // 2


def _read_canonical(raw: bytes) -> tuple[np.ndarray, list, dict | None] | None:
    """The label matrix, labels and provenance of a scheme file that is the
    text json.dumps gives for them, runs of any length and the final newline
    optional; None for every other file, and for a row of odd or no length
    or a number outside 0..max(v, nlabels), which the json reader words.  The
    first row that _fill_rows rejects raises its InputError, once every
    block of rows has matched.

    The rows text ends at the first "]]", which the numpy scan that finds
    every "]" of the rows text finds too.  The record with its rows cut out,
    which holds "rows": [], is parsed with json in one call; with the row
    count, one more than the number of "]" in the rows text, it passes
    _check_header, and the text around the rows is the writer's.  The rows
    text is then read as bytes, in one pass per block of rows, and taken
    only when it is json.dumps text:

    1. The separators tile the text.  Every "]" must start "], [", and
       every space must end ", ": the ", " pairs of a block, which cannot
       overlap, must be as many as its spaces.  A space is the third byte
       of a row separator "], [" exactly when it lies two bytes after a
       "]", so the row separators are found in the sorted spaces from the
       "]" positions already checked.  The numbers are the gaps between
       consecutive separators, each at least one byte wide; so each byte is
       in one separator or one number.
    2. Every separator byte is checked: the space that finds it, the ","
       before it by the pair count, and the "]" and "[" of a row separator.
    3. Every byte of a number is a digit, and a number wider than one digit
       does not start with 0.  So each row is ", "-joined decimal integers
       without sign or leading zero, the rows "], ["-joined: the text
       json.dumps gives for those integers.
    4. A number has at most len(str(top)) digits, top = max(v, nlabels), so
       it is read exactly in int64 and then checked against top.

    A taken file is thus json.dumps text, which the json reader decodes to
    the same integers and passes, in the same row order, to the same
    _check_header and _fill_rows: the two readers agree on every file this
    one takes.
    """
    cut = raw.find(_ROWS) + len(_ROWS)
    if cut < len(_ROWS) or raw[:1] != b"{":  # _head opens an object
        return None
    a = np.frombuffer(raw, dtype=np.uint8)
    closes = []  # every "]" of the rows text, scanned _SCAN bytes at a time
    for i in range(cut, len(a) - 1, _SCAN):  # the last byte cannot start "]]"
        block = np.flatnonzero(a[i : min(i + _SCAN, len(a) - 1)] == _CLOSE) + i
        doubled = np.flatnonzero(a[block + 1] == _CLOSE)
        if len(doubled):  # the rows text ends at the first "]]"
            end = int(block[doubled[0]])
            closes.append(block[: doubled[0]])
            break
        closes.append(block)
    else:
        return None
    try:
        data = json.loads(raw[: cut - 1] + raw[end + 1 :])
    except (ValueError, RecursionError):  # not JSON, or nested too deep to parse
        return None
    closes = np.concatenate(closes)
    data["rows"] = [None] * (len(closes) + 1)  # the row count, for _check_header
    try:
        v, labels = _check_header(data)
    except InputError:
        return None
    provenance = data.get("provenance")
    tail = raw[end + 2 :].removesuffix(b"\n")
    if raw[:cut] != _head(v, labels) or tail != _tail(provenance):
        return None
    # no "]" is the last byte before the first "]]", so closes + 3 is inside raw
    if ((a[closes + 1] != _COMMA) | (a[closes + 2] != _SPACE) | (a[closes + 3] != _OPEN)).any():
        return None
    bounds = np.concatenate([[cut - 4], closes, [end]])  # row x is bounds[x] + 4 .. bounds[x + 1]
    L = np.empty((v, v), dtype=label_dtype(len(labels)))
    top, error = max(v, len(labels)), None
    for b in row_blocks(v):
        s, e = bounds[b.start] + 4, bounds[b.stop]
        read = _block_runs(a, s, e, closes[b.start : b.stop - 1], top)
        if read is None:
            return None
        error = error or _fill_rows(L[b], b.start, *read, len(labels))
    if error:  # raised only once every block is json.dumps text
        raise InputError(error)
    return L, labels, provenance


def file_chunks(scheme: AssociationScheme, provenance: dict | None = None):
    """The bytes of the scheme file, chunk by chunk: the text json.dumps gives
    for the record {"version", "v", "labels", "rows", "provenance"} (the last
    only when given), and a newline, with the rows streamed block by block.
    The text is ASCII, since json.dumps escapes every other character."""
    L, v, tables = scheme.L, scheme.v, {}
    top = max(v, len(scheme.labels))  # no run or label is larger
    yield _head(v, scheme.labels)[:-1]  # the "[" of the first row opens its first number
    for b in row_blocks(v):
        rows = _rows_text(L[b], top, tables)
        yield rows if b.stop < v else rows[:-2]  # no ", " after the last row
    yield b"]" + _tail(provenance) + b"\n"


def save_scheme(path, scheme: AssociationScheme, provenance: dict | None = None) -> None:
    """Write the scheme file of scheme and provenance (see file_chunks)."""
    with open(path, "wb") as fh:
        fh.writelines(file_chunks(scheme, provenance))


def _offered_automorphisms(provenance: dict | None, v: int, nclasses: int) -> tuple:
    """The automorphisms of the family that a provenance record names, once it
    passes provenance_parameters and the family's parameter rule; none for
    any other record.  from_matrices uses them only where they preserve the
    labels read, so a wrong record costs a check and changes no result."""
    try:
        family, params = designs.provenance_parameters(provenance or {}, v, nclasses)
        return (bgw_automorphisms if family == "bgw" else gh_automorphisms)(*params)
    except (ValueError, SymmetryObstruction):  # InputError: no such record
        return ()


def load_scheme(path) -> tuple[AssociationScheme, dict | None]:
    """The verified scheme of a scheme file, and its provenance: the file is
    read by the canonical reader when it takes it, and by the json reader
    otherwise (see the module docstring).  The automorphisms of a bgw or gh
    record are offered to from_matrices (_offered_automorphisms)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    L, labels, provenance = _read_canonical(raw) or _read_json(raw, path)
    del raw
    offered = _offered_automorphisms(provenance, len(L), len(labels))
    return AssociationScheme.from_matrices(L, labels, offered), provenance


def table_to_json(
    kind: str,
    field: CycField,
    row_labels: list[str],
    col_labels: list[str],
    entries: list[list[CycScalar]],
) -> dict:
    return {
        "kind": kind,
        "conductor": field.M,
        "radicand": field.radicand,
        "row_labels": row_labels,
        "col_labels": col_labels,
        "entries": [[scalar_to_str(x) for x in row] for row in entries],
    }


def table_to_csv(
    row_labels: list[str], col_labels: list[str], entries: list[list[CycScalar]]
) -> str:
    """CSV with the column labels as the first row and the row labels as the
    first column; labels such as (0,1) hold commas, so csv quotes them."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["", *col_labels])
    writer.writerows([lbl, *map(scalar_to_str, row)] for lbl, row in zip(row_labels, entries))
    return out.getvalue()
