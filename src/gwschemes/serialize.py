"""Scheme files and scalar text forms.

A scheme file is JSON: version, point count, class labels, the label matrix
rows run-length encoded as [label_index, count, label_index, count, ...], and
an optional provenance record describing how the scheme was built.  Loading
re-verifies the axioms from scratch, so a loaded AssociationScheme is as
trustworthy as a freshly constructed one.  The writer emits exactly the text
json.dumps gives for the record, built from numpy blocks of rows.

A file is read by one of two readers.  The canonical reader takes every file
that is the text json.dumps gives for the record it decodes to, runs of any
length and the final newline optional.  It reads the rows block by block from
the file's bytes in numpy, without decoding them as JSON or encoding them
back: the separators tile the rows text, every separator byte is checked,
every number is digits without a leading zero, and no number is wider than
the largest the file may hold, so what it takes is json.dumps text (see
_read_canonical).  Every other file, such as a pretty-printed, reordered,
hand-edited or malformed one, goes to the json reader, which parses the whole
record.  Both pass the same integers, in row order, to the same header and
row checks, which word every input error, so the two agree.  Both decode into
the compact label dtype the scheme stores (see schemes); the file bytes do not
depend on it.

Scalars print as polynomials in z = zeta_M with an optional radical part,
e.g. "1/2 + 3*z^2 + r*(1 - z)", where r = sqrt(d) for the squarefree part d of
the radicand.
"""
from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from itertools import chain

import numpy as np

from .algebra import CycField, CycScalar
from .builders import bgw_automorphisms, gh_automorphisms
from . import designs
from .errors import InputError, SymmetryObstruction
from .schemes import AssociationScheme, check_labels, label_dtype, row_blocks
from .spectra import provenance_parameters

FILE_VERSION = 1


_ROWS = b', "rows": [['  # from the header to the first run
_PROVENANCE = b', "provenance": '
_CLOSE, _COMMA, _SPACE, _OPEN = b"], ["  # the bytes of the separator of two rows
_ZERO = ord("0")
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


def _text_table(n: int) -> np.ndarray:
    """The run text of the numbers 0..n for _rows_text: entry k is k followed
    by ", " and entry n + 1 + k is k followed by "], [", NUL-padded to one
    width."""
    digits = np.arange(n + 1).astype(f"S{len(str(n))}")
    return np.char.add(digits, np.array([[b", "], [b"], ["]])).reshape(-1)


def _runs(L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of L run-length encoded: the flat [label, count, ...] runs of
    all rows, and the end of each row in it."""
    r, v = L.shape
    # a run starts at column 0 and wherever the label changes along a row
    new = np.ones((r, v), dtype=bool)
    new[:, 1:] = L[:, 1:] != L[:, :-1]
    starts = np.flatnonzero(new)
    runs = np.stack([L.reshape(-1)[starts], np.diff(starts, append=r * v)], axis=1)
    return runs.reshape(-1), 2 * np.cumsum(new.sum(axis=1))


def _rows_text(runs: np.ndarray, ends: np.ndarray, text: np.ndarray) -> bytes:
    """The JSON text of the flat runs of a block of rows that end at ends in
    runs, each row closed by "], [", from the run text of _text_table."""
    out = text[runs]
    out[ends - 1] = text[runs[ends - 1] + len(text) // 2]  # the counts that close a row
    out = out.view(np.uint8)
    return out[out != 0].tobytes()


def _fill_rows(
    Lb: np.ndarray, x0: int, runs: np.ndarray, pairs: np.ndarray, nlabels: int
) -> str | None:
    """Fill the rows Lb, rows x0.. of a file, from their flat runs, pairs[x]
    of them (at least one) in row x0 + x; or give the message of the first
    row with a label outside 0..nlabels-1, a run length outside 1..v, or
    lengths that do not cover the row, checked in that order.  Both readers
    decode a block of rows and leave the value checks to this function."""
    v = Lb.shape[1]
    lbl, count = runs[0::2], runs[1::2]
    firsts = np.cumsum(pairs) - pairs
    bad_lbl = np.logical_or.reduceat((lbl < 0) | (lbl >= nlabels), firsts)
    bad_count = np.logical_or.reduceat((count < 1) | (count > v), firsts)
    bad_row = bad_lbl | bad_count | (np.add.reduceat(count, firsts) != v)
    if bad_row.any():
        x = int(np.argmax(bad_row))
        if bad_lbl[x]:
            return f"row {x0 + x} has a label outside 0..{nlabels - 1}"
        if bad_count[x]:
            return f"row {x0 + x} has a run length outside 1..{v}"
        return f"row {x0 + x} does not cover all columns"
    Lb[:] = np.repeat(lbl.astype(Lb.dtype), count).reshape(Lb.shape)
    return None


def _read_rows(L: np.ndarray, rows: list, x0: int, x1: int, nlabels: int) -> None:
    """Fill L[x0:x1] from rows[x0:x1]; raises InputError naming the first
    malformed row, with the message the per-row checks give in order: shape
    and type here, then the value checks of _fill_rows."""
    block = rows[x0:x1]
    bad = next(
        (x for x, rle in enumerate(block)
         if not isinstance(rle, list) or not rle or len(rle) % 2),
        None,
    )
    # by type, since numpy would read a JSON true among integers as 1
    if bad is None and not set(map(type, chain.from_iterable(block))) <= {int}:
        bad = next(x for x, rle in enumerate(block) if not set(map(type, rle)) <= {int})
    if bad is not None:
        _read_rows(L, rows, x0, x0 + bad, nlabels)  # an earlier row may fail first
        raise InputError(f"row {x0 + bad} is not a list of label, count pairs")
    pairs = np.fromiter(map(len, block), dtype=np.int64, count=len(block)) // 2
    n = 2 * int(pairs.sum())
    try:
        a = np.fromiter(chain.from_iterable(block), dtype=np.int64, count=n)
    except OverflowError:  # beyond int64, so out of range as a label and as a count
        a = np.fromiter(chain.from_iterable(block), dtype=object, count=n)
    if error := _fill_rows(L[x0:x1], x0, a, pairs, nlabels):
        raise InputError(error)


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


def _label_matrix(data) -> np.ndarray:
    """The label matrix of a file record; raises InputError unless data has
    the shape of a scheme file, checked before the matrix is allocated and
    then block by block of rows as it is filled."""
    v, labels = _check_header(data)
    L = np.zeros((v, v), dtype=label_dtype(len(labels)))
    for b in row_blocks(v):
        _read_rows(L, data["rows"], b.start, b.stop, len(labels))
    return L


def _block_runs(a: np.ndarray, s: int, e: int, top: int) -> tuple[np.ndarray, np.ndarray] | None:
    """The flat runs of the rows a[s:e] of a file's bytes a, a block of whole
    rows, and the pairs in each row; None unless a[s:e] is the text
    json.dumps gives for them, each row closed by "], [" but the last, with
    every number in 0..top and every row of even length.  The "]" of every
    row separator in a[s:e] must already be checked to start "], [", which
    _read_canonical does for all of them at once."""
    if e - s >= 2**31:  # offsets are int32 below; a block of json.dumps rows is far shorter
        return None
    sp = np.flatnonzero(a[s:e] == _SPACE) + s
    # each space ends ", ", or is the third byte of "], [" when "]" is two back
    if (a[sp - 1] != _COMMA).any():
        return None
    row_sep = a[sp - 2] == _CLOSE
    # number k runs from the end of separator k - 1 to the start of separator
    # k, a byte from its space for ", " and two for "], ["; int32 offsets into
    # a[s:e], filled in place, so sp and two half-size arrays coexist
    start, width = np.zeros(len(sp) + 1, np.int32), np.full(len(sp) + 1, e - s, np.int32)
    np.subtract(sp, s - 1, out=start[1:])
    start[1:] += row_sep
    np.subtract(sp, s + 1, out=width[:-1])
    width[:-1] -= row_sep
    width -= start
    del sp
    if width.min() < 1 or width.max() > len(str(top)):
        return None
    runs = a[s:e][start] - _ZERO  # uint8, so a byte below "0" wraps past 9 too
    wide = np.flatnonzero(width > 1)
    if (runs > 9).any() or not runs[wide].all():  # a non-digit, or a leading zero
        return None
    runs = runs.astype(np.int64)
    for j in range(1, int(width.max())):  # digit j of the numbers wider than j
        digit = a[s:e][start[wide] + j] - _ZERO
        if (digit > 9).any():
            return None
        runs[wide] = 10 * runs[wide] + digit
        wide = wide[width[wide] > j + 1]
    items = np.diff(np.flatnonzero(row_sep), prepend=-1, append=len(row_sep))
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

    1. The separators tile the text.  Every "]" must start "], [", every
       space must end ", " or be the third byte of such a "], [", and the
       numbers are the gaps between consecutive separators, each at least
       one byte wide; so each byte is in one separator or one number.
    2. Every separator byte is checked: the space that finds it, the ","
       before it, and the "]" and "[" of a row separator.
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
        read = _block_runs(a, bounds[b.start] + 4, bounds[b.stop], top)
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
    L, v = scheme.L, scheme.v
    text = _text_table(v)
    yield _head(v, scheme.labels)
    for b in row_blocks(v):
        rows = _rows_text(*_runs(L[b]), text)
        yield rows if b.stop < v else rows[:-4]  # no "], [" after the last row
    yield b"]]" + _tail(provenance) + b"\n"


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
        family, params = provenance_parameters(provenance or {}, v, nclasses)
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
    read = _read_canonical(raw)
    if read is None:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as e:  # not JSON, not UTF-8, or nested too deep
            raise InputError(f"{path} is not a JSON file: {e}") from e
        read = _label_matrix(data), data["labels"], data.get("provenance")
        del data  # the parsed runs, freed before the verifier allocates
    del raw
    L, labels, provenance = read
    offered = _offered_automorphisms(provenance, len(L), len(labels))
    return AssociationScheme.from_matrices(L, labels, offered), provenance


# -- scalar text form --


def _frac_str(fr: Fraction) -> str:
    return str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"


def _poly_str(coeffs: list[Fraction]) -> str:
    terms = []
    for k, c in enumerate(coeffs):
        if not c:
            continue
        if k == 0:
            terms.append(_frac_str(c))
            continue
        zpow = "z" if k == 1 else f"z^{k}"
        if c == 1:
            terms.append(zpow)
        elif c == -1:
            terms.append(f"-{zpow}")
        else:
            terms.append(f"{_frac_str(c)}*{zpow}")
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def scalar_to_str(s: CycScalar) -> str:
    a = _poly_str(s.a_vector())
    b = _poly_str(s.b_vector())
    if b == "0":
        return a
    if a == "0":
        return f"r*({b})"
    return f"{a} + r*({b})"


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
