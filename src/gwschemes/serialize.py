"""Scheme files and scalar text forms.

A scheme file is JSON: version, point count, class labels, the label matrix
rows run-length encoded as [label_index, count, label_index, count, ...], and
an optional provenance record describing how the scheme was built.  Loading
re-verifies the axioms from scratch, so a loaded AssociationScheme is as
trustworthy as a freshly constructed one.  The writer emits exactly the text
json.dumps gives for the record, built from numpy blocks of rows.

A file is read by one of two readers.  The canonical reader takes only a file
that is byte for byte what the writer writes for the label matrix it decodes
to, the final newline optional, and decodes its rows block by block in numpy.
Every other file, such as a pretty-printed, reordered, hand-edited or
malformed one, goes to the json reader, which parses the whole record, checks
it and words every input error.

Scalars print as polynomials in z = zeta_M with an optional radical part,
e.g. "1/2 + 3*z^2 + r*(1 - z)", where r = sqrt(d) for the squarefree part d of
the radicand; scalar_from_str parses the same form back given the field.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain

import numpy as np

from .algebra import CycField, CycScalar
from .designs import MAX_POINTS
from .errors import InputError
from .schemes import AssociationScheme

FILE_VERSION = 1
BLOCK = 1 << 16  # label-matrix cells per numpy step of the file codec, at least one row


_ROWS = b', "rows": [['  # from the header to the first run
_PROVENANCE = b', "provenance": '


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


def _rows_text(L: np.ndarray, text: np.ndarray) -> bytes:
    """The JSON text of the runs of a block of rows, each row closed by
    "], [", from the run text of _text_table."""
    runs, ends = _runs(L)
    runs[ends - 1] += len(text) // 2  # the count that closes a row
    out = text[runs].view(np.uint8)
    del runs  # freed before the mask and the copies
    return out[out != 0].tobytes()


def _read_rows(L: np.ndarray, rows: list, x0: int, x1: int, nlabels: int) -> None:
    """Fill L[x0:x1] from rows[x0:x1]; raises InputError naming the first
    malformed row, with the message the per-row checks give in order: shape
    and type, label range, run lengths, row cover."""
    if x1 == x0:
        return
    v = L.shape[1]
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
    lbl, count = a[0::2], a[1::2]
    firsts = np.cumsum(pairs) - pairs
    bad_lbl = np.logical_or.reduceat((lbl < 0) | (lbl >= nlabels), firsts)
    bad_count = np.logical_or.reduceat((count < 1) | (count > v), firsts)
    bad_row = bad_lbl | bad_count | (np.add.reduceat(count, firsts) != v)
    if bad_row.any():
        x = int(np.argmax(bad_row))
        if bad_lbl[x]:
            raise InputError(f"row {x0 + x} has a label outside 0..{nlabels - 1}")
        if bad_count[x]:
            raise InputError(f"row {x0 + x} has a run length outside 1..{v}")
        raise InputError(f"row {x0 + x} does not cover all columns")
    L[x0:x1] = np.repeat(lbl, count).reshape(x1 - x0, v)


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
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(x, str) for x in labels)
        or len(set(labels)) != len(labels)
    ):
        raise InputError("labels must be a nonempty list of distinct strings")
    if not isinstance(rows, list) or len(rows) != v:
        raise InputError(f"v is {v} but rows is not a list of {v} rows")
    if v > MAX_POINTS:
        raise InputError(f"{v} points exceed the limit of {MAX_POINTS}")
    if not isinstance(data.get("provenance", {}), dict):
        raise InputError("provenance must be a JSON object")
    return v, labels


def _label_matrix(data) -> np.ndarray:
    """The label matrix of a file record; raises InputError unless data has
    the shape of a scheme file, checked before the matrix is allocated and
    then block by block of rows as it is filled."""
    v, labels = _check_header(data)
    L = np.zeros((v, v), dtype=np.int64)
    step = max(1, BLOCK // v)
    for x0 in range(0, v, step):
        _read_rows(L, data["rows"], x0, min(x0 + step, v), len(labels))
    return L


def _read_canonical(raw: bytes) -> tuple[np.ndarray, list, dict | None] | None:
    """The label matrix, labels and provenance of a scheme file that is byte
    for byte what file_chunks writes for them, the final newline optional;
    None for every other file.

    The header and the provenance are parsed with json and pass the checks
    of _check_header; the rows are decoded block by block with
    np.fromstring, and a block is taken only when _rows_text of the rows it
    decodes to gives back the file's bytes of the block.  An accepted file
    is therefore the text json.dumps gives for its record, and the json
    reader decodes those same bytes to the same label matrix, labels and
    provenance: the two readers agree on every file this one accepts.  The
    decode alone is no validator: np.fromstring reads "01", "+1", "1,2" and
    "1 , 2", returns a trailing 0 for "1, 2, " and saturates 10**30 to the
    int64 maximum.  The comparison of bytes is what rejects all of them.
    """
    cut = raw.find(_ROWS) + len(_ROWS)
    end = raw.find(b"]]", cut)
    if cut < len(_ROWS) or end < 0:
        return None
    tail = raw[end + 2 :].removesuffix(b"\n")
    try:
        data = json.loads(raw[: cut - len(_ROWS)].decode() + "}")
        if tail != b"}":
            if not tail.startswith(_PROVENANCE):
                return None
            data["provenance"] = json.loads(tail[len(_PROVENANCE) : -1].decode())
    except (ValueError, RecursionError):  # not JSON, or nested too deep to parse
        return None
    rows = data["rows"] = raw[cut:end].split(b"], [")  # one text per row, for the row count
    try:
        v, labels = _check_header(data)
    except InputError:
        return None
    provenance = data.get("provenance")
    if raw[:cut] != _head(v, labels) or tail != _tail(provenance):
        return None
    L = np.empty((v, v), dtype=np.int64)
    text = _text_table(max(v, len(labels)))
    step = max(1, BLOCK // v)
    for x0 in range(0, v, step):
        Lb, block = L[x0 : x0 + step], b"], [".join(rows[x0 : x0 + step])
        if not _decode_rows(Lb, block, len(labels)) or _rows_text(Lb, text) != block + b"], [":
            return None
    return L, labels, provenance


def _decode_rows(Lb: np.ndarray, block: bytes, nlabels: int) -> bool:
    """Fill the rows Lb with the labels that the run text block of as many
    rows decodes to; False when it decodes to no such rows.  A function of
    its own, so that the decoded runs are freed before the block is
    re-encoded."""
    r, v = Lb.shape
    try:
        runs = np.fromstring(block.replace(b"], [", b", "), dtype=np.int64, sep=",")
    except ValueError:  # text that is no list of integers
        return False
    lbl, count = runs[0::2], runs[1::2]
    if (
        len(runs) % 2
        or not ((lbl >= 0) & (lbl < nlabels)).all()
        or not ((count >= 1) & (count <= v)).all()
        or count.sum() != r * v
    ):
        return False
    Lb[:] = np.repeat(lbl, count).reshape(r, v)
    return True


def scheme_from_dict(data: dict) -> tuple[AssociationScheme, dict | None]:
    """The verified scheme of a file record, and its provenance.

    The record's shape is checked before anything is allocated; a malformed
    record raises InputError, a well-formed one that is no scheme NotAScheme.
    """
    L = _label_matrix(data)
    return AssociationScheme.from_matrices(L, data["labels"]), data.get("provenance")


def file_chunks(scheme: AssociationScheme, provenance: dict | None = None):
    """The bytes of the scheme file, chunk by chunk: the text json.dumps gives
    for the record {"version", "v", "labels", "rows", "provenance"} (the last
    only when given), and a newline, with the rows streamed block by block.
    The text is ASCII, since json.dumps escapes every other character."""
    L, v = scheme.L, scheme.v
    text = _text_table(v)
    step = max(1, BLOCK // v)
    yield _head(v, scheme.labels)
    for x0 in range(0, v, step):
        rows = _rows_text(L[x0 : x0 + step], text)
        yield rows if x0 + step < v else rows[:-4]  # no "], [" after the last row
    yield b"]]" + _tail(provenance) + b"\n"


def save_scheme(path, scheme: AssociationScheme, provenance: dict | None = None) -> None:
    """Write the scheme file of scheme and provenance (see file_chunks)."""
    with open(path, "wb") as fh:
        fh.writelines(file_chunks(scheme, provenance))


def load_scheme(path) -> tuple[AssociationScheme, dict | None]:
    """The verified scheme of a scheme file, and its provenance: the file is
    read by the canonical reader when it takes it, and by the json reader
    otherwise (see the module docstring)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    read = _read_canonical(raw)
    if read is None:
        try:
            data = json.loads(raw.decode("utf-8"))
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise InputError(f"{path} is not a JSON file: {e}") from e
        read = _label_matrix(data), data["labels"], data.get("provenance")
        del data  # the parsed runs, freed before the verifier allocates
    del raw
    L, labels, provenance = read
    return AssociationScheme.from_matrices(L, labels), provenance


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


_TERM = re.compile(
    r"^\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?\s*(?:\*\s*)?)?"
    r"(?:z(?:\^(?P<pow>\d+))?)?\s*$"
)


def _poly_parse(field: CycField, text: str) -> list[Fraction]:
    coeffs = [Fraction(0)] * field.deg
    text = text.strip()
    if text == "0":
        return coeffs
    # split into signed terms
    parts = re.split(r"(?=[+-])", text.replace(" ", ""))
    for part in parts:
        if not part:
            continue
        m = _TERM.match(part)
        if not m:
            raise ValueError(f"cannot parse term {part!r}")
        if m.group("num") is None and "z" not in part:
            raise ValueError(f"cannot parse term {part!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("num") is not None:
            if m.group("den") is not None and not int(m.group("den")):
                raise ValueError(f"zero denominator in term {part!r}")
            c = Fraction(int(m.group("num")), int(m.group("den") or 1))
        else:
            if "z" not in part:
                raise ValueError(f"cannot parse term {part!r}")
            c = Fraction(1)
        k = 0
        if "z" in part:
            k = int(m.group("pow") or 1)
        if k >= field.deg:
            raise ValueError(f"power z^{k} out of range for this field")
        coeffs[k] += sign * c
    return coeffs


def scalar_from_str(field: CycField, text: str) -> CycScalar:
    text = text.strip()
    m = re.search(r"(?:^|\+)\s*r\*\(", text)
    if m:
        open_idx = text.index("(", m.start())
        close_idx = text.rindex(")")
        if text[close_idx + 1 :].strip():
            raise ValueError(f"text after the radical part: {text[close_idx + 1 :]!r}")
        b_text = text[open_idx + 1 : close_idx]
        a_text = text[: m.start()].strip().rstrip("+").strip() or "0"
        return field.from_vectors(
            _poly_parse(field, a_text), _poly_parse(field, b_text)
        )
    return field.from_vectors(_poly_parse(field, text))


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
    lines = ["," + ",".join(col_labels)]
    for lbl, row in zip(row_labels, entries):
        lines.append(lbl + "," + ",".join(scalar_to_str(x) for x in row))
    return "\n".join(lines) + "\n"
