"""Scheme files and scalar text forms.

A scheme file is JSON: version, point count, class labels, the label matrix
rows run-length encoded as [label_index, count, label_index, count, ...], and
an optional provenance record describing how the scheme was built.  Loading
re-verifies the axioms from scratch, so a loaded AssociationScheme is as
trustworthy as a freshly constructed one.

Scalars print as polynomials in z = zeta_M with an optional radical part,
e.g. "1/2 + 3*z^2 + r*(1 - z)" where r = sqrt(d); scalar_from_str parses the
same form back given the field.
"""
from __future__ import annotations

import json
import re
from fractions import Fraction

import numpy as np

from .algebra import CycField, CycScalar
from .errors import InputError
from .schemes import AssociationScheme

FILE_VERSION = 1


def scheme_to_dict(scheme: AssociationScheme, provenance: dict | None = None) -> dict:
    L, v = scheme.L, scheme.v
    # a run starts at column 0 and wherever the label changes along a row
    new = np.ones((v, v), dtype=bool)
    new[:, 1:] = L[:, 1:] != L[:, :-1]
    starts = np.flatnonzero(new)
    runs = np.stack([L.reshape(-1)[starts], np.diff(starts, append=v * v)], axis=1)
    ends = 2 * np.cumsum(new.sum(axis=1))[:-1]
    rows = [rle.tolist() for rle in np.split(runs.reshape(-1), ends)]
    out = {
        "version": FILE_VERSION,
        "v": scheme.v,
        "labels": list(scheme.labels),
        "rows": rows,
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def _label_matrix(data) -> np.ndarray:
    """The label matrix of a file record; raises InputError unless data has
    the shape of a scheme file, checked before the matrix is allocated."""
    if not isinstance(data, dict):
        raise InputError("a scheme file holds one JSON object")
    if data.get("version") != FILE_VERSION:
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
    if not isinstance(data.get("provenance", {}), dict):
        raise InputError("provenance must be a JSON object")
    runs = []
    for x, rle in enumerate(rows):
        a = np.array(rle if isinstance(rle, list) else None)
        if a.ndim != 1 or a.dtype.kind not in "iu" or len(a) % 2:
            raise InputError(f"row {x} is not a list of label, count pairs")
        lbl, count = a[0::2], a[1::2]
        if ((lbl < 0) | (lbl >= len(labels))).any():
            raise InputError(f"row {x} has a label outside 0..{len(labels) - 1}")
        if ((count < 1) | (count > v)).any():
            raise InputError(f"row {x} has a run length outside 1..{v}")
        if count.sum() != v:
            raise InputError(f"row {x} does not cover all columns")
        runs.append((lbl, count))
    L = np.zeros((v, v), dtype=np.int64)
    for x, (lbl, count) in enumerate(runs):
        L[x] = np.repeat(lbl, count)
    return L


def scheme_from_dict(data: dict) -> tuple[AssociationScheme, dict | None]:
    """The verified scheme of a file record, and its provenance.

    The record's shape is checked before anything is allocated; a malformed
    record raises InputError, a well-formed one that is no scheme NotAScheme.
    """
    L = _label_matrix(data)
    return AssociationScheme.from_matrices(L, data["labels"]), data.get("provenance")


def save_scheme(path, scheme: AssociationScheme, provenance: dict | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(scheme_to_dict(scheme, provenance)))
        fh.write("\n")


def load_scheme(path) -> tuple[AssociationScheme, dict | None]:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # not JSON, or not UTF-8 text
            raise InputError(f"{path} is not a JSON file: {e}") from e
    L, labels, provenance = _label_matrix(data), data["labels"], data.get("provenance")
    del data  # the parsed runs, freed before the verifier allocates
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
