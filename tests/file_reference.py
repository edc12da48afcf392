"""The version-1 scheme file written the plain way, as a test reference.

Each row of the label matrix is run-length encoded on its own with
itertools.groupby, and the record is serialized by one json.dumps.  Nothing
here is shared with gwschemes.serialize, so a fault in the library's block
encoder cannot also hide in the reference.
"""
from __future__ import annotations

import json
from itertools import groupby


def runs(row) -> list[int]:
    """A row of labels run-length encoded as label, count pairs."""
    out: list[int] = []
    for label, group in groupby(row):
        out += [label, sum(1 for _ in group)]
    return out


def record(scheme, provenance: dict | None = None) -> dict:
    """The JSON record of a scheme file."""
    out = {
        "version": 1,
        "v": scheme.v,
        "labels": list(scheme.labels),
        "rows": [runs(row) for row in scheme.L.tolist()],
    }
    if provenance is not None:
        out["provenance"] = provenance
    return out


def file_bytes(scheme, provenance: dict | None = None) -> bytes:
    """The bytes of the scheme file: the record's JSON text and a newline."""
    return (json.dumps(record(scheme, provenance)) + "\n").encode()
