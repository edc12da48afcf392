"""Spans around the public entry points of gwschemes, kept in memory.

Tracer.installed() replaces each public function of the traced modules at
every name the package's modules look it up by (gwschemes.builders.bgw_matrix
as well as gwschemes.designs.bgw_matrix), and the chosen methods on their
classes, with wrappers; on exit it puts the originals back.  A span records
name, start, end, parent and job; a layer's self time is its spans' time
minus the time of the spans (and timed leaves) they contain.

Calls made millions of times are not spans: FiniteField element operations
are timed and counted as leaves, and the exact scalar and algebra products
are only counted, so their time stays with the spectra span that made them.
"""
from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

# module -> layer; matrixkit is reported with the builders that use it
LAYERS = {
    "algebra": "algebra",
    "designs": "designs",
    "matrixkit": "builders",
    "builders": "builders",
    "schemes": "schemes",
    "spectra": "spectra",
    "oracle": "oracle",
    "serialize": "serialize",
    "cli": "cli",
}
SPAN_METHODS = {
    "algebra": {"FiniteField": ["__init__"], "CycField": ["__init__"]},
    "schemes": {"AssociationScheme": ["from_matrices", "fuse"]},
    "spectra": {
        "SchemeAlgebra": ["__init__"],
        "Eigensystem": [
            "verify",
            "phi_matrices",
            "eigenmatrix_p",
            "eigenmatrix_q",
            "character_table",
            "check_pq_duality",
        ],
        "FusedEigensystem": ["__init__"],
    },
}
LEAF_METHODS = {
    "algebra": {
        "FiniteField": [
            "add", "sub", "neg", "mul", "inv", "power", "dlog", "digits", "pairing"
        ]
    }
}
COUNTED_METHODS = {
    "algebra": {"CycScalar": ["__mul__"]},
    "spectra": {"SchemeAlgebra": ["mul"]},
}

# per-layer metric -> the spans (or leaves) whose self time it sums
SELF_TIME_METRICS = {
    "spectra.eigensystem_s": [
        "spectra.bgw_eigensystem",
        "spectra.gh_eigensystem",
        "spectra.eigensystem_for",
        "spectra.bgw_f_elements",
        "spectra.gh_f_elements",
        "spectra.SchemeAlgebra.__init__",
        "spectra.Eigensystem.verify",
    ],
    "spectra.phi_s": ["spectra.Eigensystem.phi_matrices"],
    "spectra.tables_s": [
        "spectra.Eigensystem.eigenmatrix_p",
        "spectra.Eigensystem.eigenmatrix_q",
        "spectra.Eigensystem.character_table",
        "spectra.Eigensystem.check_pq_duality",
        "spectra.character_table",
        "spectra.check_pq_duality",
    ],
    "spectra.fused_s": ["spectra.FusedEigensystem.__init__"],
    "spectra.bm_search_s": ["spectra.bm_search"],
    "schemes.verify_s": ["schemes.AssociationScheme.from_matrices", "schemes.scheme_verify"],
    "schemes.fuse_s": ["schemes.AssociationScheme.fuse"],
    "algebra.finite_field_s": ["algebra.FiniteField." + m for m in
                               ["__init__"] + LEAF_METHODS["algebra"]["FiniteField"]],
    "serialize.save_s": ["serialize.save_scheme", "serialize.scheme_to_dict"],
    "serialize.load_s": ["serialize.load_scheme", "serialize.scheme_from_dict"],
    "oracle.spectrum_s": ["oracle.oracle_spectrum"],
}
LAYER_SELF_METRICS = ["algebra", "designs", "builders", "schemes", "spectra", "serialize", "cli"]

# stage table columns (as in the ROADMAP baseline) -> (phase, spans)
STAGES = {
    "build+verify": ("certify", ["builders.bgw_build", "builders.gh_build"]),
    "Eigensystem": ("certify", ["spectra.bgw_eigensystem", "spectra.gh_eigensystem"]),
    "phi": ("certify", ["spectra.Eigensystem.phi_matrices"]),
    "fuse": ("certify", ["schemes.AssociationScheme.fuse"]),
    "FusedEigensys": ("certify", ["spectra.FusedEigensystem.__init__"]),
    "load(+verify)": ("roundtrip", ["serialize.load_scheme"]),
}


def unit(metric: str) -> str:
    if metric.endswith("_calls"):
        return "count"
    if metric.endswith(("_mb", "_mb_computed")):
        return "MB"
    if metric.endswith("_frac"):
        return "frac"
    return "s"


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1, job, time of children]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.dense_bytes = 0
        self.job = ""
        self.active = True
        self._in_leaf = False
        self._undo: list[tuple] = []

    # -- context --

    @contextlib.contextmanager
    def phase(self, job: str):
        old, self.job = self.job, job
        try:
            yield
        finally:
            self.job = old

    @contextlib.contextmanager
    def paused(self):
        """Calls made here (the benchmark's own checks) are not traced."""
        old, self.active = self.active, False
        try:
            yield
        finally:
            self.active = old

    # -- wrappers --

    def _span(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            parent = tr.stack[-1] if tr.stack else -1
            rec = [name, 0.0, 0.0, parent, tr.job, 0.0]
            tr.stack.append(len(tr.spans))
            tr.spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = end = perf_counter()
                tr.stack.pop()
                if parent >= 0:
                    tr.spans[parent][5] += end - rec[1]
            if name == "schemes.AssociationScheme.from_matrices":
                # the nm int64 matrices plus their float64 copies
                tr.dense_bytes += out.nclasses * out.v * out.v * 16
            return out

        return wrapper

    def _leaf(self, name: str, fn):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            tr.counts[name] += 1
            if tr._in_leaf:  # nested field operation: timed by the outer one
                return fn(*args, **kwargs)
            tr._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                tr._in_leaf = False
                tr.leaf_s[name] += d
                if tr.stack:
                    tr.spans[tr.stack[-1]][5] += d

        return wrapper

    def _counted(self, name: str, fn):
        tr = self
        counts = self.counts

        def wrapper(*args):
            if tr.active:
                counts[name] += 1
            return fn(*args)

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_methods(self, mods, table, make) -> None:
        for mname, classes in table.items():
            for cname, methods in classes.items():
                cls = getattr(mods[mname], cname)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    name = f"{mname}.{cname}.{meth}"
                    if isinstance(raw, classmethod):
                        self._set(cls, meth, classmethod(make(name, raw.__func__)))
                    else:
                        self._set(cls, meth, make(name, raw))

    @contextlib.contextmanager
    def installed(self):
        pkg = importlib.import_module("gwschemes")
        mods = {m: importlib.import_module(f"gwschemes.{m}") for m in LAYERS}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._span(f"{mname}.{attr}", obj)
        try:
            for mod in [pkg, *mods.values()]:
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, attr, wrappers[obj])
            self._wrap_methods(mods, SPAN_METHODS, self._span)
            self._wrap_methods(mods, LEAF_METHODS, self._leaf)
            self._wrap_methods(mods, COUNTED_METHODS, self._counted)
            yield self
        finally:
            while self._undo:
                owner, attr, old = self._undo.pop()
                setattr(owner, attr, old)

    # -- reports --

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t0, t1, _parent, _job, child in self.spans:
            out[name] += (t1 - t0) - child
        for name, s in self.leaf_s.items():
            out[name] += s
        return out

    def layer_self_times(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS.values()}
        for name, s in self.self_times().items():
            out[LAYERS[name.split(".")[0]]] += s
        return out

    def metrics(self, pass_s: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass that took pass_s seconds."""
        selft = self.self_times()
        layers = self.layer_self_times()
        out = {
            metric: sum(selft.get(n, 0.0) for n in names)
            for metric, names in SELF_TIME_METRICS.items()
        }
        for layer in LAYER_SELF_METRICS:
            out[f"{layer}.self_s"] = layers[layer]
        out["bench.self_s"] = pass_s - sum(layers.values())
        out["spectra.alg_mul_calls"] = self.counts["spectra.SchemeAlgebra.mul"]
        out["algebra.cyc_mul_calls"] = self.counts["algebra.CycScalar.__mul__"]
        out["schemes.verify_calls"] = sum(
            1 for rec in self.spans if rec[0] == "schemes.AssociationScheme.from_matrices"
        )
        out["schemes.dense_mb_computed"] = self.dense_bytes / 1e6
        out["algebra.finite_field_calls"] = sum(
            n for name, n in self.counts.items() if name.startswith("algebra.FiniteField.")
        ) + sum(1 for rec in self.spans if rec[0] == "algebra.FiniteField.__init__")
        return out

    def stage_table(self, instances: list[str]) -> str:
        """Inclusive time per instance and stage, in ms."""
        totals: dict[tuple, float] = defaultdict(float)
        for name, t0, t1, _parent, job, _child in self.spans:
            totals[(job, name)] += t1 - t0
        head = f"{'instance':<12}" + "".join(f"{col:>15}" for col in STAGES)
        lines = [head]
        for inst in instances:
            cells = []
            for phase, names in STAGES.values():
                ms = 1000 * sum(totals[(f"{inst}:{phase}", n)] for n in names)
                cells.append(f"{ms:>15.0f}")
            lines.append(f"{inst:<12}" + "".join(cells))
        return "\n".join(lines)

    def dump(self) -> None:
        """Write every span, times relative to the first, as one JSON line on stderr."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            [name, round(s - t0, 6), round(e - t0, 6), parent, job]
            for name, s, e, parent, job, _child in self.spans
        ]
        print(json.dumps({"spans": rows, "counts": dict(self.counts)}), file=sys.stderr)
