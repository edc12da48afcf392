"""Command line interface.

Exit codes: 0 success, 1 usage error or malformed input file, 2 verification
failure, 3 precondition failure (parameters that admit no construction).

When --out is a relative path and the environment variable GWSCHEMES_OUTDIR
is set, output files are written inside that directory.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

from .builders import bgw_build, bgw_incidence, gh_build
from .designs import (
    bgw_matrix,
    gh_matrix,
    latin_square,
    sgdd_params,
    verify_bgw,
    verify_gh,
    verify_latin,
)
from .errors import InputError, NotAScheme, SymmetryObstruction, VerificationError
from .oracle import oracle_spectrum
from .serialize import (
    file_chunks,
    load_scheme,
    save_scheme,
    table_to_csv,
    table_to_json,
)
from .spectra import (
    FusedEigensystem,
    bgw_symmetric_fusion,
    bm_search,
    eigensystem_for,
    gh_symmetric_fusion,
)


class UsageError(Exception):
    """Missing or inconsistent command line arguments."""


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {seed}")
    return seed


def _out_path(path: str) -> str:
    outdir = os.environ.get("GWSCHEMES_OUTDIR")
    if outdir and not os.path.isabs(path):
        return os.path.join(outdir, path)
    return path


def _check_parameters(what: str, reads_m: bool, q: int | None, m: int | None) -> None:
    """Raise UsageError, naming what, unless --q is given, and --m is given
    exactly when reads_m."""
    if q is None or (reads_m and m is None):
        raise UsageError(f"{what} needs {'--q and --m' if reads_m else '--q'}")
    if not reads_m and m is not None:
        raise UsageError(f"{what} takes no --m")


def _build(family: str, q: int | None, m: int | None):
    """(scheme, provenance) of the bgw or gh scheme of the given parameters."""
    _check_parameters(f"the {family} family", family == "bgw", q, m)
    if family == "bgw":
        return bgw_build(q, m), {"family": "bgw", "q": q, "m": m}
    return gh_build(q), {"family": "gh", "q": q}


def _family_scheme(args):
    """Build (scheme, provenance) from --in or --family arguments."""
    if args.infile:
        if (args.family, args.q, args.m) != (None, None, None):
            raise UsageError("--in takes no --family, --q or --m")
        scheme, prov = load_scheme(args.infile)
        if prov is None:
            raise UsageError("scheme file has no provenance; cannot pick a family")
        return scheme, prov
    if args.family is None:
        raise UsageError("need --in FILE or --family bgw|gh")
    return _build(args.family, args.q, args.m)


def _emit_scheme(scheme, provenance, out):
    if out:
        path = _out_path(out)
        save_scheme(path, scheme, provenance)
        print(f"wrote {path}: {scheme!r}")
    else:
        for chunk in file_chunks(scheme, provenance):
            sys.stdout.write(chunk.decode("ascii"))


def _cmd_build(args) -> int:
    _emit_scheme(*_build(args.what.removesuffix("-scheme"), args.q, args.m), args.out)
    return 0


def _cmd_verify(args) -> int:
    scheme, prov = load_scheme(args.infile)
    print(f"verified: {scheme!r}")
    print(f"valencies: {scheme.valencies}")
    if prov:
        print(f"provenance: {prov}")
    if args.spectral:
        if prov is None:
            print("no provenance; cannot run the spectral check", file=sys.stderr)
            return 2
        es = eigensystem_for(scheme, prov)
        blocks = sorted((b.dim, m) for b, m in zip(es.blocks, es.multiplicities))
        numeric = oracle_spectrum(scheme.L, seed=args.seed)
        if blocks != numeric:
            print(f"spectral mismatch: {blocks} vs {numeric}", file=sys.stderr)
            return 2
        print(f"spectral blocks (d_k, m_k): {blocks} (numeric oracle agrees)")
    return 0


def _write_table(fmt: str, kind: str, field, rows, cols, entries) -> None:
    """Print a table of scalars as CSV or as one line of JSON."""
    if fmt == "csv":
        sys.stdout.write(table_to_csv(rows, cols, entries))
    else:
        json.dump(table_to_json(kind, field, rows, cols, entries), sys.stdout)
        print()


def _cmd_table(args) -> int:
    scheme, prov = _family_scheme(args)
    es = eigensystem_for(scheme, prov)
    units = [f"{name}({i},{j})" for name, i, j in es.row_index()]
    rows, cols, table = {
        "P": (units, scheme.labels, es.eigenmatrix_p),
        "Q": (scheme.labels, units, es.eigenmatrix_q),
        "T": ([blk.name for blk in es.blocks], scheme.labels, es.character_table),
    }[args.which]
    _write_table(args.format, args.which, es.algebra.field, rows, cols, table())
    return 0


def _cmd_fusion(args) -> int:
    scheme, prov = _family_scheme(args)
    es = eigensystem_for(scheme, prov)
    if prov["family"] == "bgw":
        partition = bgw_symmetric_fusion(prov["m"])
    else:
        partition = gh_symmetric_fusion(prov["q"])
    fused = scheme.fuse(partition)
    print(f"fused scheme: {fused!r}")
    fes = FusedEigensystem(es, partition)
    print(f"fused multiplicities: {fes.multiplicities}")
    if args.check_bm:
        cert = bm_search(es, partition)
        if cert is None or not cert.product_form:
            print("product-form certificate: none")
        if cert is None:
            print("no fusion certificate found", file=sys.stderr)
            return 2
        kind = "product-form" if cert.product_form else "general cells"
        print(f"certificate ({kind}): {cert.cell_count} cells = fused class count")
        for name, cells in zip(cert.block_names, cert.cells):
            desc = "; ".join(
                "{" + ",".join(f"({i},{j})" for i, j in cell) + "}" for cell in cells
            )
            print(f"  block {name}: {desc}")
    _write_table(args.format, "Q", es.algebra.field, fused.labels, fes.names, fes.qhat)
    return 0


def _cmd_designs(args) -> int:
    _check_parameters(f"designs {args.what}", args.what == "bgw", args.q, args.m)
    if args.what == "bgw":
        W = bgw_matrix(args.q, args.m)
        info = verify_bgw(W, args.m)
        print(f"BGW({info['v']},{info['k']},{info['lam']}) over Z_{args.m}: {info}")
        N = bgw_incidence(args.q, args.m, 0)
        params = sgdd_params(N, args.m)
        print(f"divisible design: {params}")
        if "lam" in params:
            print(
                f"2-design: 2-({params['v']},{params['k']},{params['lam']})"
            )
    elif args.what == "gh":
        H = gh_matrix(args.q)
        info = verify_gh(H, args.q)
        print(f"GH({args.q},{info['lam']}) over GF({args.q})+: verified")
    else:
        L = latin_square(args.q)
        info = verify_latin(L)
        if not (info["symmetric"] and info["idempotent"]):
            raise VerificationError(f"Latin square is not symmetric and idempotent: {info}")
        print(f"Latin square of order {args.q} (symmetric, idempotent): verified")
        for row in L.tolist():
            print(" ".join(str(x) for x in row))
    return 0


def _table_options(own: str, **kwargs) -> argparse.ArgumentParser:
    """The argparse parent of a command that prints a table: --in or
    --family, --q and --m, the command's own option, and --format."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--in", dest="infile")
    p.add_argument("--family", choices=["bgw", "gh"])
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument(own, **kwargs)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gwschemes",
        description="association schemes from weighing and Hadamard matrices",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("build", help="construct and save a scheme")
    p.add_argument("what", choices=["bgw-scheme", "gh-scheme"])
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("verify", help="verify a scheme file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--spectral", action="store_true")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=_cmd_verify)

    options = _table_options("--which", choices=["P", "Q", "T"], default="T")
    p = sub.add_parser("table", help="print an eigenmatrix or character table", parents=[options])
    p.set_defaults(func=_cmd_table)

    options = _table_options("--check-bm", action="store_true")
    p = sub.add_parser("fusion", help="symmetrizing fusion and its eigensystem", parents=[options])
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("designs", help="verify the underlying designs")
    p.add_argument("what", choices=["bgw", "gh", "latin"])
    p.add_argument("--q", type=int)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_designs)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 1
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except (NotAScheme, VerificationError) as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except (SymmetryObstruction, ValueError) as e:
        print(f"precondition failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
