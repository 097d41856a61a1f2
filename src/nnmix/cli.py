"""Command-line front end.

Subcommands mirror the library: ``em``, ``nnrank3``, ``factorize``,
``boundary``, ``patterns``, ``family``, ``experiment``.  Matrices are read
and written in the shared text format (one row per line, comma-separated,
``p/q`` or integers for exact entries, decimals for floats).

Exit codes: 0 for success (including verdicts in/interior), 1 when the
verdict is out/boundary/outside (the payload is still written), 2 for usage
errors, 3 for numeric failures.

Importing this module does not load numpy, and neither do ``nnrank3``,
``factorize``, ``patterns``, ``family`` without ``--mle`` and ``boundary``:
they run on the standard library.  ``em``, ``family --mle``, ``experiment``
and a float ``greencurve`` determinant import it when they reach it.

``boundary`` prints ``boundary_test``'s verdict but reads witnesses only
until one decides, so its ``witnesses`` counts the records it read (see
``boundary._classify_until_decided``).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import boundary as boundary_mod
from . import families, harness
from .defaults import CRIT_TOL, MAX_ITER, TOL
from .exactla import (EXACT, PROMOTE_DENOMINATOR, Matrix, determinant, format_matrix,
                      from_numpy, parse_matrix, parse_scalar)
from .rank3cert import (DomainError, NotInModelError, nnrank3_membership,
                        nonneg_rank3_factorize)

EXIT_OK = 0
EXIT_NEGATIVE_VERDICT = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


# --backend choices of the matrix commands; boundary_test and the exact
# factorization need rational entries, so only nnrank3 decides on floats
_BACKENDS = {"nnrank3": ("auto", "exact", "float", "promote"),
             "boundary": ("exact", "promote"),
             "factorize": ("exact", "promote")}


def _read_matrix(args) -> Matrix:
    """Load ``args.input`` on ``args.backend``: auto/exact/float/promote.

    Raises ValueError on unreadable or malformed input so the dispatcher
    maps it to the usage exit code.
    """
    path, backend = args.input, args.backend
    try:
        M = parse_matrix(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if backend == "exact" and M.backend != EXACT:
        others = [b for b in _BACKENDS[args.command] if b not in ("auto", "exact")]
        raise ValueError(f"{path} holds float entries; "
                         f"use --backend {' or '.join(others)}")
    if backend == "float":
        M = M.as_float()
    elif backend == "promote":
        M = M.as_exact()
    return M


def _emit(payload: dict, out: str | None):
    text = json.dumps(payload, indent=2, default=str)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_em(args) -> int:
    from . import em
    U = _read_matrix(args).to_numpy()
    best, _ = em.run_em_restarts(U, args.r, restarts=args.restarts, seed=args.seed,
                                 max_iter=args.max_iter, tol=args.tol,
                                 crit_tol=args.crit_tol)
    payload = best.report()
    payload["restarts"] = args.restarts
    _emit(payload, args.output)
    if args.estimate_out:
        Path(args.estimate_out).write_text(format_matrix(from_numpy(best.P_hat)))
    return EXIT_OK


def _cmd_nnrank3(args) -> int:
    M = _read_matrix(args)
    dec = nnrank3_membership(M)
    _emit(dec.as_dict(), args.output)
    return EXIT_OK if dec else EXIT_NEGATIVE_VERDICT


def _cmd_factorize(args) -> int:
    M = _read_matrix(args)
    try:
        A, B = nonneg_rank3_factorize(M)
    except NotInModelError as exc:
        _emit({"schema": "1", "error": str(exc)}, args.output)
        return EXIT_NEGATIVE_VERDICT
    Path(f"{args.prefix}_A.txt").write_text(format_matrix(A))
    Path(f"{args.prefix}_B.txt").write_text(format_matrix(B))
    _emit({"schema": "1", "status": "ok",
           "A": f"{args.prefix}_A.txt", "B": f"{args.prefix}_B.txt"}, args.output)
    return EXIT_OK


def _cmd_boundary(args) -> int:
    M = _read_matrix(args)
    cls = boundary_mod._classify_until_decided(M)
    _emit(cls.as_dict(), args.output)
    return EXIT_OK if cls.status == boundary_mod.INTERIOR else EXIT_NEGATIVE_VERDICT


def _cmd_patterns(args) -> int:
    pats = boundary_mod.enumerate_zero_patterns(args.m, args.n)
    if args.kind != "both":
        pats = [p for p in pats if p.kind == args.kind]
    counts = boundary_mod.component_count(args.m, args.n)
    payload = {
        "schema": "1",
        "counts": counts.as_dict(),
        "patterns": [
            {"kind": p.kind, "A_zeros": list(map(list, p.A_zeros)),
             "B_zeros": list(map(list, p.B_zeros))}
            for p in pats
        ],
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_family(args) -> int:
    summary: dict = {"schema": "1", "family": args.name}
    matrices: list[tuple[str, Matrix]] = []
    if args.name == "uab":
        a, b = int(args.a), int(args.b)
        U = families.uab_matrix(a, b)
        matrices.append(("U", U))
        summary["in_model"] = families.uab_in_model(a, b)
        if args.mle:
            from . import em
            mle = families.uab_closed_form_mle(a, b)
            summary["letters"] = {k: str(v) for k, v in mle.letters().items()}
            summary["exact"] = mle.exact
            summary["loglik"] = em.log_likelihood(U.to_numpy(),
                                                  mle.matrices[0].to_numpy())
            for idx, M in enumerate(mle.matrices, start=1):
                matrices.append((f"mle{idx}", M))
    elif args.name == "rectangle":
        a, b = parse_scalar(args.a), parse_scalar(args.b)
        M = families.rectangle_family(a, b)
        matrices.append(("P", M))
        summary["in_model"] = families.rectangle_in_model(a, b)
    else:  # greencurve
        x, y = parse_scalar(args.a), parse_scalar(args.b)
        M = families.greencurve_matrix(x, y)
        matrices.append(("P", M))
        summary["det"] = str(determinant(M))
    text = "".join(f"# {name}\n{format_matrix(M)}" for name, M in matrices)
    if args.matrix_out:
        Path(args.matrix_out).write_text(text)
    else:
        sys.stdout.write(text)
    _emit(summary, args.output)
    return EXIT_OK


# ExperimentConfig fields but mode, each an experiment flag and a config-file
# key, with the dataclass default
_CONFIG_DEFAULTS = {f.name: f.default for f in fields(harness.ExperimentConfig)
                    if f.name != "mode"}


def _read_config(path: str, mode: str) -> dict:
    """Load an experiment config file: a JSON object of ``_CONFIG_DEFAULTS``
    keys, and optionally ``mode``, which must then be the command's.

    Raises ValueError on an unreadable file, an unknown key, another mode or
    a value of the wrong type, so the dispatcher maps it to the usage exit
    code.
    """
    try:
        values = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    if not isinstance(values, dict):
        raise ValueError(f"{path} must hold a JSON object")
    file_mode = values.pop("mode", mode)
    if file_mode != mode:
        raise ValueError(f"config mode {file_mode!r} is not the command's {mode!r}")
    unknown = set(values) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        kind = type(_CONFIG_DEFAULTS[key])
        allowed = (int, float) if kind is float else kind
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ValueError(f"config key {key!r} must be {kind.__name__}, got {value!r}")
    return values


def _cmd_experiment(args) -> int:
    # config file supplies the base values; explicitly given flags override
    values = _read_config(args.config, args.mode) if args.config else {}
    values.update({key: getattr(args, key) for key in _CONFIG_DEFAULTS
                   if getattr(args, key) is not None})
    cfg = harness.ExperimentConfig(mode=args.mode, **values)
    report = harness.run_experiment(cfg, jobs=args.jobs)
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    _emit(report.as_dict(), args.output)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``nnmix`` argument parser, built on first use and shared after.

    ``parse_args`` returns a fresh namespace each call and reads nothing
    back into the parser, so one instance serves every ``main`` call in a
    process; building it lazily keeps it out of the import.
    """
    ap = argparse.ArgumentParser(
        prog="nnmix",
        description="EM, nonnegative-rank-3 certification, and boundary "
                    "classification for two-variable mixture models")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("em", help="run EM on a count table")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=MAX_ITER)
    p.add_argument("--tol", type=float, default=TOL)
    p.add_argument("--crit-tol", dest="crit_tol", type=float, default=CRIT_TOL)
    p.add_argument("--output")
    p.add_argument("--estimate-out", dest="estimate_out")
    p.set_defaults(func=_cmd_em, backend="float")

    for name, func, help_text in [
            ("nnrank3", _cmd_nnrank3, "nonnegative-rank-3 membership verdict"),
            ("factorize", _cmd_factorize, "exact nonnegative rank-3 factorization"),
            ("boundary", _cmd_boundary, "topological boundary classification")]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input", required=True)
        p.add_argument("--backend", choices=_BACKENDS[name], default=_BACKENDS[name][0],
                       help="exact requires rational entries; promote rounds "
                            f"floats to denominator {PROMOTE_DENOMINATOR:.0e}")
        if name == "factorize":
            p.add_argument("--prefix", default="factor")
        p.add_argument("--output")
        p.set_defaults(func=func)

    p = sub.add_parser("patterns", help="boundary stratum zero patterns and counts")
    p.add_argument("--m", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.add_argument("--kind", choices=["a", "b", "both"], default="both")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("family", help="closed-form parametric families")
    p.add_argument("name", choices=["uab", "rectangle", "greencurve"])
    p.add_argument("--a", required=True, help="first parameter (x for greencurve)")
    p.add_argument("--b", required=True, help="second parameter (y for greencurve)")
    p.add_argument("--mle", action="store_true",
                   help="emit the eight closed-form maximizers (uab only)")
    p.add_argument("--matrix-out", dest="matrix_out")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_family)

    p = sub.add_parser("experiment", help="seeded Monte-Carlo experiments")
    p.add_argument("mode", choices=list(harness.TRIALS))
    p.add_argument("--config", help="JSON file with base config values "
                                    "(explicit flags override)")
    extra = {"generator": dict(choices=list(harness.GENERATORS),
                               help="random-table generator for table1"),
             "dist": dict(choices=list(harness.DISTS))}
    for key in _CONFIG_DEFAULTS:
        flag = "restarts" if key == "num_restarts" else key.replace("_", "-")
        p.add_argument(f"--{flag}", dest=key, type=type(_CONFIG_DEFAULTS[key]),
                       **extra.get(key, {}))
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--csv")
    p.add_argument("--output")
    p.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # em.EMNumericalError among them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
