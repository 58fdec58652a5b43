"""Batch command-line front end.

Subcommands: constants, sweep, fit, halfspace, localize, fd. Outputs are
CSV for tables and JSON for scalar reports; reruns with the same
configuration are byte-identical. Exit codes: 0 ok, 2 config error,
3 invariant violation, 4 resource/convergence error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .errors import ConfigError, WeylkitError, exit_code_for

MC_SEED = 0  # fixed seed for every Monte-Carlo ingredient


def _set_thread_cap(n: int | None) -> None:
    if n is None:
        return
    if n < 1:
        raise ConfigError(f"--threads must be >= 1, got {n}")
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        os.environ[var] = str(n)


def parse_domain(spec: str):
    """square:a | box:a,b[,c...] | disk:R | polygon:file.json"""
    from . import domains

    kind, _, rest = spec.partition(":")
    if not rest:
        raise ConfigError(f"domain spec {spec!r} needs a parameter after ':'")
    try:
        if kind == "square":
            return domains.square(float(rest))
        if kind == "box":
            return domains.Box(tuple(float(p) for p in rest.split(",")))
        if kind == "disk":
            return domains.Disk(float(rest))
        if kind == "polygon":
            return domains.load_polygon(rest)
    except ValueError as exc:
        raise ConfigError(f"bad domain spec {spec!r}: {exc}") from exc
    raise ConfigError(f"unknown domain kind {kind!r} in {spec!r}")


def parse_h_grid(spec: str) -> tuple[float, ...]:
    """log:START:STOP:COUNT, strictly decreasing and positive."""
    import numpy as np

    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "log":
        raise ConfigError(f"h grid spec must be log:START:STOP:COUNT, got {spec!r}")
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad h grid spec {spec!r}: {exc}") from exc
    if not (start > stop > 0) or count < 1:
        raise ConfigError("h grid needs START > STOP > 0 and COUNT >= 1")
    return tuple(float(h) for h in np.geomspace(start, stop, count))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _sweep_inputs(args):
    from .spectra import spectrum_for

    domain = parse_domain(args.domain)
    h_grid = parse_h_grid(args.h)
    cutoff = 1.01 / min(h_grid) ** 2  # 1% headroom over the smallest h
    spectrum = spectrum_for(domain, cutoff)
    return domain, h_grid, spectrum


def cmd_constants(args) -> int:
    from .constants import constants

    c = constants(args.d)
    payload = {"omega_d": c.omega_d, "C_d": c.C_d, "L_d": c.L_d}
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_sweep(args) -> int:
    import csv
    import io

    from .functionals import sweep, sweep_to_csv

    domain, h_grid, spectrum = _sweep_inputs(args)
    result = sweep(domain, spectrum, h_grid)
    if args.out:
        sweep_to_csv(result, args.out)
        return 0
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["h", "N", "riesz", "weyl1", "weyl2", "residual1", "residual2"])
    for r in result.records:
        w.writerow(
            [repr(r.h), r.n_below, repr(r.riesz), repr(r.weyl1), repr(r.weyl2),
             repr(r.residual1), repr(r.residual2)]
        )
    sys.stdout.write(buf.getvalue())
    return 0


def cmd_fit(args) -> int:
    from .functionals import fit_second_term, fit_to_json, sweep

    domain, h_grid, spectrum = _sweep_inputs(args)
    result = sweep(domain, spectrum, h_grid)
    report = fit_second_term(result, domain)
    _emit(fit_to_json(report), args.out)
    return 0


def cmd_halfspace(args) -> int:
    from . import halfspace
    from .constants import constants

    tol = args.tol if args.tol is not None else 1e-4
    if args.check == "boundary-coefficient":
        value = halfspace.boundary_coefficient(args.d, args.T, tol=tol)
        target = 0.25 * constants(args.d - 1).L_d
        payload = {
            "value": value,
            "target": target,
            "achieved_tolerance": abs(value - target),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    elif args.check == "profile":
        import numpy as np

        ts = np.linspace(0.0, args.T, args.count)
        if args.out is None:
            raise ConfigError("profile check needs --out for its CSV")
        halfspace.profile_to_csv(args.d, ts, args.out)
    elif args.check == "tail":
        value = halfspace.tail_bound_check(args.d, args.T)
        _emit(json.dumps({"value": value, "horizon": args.T}, indent=2) + "\n", args.out)
    else:  # dual
        pairs = [(t, halfspace.cosine_integral(args.d, t)) for t in (0.1, 1.0, 5.0, 10.0, 50.0)]
        payload = {"d": args.d, "values": [{"t": t, "cosine_integral": v} for t, v in pairs]}
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def cmd_localize(args) -> int:
    import numpy as np

    from .localization import ScaleFunction, dump_diagnostics, normalization_check

    from .domains import Box, Disk

    domain = parse_domain(args.domain)
    if not isinstance(domain, (Box, Disk)):
        raise ConfigError("localize supports square/box/disk domains only")
    sf = ScaleFunction(domain, args.l0)
    if args.out is None:
        raise ConfigError("localize needs --out for the diagnostics CSV")
    if isinstance(domain, Box):
        lo = np.zeros(domain.dim) - 2 * args.l0
        hi = np.asarray(domain.sides) + 2 * args.l0
    else:
        lo = np.full(domain.dim, -domain.radius - 2 * args.l0)
        hi = np.full(domain.dim, domain.radius + 2 * args.l0)
    axes = [np.linspace(lo[i], hi[i], args.grid) for i in range(domain.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    dump_diagnostics(sf, pts, args.out)
    if args.check_normalization:
        rng = np.random.default_rng(MC_SEED)
        tol = args.tol if args.tol is not None else 1e-3
        worst = 0.0
        for _ in range(args.check_normalization):
            x = rng.uniform(lo, hi)
            worst = max(worst, abs(normalization_check(sf, x, tol=tol) - 1.0))
        sys.stdout.write(json.dumps({"normalization_worst_deviation": worst}) + "\n")
    return 0


def cmd_fd(args) -> int:
    from .domains import load_polygon
    from .fdlap import assemble, fd_spectrum
    from .spectra import save_spectrum

    if args.out is None:
        raise ConfigError("fd needs --out for the spectrum CSV")
    polygon = load_polygon(args.polygon)
    op = assemble(polygon, args.step)
    spec = fd_spectrum(op, args.threshold)
    save_spectrum(spec, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="weylkit", description=__doc__)
    p.add_argument("--threads", type=int, default=None, help="cap BLAS/OpenMP threads")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("constants", help="semiclassical constants for a dimension")
    c.add_argument("--d", type=int, required=True)
    c.add_argument("--out")
    c.set_defaults(fn=cmd_constants)

    for name, fn in (("sweep", cmd_sweep), ("fit", cmd_fit)):
        s = sub.add_parser(name, help=f"{name} over an h grid")
        s.add_argument("--domain", required=True, help="square:a | box:a,b | disk:R")
        s.add_argument("--h", required=True, help="log:START:STOP:COUNT")
        s.add_argument("--out")
        s.set_defaults(fn=fn)

    hs = sub.add_parser("halfspace", help="half-space boundary-layer checks")
    hs.add_argument("--d", type=int, default=2)
    hs.add_argument(
        "--check",
        choices=["boundary-coefficient", "profile", "tail", "dual"],
        default="boundary-coefficient",
    )
    hs.add_argument("--T", type=float, default=200.0)
    hs.add_argument("--count", type=int, default=201)
    hs.add_argument("--tol", type=float, default=None)
    hs.add_argument("--out")
    hs.set_defaults(fn=cmd_halfspace)

    lc = sub.add_parser("localize", help="multiscale localization diagnostics")
    lc.add_argument("--domain", required=True)
    lc.add_argument("--l0", type=float, required=True)
    lc.add_argument("--grid", type=int, default=64)
    lc.add_argument("--check-normalization", type=int, default=0, metavar="N")
    lc.add_argument("--tol", type=float, default=None)
    lc.add_argument("--out")
    lc.set_defaults(fn=cmd_localize)

    fd = sub.add_parser("fd", help="finite-difference polygon spectrum")
    fd.add_argument("--polygon", required=True, help="JSON file with a vertex list")
    fd.add_argument("--step", type=float, required=True)
    fd.add_argument("--threshold", type=float, required=True)
    fd.add_argument("--out")
    fd.set_defaults(fn=cmd_fd)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _set_thread_cap(args.threads)
        return args.fn(args)
    except WeylkitError as exc:
        code = exit_code_for(exc)
        sys.stdout.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code}})
            + "\n"
        )
        return code


if __name__ == "__main__":
    sys.exit(main())
