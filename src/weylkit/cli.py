"""Batch command-line front end.

Subcommands: constants, sweep, fit, halfspace, localize, fd. Outputs are
CSV for tables and JSON for scalar reports; reruns with the same
configuration are byte-identical. Exit codes: 0 ok, 2 config error,
3 invariant violation, 4 resource/convergence error.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache
from pathlib import Path

import numpy as np

from . import domains, halfspace
from .constants import constants
from .errors import ConfigError, ResourceError, WeylkitError
from .fdlap import assemble, fd_spectrum
from .functionals import fit_second_term, fit_to_json, sweep, sweep_to_csv
from .localization import ScaleFunction, bounding_box, dump_diagnostics, normalization_check
from .output import json_line, json_text, write
from .spectra import save_spectrum, sidecar, spectrum_for

MC_SEED = 0  # fixed seed for every Monte-Carlo ingredient
_GRID_BUDGET = 2**21  # points a command evaluates (128^3); about 0.4 kB each in a 3-D localize


def parse_domain(spec: str):
    """square:a | box:a,b[,c...] | disk:R | polygon:file.json"""
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
    """log:START:STOP:COUNT, strictly decreasing, positive and finite."""
    parts = spec.split(":")
    if len(parts) != 4 or parts[0] != "log":
        raise ConfigError(f"h grid spec must be log:START:STOP:COUNT, got {spec!r}")
    try:
        start, stop, count = float(parts[1]), float(parts[2]), int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad h grid spec {spec!r}: {exc}") from exc
    if not (math.inf > start > stop > 0) or count < 1:
        raise ConfigError("h grid needs START > STOP > 0 and COUNT >= 1")
    if count > _GRID_BUDGET:
        raise ResourceError(f"h grid of {count} points is over the budget {_GRID_BUDGET}")
    grid = tuple(float(h) for h in np.geomspace(start, stop, count))
    hh = grid[-1] * grid[-1]
    if not (math.inf > hh > 0):
        raise ConfigError(f"smallest h {grid[-1]!r} has h^2 = {hh!r}, not positive and finite")
    return grid


def _sweep(args):
    domain = parse_domain(args.domain)
    h_grid = parse_h_grid(args.h)
    cutoff = 1.01 / min(h_grid) ** 2  # 1% headroom over the smallest h
    return sweep(domain, spectrum_for(domain, cutoff), h_grid)


def cmd_constants(args) -> int:
    c = constants(args.d)
    write(json_text({"omega_d": c.omega_d, "C_d": c.C_d, "L_d": c.L_d}), args.out or None)
    return 0


def cmd_sweep(args) -> int:
    write(sweep_to_csv(_sweep(args)), args.out or None)
    return 0


def cmd_fit(args) -> int:
    write(fit_to_json(fit_second_term(_sweep(args))), args.out or None)
    return 0


def cmd_halfspace(args) -> int:
    if args.check == "profile":
        if args.out is None:
            raise ConfigError("profile check needs --out for its CSV")
        if args.count > _GRID_BUDGET:
            raise ResourceError(f"profile of {args.count} points is over the budget {_GRID_BUDGET}")
    if not args.tol >= 0:  # boundary_coefficient's own message, for every check
        raise ConfigError(f"tol must be nonnegative, got {args.tol}")
    if args.check == "profile":
        halfspace.profile_to_csv(args.d, np.linspace(0.0, args.T, args.count), args.out)
        return 0
    if args.check == "boundary-coefficient":
        value = halfspace.boundary_coefficient(args.d, args.T, tol=args.tol)
        target = 0.25 * constants(args.d - 1).L_d
        payload = {
            "value": value,
            "target": target,
            "achieved_tolerance": abs(value - target),
        }
    elif args.check == "tail":
        value = halfspace.tail_bound_check(args.d, args.T)
        payload = {"value": value, "horizon": args.T}
    else:  # dual
        pairs = [(t, halfspace.cosine_integral(args.d, t)) for t in (0.1, 1.0, 5.0, 10.0, 50.0)]
        payload = {"d": args.d, "values": [{"t": t, "cosine_integral": v} for t, v in pairs]}
    write(json_text(payload), args.out or None)
    return 0


def cmd_localize(args) -> int:
    domain = parse_domain(args.domain)
    lo, hi = bounding_box(domain, 2 * args.l0)
    sf = ScaleFunction(domain, args.l0)
    if args.out is None:
        raise ConfigError("localize needs --out for the diagnostics CSV")
    g, d = args.grid, domain.dim
    if g**d > _GRID_BUDGET:
        raise ResourceError(f"localize grid of {g}^{d} points is over the budget {_GRID_BUDGET}")
    pts = domains.lattice([np.linspace(lo[i], hi[i], g) for i in range(d)])
    if not args.tol > 0:  # normalization_check's own message, with or without its points
        raise ConfigError(f"tol must be positive, got {args.tol}")
    # every normalization point is checked before the CSV is written, so a
    # refused point leaves no file
    rng = np.random.default_rng(MC_SEED)
    worst = 0.0
    for _ in range(args.check_normalization):
        worst = max(worst, abs(normalization_check(sf, rng.uniform(lo, hi), tol=args.tol) - 1.0))
    dump_diagnostics(sf, pts, args.out)
    if args.check_normalization:
        write(json_line({"normalization_worst_deviation": worst}), None)
    return 0


def cmd_fd(args) -> int:
    if args.out is None:
        raise ConfigError("fd needs --out for the spectrum CSV")
    out = Path(args.out).resolve()
    if Path(args.polygon).resolve() in (out, sidecar(out)):
        raise ConfigError(f"fd would overwrite --polygon {args.polygon} with --out {args.out} "
                          "or its .json sidecar")
    if sidecar(out) == out:
        raise ConfigError(f"fd --out {args.out} would be overwritten by its own .json sidecar; "
                          "name the spectrum CSV with another extension")
    polygon = domains.load_polygon(args.polygon)
    op = assemble(polygon, args.step)
    spec = fd_spectrum(op, args.threshold)
    save_spectrum(spec, args.out)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports argument errors as ConfigError, so they print as JSON; its
    subparsers inherit this."""

    def error(self, message):
        raise ConfigError(message)


def _checked(kind, ok, need: str):
    """argparse type: kind(text), refused unless ok(value)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {need}")
        return value

    return parse


_FINITE = _checked(float, math.isfinite, "a finite number")
_COUNT = _checked(int, lambda n: n >= 0, "a non-negative integer")


@cache  # built once per process; argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="weylkit", description=__doc__)
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
    hs.add_argument("--T", type=_FINITE, default=200.0)
    hs.add_argument("--count", type=_COUNT, default=201)
    hs.add_argument("--tol", type=_FINITE, default=1e-4)
    hs.add_argument("--out")
    hs.set_defaults(fn=cmd_halfspace)

    lc = sub.add_parser("localize", help="multiscale localization diagnostics")
    lc.add_argument("--domain", required=True)
    lc.add_argument("--l0", type=float, required=True)  # ScaleFunction checks it
    lc.add_argument("--grid", type=_COUNT, default=64)
    lc.add_argument("--check-normalization", type=_COUNT, default=0, metavar="N")
    lc.add_argument("--tol", type=_FINITE, default=1e-3)
    lc.add_argument("--out")
    lc.set_defaults(fn=cmd_localize)

    fd = sub.add_parser("fd", help="finite-difference polygon spectrum")
    fd.add_argument("--polygon", required=True, help="JSON file with a vertex list")
    fd.add_argument("--step", type=float, required=True)  # assemble checks it
    fd.add_argument("--threshold", type=_FINITE, required=True)
    fd.add_argument("--out")
    fd.set_defaults(fn=cmd_fd)
    return p


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.fn(args)
        except OSError as exc:  # e.g. an --out path that cannot be written
            raise ConfigError(str(exc)) from exc
    except WeylkitError as exc:
        code = exc.exit_code
        write(json_line({"error": {"type": type(exc).__name__, "message": str(exc),
                                   "exit_code": code}}), None)
        return code


if __name__ == "__main__":
    sys.exit(main())
