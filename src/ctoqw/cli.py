"""Command-line front end.

Reads a coin from JSON, dispatches one computation, and hands its result to
one writer: a dict goes out as ``json.dumps(doc, indent=2)`` and CSV text as
is, on stdout or to --out. JSON floats are Python's shortest round-trip repr
and CSV values carry 17 significant digits, so both parse back to the same
doubles.

Exit codes: 0 success, 1 validation failure (bad file, bad coin, bad
arguments such as a non-finite time or --trunc above 32768, or an option or
--format value the command does not take), 2 numerical-degeneracy flags
(degenerate stationary analysis, truncation leak bound at or above LEAK_TOL).
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys

import numpy as np

from . import coins as gallery
from .classify import classify
from .lattice import (
    LEAK_TOL,
    MAX_RADIUS,
    BlockGenerator,
    choose_radius,
    leak_bound,
    probability_series,
    return_integral,
    skeleton_partials,
    write_series_csv,
)
from .model import Coin, load_coin, _matrix_to_pairs
from .stationary import solve_drift_operator, stationary_states, drift as drift_of
from .trajectory import drift_to_dict, estimate_drift

DEFAULT_SEED = 12345


def _emit(result, out_path) -> None:
    """Write a dict as indented JSON, or text as is, to --out or stdout."""
    text = json.dumps(result, indent=2) + "\n" if isinstance(result, dict) else result
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _matrix_or_none(m):
    return None if m is None else _matrix_to_pairs(np.asarray(m, dtype=complex))


def _ring(args, coin: Coin, horizon: float):
    """Ring generator and rho0 = I/d, on --trunc or the radius choose_radius certifies."""
    if not np.isfinite(horizon):
        raise ValueError(f"time horizon must be finite, got {horizon}")
    if args.trunc is not None and args.trunc < 1:
        raise ValueError("--trunc must be at least 1")
    if args.trunc is not None and args.trunc > MAX_RADIUS:
        raise ValueError(f"--trunc must be at most {MAX_RADIUS}")
    radius = choose_radius(coin, 0, horizon) if args.trunc is None else args.trunc
    return BlockGenerator(coin, radius), np.eye(coin.dim) / coin.dim


def _cmd_stationary(coin: Coin, args) -> int:
    sa = stationary_states(coin)
    doc = {
        "kernel_dim": sa.kernel_dim,
        "unique_stationary": sa.unique_stationary,
        "rho_inv": _matrix_or_none(sa.rho_inv),
    }
    if sa.note:
        doc["note"] = sa.note
    _emit(doc, args.out)
    return 2 if sa.degenerate else 0


def _cmd_drift(coin: Coin, args) -> int:
    sa = stationary_states(coin)
    if not sa.unique_stationary:
        print(
            f"drift is undefined: {sa.kernel_dim} stationary directions"
            + (f" ({sa.note})" if sa.note else ""),
            file=sys.stderr,
        )
        return 2
    m = drift_of(coin, sa.rho_inv)
    j, residual = solve_drift_operator(coin, m)
    doc = {
        "m": m,
        "drift_operator_residual": residual,
        "drift_operator": _matrix_to_pairs(j),
        "unique_stationary": True,
    }
    _emit(doc, args.out)
    return 0


def _cmd_classify(coin: Coin, args) -> int:
    res = classify(coin)
    doc = {
        "verdict": res.verdict.value,
        "rule": res.rule,
        "unique_stationary": res.unique_stationary,
        "m": res.m,
        "transient_state": _matrix_or_none(res.transient_state),
        "diagnostics": res.diagnostics,
    }
    _emit(doc, args.out)
    return 2 if "degenerate" in res.diagnostics else 0


def _leak_status(coin: Coin, rho0, trunc, horizon: float) -> int:
    """Exit code 2, with a warning, when the leak bound of a --trunc radius reaches LEAK_TOL."""
    if trunc is None:  # choose_radius certified the radius for this coin, rho0 and horizon
        return 0
    leaked = leak_bound(coin, rho0, 0, trunc, horizon)
    if leaked >= LEAK_TOL:
        print(f"warning: truncation leak bound {leaked:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_evolve(coin: Coin, args) -> int:
    if args.t is None or args.t <= 0:
        raise ValueError("evolve needs --t > 0")
    if args.site is None:
        raise ValueError("evolve needs --site")
    n_grid = args.n if args.n is not None else 401
    if n_grid < 2:
        raise ValueError("--n must be at least 2 grid points")
    gen, rho0 = _ring(args, coin, args.t)
    times = np.linspace(0.0, args.t, n_grid)
    p = probability_series(gen, rho0, 0, args.site, times)[:, 0]
    if args.format == "json":
        doc = {"site": args.site, "t": list(times), "p": list(p)}
        _emit(doc, args.out)
    else:
        buf = io.StringIO()
        write_series_csv(buf, times, p)
        _emit(buf.getvalue(), args.out)
    return _leak_status(coin, rho0, args.trunc, args.t)


def _cmd_skeleton(coin: Coin, args) -> int:
    if args.delta is None or args.delta <= 0:
        raise ValueError("skeleton needs --delta > 0")
    if args.n is None or args.n < 0:
        raise ValueError("skeleton needs --n >= 0")
    site = args.site if args.site is not None else 0
    gen, rho0 = _ring(args, coin, args.delta * max(args.n, 1))
    partials = skeleton_partials(gen, rho0, 0, site, args.delta, args.n)
    if args.format == "csv":
        lines = ["n,partial_sum"]
        lines += [f"{n},{v:.17g}" for n, v in enumerate(partials)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "delta": args.delta,
            "n_steps": args.n,
            "site": site,
            "sum": partials[-1],
            "partial_sums": list(partials),
        }
        _emit(doc, args.out)
    return _leak_status(coin, rho0, args.trunc, args.delta * args.n)


def _cmd_integral(coin: Coin, args) -> int:
    if args.horizon is None or args.horizon <= 0:
        raise ValueError("integral needs --horizon > 0")
    gen, rho0 = _ring(args, coin, args.horizon)
    full, half = return_integral(gen, rho0, 0, args.horizon, with_half=True)
    doc = {
        "horizon": args.horizon,
        "value": full,
        "value_half_horizon": half,
        "growth_ratio": full / half if half != 0 else None,
    }
    _emit(doc, args.out)
    return 0


def _cmd_simulate(coin: Coin, args) -> int:
    if args.horizon is None:
        raise ValueError("simulate needs --horizon")
    est = estimate_drift(coin, np.eye(coin.dim) / coin.dim, args.horizon, args.paths, args.seed)
    _emit(drift_to_dict(est), args.out)
    return 0


def _check_case(coin: Coin, expect: dict) -> str | None:
    res = classify(coin)
    if res.verdict.value != expect["verdict"]:
        return f"verdict {res.verdict.value}, expected {expect['verdict']}"
    for key in ("m", "rho_inv", "transient_state"):
        if key not in expect:
            continue
        target, tol = expect[key]
        got = stationary_states(coin).rho_inv if key == "rho_inv" else getattr(res, key)
        if got is None:
            return f"no {key}"
        err = float(np.abs(got - target).max())
        if not err <= tol:  # a NaN error fails too
            return f"{key} off by {err:.3e} (tol {tol:g})"
    return None


def _cmd_verify(args) -> int:
    lines = []
    for name, coin, expect in gallery.verify_cases():
        problem = _check_case(coin, expect)
        lines.append(f"PASS  {name}" if problem is None else f"FAIL  {name}: {problem}")
    ok = all(line.startswith("PASS") for line in lines)
    lines.append("All fixture checks passed" if ok else "Some fixture checks FAILED")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    # Validation failures exit with code 1, matching the documented contract.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# add_argument keywords for every option; a command row names the ones it reads.
_OPTIONS = {
    "coin": dict(help="path to a coin JSON file"),
    "--t": dict(type=float, help="evolution time"),
    "--horizon": dict(type=float, help="time horizon"),
    "--delta": dict(type=float, help="skeleton step"),
    "--n": dict(type=int, help="step count (skeleton) or grid points (evolve, default 401)"),
    "--paths": dict(type=int, default=200, help="number of Monte Carlo paths (default 200)"),
    "--seed": dict(type=int, default=DEFAULT_SEED,
                   help=f"base RNG seed (default {DEFAULT_SEED})"),
    "--site": dict(type=int, help="target site"),
    "--trunc": dict(type=int, help="truncation radius (default: auto-grown)"),
    "--out": dict(help="write output to this file"),
}

# name: (help, handler, options it reads, --format choices with the default
# first; none means the command takes no --format).
_COMMANDS = {
    "stationary": ("stationary internal states and uniqueness", _cmd_stationary,
                   ("coin", "--out"), ("json",)),
    "drift": ("net velocity m and the drift-operator residual", _cmd_drift,
              ("coin", "--out"), ("json",)),
    "classify": ("recurrence verdict with rule provenance", _cmd_classify,
                 ("coin", "--out"), ("json",)),
    "evolve": ("site-occupation series p_j0(t) on a time grid", _cmd_evolve,
               ("coin", "--t", "--n", "--site", "--trunc", "--out"), ("csv", "json")),
    "skeleton": ("partial sums of the delta-skeleton series", _cmd_skeleton,
                 ("coin", "--delta", "--n", "--site", "--trunc", "--out"), ("json", "csv")),
    "integral": ("finite-horizon return-time integral", _cmd_integral,
                 ("coin", "--horizon", "--trunc", "--out"), ("json",)),
    "simulate": ("Monte Carlo drift estimate over many paths", _cmd_simulate,
                 ("coin", "--horizon", "--paths", "--seed", "--out"), ("json",)),
    "verify": ("check the built-in example-coin suite", _cmd_verify, ("--out",), ()),
}


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built from _COMMANDS once per process."""
    parser = _Parser(
        prog="ctoqw",
        description="Continuous-time open quantum walks: stationary analysis, "
                    "classification, lattice evolution, and Monte Carlo drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, options, formats) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            p.add_argument(option, **_OPTIONS[option])
        if formats:
            # main refuses a format outside the row: it returns 1, argparse would exit.
            p.add_argument("--format", choices=("json", "csv"), default=formats[0],
                           help=f"output format (default {formats[0]})")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    _, handler, options, formats = _COMMANDS[args.command]
    if formats and args.format not in formats:
        print(f"{args.command} supports only --format {'/'.join(formats)}", file=sys.stderr)
        return 1

    try:
        if "coin" in options:
            return handler(load_coin(args.coin), args)
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
