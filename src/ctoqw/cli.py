"""Command-line front end.

Reads a coin from JSON, dispatches one computation, and emits
machine-readable output (JSON or CSV) on stdout or to --out. All numbers are
serialized with 17 significant digits so results round-trip exactly.

Exit codes: 0 success, 1 validation failure (bad file, bad coin, bad
arguments), 2 numerical-degeneracy flags (degenerate stationary analysis,
truncation leak bound at or above LEAK_TOL).
"""

from __future__ import annotations

import argparse
import io
import json
import sys

import numpy as np

from . import coins as gallery
from .classify import classify
from .lattice import (
    LEAK_TOL,
    build_block_generator,
    choose_radius,
    leak_bound,
    return_integral,
    skeleton_partials,
    trace_profile_series,
    write_series_csv,
)
from .model import Coin, load_coin, _matrix_to_pairs
from .stationary import solve_drift_operator, stationary_states, drift as drift_of
from .trajectory import drift_to_dict, estimate_drift

DEFAULT_SEED = 12345


def _f17(x: float) -> str:
    return format(float(x), ".17g")


def render_json(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {render_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _f17(obj)
    return json.dumps(obj)


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _matrix_or_none(m):
    return None if m is None else _matrix_to_pairs(np.asarray(m, dtype=complex))


def _mixed_state(coin: Coin) -> np.ndarray:
    return np.eye(coin.dim) / coin.dim


def _radius(args, coin: Coin, horizon: float) -> int:
    if args.trunc is not None:
        if args.trunc < 1:
            raise ValueError("--trunc must be at least 1")
        return args.trunc
    return choose_radius(coin, 0, horizon)


def _cmd_stationary(coin: Coin, args) -> int:
    sa = stationary_states(coin)
    doc = {
        "kernel_dim": sa.kernel_dim,
        "unique_stationary": sa.unique_stationary,
        "rho_inv": _matrix_or_none(sa.rho_inv),
    }
    if sa.note:
        doc["note"] = sa.note
    _emit(render_json(doc) + "\n", args.out)
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
    _emit(render_json(doc) + "\n", args.out)
    return 0


def _cmd_classify(coin: Coin, args) -> int:
    res = classify(coin)
    diagnostics = {}
    for k, v in res.diagnostics.items():
        if isinstance(v, (list, tuple)):
            diagnostics[k] = [list(x) if isinstance(x, tuple) else x for x in v]
        else:
            diagnostics[k] = v
    doc = {
        "verdict": res.verdict.value,
        "rule": res.rule,
        "unique_stationary": res.unique_stationary,
        "m": res.m,
        "transient_state": _matrix_or_none(res.transient_state),
        "diagnostics": diagnostics,
    }
    _emit(render_json(doc) + "\n", args.out)
    return 2 if "degenerate" in res.diagnostics else 0


def _cmd_evolve(coin: Coin, args) -> int:
    if args.t is None or args.t <= 0:
        raise ValueError("evolve needs --t > 0")
    if args.site is None:
        raise ValueError("evolve needs --site")
    n_grid = args.n if args.n is not None else 401
    if n_grid < 2:
        raise ValueError("--n must be at least 2 grid points")
    radius = _radius(args, coin, args.t)
    if abs(args.site) > radius:
        raise ValueError(f"--site {args.site} outside truncation radius {radius}")
    gen = build_block_generator(coin, radius)
    times = np.linspace(0.0, args.t, n_grid)
    rho0 = _mixed_state(coin)
    profiles = trace_profile_series(gen, rho0, 0, times)
    leaked = leak_bound(coin, rho0, 0, radius, args.t)
    p = profiles[:, args.site + radius]
    if args.format == "json":
        doc = {"site": args.site, "t": list(times), "p": list(p)}
        _emit(render_json(doc) + "\n", args.out)
    else:
        buf = io.StringIO()
        write_series_csv(buf, times, p)
        _emit(buf.getvalue(), args.out)
    if leaked >= LEAK_TOL:
        print(f"warning: truncation leak bound {leaked:.3e}", file=sys.stderr)
        return 2
    return 0


def _cmd_skeleton(coin: Coin, args) -> int:
    if args.delta is None or args.delta <= 0:
        raise ValueError("skeleton needs --delta > 0")
    if args.n is None or args.n < 0:
        raise ValueError("skeleton needs --n >= 0")
    site = args.site if args.site is not None else 0
    radius = _radius(args, coin, args.delta * max(args.n, 1))
    if abs(site) > radius:
        raise ValueError(f"--site {site} outside truncation radius {radius}")
    gen = build_block_generator(coin, radius)
    partials = skeleton_partials(gen, _mixed_state(coin), 0, site, args.delta, args.n)
    if args.format == "csv":
        lines = ["n,partial_sum"]
        lines += [f"{n},{_f17(v)}" for n, v in enumerate(partials)]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        doc = {
            "delta": args.delta,
            "n_steps": args.n,
            "site": site,
            "sum": float(partials[-1]),
            "partial_sums": list(partials),
        }
        _emit(render_json(doc) + "\n", args.out)
    return 0


def _cmd_integral(coin: Coin, args) -> int:
    if args.horizon is None or args.horizon <= 0:
        raise ValueError("integral needs --horizon > 0")
    radius = _radius(args, coin, args.horizon)
    gen = build_block_generator(coin, radius)
    rho0 = _mixed_state(coin)
    full = return_integral(gen, rho0, 0, args.horizon)
    half = return_integral(gen, rho0, 0, args.horizon / 2.0)
    doc = {
        "horizon": args.horizon,
        "value": full,
        "value_half_horizon": half,
        "growth_ratio": full / half if half != 0 else None,
    }
    _emit(render_json(doc) + "\n", args.out)
    return 0


def _cmd_simulate(coin: Coin, args) -> int:
    if args.horizon is None:
        raise ValueError("simulate needs --horizon")
    paths = args.paths if args.paths is not None else 200
    seed = args.seed if args.seed is not None else DEFAULT_SEED
    est = estimate_drift(coin, _mixed_state(coin), args.horizon, paths, seed)
    _emit(render_json(drift_to_dict(est)) + "\n", args.out)
    return 0


def _check_case(coin: Coin, expect: dict) -> str | None:
    res = classify(coin)
    if res.verdict.value != expect["verdict"]:
        return f"verdict {res.verdict.value}, expected {expect['verdict']}"
    if "m" in expect:
        target, tol = expect["m"]
        if res.m is None or abs(res.m - target) > tol:
            return f"m {res.m}, expected {target} within {tol:g}"
    if "rho_inv" in expect:
        target, tol = expect["rho_inv"]
        sa = stationary_states(coin)
        if sa.rho_inv is None:
            return "no unique stationary state"
        err = float(np.abs(sa.rho_inv - target).max())
        if err > tol:
            return f"rho_inv off by {err:.3e} (tol {tol:g})"
    if "transient_state" in expect:
        target, tol = expect["transient_state"]
        if res.transient_state is None:
            return "missing transient_state"
        err = float(np.abs(res.transient_state - target).max())
        if err > tol:
            return f"transient_state off by {err:.3e} (tol {tol:g})"
    return None


def _cmd_verify(args) -> int:
    failures = 0
    for name, coin, expect in gallery.verify_cases():
        problem = _check_case(coin, expect)
        if problem is None:
            print(f"PASS  {name}")
        else:
            failures += 1
            print(f"FAIL  {name}: {problem}")
    print(f"{'All' if failures == 0 else 'Some'} fixture checks "
          f"{'passed' if failures == 0 else 'FAILED'}")
    return 0 if failures == 0 else 1


class _Parser(argparse.ArgumentParser):
    # Validation failures exit with code 1, matching the documented contract.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ctoqw",
        description="Continuous-time open quantum walks: stationary analysis, "
                    "classification, lattice evolution, and Monte Carlo drift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "stationary": "stationary internal states and uniqueness",
        "drift": "net velocity m and the drift-operator residual",
        "classify": "recurrence verdict with rule provenance",
        "evolve": "site-occupation series p_j0(t) on a time grid",
        "skeleton": "partial sums of the delta-skeleton series",
        "integral": "finite-horizon return-time integral",
        "simulate": "Monte Carlo drift estimate over many paths",
        "verify": "check the built-in example-coin suite",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        if name != "verify":
            p.add_argument("coin", help="path to a coin JSON file")
        p.add_argument("--t", type=float, default=None, help="evolution time")
        p.add_argument("--horizon", type=float, default=None,
                       help="time horizon (integral, simulate)")
        p.add_argument("--delta", type=float, default=None, help="skeleton step")
        p.add_argument("--n", type=int, default=None,
                       help="step count (skeleton) or grid points (evolve)")
        p.add_argument("--paths", type=int, default=None,
                       help="number of Monte Carlo paths (default 200)")
        p.add_argument("--seed", type=int, default=None,
                       help=f"base RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--site", type=int, default=None, help="target site")
        p.add_argument("--trunc", type=int, default=None,
                       help="truncation radius (default: auto-grown)")
        p.add_argument("--out", default=None, help="write output to this file")
        p.add_argument("--format", choices=("json", "csv"), default=None,
                       help="output format")
    return parser


_JSON_ONLY = {"stationary", "drift", "classify", "simulate"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.format is None:
        args.format = "csv" if args.command == "evolve" else "json"
    if args.command in _JSON_ONLY and args.format != "json":
        print(f"{args.command} supports only --format json", file=sys.stderr)
        return 1

    try:
        if args.command == "verify":
            return _cmd_verify(args)
        coin = load_coin(args.coin)
        handler = {
            "stationary": _cmd_stationary,
            "drift": _cmd_drift,
            "classify": _cmd_classify,
            "evolve": _cmd_evolve,
            "skeleton": _cmd_skeleton,
            "integral": _cmd_integral,
            "simulate": _cmd_simulate,
        }[args.command]
        return handler(coin, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
