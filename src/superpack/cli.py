"""Command line front end.

Subcommands map one-to-one onto the library layers:

    constants   convexity chain and density bound table
    volume      unit ball volume and radius, optional MC cross-check
    simulate    birth-death chains, CSV traces plus a JSON summary
    pack        lattice -> graph -> greedy packing -> certificate
    verify      recheck a certificate from its file alone
    thermo      pressure / entropy estimates

Every output embeds the fully resolved configuration, the seed, and
the package version; nothing embeds wall-clock time, so a rerun with
the same arguments is byte-identical. Files are written atomically.
Exit codes: 0 success, 2 bad input, 3 computation failure, 4 a
verification that returned "invalid".
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .constants import compute_constant_chain, density_lower_bound
from .errors import ComputationError, InputError
from .geometry import SpaceParams, SuperballRegion, TorusRegion, norm_batch, unit_ball_volume
from .gibbs import ModelParams, merge_estimates, run_chains
from .lattice_graph import (
    build_graph,
    build_lattice,
    emit_packing,
    greedy_independent_set,
    json_text,
    local_sparsity_stats,
    save_certificate,
    verify_packing,
    write_text,
)
from .thermo import entropy_estimate, pressure_estimate

__all__ = ["main"]


def _parse_ints(text: str, name: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"--{name} must be comma-separated integers, got {text!r}") from exc


def _resolve_out(path: str | None) -> str | None:
    """Relative output paths land in $SUPERPACK_OUT when it is set."""
    if path is None:
        return None
    base = os.environ.get("SUPERPACK_OUT")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload: dict | str, out: str | None) -> None:
    if isinstance(payload, dict):
        payload = json_text(payload)
    if out:
        write_text(out, payload)
    else:
        sys.stdout.write(payload)


def _space(args) -> SpaceParams:
    return SpaceParams.create(args.p, _parse_ints(args.cuts, "cuts"))


def _region(args):
    if args.region == "torus":
        return TorusRegion(args.size)
    if args.region == "ball":
        return SuperballRegion(args.size)
    raise InputError(f"unknown region {args.region!r}")


def _config(args) -> dict:
    # threads is an execution resource, not part of the result's identity
    conf = {k: v for k, v in vars(args).items() if k not in ("func", "out", "threads")}
    conf["version"] = __version__
    return conf


def cmd_constants(args) -> int:
    chain = compute_constant_chain(args.p)
    table = [density_lower_bound(n, args.p).to_json() for n in _parse_ints(args.n, "n")]
    if args.format == "json":
        _emit({"config": _config(args), "chain": chain.to_json(), "density_table": table},
              _resolve_out(args.out))
    else:
        lines = [f"p = {args.p}"]
        for key, val in chain.to_json().items():
            lines.append(f"  {key:>18} = {val!r}")
        lines.append(f"{'n':>4} {'bound':>24} {'fugacity_threshold':>24}")
        for row in table:
            lines.append(
                f"{row['n']:>4} {row['bound']!r:>24} {row['fugacity_threshold']!r:>24}"
            )
        _emit("\n".join(lines) + "\n", _resolve_out(args.out))
    return 0


def cmd_volume(args) -> int:
    space = _space(args)
    payload = {
        "config": _config(args),
        "volume": unit_ball_volume(space.p, space.blocks),
        "r_unit": space.r_unit,
    }
    if args.mc:
        rng = np.random.default_rng(args.seed)
        hits = 0
        done = 0
        while done < args.mc:
            m = min(args.mc - done, 2_000_000 // space.n)
            pts = rng.uniform(-1.0, 1.0, size=(m, space.n))
            hits += int((norm_batch(pts, space) <= 1.0).sum())
            done += m
        if hits == 0:
            # zero hits bound the volume, they do not estimate it as 0
            raise ComputationError(
                f"no cube sample hit the unit ball; 95% upper bound on the volume: "
                f"3 * 2^{space.n} / {args.mc} = {3.0 * 2.0**space.n / args.mc:.3g}"
            )
        frac = hits / args.mc
        est = frac * 2.0**space.n
        se = 2.0**space.n * np.sqrt(frac * (1.0 - frac) / args.mc)
        payload["mc"] = {"estimate": est, "se": se, "hits": hits, "samples": args.mc, "seed": args.seed}
    _emit(payload, _resolve_out(args.out))
    return 0


def _trace_csv(estimate, config_line: str) -> str:
    # the trace spans every step; estimates use only the post-burn-in part. One % format
    # per 4096 rows; only the probe column holds -1 (no probe ran), written empty
    tr = estimate.trace
    cols = [np.arange(len(tr["count"])), tr["count"], tr["fv_probe_hits"], tr["accepted"], tr["birth"]]
    text = ["# config=" + config_line + "\nstep,count,fv_probe_hits,accepted,birth\n"]
    for start in range(0, len(cols[0]), 4096):
        rows = np.stack([c[start : start + 4096] for c in cols], axis=1).ravel().tolist()
        text.append(("%d,%d,%d,%d,%d\n" * (len(rows) // 5) % tuple(rows)).replace(",-1,", ",,"))
    return "".join(text)


def cmd_simulate(args) -> int:
    space = _space(args)
    params = ModelParams(space, _region(args), args.fugacity, args.radius)
    conf = _config(args)
    out = _resolve_out(args.out)

    seeds = [args.seed] if args.replicas == 1 else [
        int(s) for s in np.random.SeedSequence(args.seed).generate_state(args.replicas, dtype=np.uint64)
    ]
    estimates = run_chains([(params, args.steps, args.burnin, s, out is not None, True) for s in seeds], args.threads)

    config_line = json.dumps(conf, sort_keys=True)
    if out:
        base, ext = os.path.splitext(out)
        ext = ext or ".csv"
        if args.replicas == 1:
            write_text(base + ext, _trace_csv(estimates[0], config_line))
        else:
            for i, est in enumerate(estimates):
                write_text(f"{base}.r{i}{ext}", _trace_csv(est, config_line))

    merged = estimates[0] if args.replicas == 1 else merge_estimates(estimates)
    summary = {"config": conf, "estimate": merged.to_json(), "replica_seeds": seeds}
    _emit(summary, base + ".json" if out else None)
    return 0


def cmd_pack(args) -> int:
    space = _space(args)
    radius = space.superball_radius(args.radius)  # before any lattice work
    lattice = build_lattice(args.R, args.eps, space)
    graph = build_graph(lattice, radius=radius)
    chosen = greedy_independent_set(graph, args.order)
    cert = emit_packing(graph, chosen)
    conf = _config(args)
    summary = {
        "config": conf,
        "cubes": lattice.N,
        "edges": graph.edge_count,
        "max_degree": graph.max_degree,
        "count": cert.count,
        "density": cert.density,
        "min_pairwise_distance": cert.min_pairwise_distance,
    }
    if args.local_stats:
        # advisory only: a guard trip must not discard a finished packing
        try:
            summary["local_sparsity"] = local_sparsity_stats(
                graph, compute_constant_chain(space.p)
            )
        except ComputationError as err:
            summary["local_sparsity"] = {"advisory": True, "skipped": str(err)}
    out = _resolve_out(args.out)
    if out:
        save_certificate(cert, out, meta={"config": conf, **{k: summary[k] for k in ("cubes", "edges", "max_degree")}})
    _emit(summary, None if out is None else os.path.splitext(out)[0] + ".summary.json")
    return 0


def cmd_verify(args) -> int:
    valid, min_d = verify_packing(args.infile)
    _emit({"config": _config(args), "valid": valid, "min_pairwise_distance": min_d},
          _resolve_out(args.out))
    return 0 if valid else 4


def cmd_thermo(args) -> int:
    space = _space(args)
    params = ModelParams(space, _region(args), args.fugacity, args.radius)
    if args.quantity == "pressure":
        res = pressure_estimate(
            params, grid_size=args.grid, steps=args.steps,
            burn_in=args.burnin, seed=args.seed, threads=args.threads,
        )
    else:
        if args.count is None:
            raise InputError("entropy needs --count")
        res = entropy_estimate(params, args.count, args.samples, seed=args.seed)
    _emit({"config": _config(args), "result": res.to_json()}, _resolve_out(args.out))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="superpack", description=__doc__)
    parser.add_argument("--threads", type=int, default=1,
                        help="processes that share independent chains: the replicas "
                             "of simulate and the grid chains of thermo pressure "
                             "(thermo entropy ignores it); never changes results")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_space(p):
        p.add_argument("--p", type=float, required=True)
        p.add_argument("--cuts", type=str, required=True,
                       help="comma-separated cut sequence, e.g. 0,1,2")

    def add_region(p):
        p.add_argument("--region", choices=("torus", "ball"), default="torus")
        p.add_argument("--size", type=float, required=True,
                       help="torus side or ball radius")
        p.add_argument("--radius", type=float, default=None,
                       help="superball radius; default makes unit volume")

    p = sub.add_parser("constants", help="convexity chain and density bounds")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--n", type=str, default="8,16,32,48")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("volume", help="unit ball volume, optional MC check")
    add_space(p)
    p.add_argument("--mc", type=int, default=0, help="MC sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("simulate", help="grand canonical birth-death chain")
    add_space(p)
    add_region(p)
    p.add_argument("--fugacity", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--burnin", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicas", type=int, default=1)
    p.add_argument("--out", type=str, default=None,
                   help="CSV trace path; JSON summary lands next to it")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pack", help="construct and certify a packing")
    add_space(p)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--order", choices=("mindeg", "lex"), default="mindeg")
    p.add_argument("--radius", type=float, default=None)
    p.add_argument("--local-stats", action="store_true")
    p.add_argument("--out", type=str, default=None, help="certificate path")
    p.set_defaults(func=cmd_pack)

    p = sub.add_parser("verify", help="recheck a packing certificate")
    p.add_argument("--in", dest="infile", type=str, required=True)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("thermo", help="pressure or entropy estimate")
    p.add_argument("quantity", choices=("pressure", "entropy"))
    add_space(p)
    add_region(p)
    p.add_argument("--fugacity", type=float, default=1.0)
    p.add_argument("--count", type=int, default=None, help="centers for entropy")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--steps", type=int, default=200_000)
    p.add_argument("--burnin", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_thermo)

    return parser


_parser = functools.cache(build_parser)  # one argparse tree per process; build_parser() stays uncached


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        for name, least in (("seed", 0), ("mc", 0), ("replicas", 1), ("threads", 1)):
            if getattr(args, name, least) < least:
                raise InputError(f"--{name} must be an integer >= {least}, got {getattr(args, name)}")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
