#!/usr/bin/env python3
"""Tabulate the packing density lower bound and its supporting numbers.

For each dimension the table lists the density bound, the activity
threshold where the sampler's occupancy argument is evaluated, the
fixed point z* of the self-consistency relation at that activity, the
resulting occupancy floor, and the pressure formula at the top of the
admissible activity window.

With ``--simulate`` the script also runs a short birth-death chain in
n = 2 at the n = 2 threshold activity and prints the measured density
next to the floor. The floor is an asymptotic statement, so on a small
torus this is an anchor point, not a test.

    python3 scripts/density_report.py --p 1.5 2.0
    python3 scripts/density_report.py --p 2.0 --simulate --json report.json
"""
import argparse

from superpack.constants import density_lower_bound
from superpack.geometry import SpaceParams, TorusRegion
from superpack.gibbs import ModelParams, run_chain
from superpack.lattice_graph import json_text, write_text
from superpack.thermo import pressure_reference

COLUMNS = (
    ("n", "{:>3d}", "{:>3s}"),
    ("bound", "{:>12.6e}", "{:>12s}"),
    ("fugacity_threshold", "{:>12.6e}", "{:>12s}"),
    ("z_star", "{:>10.6f}", "{:>10s}"),
    ("alpha_floor", "{:>12.6e}", "{:>12s}"),
    ("pressure_at_top", "{:>12.6e}", "{:>12s}"),
)
HEADERS = ("n", "bound", "lam_thresh", "z_star", "alpha_floor", "p_at_top")


def table_rows(p, ns):
    rows = []
    for n in ns:
        b = density_lower_bound(n, p)
        z_star, floor = b.alpha_floor(b.fugacity_threshold)
        rows.append(
            {
                "n": n,
                "p": p,
                "c_p": b.c_p,
                "bound": b.bound,
                "fugacity_threshold": b.fugacity_threshold,
                "z_star": z_star,
                "alpha_floor": floor,
                "pressure_at_top": pressure_reference(n, b.c_p**-n, p),
            }
        )
    return rows


def simulate_anchor(p, steps, seed):
    b = density_lower_bound(2, p)
    z_star, floor = b.alpha_floor(b.fugacity_threshold)
    space = SpaceParams.create(p, (0, 1, 2))
    params = ModelParams(space, TorusRegion(8.0 * space.r_unit), b.fugacity_threshold)
    est = run_chain(params, steps, steps // 10, seed=seed, free_volume=False)
    return {
        "n": 2,
        "fugacity": b.fugacity_threshold,
        "alpha_floor": floor,
        "alpha_hat": est.alpha_hat,
        "alpha_se": est.alpha_se,
        "steps": steps,
        "seed": seed,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0])
    ap.add_argument("--n", type=int, nargs="+", default=[8, 16, 32, 48])
    ap.add_argument("--simulate", action="store_true",
                    help="run an n=2 chain at the n=2 threshold activity")
    ap.add_argument("--steps", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", type=str, default=None, help="also write JSON here")
    args = ap.parse_args()

    out = {}
    for p in args.p:
        rows = table_rows(p, args.n)
        out[str(p)] = {"table": rows}
        print(f"\np = {p}   c_p = {rows[0]['c_p']:.12f}")
        print("  ".join(hfmt.format(h)
                        for (_, _, hfmt), h in zip(COLUMNS, HEADERS)))
        for row in rows:
            print("  ".join(fmt.format(row[key]) for key, fmt, _ in COLUMNS))
        if args.simulate:
            anchor = simulate_anchor(p, args.steps, args.seed)
            out[str(p)]["anchor"] = anchor
            print(f"measured n=2 at lam={anchor['fugacity']:.6e}: "
                  f"alpha = {anchor['alpha_hat']:.6f} "
                  f"(se {anchor['alpha_se']:.1e}, floor {anchor['alpha_floor']:.6e})")

    if args.json:
        write_text(args.json, json_text(out))
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
