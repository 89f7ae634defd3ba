#!/usr/bin/env python3
"""Sweep a multiplier h_star of the surface density and record the trace norm damping.

Solves with density sigma * h_star for each h_star and writes h_star,
||Y||_L2(Sigma) pairs; the norm plateaus for weak coupling and decays once the
damping sets in (bounded by C h_star^-1/2, asymptotically h_star^-1 for
plane-wave data).
"""

import argparse
import csv

import numpy as np

from bubblelab.meshes import icosphere
from bubblelab.pointscat import IncidentWave
from bubblelab.surfmedium import assemble_and_solve_surface


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sigma", type=float, default=5.0)
    parser.add_argument("--kappa0", type=float, default=2.0)
    parser.add_argument("--level", type=int, default=3, help="icosphere subdivision")
    parser.add_argument("--decades", type=float, nargs=2, default=(-2.0, 4.0))
    parser.add_argument("--points", type=int, default=13)
    parser.add_argument("--out", default="damping_sweep.csv")
    args = parser.parse_args()

    mesh = icosphere(args.level)
    inc = IncidentWave(args.kappa0, np.array([0.0, 0.0, 1.0]))
    h_values = np.logspace(args.decades[0], args.decades[1], args.points)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["h_star", "trace_norm"])
        for h in h_values:
            sol = assemble_and_solve_surface(mesh, args.sigma * float(h), inc)
            norm = float(np.sqrt(np.sum(np.abs(sol.y) ** 2 * mesh.areas)))
            writer.writerow([repr(float(h)), repr(norm)])
            print(f"h_star={h:10.4g}  ||Y|| = {norm:.6e}")
    print(f"-> {args.out}")


if __name__ == "__main__":
    main()
