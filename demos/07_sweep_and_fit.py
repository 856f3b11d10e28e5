#!/usr/bin/env python3
"""A reproducible sweep with exponent fitting.

Runs the full-plane and random families, writes the fixed-schema CSV, fits
the incidence-count growth exponent on log-log axes, and emits a small SVG
scatter plot.  Each record is a dict keyed by the CSV column names, the
form that read_records gives back from a sweep file, so fit_exponent reads
either.  Identical configurations always produce identical bytes.
"""

import pathlib

from incidencelab import SweepConfig, fit_exponent, run_sweep
from incidencelab.harness import fit_scatter_svg, records_to_csv

config = SweepConfig.from_dict({
    "seed": 424242,
    "families": [
        {"family": "full_plane", "p": [29, 31, 37, 41, 43]},
        {"family": "random", "p": [65537], "sizes": [64, 256, 1024, 4096]},
        {"family": "elekes", "a": [2, 4], "c": [2], "p": [1009]},
    ],
})
records = run_sweep(config)

csv_text = records_to_csv(records)
out = pathlib.Path("sweep_demo.csv")
out.write_text(csv_text)
print(f"wrote {out} ({len(records)} records)")
print()
print(csv_text.strip())

full_plane_records = [r for r in records if r["family"] == "full_plane"]
fit = fit_exponent(full_plane_records, "m", "I")
print()
print(f"full-plane growth: slope {fit.slope:.4f} (expected near 3/2), "
      f"R^2 = {fit.r_squared:.6f} over {fit.samples} samples")

svg = fit_scatter_svg(full_plane_records, "m", "I", fit)
svg_path = pathlib.Path("sweep_demo.svg")
svg_path.write_text(svg)
print(f"wrote {svg_path}")

print()
print("rerunning the identical config reproduces identical bytes:",
      records_to_csv(run_sweep(config)) == csv_text)
