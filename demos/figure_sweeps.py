"""Run the bundled parameter sweeps and summarise each scenario.

The three presets vary cluster radius, centre offset, and altitude. Each
sweep writes per-scenario report CSVs on a shared magnitude grid into
sweep_out/, so rows at equal x are directly comparable.
"""
from pathlib import Path

from leodoppler.cli import cmd_figure, default_config

out_dir = Path("sweep_out")
out_dir.mkdir(exist_ok=True)
sc = default_config()

for preset in ("fig2", "fig3", "fig4"):
    print(f"{preset}:")
    written = cmd_figure(preset, sc, out_dir)
    for path in written:
        if path.suffix != ".txt":
            continue
        summary = dict(
            line.split("=", 1) for line in path.read_text().splitlines()
        )
        label = path.name.removesuffix("_summary.txt")
        print(f"  {label:24s} ks_envelope={float(summary['ks_bound']):.4f} "
              f"ks_exact={float(summary['ks_exact']):.4f} "
              f"violations={summary['violations']}")
print(f"\nreport CSVs in {out_dir}/")
