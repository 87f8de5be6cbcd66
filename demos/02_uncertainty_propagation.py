"""
Uncertainty propagation through the CPA equations
=================================================

Place a target 1000 m away at several bearings, heading back on the
mirrored course, sample both vessel states from the tracker error model,
and look at how the TCPA/DCPA/bearing distributions deform.  The
transformations are strongly non-linear, so the outputs are anything but
Gaussian even though every input is.
"""

import numpy as np

from colreg_risk import ks_normality, propagation_study

bearings = [0.0, 30.0, 60.0, 90.0, 120.0, 150.0, 180.0]
study = propagation_study(bearings, range_m=1000.0, n=10_000, seed=0)

print(f"{'bearing':>8} {'tcpa mean':>10} {'tcpa sd':>9} {'dcpa mean':>10} "
      f"{'dcpa sd':>9} {'KS p(tcpa)':>11}")
for bearing in bearings:
    buffers = study[bearing]
    tcpa = buffers.finite_tcpa()
    _, p = ks_normality(tcpa)
    print(f"{bearing:>8.0f} {np.mean(tcpa):>10.1f} {np.std(tcpa):>9.1f} "
          f"{np.mean(buffers.dcpa):>10.1f} {np.std(buffers.dcpa):>9.1f} {p:>11.2e}")

print()
print("The head-on placement (bearing 0) piles DCPA onto zero; the astern")
print("placement (bearing 180) has near-matched velocities, so TCPA splits")
print("between past and future closest approaches:")
frac = float(np.mean(study[180.0].tcpa < 0))
print(f"  bearing 180: fraction of negative TCPA = {frac:.3f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 3, figsize=(13, 3.5))
    for bearing in bearings:
        buffers = study[bearing]
        tcpa = np.clip(buffers.finite_tcpa(), -500, 500)
        axes[0].hist(tcpa, bins=120, alpha=0.4, label=f"{bearing:.0f}")
        axes[1].hist(buffers.dcpa, bins=120, alpha=0.4)
        axes[2].hist(buffers.bearing_jk, bins=120, alpha=0.4)
    axes[0].set_xlabel("TCPA (s, clipped)")
    axes[1].set_xlabel("DCPA (m)")
    axes[2].set_xlabel("bearing (deg)")
    axes[0].legend(title="placement", fontsize=7)
    fig.tight_layout()
    fig.savefig("propagation_histograms.png", dpi=120)
    print("\nwrote propagation_histograms.png")
except ImportError:
    print("\nmatplotlib not installed; skipping the histogram figure")
