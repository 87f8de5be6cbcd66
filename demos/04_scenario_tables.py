"""
Scenario probability tables
===========================

Evaluate the bundled starboard-crossing scenario across uncertainty scales
with both pipelines.  The density pipeline integrates fitted kernel
densities; the discrete-event pipeline counts per-sample automaton words.
Matched seeds feed both from the same perturbed samples, so the small
differences are method, not noise.

(20,000 samples per cell here for speed; the bundled configs use 100,000.)
"""

from colreg_risk.cli import bundled_config_path, format_table, load_config, run_scenario

config = load_config(bundled_config_path("scenario1"), n_samples=20_000)

rows = run_scenario(config)
print("starboard-crossing scenario, both methods:")
print(format_table(rows))

print()
print("Risk peaks at a moderate uncertainty scale: a little dispersion")
print("pushes some samples inside the comfort zone, a lot of dispersion")
print("scatters the target away from the close-approach corridor.")
