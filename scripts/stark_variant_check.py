#!/usr/bin/env python3
"""Which Stark-shift bookkeeping tracks the three-level model better?

Eliminating the excited level leaves a choice: write both level shifts
with the symmetric cross rate Omega g1 / Delta, or keep the textbook
per-level rates Omega^2 / Delta and g1^2 / Delta.  The two coincide at
Omega = g1, so this runs a deliberately lopsided drive (Omega = 2 g1)
with a driven cavity and prints the pointwise X-variance deviations of
both variants from the full three-level dynamics.
"""

import math
import sys
from pathlib import Path

# run from a checkout without installing, as run_all.sh does through PYTHONPATH
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from optosqueeze.dynamics import validate_adiabatic_chain
from optosqueeze.model import ModelParams

p = ModelParams(omega_m=1.0, delta=8.0, Delta=40.0, g1=1.0, Omega=2.0,
                g2=0.05, eps=2.0)
rep = validate_adiabatic_chain(p, "e1", horizon=2.0 * math.pi,
                               n_times=240, d_cav=6, d_mech=24)

print(f"hierarchy ratios: { {k: round(v, 3) for k, v in rep.ratios.items()} }")
print(f"atom weights (e1, e2): {rep.atom_weights}")
for k in sorted(rep.deviations):
    print(f"{k:38s} {rep.deviations[k]:.3e}")
print(f"winner: {rep.stark_winner}")
