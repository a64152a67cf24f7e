#!/bin/sh
# run every experiment config into scripts/out/, from a checkout (no install needed)
set -e
cd "$(dirname "$0")"
export PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p out
for cfg in smax_sweep time_trace spectrum_thermal spectrum_trend \
           eigenmodes validate_adiabatic stark_variant decay_immunity; do
    echo "== $cfg"
    python3 -m optosqueeze.cli "$cfg.cfg"
done
