#!/bin/sh
# run every experiment config into scripts/out/, from a checkout (no install needed)
set -e
cd "$(dirname "$0")"
export PYTHONPATH="../src${PYTHONPATH:+:$PYTHONPATH}"
mkdir -p out
for cfg in *.cfg; do
    echo "== ${cfg%.cfg}"
    python3 -m optosqueeze.cli "$cfg"
done
