#!/usr/bin/env bash
# The pipeline simulate -> fit -> gibbs -> compare -> forecast on three tiny
# panels, run twice: through the installed `dfmvi` console script, one process
# per command, and through `dfmvi.cli.main`, all five commands in one process
# (where gibbs reuses the panel fit parsed).  Every artifact except the
# manifests, which record wall times, must be byte-identical between the two.
# The second panel is fitted and sampled at r=2, p=1 with one anchor per
# factor, series 4 for factor 0 and series 0 for factor 1.  Both load against
# the data-signed principal-component start (-0.50 and -0.51 at seed 4), so
# the chain's start folds both factors and the sign fold runs at s > 1 from
# the first sweep.  The second panel is also fitted and sampled at r=1 with
# the weak anchor series 2, whose sweeps fold often; the script fails unless
# that chain's manifest counts a folded factor.  Then the second panel is
# fitted, sampled and compared at r=2, p=2 with the two anchors above, so the
# smoother reads its widest blocks (s=6) and the principal-component start
# fills two lags.  The third panel is wider than it is long (n=30, T=20), so
# its principal-component start iterates on xx', not x'x.
#
# Usage: bash ci/one_shot.sh [WORKDIR]   (default: a new temporary directory)
set -euo pipefail

work=${1:-$(mktemp -d)}

# One command per line, with ROOT standing for the run's output directory.
steps='simulate --out ROOT/sim --n 6 --t 40 --seed 7 --missing-rate 0.1 --ragged 0:35,1:38
fit --panel ROOT/sim/panel.csv --out ROOT/fit --seed 3 --identify 0:0
gibbs --panel ROOT/sim/panel.csv --out ROOT/gibbs --seed 3 --identify 0:0 --draws 300
compare --panel ROOT/sim/panel.csv --fit ROOT/fit --gibbs ROOT/gibbs --out ROOT/compare --horizons 2 --smf-draws 200
forecast --panel ROOT/sim/panel.csv --fit ROOT/fit --out ROOT/forecast --horizons 2 --smf-draws 200
simulate --out ROOT/sim2 --n 8 --r 2 --p 1 --t 60 --seed 2 --missing-rate 0.1 --ragged 6:55,7:57
fit --panel ROOT/sim2/panel.csv --out ROOT/fit2 --seed 4 --r 2 --p 1 --identify 4:0 --identify 0:1
gibbs --panel ROOT/sim2/panel.csv --out ROOT/gibbs2 --seed 4 --r 2 --p 1 --identify 4:0 --identify 0:1 --draws 300
compare --panel ROOT/sim2/panel.csv --fit ROOT/fit2 --gibbs ROOT/gibbs2 --out ROOT/compare2 --horizons 2 --smf-draws 200
forecast --panel ROOT/sim2/panel.csv --fit ROOT/fit2 --out ROOT/forecast2 --horizons 2 --smf-draws 200
fit --panel ROOT/sim2/panel.csv --out ROOT/fit2weak --seed 4 --identify 2:0
gibbs --panel ROOT/sim2/panel.csv --out ROOT/gibbs2weak --seed 4 --identify 2:0 --draws 300
fit --panel ROOT/sim2/panel.csv --out ROOT/fit2s6 --seed 4 --r 2 --p 2 --identify 4:0 --identify 0:1
gibbs --panel ROOT/sim2/panel.csv --out ROOT/gibbs2s6 --seed 4 --r 2 --p 2 --identify 4:0 --identify 0:1 --draws 300
compare --panel ROOT/sim2/panel.csv --fit ROOT/fit2s6 --gibbs ROOT/gibbs2s6 --out ROOT/compare2s6 --horizons 2 --smf-draws 200
simulate --out ROOT/sim3 --n 30 --t 20 --seed 5 --missing-rate 0.1 --ragged 29:17
fit --panel ROOT/sim3/panel.csv --out ROOT/fit3 --seed 6 --identify 0:0
gibbs --panel ROOT/sim3/panel.csv --out ROOT/gibbs3 --seed 6 --identify 0:0 --draws 200
compare --panel ROOT/sim3/panel.csv --fit ROOT/fit3 --gibbs ROOT/gibbs3 --out ROOT/compare3 --horizons 2 --smf-draws 200
forecast --panel ROOT/sim3/panel.csv --fit ROOT/fit3 --out ROOT/forecast3 --horizons 2 --smf-draws 200'

while read -r line; do
    # shellcheck disable=SC2086  # the line is split into the command's words
    dfmvi ${line//ROOT/$work/one_shot}
done <<< "$steps"

STEPS=${steps//ROOT/$work/in_process} python - <<'PY'
import os
import shlex

from dfmvi.cli import main

for line in os.environ["STEPS"].splitlines():
    if main(shlex.split(line)) != 0:
        raise SystemExit(f"in-process command failed: {line}")
PY

python - "$work/one_shot/gibbs2weak/manifest.json" <<'PY'
import json
import sys

with open(sys.argv[1], encoding="utf-8") as fh:
    flips = json.load(fh)["sign_flips"]
if not flips > 0:
    raise SystemExit(f"the weak-anchor chain folded no factor (sign_flips {flips})")
print(f"the weak-anchor chain folded {flips} factors")
PY

cd "$work"
diff <(cd one_shot && find . -type f | sort) <(cd in_process && find . -type f | sort)
count=0
while read -r file; do
    cmp "one_shot/$file" "in_process/$file"
    count=$((count + 1))
done < <(cd one_shot && find . -type f ! -name manifest.json | sort)
echo "one-shot and in-process runs agree on $count artifacts in $work"
