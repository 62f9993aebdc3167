"""Derive the stored corpus's shot-feature table from the program itself.

The benchmark's stored corpus models feature films.  Its shot features
``(Var^BA, Var^OA)`` are drawn from the features that the program's
own ingest pipeline (SBD, then Eqs. 3-6) gives the two feature-film
stand-ins of the paper's Table 4 ('Simon Birch', 'Wag the Dog'; see
``repro.experiments.table4``).  This script ingests them and writes the
measured pairs to ``movie_features.json``, which ``corpus.py`` reads.

Run from the root of a checkout (it takes a few seconds)::

    python3 clientbench/derive_features.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: Movie-corpus seeds ingested; each gives both movies at full scale.
SEEDS = (2000, 2001)
OUT = Path(__file__).resolve().parent / "movie_features.json"


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.experiments.table4 import run

    pairs = []
    for seed in SEEDS:
        db = run(scale=1.0, seed=seed).database
        pairs += [[round(e.features.var_ba, 2), round(e.features.var_oa, 2)]
                  for e in db.index.entries]
    source = ("repro.experiments.table4.run(scale=1.0, seed=s) for s in "
              + ", ".join(map(str, SEEDS)))
    rows = ",\n".join(json.dumps(pair) for pair in pairs)
    OUT.write_text(f'{{"source": {json.dumps(source)},\n"var_ba_var_oa": [\n{rows}\n]}}\n')
    print(f"wrote {len(pairs)} shot features to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
