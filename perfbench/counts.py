"""Print the exact per-deck counts of every workload at its reference seed.

    python3 perfbench/counts.py > perfbench/reference.json

For each deck: interpreter operations and subroutine calls (as the traced
run counts them), cards, and store cells in use after the deck; and one
SHA-256 over every deck's output, as run.py's detail line reports it.
test_perfbench.py checks the committed file against a fresh count, so a
change that alters the inputs or the output shows there.
"""

import json

import workloads
from run import combined_digest, deck_counts, load_reca

REFERENCE_SEED = 1


def reference_counts():
    reca = load_reca()
    out = {}
    for name, (generate, _) in workloads.WORKLOADS.items():
        decks = deck_counts(reca, generate(REFERENCE_SEED))
        entry = {"seed": REFERENCE_SEED}
        for key in ("ops", "calls", "cards", "cells"):
            entry[key] = [deck[key] for deck in decks]
        entry["output_sha256"] = combined_digest(deck["sha256"] for deck in decks)
        out[name] = entry
    return out


if __name__ == "__main__":
    entries = [f" {json.dumps(name)}: {json.dumps(entry)}"
               for name, entry in reference_counts().items()]
    print("{\n" + ",\n".join(entries) + "\n}")
