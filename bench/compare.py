"""Compare two result files written by ``run.py --results``.

Usage: ``python3 bench/compare.py BASE.json NEW.json``

Lists every job whose stdout hash differs between the two files (a speed-up
that changes any output byte is a regression), then the ratio NEW / BASE of
every metric.  Jobs are compared on every input set both runs reached.
Exits 1 when a hash differs or a workload has no job in common.  Both files
must come from the same workloads and seed.
"""

from __future__ import annotations

import json
import sys


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    results = doc if isinstance(doc, list) else [doc]
    return {(r["workload"], r["seed"]): r for r in results}


def compare(base: dict, new: dict) -> tuple[list[str], list[str]]:
    """(differing jobs, ratio lines) for two loaded result sets."""
    differing, ratios = [], []
    for key in sorted(set(base) | set(new)):
        if key not in base or key not in new:
            differing.append(f"{key[0]} seed {key[1]}: present in only one file")
            continue
        # runs of different length use different numbers of input sets;
        # every job of an input set both runs reached is compared
        jobs_a, jobs_b = base[key]["jobs"], new[key]["jobs"]
        common = sorted(set(jobs_a) & set(jobs_b))
        if not common:
            differing.append(f"{key[0]} seed {key[1]}: no job in common")
        differing.extend(f"{key[0]} seed {key[1]}: {jid}" for jid in common
                         if jobs_a[jid] != jobs_b[jid])
        for name, metric in base[key]["metrics"].items():
            other = new[key]["metrics"].get(name)
            if other is None:
                continue
            a, b = metric["value"], other["value"]
            ratio = f"{b / a:8.3f}" if a else "     n/a"
            ratios.append(f"{key[0]:10s} {name:30s} {a:14.6g} -> {b:14.6g} "
                          f"{metric['unit']:6s} x{ratio}")
    return differing, ratios


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    differing, ratios = compare(_load(argv[0]), _load(argv[1]))
    print("\n".join(ratios))
    for line in differing:
        print(f"STDOUT DIFFERS {line}")
    print(f"{len(differing)} job(s) with differing stdout")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
