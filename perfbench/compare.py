"""Compare two result files written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Prints each metric of both results with the relative change, marking
end-to-end metrics that got worse by more than their BENCHMARK.json bound.
Refuses (exit 2) to compare results of different workloads or of
different kernel backends, since the backend alone changes every timing.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as fh:
        return json.load(fh)


def main(base_path, new_path):
    base, new = load(base_path), load(new_path)
    pairs = {"workload": (base["workload"], new["workload"]),
             "backend": (base["env"]["backend"], new["env"]["backend"])}
    for key, (a, b) in pairs.items():
        if a != b:
            print(f"perfbench: refusing to compare {key} {a!r} with {b!r}", file=sys.stderr)
            return 2
    spec = load(os.path.join(ROOT, "BENCHMARK.json"))
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    print(f"{base['workload']}: {base['env']['sha']} seed {base['seed']} -> "
          f"{new['env']['sha']} seed {new['seed']} ({base['env']['backend']} backend)")
    if base["seed"] == new["seed"]:
        same = base["output_sha256"] == new["output_sha256"]
        print(f"  outputs for the same seed: {'identical' if same else 'DIFFERENT'}")
    for table in ("end_to_end", "extra", "per_layer"):
        for name, m in base[table].items():
            if name not in new[table]:
                continue
            a, b = m["value"], new[table][name]["value"]
            change = (b - a) / a if a else 0.0
            flag = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = change if better == "lower" else -change
                flag = "  WORSE THAN BOUND" if worse > bound else ""
            print(f"  {name:<48} {a:>12.6g} {b:>12.6g} {m['unit']:<6} {change:+8.1%}{flag}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
