"""Compare two run records of one workload and seed, e.g. from two commits.

    python3 perfbench/compare.py BASE.json NEW.json

Records come from ``run.py`` (``.perfbench_out/<workload>-seed<n>-trace<t>.json``).
Every ``*_sha256`` digest must match: the acquire frame stream and the
localize per-channel PDM bits are required to be bit-identical across
commits.  End-to-end metrics are printed side by side for reference.
Exit status: 0 all digests match, 1 a digest differs, 2 the records are
not comparable (other workload, seed or digest length).
"""

from __future__ import annotations

import json
import sys


def digests(record: dict) -> dict:
    return {k: v for k, v in record["workload"].items() if k.endswith("_sha256")}


def compare(base: dict, new: dict) -> tuple:
    """(exit status, report lines)."""
    lines = []
    key = ("workload", "seed")
    base_env, new_env = base["environment"], new["environment"]
    if any(base_env[k] != new_env[k] for k in key) or \
            base["workload"].get("digest_ops") != new["workload"].get("digest_ops"):
        return 2, [f"not comparable: {[base_env[k] for k in key]} "
                   f"digest_ops={base['workload'].get('digest_ops')} vs "
                   f"{[new_env[k] for k in key]} "
                   f"digest_ops={new['workload'].get('digest_ops')}"]
    status = 0
    for name, value in digests(base).items():
        other = digests(new).get(name)
        if other != value:
            status = 1
            lines.append(f"MISMATCH {name}: {value} != {other}")
        else:
            lines.append(f"match    {name}: {value}")
    for name, value in base["end_to_end"].items():
        other = new["end_to_end"].get(name)
        lines.append(f"{name}: {value:.6g} -> {other:.6g} ({other / value:.3f}x)")
    return status, lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        try:
            with open(path) as fh:
                records.append(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"compare: {path}: {exc}", file=sys.stderr)
            return 2
    status, lines = compare(*records)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.exit(main())
