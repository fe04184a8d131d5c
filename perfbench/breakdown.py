"""Per-stage wall time from a trace file written by ``run.py --trace 1``.

    python3 perfbench/breakdown.py perfbench/out/trace-invert-seed1.jsonl

Prints, for set-up and for the traced operations separately, the median over
operations of each function's inclusive time per operation (its spans'
durations, children included), split by label where the trace has one:
``find_spectrum[j=1]``, or ``synthesize_u[m=4097]`` for the support-gate
synthesis on the period grid against ``m=2047`` on the kernel grid at M=1024.
Inclusive times carry the tracing cost of the spans nested in them.
"""

import json
import statistics
import sys
from collections import defaultdict


def stage_times(path) -> dict:
    """{"setup"|"operation": {stage: median seconds per operation}}."""
    per_op = defaultdict(lambda: defaultdict(float))
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            if "name" not in row:
                continue
            stage = row["name"] + (f"[{row['label']}]" if row["label"] else "")
            per_op[row["op"]][stage] += row["end"] - row["start"]
    out = {}
    for kind in ("setup", "operation"):
        ops = [op for op in per_op if str(op).startswith("setup") == (kind == "setup")]
        stages = sorted({s for op in ops for s in per_op[op]})
        out[kind] = {s: statistics.median(per_op[op].get(s, 0.0) for op in ops) for s in stages}
    return out


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    for kind, stages in stage_times(argv[0]).items():
        for stage, seconds in stages.items():
            print(f"{kind:9s} {stage:40s} {seconds:9.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
