#!/usr/bin/env python3
"""Compare a bench run against the checked-in baseline, tolerantly.

Usage: bench_compare.py BASELINE.json CURRENT.json

Both files are written by `bench/main.exe --json` (schema
rightsizer-bench/1).  Only benches marked "gate": true in the BASELINE
are enforced; everything else is reported for information.

The comparator is deliberately runner-noise-aware:

- Machine-speed normalisation: both files carry a calibration kernel
  (pure compute, no parallelism, no I/O).  Every current timing is
  divided by the calibration ratio current/baseline, so a uniformly
  slower or faster runner does not shift every bench.
- A gated bench fails only when its normalised time exceeds the
  baseline by more than the tolerance (default 25%, from the baseline
  file) AND by an absolute margin (1 ms) - sub-millisecond kernels
  jitter far more than 25% on shared CI runners.
- Benches present in only one file are reported, never failed: adding
  or renaming a bench must not break CI until the baseline is
  regenerated.
- Improvements are never failures either, but a gated bench that beats
  its baseline beyond the same tolerance + absolute floor earns a
  "faster than baseline - consider refreshing" note: a stale baseline
  quietly widens the regression budget for every later change.

Exit status: 0 when every gated bench passes, 1 otherwise.
"""

import json
import sys

TOLERANCE_DEFAULT = 0.25
ABS_FLOOR_NANOS = 1e6  # ignore regressions smaller than 1 ms in absolute terms


def load(path):
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "rightsizer-bench/1":
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r}")
    return data


def fmt(nanos):
    if nanos >= 1e9:
        return f"{nanos / 1e9:.2f}s"
    if nanos >= 1e6:
        return f"{nanos / 1e6:.2f}ms"
    if nanos >= 1e3:
        return f"{nanos / 1e3:.2f}us"
    return f"{nanos:.0f}ns"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    baseline = load(sys.argv[1])
    current = load(sys.argv[2])
    tolerance = float(baseline.get("tolerance", TOLERANCE_DEFAULT))
    base_benches = baseline["benches"]
    cur_benches = current["benches"]

    cal_name = baseline.get("calibration")
    cal_ratio = 1.0
    if cal_name and cal_name in base_benches and cal_name in cur_benches:
        base_cal = base_benches[cal_name]["nanos"]
        cur_cal = cur_benches[cal_name]["nanos"]
        if base_cal > 0 and cur_cal > 0:
            cal_ratio = cur_cal / base_cal
    print(f"calibration ratio (current/baseline machine speed): {cal_ratio:.3f}")
    print(f"tolerance: {tolerance:.0%} (+ {fmt(ABS_FLOOR_NANOS)} absolute floor)")
    print()

    failures = []
    improvements = []
    for name, base in sorted(base_benches.items()):
        if not base.get("gate"):
            continue
        if name not in cur_benches:
            print(f"SKIP  {name}: not in current run (baseline regeneration needed?)")
            continue
        base_n = base["nanos"]
        cur_n = cur_benches[name]["nanos"]
        if base_n <= 0 or cur_n <= 0:
            print(f"SKIP  {name}: non-positive timing")
            continue
        norm = cur_n / cal_ratio
        delta = norm / base_n - 1.0
        regressed = delta > tolerance and (norm - base_n) > ABS_FLOOR_NANOS
        improved = -delta > tolerance and (base_n - norm) > ABS_FLOOR_NANOS
        status = "FAIL" if regressed else "ok"
        print(
            f"{status:<5} {name}: baseline {fmt(base_n)}, "
            f"current {fmt(cur_n)} (normalised {fmt(norm)}, {delta:+.1%})"
        )
        if regressed:
            failures.append(name)
        if improved:
            improvements.append((name, -delta))

    new = sorted(set(cur_benches) - set(base_benches))
    if new:
        print()
        for name in new:
            print(f"NEW   {name}: {fmt(cur_benches[name]['nanos'])} (not gated)")

    if improvements:
        print(
            f"\n{len(improvements)} gated bench(es) faster than baseline beyond "
            f"{tolerance:.0%} + {fmt(ABS_FLOOR_NANOS)} - consider refreshing the "
            "baseline so the gate keeps teeth:"
        )
        for name, gain in improvements:
            print(f"  - {name} ({gain:+.1%} faster)")

    if failures:
        print(f"\n{len(failures)} gated bench(es) regressed beyond {tolerance:.0%}:")
        for name in failures:
            print(f"  - {name}")
        return 1
    print("\nall gated benches within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
