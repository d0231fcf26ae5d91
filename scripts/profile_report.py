#!/usr/bin/env python3
"""Per-layer encoder profile report from a kglink speedscope export.

Usage:
    scripts/profile_report.py PROFILE.speedscope.json [BENCH_micro.json]
        [--bench BM_EncoderForward_64] [--root nn.encoder_forward]
        [--tolerance 5] [--json]

Reads the sampling profiler's speedscope JSON (written by
`KGLINK_PROFILE=prefix bench_micro ...` or `kglink_cli --profile=prefix`),
rebases every sample at the first occurrence of --root (default
nn.encoder_forward), and prints an inclusive/exclusive table per frame
under that root — the per-layer breakdown of one encoder forward pass
(nn.embedding, per-layer nn.attention.qkv/.scores/.proj, nn.ffn,
nn.layernorm).

Exclusive times sum exactly to the root's inclusive time by construction
(every sampled microsecond under the root is attributed to exactly one
leaf frame).

When a BENCH_micro.json is given, the root's inclusive wall time is
reconciled against the benchmark's own wall-clock total — the
<bench>.profiled_wall_us metric bench_micro emits when KGLINK_PROFILE is
set, which counts *all* executed iterations including google-benchmark's
untimed calibration runs. A relative gap beyond --tolerance percent exits
1: the profiler's accounting must agree with an independent clock to
within sampling error.

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import sys


def load_speedscope(path):
    """Returns a list of (frames_tuple, weight_us) across all profiles."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    names = [f["name"] for f in doc.get("shared", {}).get("frames", [])]
    samples = []
    for profile in doc.get("profiles", []):
        if profile.get("unit") != "microseconds":
            sys.exit(
                f"error: profile unit {profile.get('unit')!r} is not "
                "microseconds; was this written by the kglink profiler?"
            )
        stacks = profile.get("samples", [])
        weights = profile.get("weights", [])
        if len(stacks) != len(weights):
            sys.exit("error: samples/weights length mismatch")
        for stack, weight in zip(stacks, weights):
            frames = tuple(names[i] for i in stack)
            if frames:
                samples.append((frames, float(weight)))
    return samples


def rebase(samples, root):
    """Keeps the sub-stack from the first occurrence of `root` onward."""
    rebased = []
    for frames, weight in samples:
        if root in frames:
            idx = frames.index(root)
            rebased.append((frames[idx:], weight))
    return rebased


def frame_table(samples):
    """Returns ({frame: {"incl": us, "excl": us}}, total_us)."""
    stats = {}
    total = 0.0
    for frames, weight in samples:
        total += weight
        for frame in set(frames):
            stats.setdefault(frame, {"incl": 0.0, "excl": 0.0})
        for frame in dict.fromkeys(frames):  # charge inclusive once
            stats[frame]["incl"] += weight
        stats[frames[-1]]["excl"] += weight
    return stats, total


def find_bench_metric(path, metric_name):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for m in doc.get("metrics", []):
        if m.get("name") == metric_name:
            return float(m["value"])
    return None


def main():
    parser = argparse.ArgumentParser(
        description="Per-layer profile table + bench reconciliation."
    )
    parser.add_argument("speedscope", help="PREFIX.speedscope.json")
    parser.add_argument(
        "bench",
        nargs="?",
        default=None,
        help="BENCH_micro.json to reconcile against (optional)",
    )
    parser.add_argument(
        "--bench-name",
        "--bench",
        dest="bench_name",
        default="BM_EncoderForward_64",
        help="bench metric prefix; reconciles against "
        "<name>.profiled_wall_us (default: BM_EncoderForward_64)",
    )
    parser.add_argument(
        "--root",
        default="nn.encoder_forward",
        help="frame to rebase the report at (default: nn.encoder_forward)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=5.0,
        help="max relative gap (%%) between the profile's root-inclusive "
        "time and the bench wall total (default: 5)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the table and reconciliation as JSON instead of text",
    )
    args = parser.parse_args()

    samples = load_speedscope(args.speedscope)
    if not samples:
        sys.exit(f"error: no samples in {args.speedscope}")
    rebased = rebase(samples, args.root)
    if not rebased:
        seen = sorted({f for frames, _ in samples for f in frames})
        sys.exit(
            f"error: no samples contain frame {args.root!r}; "
            f"frames seen: {', '.join(seen)}"
        )
    stats, total_us = frame_table(rebased)
    covered = 100.0 * sum(w for _, w in rebased) / sum(
        w for _, w in samples
    )

    rows = sorted(
        stats.items(), key=lambda kv: (-kv[1]["excl"], kv[0])
    )
    report = {
        "root": args.root,
        "root_inclusive_us": total_us,
        "profile_coverage_pct": covered,
        "frames": [
            {
                "frame": name,
                "inclusive_us": st["incl"],
                "exclusive_us": st["excl"],
                "exclusive_pct": 100.0 * st["excl"] / total_us,
            }
            for name, st in rows
        ],
    }

    reconciliation = None
    if args.bench is not None:
        metric = f"{args.bench_name}.profiled_wall_us"
        bench_us = find_bench_metric(args.bench, metric)
        if bench_us is None:
            sys.exit(
                f"error: metric {metric!r} not in {args.bench}; run "
                "bench_micro with KGLINK_PROFILE set so it records the "
                "executed wall total"
            )
        gap_pct = 100.0 * (total_us - bench_us) / bench_us
        reconciliation = {
            "bench_metric": metric,
            "bench_wall_us": bench_us,
            "profile_inclusive_us": total_us,
            "gap_pct": gap_pct,
            "tolerance_pct": args.tolerance,
            "ok": abs(gap_pct) <= args.tolerance,
        }
        report["reconciliation"] = reconciliation

    if args.json:
        print(json.dumps(report, indent=2))
    else:
        print(
            f"profile: {args.root} inclusive "
            f"{total_us / 1000.0:.1f} ms "
            f"({covered:.1f}% of all samples)"
        )
        print(f"  {'frame':<32} {'incl_ms':>10} {'excl_ms':>10} {'excl%':>7}")
        for row in report["frames"]:
            print(
                f"  {row['frame']:<32} "
                f"{row['inclusive_us'] / 1000.0:>10.1f} "
                f"{row['exclusive_us'] / 1000.0:>10.1f} "
                f"{row['exclusive_pct']:>6.1f}%"
            )
        excl_sum = sum(r["exclusive_us"] for r in report["frames"])
        print(
            f"  {'(exclusive sum)':<32} {'':>10} "
            f"{excl_sum / 1000.0:>10.1f} {100.0 * excl_sum / total_us:>6.1f}%"
        )
        if reconciliation:
            print(
                f"reconcile: profile {total_us / 1000.0:.1f} ms vs "
                f"{reconciliation['bench_metric']} "
                f"{reconciliation['bench_wall_us'] / 1000.0:.1f} ms "
                f"({reconciliation['gap_pct']:+.1f}%, tolerance "
                f"{args.tolerance:g}%)"
            )

    if reconciliation and not reconciliation["ok"]:
        print(
            f"FAIL: profile disagrees with the bench clock by "
            f"{abs(reconciliation['gap_pct']):.1f}% "
            f"(> {args.tolerance:g}%)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
