#!/usr/bin/env bash
# Checks that the benchmark agrees with itself, using the command, run
# length, workloads, metrics and bounds that BENCHMARK.json declares.
#
#   benchmark/repeat.sh            two runs at one seed must agree within
#                                  each end-to-end metric's bound, and
#                                  exactly on what repeats exactly; a run
#                                  at --seed 7 must pass its checks
#   benchmark/repeat.sh spread N   N seeds per workload: the interquartile
#                                  range of each end-to-end metric as a
#                                  share of its median, against its bound
#
# Run from the repository root. Exits non-zero if anything fails.
set -euo pipefail
cd "$(dirname "$0")/.."
exec python3 - "$@" <<'EOF'
import json, os, statistics, subprocess, sys

bench = json.load(open("BENCHMARK.json"))
SECONDS = bench["run_seconds"]
E2E = bench["end_to_end"]
LAYER_NAMES = [m["name"] for m in bench["per_layer"]]
SEED = 20020603
# Simulated statistics and allocation peaks depend on the seed alone.
# (`paper_grid`'s supervisor runs reader threads, so its peak may not.)
EXACT = ["alloc_peak_mib", "mean_divergence"]
# Every run's full output (tables included) is kept here.
OUT = "benchmark/out/runs"
os.makedirs(OUT, exist_ok=True)
runs = 0


def run(workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SECONDS), "--trace", str(trace)]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    global runs
    runs += 1
    with open(f"{OUT}/{runs:03}-{workload}-seed{seed}-trace{trace}.txt", "w") as f:
        f.write(p.stdout)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
    result = json.loads(last)
    ok = p.returncode == 0 and result.get("correct") is True and result.get("failed") == 0
    print(f"  ran {workload} seed={seed} trace={trace}: exit {p.returncode}, "
          f"attempted {result.get('attempted')}, failed {result.get('failed')}", flush=True)
    return ok, {k: v["value"] for k, v in result.get("metrics", {}).items()}


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = second - first if metric["better"] == "lower" else first - second
    return delta / abs(first)


def repeat():
    rows, failures = [], 0
    for w in [w["name"] for w in bench["workloads"]]:
        ok_a, a = run(w, SEED, 0)
        ok_b, b = run(w, SEED, 0)
        ok_c, c = run(w, 7, 0)
        ok_ta, ta = run(w, SEED, 1)
        ok_tb, tb = run(w, SEED, 1)
        checks = [
            ("all runs correct", ok_a and ok_b and ok_c and ok_ta and ok_tb, ""),
            ("end-to-end names", sorted(a) == sorted(m["name"] for m in E2E), ""),
            ("per-layer names", sorted(ta) == sorted(LAYER_NAMES), ""),
            ("seed is used", a.get("mean_divergence") != c.get("mean_divergence"), ""),
        ]
        for m in E2E:
            x, y = a.get(m["name"]), b.get(m["name"])
            if x is None or y is None:
                checks.append((m["name"], False, "missing"))
                continue
            # Either run may be the slow one; neither may be worse than the
            # other by more than the bound.
            gap = max(worse_by(m, x, y), worse_by(m, y, x))
            checks.append((f"{m['name']} within {m['bound']:.0%}", gap <= m["bound"],
                           f"{x:.6g} vs {y:.6g} ({gap:+.2%})"))
        for name in EXACT:
            if w == "paper_grid" and name == "alloc_peak_mib":
                continue
            checks.append((f"{name} exact", a.get(name) == b.get(name),
                           f"{a.get(name)} vs {b.get(name)}"))
        counts = [n for n in LAYER_NAMES if n.endswith("_ops") or n == "sim.calendar.resizes"]
        differing = [n for n in counts if ta.get(n) != tb.get(n)]
        checks.append((f"{len(counts)} op counts exact", not differing, " ".join(differing)))
        for what, ok, note in checks:
            failures += not ok
            rows.append((w, what, "pass" if ok else "FAIL", note))
    print()
    for r in rows:
        print(f"{r[0]:<12} {r[1]:<28} {r[2]:<5} {r[3]}")
    print(f"\n{'FAILED' if failures else 'passed'}: {failures} failing of {len(rows)} checks")
    return failures


def spread(n):
    failures = 0
    rows = []
    for w in [w["name"] for w in bench["workloads"]]:
        values = {m["name"]: [] for m in E2E}
        for seed in range(1, n + 1):
            ok, got = run(w, seed, 0)
            failures += not ok
            for name in values:
                values[name].append(got.get(name, float("nan")))
        for m in E2E:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            share = (q3 - q1) / statistics.median(v)
            within = share <= m["bound"] or m["name"] == "setup_s"
            failures += not within
            rows.append((w, m["name"], statistics.median(v), share, m["bound"],
                         "ok" if share <= m["bound"] / 3 else ("wide" if within else "FAIL")))
            print(f"  {w} {m['name']}: " + " ".join(f"{x:.6g}" for x in v), flush=True)
    print(f"\n{'workload':<12} {'metric':<16} {'median':>14} {'iqr/median':>10} {'bound':>6}")
    for w, name, med, share, bound, verdict in rows:
        print(f"{w:<12} {name:<16} {med:>14.6g} {share:>10.4f} {bound:>6.2f}  {verdict}")
    print("\nok = below a third of the bound; wide = within the bound; setup_s is never refused")
    return failures


if len(sys.argv) >= 2 and sys.argv[1] == "spread":
    sys.exit(1 if spread(int(sys.argv[2]) if len(sys.argv) > 2 else 10) else 0)
elif len(sys.argv) == 1:
    sys.exit(1 if repeat() else 0)
else:
    sys.exit("usage: benchmark/repeat.sh [spread N]")
EOF
