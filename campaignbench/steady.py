#!/usr/bin/env python3
"""Steadiness check for the campaign benchmark.

Runs every workload once per seed, interleaving workloads so slow drift of
the host touches all of them alike, and repeats the whole sweep for a
second set. For each end-to-end metric it reports each set's median,
quartiles and spread (interquartile distance over the median, as
statistics.quantiles(values, n=4) gives the quartiles) and how far the
second set's median moved from the first's, against the bound in
BENCHMARK.json.

    python3 campaignbench/steady.py --seeds 10 --sets 2 --out report.md
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({p.returncode}):\n{p.stderr}")
    res = json.loads(lines[-1])
    host = json.loads(lines[-2]) if len(lines) > 1 else {}
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed:\n{p.stderr}")
    return res, host


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    ap.add_argument("--raw", default="", help="append every run's host line and result here (JSON lines)")
    ap.add_argument("--report-only", action="store_true", help="rebuild the report from --raw without running")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    vals = {}  # (set, workload, metric) -> [values]
    hosts = set()
    if a.report_only:
        for line in open(a.raw):
            r = json.loads(line)
            h = r["host"].get("host", {})
            hosts.add((h.get("cpu"), h.get("nproc"), h.get("go_version"), h.get("goamd64"), h.get("store_fs")))
            for k, m in r["result"]["metrics"].items():
                vals.setdefault((r["set"] - 1, r["workload"], k), []).append(m["value"])
    for s in range(0 if a.report_only else a.sets):
        for i in range(a.seeds):
            seed = a.first_seed + s * a.seeds + i
            for w in names:
                res, host = run(bench["command"], w, seed, bench["run_seconds"])
                if a.raw:
                    with open(a.raw, "a") as f:
                        f.write(json.dumps({"set": s + 1, "seed": seed, "workload": w, "host": host, "result": res}) + "\n")
                h = host.get("host", {})
                hosts.add((h.get("cpu"), h.get("nproc"), h.get("go_version"), h.get("goamd64"), h.get("store_fs")))
                for k, m in res["metrics"].items():
                    vals.setdefault((s, w, k), []).append(m["value"])
                print(f"set {s+1} seed {seed} {w}: " + ", ".join(
                    f"{k}={m['value']:.4g}" for k, m in sorted(res["metrics"].items())), file=sys.stderr, flush=True)
    out = ["| workload | metric | bound | set | q1 | median | q3 | spread | spread/bound |",
           "|---|---|---|---|---|---|---|---|---|"]
    worst = []
    for w in names:
        for k in sorted(bounds):
            meds = []
            for s in range(a.sets):
                q1, med, q3, sp = spread(vals[(s, w, k)])
                meds.append(med)
                out.append(f"| {w} | {k} | {bounds[k]} | {s+1} | {q1:.4g} | {med:.4g} | {q3:.4g} | {sp:.2%} | {sp/bounds[k]:.2f} |")
                if k != "setup_s":
                    worst.append((sp / bounds[k], w, k))
            if a.sets > 1:
                d = meds[1] / meds[0] - 1
                out.append(f"| {w} | {k} | {bounds[k]} | 2 vs 1 | | median moved {d:+.2%} | | | {abs(d)/bounds[k]:.2f} |")
    out.append("")
    out.append("hosts: " + "; ".join(str(h) for h in sorted(hosts, key=str)))
    worst.sort(reverse=True)
    out.append("largest spread/bound (setup_s excluded): " + ", ".join(f"{w}/{k} {r:.2f}" for r, w, k in worst[:5]))
    text = "\n".join(out)
    print(text)
    if a.out:
        with open(a.out, "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
