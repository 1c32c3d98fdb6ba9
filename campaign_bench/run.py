#!/usr/bin/env python3
"""Campaign benchmark: one command that builds the simulator, runs one
named workload of `sys::run_sharded_campaign` for a fixed time, checks the
outputs, and prints every metric by name and unit.

    python3 campaign_bench/run.py --workload planned-1m-s1 --seed 1 \
        --seconds 35 --trace 0
    python3 campaign_bench/run.py --selftest

Each repetition is a fresh `campaign_bench` process making one campaign
call, so peak RSS and set-up time belong to that call alone. `--trace 0`
reports the end-to-end metrics (medians over the repetitions); `--trace 1`
alternates untraced and traced processes and reports the per-layer
metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; attempted/failed count
client uploads. The exit code is non-zero when a check fails. See
NOTES.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BUILD = HERE / "build"
BINARY = BUILD / "campaign_bench"
WORKLOADS = ("planned-1m-s1", "planned-1m-s4", "async-churn-1m-s1")
# A run must end within 180 s once the program is built.
RUN_LIMIT_S = 165.0
# One measuring process past this is killed and counted as failed.
CALL_DEADLINE_S = 60.0
# Uploads of one campaign (4 rounds x 248,000): charged as failed when a
# process dies before reporting its own count.
NOMINAL_UPLOADS = 992_000


class Spans:
    """Wall-clock spans (name, start, end, parent) kept in memory and
    written out as one Chrome trace file when the run ends."""

    def __init__(self):
        self.spans = []

    def begin(self, name, parent=None):
        self.spans.append({"name": name, "parent": parent,
                           "start_ns": time.monotonic_ns(), "end_ns": None})
        return len(self.spans) - 1

    def end(self, span):
        self.spans[span]["end_ns"] = time.monotonic_ns()

    def adopt(self, child_spans, parent):
        """Nest a measuring process's own spans under `parent`."""
        for s in child_spans:
            self.spans.append(dict(s, parent=parent))

    def write(self, path):
        events = []
        for i, s in enumerate(self.spans):
            end = s["end_ns"] if s["end_ns"] is not None else s["start_ns"]
            events.append({"name": s["name"], "ph": "X", "pid": 1, "tid": 1,
                           "ts": s["start_ns"] / 1e3,
                           "dur": (end - s["start_ns"]) / 1e3,
                           "args": {"id": i, "parent": s["parent"]}})
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def build(spans, root):
    span = spans.begin("build", root)
    try:
        if not BINARY.exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, check=True)
        jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
        subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"campaign_bench: build failed: {e}", file=sys.stderr)
        return False
    finally:
        spans.end(span)
    return BINARY.exists()


def run_process(argv, deadline):
    """Run one measuring process under a wall deadline. Returns its JSON
    report, or a failed report when it overruns, crashes or prints none."""
    try:
        p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=deadline)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the process and waited for it.
        return {"ok": False,
                "errors": [f"deadline of {deadline:.1f} s passed: killed"]}
    lines = p.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = p.stderr.strip()[-300:]
        return {"ok": False,
                "errors": [f"exit {p.returncode} without a report: {tail}"]}
    if p.returncode != 0:
        report["ok"] = False
        report.setdefault("errors", []).append(f"exit code {p.returncode}")
    return report


def measure(workload, seed, deadline, traced=False, check_resume=False):
    argv = [str(BINARY), "run", "--workload", workload, "--seed", str(seed)]
    if traced:
        argv.append("--traced")
    if check_resume:
        argv.append("--check-resume")
    argv += ["--spawned-at", str(time.monotonic_ns())]
    return run_process(argv, deadline)


def digest_errors(reports, reference, what):
    """Every report must carry the reference digest, bit for bit."""
    return [f"{what}: digest {r['digest']} != {reference}"
            for r in reports if r.get("ok") and r.get("digest") != reference]


def upload_counts(reports):
    """(attempted, failed) client uploads. A process that failed in any way
    counts all its uploads as failed."""
    attempted = failed = 0
    for r in reports:
        n = r.get("uploads", NOMINAL_UPLOADS)
        attempted += n
        failed += r.get("failed_uploads", 0) if r.get("ok") else n
    return attempted, failed


def median_metrics(reports):
    """Median of each metric over the reports, with its unit."""
    values, units = {}, {}
    for r in reports:
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {name: {"value": statistics.median(v), "unit": units[name]}
            for name, v in values.items()}, values


def selftest():
    """Checks of the runner itself plus the binary's own self-test (metric
    arithmetic, digest sensitivity). Returns a list of failures."""
    fails = []
    base = {"ok": True, "digest": "00000000000000aa", "uploads": 10,
            "failed_uploads": 0}
    if digest_errors([base], base["digest"], "same"):
        fails.append("equal digests reported as a mismatch")
    if not digest_errors([dict(base, digest="00000000000000ab")],
                         base["digest"], "mismatched"):
        fails.append("a mismatched digest passed")
    t0 = time.monotonic()
    hung = run_process([sys.executable, "-c", "import time; time.sleep(30)"],
                       deadline=0.5)
    if hung.get("ok") or time.monotonic() - t0 > 10.0:
        fails.append("a process past its deadline was not stopped")
    if upload_counts([base, hung]) != (10 + NOMINAL_UPLOADS, NOMINAL_UPLOADS):
        fails.append("a killed process did not count its uploads as failed")
    native = run_process([str(BINARY), "selftest"], deadline=30.0)
    if not native.get("ok"):
        fails += ["binary self-test: " + e for e in native.get("errors", [])]
    return fails


def listed_metrics(trace):
    """{name: unit} of the metrics BENCHMARK.json lists for this mode, when
    it is present in the working directory (the repository root)."""
    path = Path("BENCHMARK.json")
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run only the self-test")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    spans = Spans()
    root = spans.begin(f"run {args.workload} seed={args.seed} "
                       f"trace={args.trace}")
    if not build(spans, root):
        return 1
    started = time.monotonic()

    span = spans.begin("selftest", root)
    errors = ["self-test: " + f for f in selftest()]
    spans.end(span)
    if args.selftest:
        print("\n".join(errors) or "self-test passed")
        return 1 if errors else 0

    def deadline():
        return min(CALL_DEADLINE_S, RUN_LIMIT_S - (time.monotonic() - started))

    def call(what, **kw):
        span = spans.begin(what, root)
        report = measure(seed=args.seed, deadline=deadline(), **kw)
        spans.end(span)
        spans.adopt(report.get("spans", []), span)
        errors.extend(f"{what}: {e}" for e in report.get("errors", []))
        return report

    # planned-1m-s4 must equal planned-1m-s1 bitwise: one untimed 1-shard
    # reference per run.
    reference = None
    if args.workload == "planned-1m-s4":
        reference = call("reference planned-1m-s1", workload="planned-1m-s1")

    # Repetitions until the next one would overrun --seconds (at least one
    # of each kind). The first untraced one (and every traced one) also
    # resumes from the run's last checkpoint blob and checks the result
    # equals the uninterrupted run.
    untraced, traced = [], []
    kinds = [False, True] if args.trace else [False]
    durations = []  # per process, less the untimed resume check
    while True:
        for is_traced in kinds:
            t = time.monotonic()
            report = call(f"measure {args.workload}"
                          f"{' traced' if is_traced else ''}",
                          workload=args.workload, traced=is_traced,
                          check_resume=not args.trace and not untraced)
            resume = 0.0 if is_traced else report.get("resume_s", 0.0)
            durations.append(time.monotonic() - t - resume)
            (traced if is_traced else untraced).append(report)
        step = statistics.median(durations) * len(kinds)
        if sum(durations) + step > args.seconds or deadline() < step + 5.0:
            break

    reports = traced if args.trace else untraced
    good = [r for r in untraced + traced if r.get("ok")]
    if good:
        want = (reference or good[0]).get("digest")
        what = ("shard-count equivalence (vs 1 shard)" if reference else
                "repeatability and traced == untraced")
        errors += digest_errors(untraced + traced, want, what)
    if reference is not None and not reference.get("ok"):
        errors.append("1-shard reference failed")

    measured = [r for r in reports if r.get("ok")]
    attempted, failed = upload_counts(untraced + traced)
    if errors:
        failed = attempted  # a run that fails a check fails all its uploads
    metrics, samples = median_metrics(measured) if measured else ({}, {})
    if args.trace and measured:
        walls = [r["wall_s"] for r in untraced if r.get("ok")]
        traced_wall = statistics.median(r["wall_s"] for r in measured)
        metrics["obs.trace_overhead_frac"] = {
            "value": traced_wall / statistics.median(walls) - 1.0
            if walls else 0.0, "unit": "ratio"}

    listed = listed_metrics(args.trace)
    if listed is not None and set(listed) != set(metrics):
        missing = sorted(set(listed) - set(metrics))
        extra = sorted(set(metrics) - set(listed))
        errors.append(f"metrics differ from BENCHMARK.json: missing {missing}, "
                      f"unlisted {extra}")
    for name, m in metrics.items():
        if listed is not None and listed.get(name, m["unit"]) != m["unit"]:
            errors.append(f"{name}: unit {m['unit']} but BENCHMARK.json "
                          f"lists {listed[name]}")
    for name, unit in (listed or {}).items():
        metrics.setdefault(name, {"value": 0.0, "unit": unit})

    spans.end(root)
    trace_file = (BUILD / "spans" /
                  f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    spans.write(trace_file)

    print(f"campaign_bench {args.workload} seed={args.seed} "
          f"trace={args.trace}: {len(reports)} measured processes "
          f"({len(untraced)} untraced, {len(traced)} traced), "
          f"shards={reports[0].get('shards', '?') if reports else '?'}, "
          f"spans -> {trace_file}")
    for name, m in metrics.items():
        vs = samples.get(name, [])
        spread = ""
        if len(vs) >= 2:
            spread = (f"  [min {min(vs):.6g}, median "
                      f"{statistics.median(vs):.6g}, max {max(vs):.6g}, "
                      f"n={len(vs)}]")
        print(f"  {name:34s} {m['value']:16.6g} {m['unit']}{spread}")
    print(f"  {'failed_frac':34s} {failed / max(1, attempted):16.6g} ratio"
          f"  [{failed} of {attempted} uploads]")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({"correct": not errors, "attempted": max(1, attempted),
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
