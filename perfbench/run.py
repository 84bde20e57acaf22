"""The dualcoh benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Each repetition of the workload runs in a
fresh interpreter (worker.py), one at a time, with `DUALCOH_MONOMIAL_CAP`
unset and no config file, so rings start cold as they do for each `dualcoh`
call.  A run is a series of cycles, each SETUP_PER_CYCLE import-only
interpreters and then one repetition.  Cycles are started while the next
one would still end within `--seconds`, judged by the longest so far (at
least two).

The host's speed moves by tens of percent, so times are scaled to a
reference speed measured inside each untraced repetition (sampler.py).
`wall_s` is the median over repetitions of (wall time - probe time) x
speed; `setup_s` the median over import-only interpreters of import time
x the speed the interpreter sampled right after its import.  The raw times
are on the context line.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced repetitions and prints the per-layer metrics.
The last line of stdout is the result object; the line before it holds the
run's context (nproc, load average, samples, failures, check breakdown).
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PER_CYCLE = 4    # import-only interpreters per cycle, besides the repetition
RUN_LIMIT = 170        # seconds after which a run stops and fails

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402


class BenchError(Exception):
    """The benchmark itself could not produce a valid result."""


def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def child(argv, what, deadline, env=None):
    """Run one child interpreter to its end; its stdout."""
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} ran past the run's {RUN_LIMIT}s limit")
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{what} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout.splitlines()[-1]


def spawn(workload, seed, mode, deadline):
    """Run one worker; its report, with `setup_s` measured from here."""
    env = {k: v for k, v in os.environ.items() if k != "DUALCOH_MONOMIAL_CAP"}
    argv = [sys.executable, "-I", os.path.join(HERE, "worker.py"), ROOT,
            workload, str(seed), mode]
    t0 = time.monotonic()
    rep = json.loads(child(argv, f"{mode} repetition", deadline, env))
    rep["setup_s"] = rep["import_done"] - t0
    return rep


def cycles(workload, seed, seconds, modes, deadline):
    """Cycles cycling through `modes` while the next would end within `seconds`.

    Each cycle is a dict: mode, rep (the worker's report) and setup (the
    reports of its import-only interpreters).
    """
    start = time.monotonic()
    out = []
    longest = 0.0
    while len(out) < 2 or time.monotonic() - start + longest <= seconds:
        t0 = time.monotonic()
        setup = [spawn(workload, seed, "setup", deadline)
                 for _ in range(SETUP_PER_CYCLE)]
        mode = modes[len(out) % len(modes)]
        rep = spawn(workload, seed, mode, deadline)
        out.append({"mode": mode, "rep": rep, "setup": setup})
        longest = max(longest, time.monotonic() - t0)
    return out


def unstable_keys(done):
    """Output keys whose bytes differ between repetitions of the same seed."""
    seen = {}
    for c in done:
        for key, sha, _, _ in c["rep"]["outputs"]:
            seen.setdefault(key, set()).add(sha)
    return sorted(k for k, shas in seen.items() if len(shas) > 1), len(seen)


def scaled_wall(rep):
    """A repetition's wall time at the reference speed, its probes taken out."""
    return (rep["wall_s"] - rep["probe_s"]) * rep["speed"]


def end_to_end(reps, setup, failed, attempted, unstable, keys):
    return {
        "wall_s": (statistics.median(scaled_wall(r) for r in reps), "s"),
        "setup_s": (statistics.median(r["setup_s"] * r["speed"] for r in setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MiB"),
        "verified_frac": (1 - failed / attempted, "ratio"),
        "stable_frac": (1 - len(unstable) / keys, "ratio"),
    }


def per_layer(fastest, fastest_plain):
    """Per-layer metrics of the fastest traced repetition, and its check breakdown.

    All of them come from that one repetition, so they add up: the layer
    self times over its wall time is `trace.coverage`.
    """
    times = fastest["spans"]
    metrics = {name: (sum(s for span, (s, _, _) in times.items() if span.startswith(prefixes)), "s")
               for name, prefixes in spans.LAYER_TIMES.items()}
    metrics["rings.build_calls"] = (sum(n for span, (_, _, n) in times.items()
                                        if span.startswith("rings.")), "count")
    metrics["morphisms.gysin_dim"] = (fastest["gysin_dim"], "count")
    metrics["algebra.witness_scanned"] = (fastest["witness_scanned"], "count")
    metrics["trace.coverage"] = (sum(s for s, _, _ in times.values()) / fastest["wall_s"], "ratio")
    metrics["trace.overhead_s"] = (fastest["wall_s"] - fastest_plain["wall_s"]
                                   + fastest_plain["probe_s"], "s")
    checks = {span.replace("checks.suite.", "checks.") + "_s": inclusive
              for span, (_, inclusive, _) in sorted(times.items())
              if span.startswith("checks.")}
    return metrics, checks


def write_spans(workload, seed, rep):
    """Keep the spans behind the per-layer metrics for later inspection."""
    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"{workload}-seed{seed}-spans.json")
    with open(path, "w") as fh:
        json.dump({"columns": ["name", "start", "end", "parent"],
                   "spans": rep["span_list"], "wall_s": rep["wall_s"]}, fh)
    return os.path.relpath(path, ROOT)


def run(workload, seed, seconds, trace):
    context = {"workload": workload, "seed": seed, "trace": trace,
               "nproc": os.cpu_count(), "loadavg_before": loadavg(),
               "python": sys.version.split()[0]}
    deadline = time.monotonic() + RUN_LIMIT
    spawn(workload, seed, "setup", deadline)  # writes bytecode caches; not a sample
    done = cycles(workload, seed, seconds,
                  ("plain", "traced") if trace else ("plain",), deadline)
    context["loadavg_after"] = loadavg()
    reps = [c["rep"] for c in done]
    outputs = [o for r in reps for o in r["outputs"]]
    failures = [(key, bad) for key, _, _, bad in outputs if bad]
    unstable, keys = unstable_keys(done)
    plain = [r for r in reps if "speed" in r]
    setup = [r for c in done for r in c["setup"]]
    context.update({
        "repetitions": [c["mode"] for c in done],
        "wall_s_samples": [r["wall_s"] for r in reps],
        "wall_s_raw_median": statistics.median(r["wall_s"] for r in reps),
        "speeds": [r["speed"] for r in plain],
        "probes": [r["probes"] for r in plain],
        "probe_s": [r["probe_s"] for r in plain],
        "setup_s_raw_median": statistics.median(r["setup_s"] for r in setup),
        "setup_s_samples": len(setup),
        "failed_frac": len(failures) / len(outputs),
        "unstable_outputs": len(unstable),
        "unstable": unstable,
        "failures": failures[:10],
    })
    if trace:
        fastest = {mode: min((c["rep"] for c in done if c["mode"] == mode),
                             key=lambda r: r["wall_s"])
                   for mode in ("plain", "traced")}
        if any(r["footprint"] != reps[0]["footprint"] for r in reps):
            raise BenchError("the traced repetitions built rings or caches that "
                             "the untraced ones did not")
        verdicts = [{k: v for k, _, v, _ in r["outputs"]} for r in reps]
        context["traced_verdicts_equal_untraced"] = all(v == verdicts[0] for v in verdicts)
        metrics, context["checks"] = per_layer(fastest["traced"], fastest["plain"])
        context["spans_file"] = write_spans(workload, seed, fastest["traced"])
        correct = not failures and context["traced_verdicts_equal_untraced"]
    else:
        metrics = end_to_end(plain, setup, len(failures), len(outputs), unstable, keys)
        correct = not failures
    print(json.dumps({"context": context}))
    return {"correct": correct, "attempted": len(outputs), "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the
    # running repetition instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + (workloads.SMOKE,))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in ("src/dualcoh/cli.py", "perfbench/reference.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"benchmark: {need} is missing under {ROOT}", file=sys.stderr)
            return 2
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
