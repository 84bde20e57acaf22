"""One repetition of one workload: run it, time it, verify what it emitted.

worker.py calls `main` in a fresh interpreter right after importing dualcoh.
The workload goes through `dualcoh.cli.main` with stdout captured; the
repetition notes wall time and peak memory, and only then verifies every
output, so verification costs no measured time.  An untraced repetition
runs under a Sampler (sampler.py), which notes how fast the host ran.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

import sampler
import workloads


def run_calls(calls, speed=None):
    """(per-call (return code, stdout), wall seconds), stdout captured.

    `speed`, a Sampler or None, is entered around the timed section.
    """
    import dualcoh.cli
    results = []
    with speed or contextlib.nullcontext(), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.monotonic()
        for argv in calls:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    rc = dualcoh.cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed output
                rc = f"{type(exc).__name__}: {exc}"
            results.append((rc, buf.getvalue()))
        wall = time.monotonic() - t0
    return results, wall


def footprint():
    """What the rings alive now hold: built basis degrees and cache sizes.

    A traced repetition must leave the same footprint as an untraced one;
    a difference means tracing forced work the program would have skipped.
    """
    from dualcoh.algebra import GradedAlgebra
    gc.collect()
    out = []
    for obj in gc.get_objects():
        if isinstance(obj, GradedAlgebra):
            out.append([obj.kind, [g.name for g in obj.generators], obj.top_degree,
                        sorted(getattr(obj, "_basis", {})),
                        len(getattr(obj, "_nf_cache", {})),
                        len(getattr(obj, "_mont_class_cache", {}))])
    return sorted(out)


def witness_scanned(searches):
    """Ideal-basis elements each witness search tried before its hit.

    Computed after the timed section by replaying `ideal_basis_in_degree`
    on the recorded arguments; a search without a hit tried them all.
    """
    from dualcoh.algebra import ideal_basis_in_degree, pairing
    total = 0
    for v, ideal in searches:
        if v.is_zero():
            continue
        basis = ideal_basis_in_degree(ideal, v.algebra.top_degree - v.homogeneous_degree())
        total += next((i + 1 for i, u in enumerate(basis) if pairing(v, u)), len(basis))
    return total


def collect_outputs(workload, seed, results, reference):
    """[key, sha256 of the bytes, verdict, failure reasons] for every output."""
    import verify
    if workload == "check-suites":
        keys = [reference["checks"]]
    else:
        keys = [[workloads.instance_key(f, p)] for f, p in workloads.instances(workload, seed)]
    out = []
    for i, (rc, text) in enumerate(results):
        try:
            if rc != 0:
                raise RuntimeError(f"exit {rc}")
            out.extend(verify.outputs_of(workload, text, reference, seed))
        except Exception as exc:  # noqa: BLE001 - recorded as failed output(s)
            reason = f"{type(exc).__name__}: {exc}"
            out.extend((k, text, None, [reason]) for k in keys[i])
    return [[k, hashlib.sha256(text.encode()).hexdigest(), verdict, bad]
            for k, text, verdict, bad in out]


def main(root, workload, seed, mode, import_done):
    import dualcoh.cli
    src = os.path.abspath(f"{root}/src")
    if not os.path.abspath(dualcoh.cli.__file__).startswith(src + os.sep):
        print(f"dualcoh was imported from {dualcoh.cli.__file__}, not {src}",
              file=sys.stderr)
        return 2
    report = {"import_done": import_done}
    if mode == "setup":
        report["speed"] = sampler.burst_speed()  # the host's speed just after the import
        print(json.dumps(report))
        return 0
    calls = workloads.calls(workload, seed)
    recorder = speed = None
    if mode == "traced":
        import spans
        recorder = spans.Recorder()
        spans.install(recorder)
    else:
        speed = sampler.Sampler()
    results, wall = run_calls(calls, speed)
    report["wall_s"] = wall
    if speed is not None:
        report["probe_s"] = speed.spent
        report["probes"] = len(speed.samples)
        report["speed"] = speed.speed
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["footprint"] = footprint()
    if recorder is not None:
        report["spans"] = recorder.self_times()
        report["span_list"] = list(recorder.spans)  # verification adds spans later
        report["gysin_dim"] = recorder.gysin_dim
        report["witness_scanned"] = witness_scanned(recorder.witness_calls)
    with open(f"{root}/perfbench/reference.json") as fh:
        reference = json.load(fh)
    report["outputs"] = collect_outputs(workload, seed, results, reference)
    print(json.dumps(report))
    return 0
