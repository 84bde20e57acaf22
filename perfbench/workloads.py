"""The benchmark's workloads: which `dualcoh` calls each one makes.

A workload is a list of instances.  Sweep workloads run one
`dualcoh family ... --json` call per instance; the seed permutes the order
inside each family block (a block's instances share rings through the
program's caches, as `dualcoh sweep` shares them).  `check-suites` is one
`dualcoh check --json --seed <seed>` call.  The instance lists are written
out here rather than taken from the program, so a change to the program's
own enumerators cannot change what is measured.

This module imports nothing from dualcoh: the worker loads it before the
timed section and its cost must not show in any metric.
"""

import json
import random

WORKLOADS = ("lagrangian-sweep", "grassmannian-sweep", "exterior-ghost",
             "check-suites")
# A few seconds' ladder for the self-tests; not one of the measured workloads.
SMOKE = "smoke"
SUITES = ("oracle", "paper-identities", "properties")


def two_part_partitions(g):
    """Nonincreasing [a, b] with a + b = g and b >= 1."""
    return [[g - b, b] for b in range(g // 2, 0, -1)]


def unitary_parts(p, q):
    """Multisets of parts (p_i, q_i) >= (1, 1) with sums exactly (p, q).

    Parts are listed nonincreasing, the convention `dualcoh sweep` uses, so
    each H ring and its orientation match what a sweep would build.
    """
    out = []

    def rec(rp, rq, prev, acc):
        if rp == 0:
            if rq == 0:
                out.append([list(t) for t in acc])
            return
        for pi in range(min(prev[0], rp), 0, -1):
            for qi in range(min(rq, prev[1] if pi == prev[0] else q), 0, -1):
                rec(rp - pi, rq - qi, (pi, qi), acc + [(pi, qi)])

    rec(p, q, (p, q), [])
    return out


def _siegel(lo, hi):
    return [("siegel-product", {"g": g, "parts": parts})
            for g in range(lo, hi + 1) for parts in two_part_partitions(g)]


def _unitary(hi):
    return [("unitary-product", {"p": p, "q": q, "parts": parts})
            for p in range(1, hi + 1) for q in range(p, hi + 1)
            for parts in unitary_parts(p, q)]


def _ranks(family, key, lo, hi):
    return [(family, {key: r}) for r in range(lo, hi + 1)]


def blocks(workload):
    """The workload's instances as ordered blocks of (family, parameters)."""
    if workload == "lagrangian-sweep":
        return [_siegel(2, 6)]
    if workload == "grassmannian-sweep":
        return [_unitary(5), _ranks("sp-in-ugg", "g", 1, 5)]
    if workload == "exterior-ghost":
        return [_ranks("sl-imag-sp", "n", 2, 8), _ranks("sl-odd-real", "n", 1, 7)]
    if workload == SMOKE:
        return [_siegel(2, 3), _unitary(2), _ranks("sp-in-ugg", "g", 1, 2),
                _ranks("sl-imag-sp", "n", 2, 3), _ranks("sl-odd-real", "n", 1, 2)]
    raise ValueError(f"unknown workload {workload!r}")


def instances(workload, seed):
    """Instances in run order: blocks in order, each shuffled by the seed."""
    rng = random.Random(seed)
    out = []
    for block in blocks(workload):
        block = list(block)
        rng.shuffle(block)
        out.extend(block)
    return out


def family_argv(family, params):
    """The `dualcoh family` command line for one instance."""
    if family == "siegel-product":
        extra = ["--g", str(params["g"]),
                 "--parts", ",".join(str(a) for a in params["parts"])]
    elif family == "unitary-product":
        extra = ["--p", str(params["p"]), "--q", str(params["q"]),
                 "--parts", ",".join(f"{a}:{b}" for a, b in params["parts"])]
    elif family == "sp-in-ugg":
        extra = ["--g", str(params["g"])]
    else:
        extra = ["--n", str(params["n"])]
    return ["family", family, *extra, "--json"]


def calls(workload, seed):
    """Every CLI argument list the workload passes to `dualcoh.cli.main`."""
    if workload == "check-suites":
        return [["check", "--json", "--seed", str(seed)]]
    return [family_argv(f, p) for f, p in instances(workload, seed)]


def instance_key(family, params):
    """Order-free reference key of one family instance."""
    return f"{family} {json.dumps(params, sort_keys=True, separators=(',', ':'))}"
