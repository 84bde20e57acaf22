"""Write reference.json: the verdicts and dual classes every workload must
reproduce, and the names of every check `dualcoh check` runs.

    python3 perfbench/make_reference.py

Run it only when the expected mathematics changes (a new workload instance,
a deliberate schema change); a speed change must leave the file as it is.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import repetition  # noqa: E402
import verify  # noqa: E402
import workloads  # noqa: E402


def main():
    ref = {"instances": {}, "checks": []}
    for workload in workloads.WORKLOADS:
        calls = workloads.calls(workload, 0)
        results, _ = repetition.run_calls(calls)
        for rc, text in results:
            if rc != 0:
                raise SystemExit(f"{workload}: a call exited {rc}")
            doc = json.loads(text)
            if workload == "check-suites":
                ref["checks"] = sorted(r["name"] for r in doc["results"])
                continue
            key = workloads.instance_key(doc["family"], doc["parameters"])
            ref["instances"][key] = verify.verdict_of(doc)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
