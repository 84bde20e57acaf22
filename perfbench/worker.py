"""Entry point of one repetition, run by run.py in a fresh interpreter:

    python3 -I perfbench/worker.py <root> <workload> <seed> <mode>

mode is `setup` (import only), `plain` or `traced`.  Only the interpreter
start and `import dualcoh.cli` (from `<root>/src`) happen before the import
timestamp; run.py turns that timestamp into `setup_s`.  The repetition then
runs in repetition.py and prints one JSON object on stdout.
"""

import sys
import time

if __name__ == "__main__":
    root, workload, seed, mode = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4]
    sys.path[:0] = [f"{root}/src", f"{root}/perfbench"]
    import dualcoh.cli
    import_done = time.monotonic()

    import repetition
    sys.exit(repetition.main(root, workload, seed, mode, import_done))
