"""Two readings of the machine's speed, taken just before each operation.

Usage: ``python3 perfbench/probe.py``; prints one JSON object with

- ``ref_job_s``: seconds for a fixed pure-Python job like the benchmark's own
  work.  It formats, parses and groups text lines, as the readers and writers
  do, and sorts a large list of tuples by key, as the backbone does.
- ``numpy_import_s``: seconds to import numpy, which is most of ``setup_s``
  and the part of it that moves with the machine's memory and file-cache
  state.

The probe runs in its own fresh interpreter and never imports rcaspace, so no
change to rcaspace can move either reading, and the operation's child keeps
its own peak memory.  ``run.py`` uses the readings to take the machine's drift
out of ``wall_s`` and ``setup_s``.
"""
import json
import time


def reference_job() -> float:
    start = time.perf_counter()
    groups: dict = {}
    for i in range(30000):
        line = f"{i},{i * 0.37:.6g},name{i % 97}"
        a, b, c = line.split(",")
        groups.setdefault(c, []).append(int(a) + float(b))
    pairs = [(i % 613, i * 7919 % 100003, i * 2654435761 % 4294967296 / 4294967296.0)
             for i in range(60000)]
    pairs.sort(key=lambda e: (-e[2], e[0], e[1]))
    return time.perf_counter() - start


def main() -> None:
    ref_job_s = reference_job()
    start = time.perf_counter()
    import numpy  # noqa: F401
    numpy_import_s = time.perf_counter() - start
    print(json.dumps({"ref_job_s": ref_job_s, "numpy_import_s": numpy_import_s}))


if __name__ == "__main__":
    main()
