"""One benchmark operation in a fresh interpreter.

Usage: ``python3 perfbench/child.py SPEC.json``.  The spec names the checkout's
``src`` directory, the operation (``cli``: one ``rcaspace.cli.main(argv)``
call; ``lib``: the small-tables library loop), whether to trace, and where to
write the result.  Only the standard library is imported before
``import rcaspace.cli`` is timed, so ``setup_s`` is the cost every CLI
invocation pays after interpreter start.
"""
import contextlib
import json
import os
import sys
import time


def _peak_rss_mb() -> float:
    """High-water resident set size of this process image, in MiB.

    Read from VmHWM rather than ``ru_maxrss``: on Linux ``ru_maxrss`` keeps
    the high-water mark of the image replaced by ``exec``, so a child started
    by a large parent would report the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def _small_tables_loop(spec: dict, result: dict) -> list:
    import warnings

    import numpy as np
    from rcaspace import ingest, netexport, proximity, report
    from rcaspace.errors import UndefinedCellWarning

    data = np.load(spec["small"])
    with open(spec["small_names"], encoding="utf-8") as fh:
        names = json.load(fh)
    countries, fields = tuple(names["countries"]), tuple(names["fields"])
    shapes, offsets, flat = data["shapes"].tolist(), data["offsets"].tolist(), data["flat"]
    tables = [flat[offsets[k]:offsets[k + 1]].reshape(r, c) for k, (r, c) in enumerate(shapes)]
    kind = ingest.IndexKind.DOCUMENTS
    outputs: list = []
    errors: list[str] = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UndefinedCellWarning)
        start = time.perf_counter()
        for values in tables:
            r, c = values.shape
            try:
                table = ingest.ProductionTable(kind, countries[:r], fields[:c], values)
                analysis = report.analyze_index(table)
                fnet = proximity.field_proximity(analysis.advantage, table.field_totals())
                cnet = proximity.country_proximity(analysis.advantage, table.country_totals())
                outputs.append((
                    analysis, fnet, cnet,
                    netexport.emit(netexport.build_layout(fnet), "json"),
                    netexport.emit(netexport.build_layout(cnet), "json"),
                ))
            except Exception as exc:  # a failed table is counted, and the loop goes on
                outputs.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
        result["wall_s"] = time.perf_counter() - start
    result["attempted"] = len(tables)
    result["failed"] = len(errors)
    result["errors"] = errors[:5]
    return outputs


def _table_arrays(item) -> dict:
    """The outputs of one small table in a canonical dtype."""
    import numpy as np

    analysis, fnet, cnet = item[:3]
    return {
        "rca": np.asarray(analysis.rca.values, dtype=np.float64),
        "defined": np.asarray(analysis.rca.defined_mask, dtype=np.int8),
        "adv": np.asarray(analysis.advantage.m, dtype=np.int8),
        "div": np.asarray(analysis.diversity, dtype=np.int64),
        "ubi": np.asarray(analysis.ubiquity, dtype=np.int64),
        "fw": np.asarray(fnet.weights, dtype=np.float64),
        "cw": np.asarray(cnet.weights, dtype=np.float64),
    }


def _small_tables_digests(outputs: list, dump_path) -> list:
    """Per-table digests; with ``dump_path``, also every output for the check."""
    import hashlib

    import numpy as np

    digests, columns, layouts = [], {}, []
    for item in outputs:
        if item is None:
            digests.append(None)
            layouts.append(None)
            continue
        arrays = _table_arrays(item)
        h = hashlib.blake2b(digest_size=16)
        for key, arr in arrays.items():
            h.update(arr.tobytes())
            columns.setdefault(key, []).append(arr.ravel())
        h.update(item[3])
        h.update(item[4])
        digests.append(h.hexdigest())
        layouts.append((item[3].decode("utf-8"), item[4].decode("utf-8")))
    if dump_path:
        np.savez(dump_path, **{k: np.concatenate(v) for k, v in columns.items()})
        with open(dump_path + ".layouts.json", "w", encoding="utf-8") as fh:
            json.dump(layouts, fh)
    return digests


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    import rcaspace.cli
    result = {"setup_s": time.perf_counter() - start, "numpy_at_setup": "numpy" in sys.modules}
    if not os.path.abspath(rcaspace.cli.__file__).startswith(spec["src"] + os.sep):
        print(f"imported rcaspace from {rcaspace.cli.__file__}, not {spec['src']}",
              file=sys.stderr)
        return 1

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    outputs = None
    if spec["op"] == "cli":
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            rc = rcaspace.cli.main(spec["argv"])
            result["wall_s"] = time.perf_counter() - start
        result.update(rc=rc, attempted=1, failed=int(rc != 0))
    elif spec["op"] == "lib":
        outputs = _small_tables_loop(spec, result)
    result["peak_rss_mb"] = _peak_rss_mb()

    if outputs is not None:
        result["digests"] = _small_tables_digests(outputs, spec.get("dump"))
    if tracer is not None:
        import spans

        files, size = spans.tree_counts(spec["out"]) if spec["op"] == "cli" else (0, 0)
        tracer.add("cli.files_written", files)
        tracer.add("cli.bytes_written", size)
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
