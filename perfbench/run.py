"""rcaspace benchmark: seeded batch workloads, checked outputs, named metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (sizes in ``WORKLOADS``; why each was chosen is recorded in
BENCHMARK.json):

- ``report_categories``: ``rcaspace report`` with all five ``--format``s;
  text parsing and writing dominate.
- ``countries_network``: ``rcaspace network countries --format json``;
  n^2 pair work dominates.
- ``small_tables``: an in-process library loop over many tables of 1-4 x 1-5
  cells; per-call overhead dominates.

Each operation runs in a fresh child interpreter (``child.py``) with a fresh
empty ``--out``, one at a time, right after ``probe.py`` has read the
machine's speed in another fresh interpreter.  The first operation is an untimed warm-up
whose output is checked against an independent numpy reference
(``check.py``); every timed operation must then reproduce that output byte
for byte.  Operations are timed until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics (medians over the timed
operations, with the machine's speed taken out as described at ``REF_JOB_S``
and ``NUMPY_IMPORT_S``); ``--trace 1`` alternates traced and untraced
operations and prints the per-layer metrics of ``spans.py`` plus
``trace.overhead_frac``.  The last line of standard output is the JSON
result; the lines before it are a readable summary.  Exit status is 0 when a
result was printed, 2 when the checkout holds no rcaspace sources.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import check
import gen
import spans

HERE = Path(__file__).resolve().parent

#: name -> (operation, sizes, smoke sizes)
WORKLOADS = {
    "report_categories": ("cli", dict(n_indexes=5, n_countries=120, n_fields=160),
                          dict(n_indexes=5, n_countries=14, n_fields=36)),
    "countries_network": ("cli", dict(n_indexes=1, n_countries=750, n_fields=96),
                          dict(n_indexes=1, n_countries=60, n_fields=30)),
    "small_tables": ("lib", dict(n_tables=2500), dict(n_tables=300)),
}
#: ``wall_s`` is each operation's wall time scaled by REF_JOB_S / ``ref_job_s``,
#: the time ``probe.py`` took for a fixed pure-Python job just before (about
#: REF_JOB_S on the 2-vCPU Xeon this was tuned on).  That machine's speed
#: drifts by 10-35% over minutes; in ten-seed sets the scaling cut the spread
#: of ``wall_s`` across runs from up to 0.26 of the median to at most 0.10.
REF_JOB_S = 0.16
#: ``setup_s`` is each operation's import time with numpy's own import, when
#: ``import rcaspace.cli`` loads numpy, replaced by this fixed value (seconds).
#: ``probe.py`` times numpy's import just before; it moved between 0.08 and
#: 0.17 s with the machine's state while the rest of the import stayed within
#: 0.07-0.09 s.
NUMPY_IMPORT_S = 0.12


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _machine() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "cpu": _cpu_model(),
    }


class Runner:
    """Starts operations one at a time in fresh child interpreters."""

    def __init__(self, root: Path, work: Path, nproc: int) -> None:
        self.src = str(root / "src")
        self.work = work
        self.env = dict(os.environ)
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(nproc)
        self.count = 0

    def run(self, op: str, trace: bool = False, **spec) -> dict:
        """``probe.py``, then one child; returns the child's result dict with the
        probe's readings, or one with ``crashed`` set."""
        self.count += 1
        tag = self.work / f"op{self.count:03d}"
        spec.update(src=self.src, op=op, trace=trace, result=f"{tag}.result.json",
                    spans=f"{tag}.spans.json")
        Path(f"{tag}.spec.json").write_text(json.dumps(spec), encoding="utf-8")
        probe = subprocess.run([sys.executable, str(HERE / "probe.py")], stdin=subprocess.DEVNULL,
                               capture_output=True, text=True, env=self.env, timeout=60,
                               check=True)
        with open(f"{tag}.stderr", "wb") as err:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), f"{tag}.spec.json"],
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                env=self.env, timeout=170,
            )
        if proc.returncode != 0 or not Path(spec["result"]).exists():
            tail = Path(f"{tag}.stderr").read_text(encoding="utf-8", errors="replace")[-400:]
            return {"crashed": f"exit {proc.returncode}: {tail}"}
        result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        result.update(json.loads(probe.stdout))
        if trace:
            result["spans"] = json.loads(Path(spec["spans"]).read_text(encoding="utf-8"))
        return result


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class CliWorkload:
    """A workload whose operation is one ``rcaspace`` CLI invocation."""

    def __init__(self, name: str, work: Path, seed: int, sizes: dict) -> None:
        self.out = work / "out"
        self.data = gen.make_dataset(work / "inputs", seed, name=f"perfbench-{name}-{seed}",
                                     **sizes)
        manifest = str(self.data["manifest"])
        if name == "report_categories":
            self.command, self.formats = "report", check.FORMATS
            self.argv = ["report", "--manifest", manifest, "--out", str(self.out)]
        else:
            self.command, self.formats = "network", ("json",)
            self.argv = ["network", "countries", "--manifest", manifest, "--out", str(self.out)]
        for fmt in self.formats:
            self.argv += ["--format", fmt]
        self.reference = None  # digest of the checked warm-up output
        self.digest = ""
        self.size = 1  # operations counted per child

    def operate(self, runner: Runner, trace: bool = False, dump: bool = False) -> dict:
        _fresh(self.out)
        return runner.run("cli", trace, argv=self.argv, out=str(self.out))

    def verify(self, result: dict) -> list[str]:
        if result.get("rc") != 0:
            return [f"warm-up exited {result.get('rc')}: {result.get('crashed', '')}"]
        try:
            problems = check.check_cli_tree(self.out, self.data, self.command, self.formats)
        except Exception as exc:  # unparsable output is a failed check, not a crash
            problems = [f"output unreadable: {exc!r}"]
        self.digest = check.tree_digest(self.out)
        self.reference = None if problems else self.digest
        return problems

    def failures(self, result: dict) -> int:
        ok = result.get("rc") == 0 and check.tree_digest(self.out) == self.reference
        return 0 if ok else 1


class SmallTablesWorkload:
    """The library loop over many tiny tables, in one child per operation."""

    def __init__(self, name: str, work: Path, seed: int, sizes: dict) -> None:
        self.path = work / "inputs" / "small.npz"
        self.small = gen.make_small_tables(self.path, seed, sizes["n_tables"])
        self.dump = str(work / "dump")
        self.reference = None  # per-table digests of the checked warm-up output
        self.digest = ""
        self.size = sizes["n_tables"]  # operations counted per child

    def operate(self, runner: Runner, trace: bool = False, dump: bool = False) -> dict:
        return runner.run("lib", trace, small=str(self.path),
                          small_names=str(self.path.with_suffix(".names.json")),
                          out="", dump=self.dump if dump else None)

    def verify(self, result: dict) -> list[str]:
        if "crashed" in result:
            return [f"warm-up crashed: {result['crashed']}"]
        with np.load(self.dump + ".npz") as arrays:
            dump = {key: arrays[key] for key in arrays.files}
        layouts = json.loads(Path(self.dump + ".layouts.json").read_text(encoding="utf-8"))
        try:
            bad = set(check.check_small_tables(self.small, dump, layouts))
        except Exception as exc:  # unparsable output is a failed check, not a crash
            return [f"output unreadable: {exc!r}"]
        self.reference = [None if k in bad else d for k, d in enumerate(result["digests"])]
        self.digest = hashlib.sha256("".join(d or "-" for d in result["digests"]).encode()).hexdigest()
        return [f"table {k}: output differs from the reference" for k in sorted(bad)]

    def failures(self, result: dict) -> int:
        return sum(d is None or d != want for d, want in zip(result["digests"], self.reference))


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, q1={q1:.6g}, q3={q3:.6g}"


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "rcaspace" / "cli.py").is_file():
        print(f"perfbench: no rcaspace sources under {root / 'src'}; "
              "run from the root of an rcaspace checkout", file=sys.stderr)
        return 2
    op, sizes, smoke_sizes = WORKLOADS[args.workload]
    work = _fresh(root / ".perfbench-work" / args.workload)
    machine = _machine()
    runner = Runner(root, work, machine["nproc"])
    workload_cls = CliWorkload if op == "cli" else SmallTablesWorkload
    workload = workload_cls(args.workload, work, args.seed, smoke_sizes if args.smoke else sizes)

    problems = workload.verify(workload.operate(runner, dump=True))

    ops: list[dict] = []
    started = time.perf_counter()
    while True:
        op_start = time.perf_counter()
        traced = bool(args.trace) and len(ops) % 2 == 0
        result = workload.operate(runner, trace=traced)
        result["traced"] = traced
        if "crashed" in result:
            print(f"perfbench: operation crashed: {result['crashed']}", file=sys.stderr)
            result["attempted"] = workload.size
            result["failed"] = workload.size
        elif problems:
            result["failed"] = result["attempted"]
        else:
            result["failed"] = workload.failures(result)
        ops.append(result)
        now = time.perf_counter()
        if len(ops) >= 2 and now - started + (now - op_start) > args.seconds:
            break
    measured = time.perf_counter() - started

    plain = [r for r in ops if not r["traced"] and "crashed" not in r]
    traced_ops = [r for r in ops if r["traced"] and "crashed" not in r]
    if not plain or (args.trace and not traced_ops):
        print("perfbench: every operation crashed", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    walls = [r["wall_s"] * REF_JOB_S / r["ref_job_s"] for r in plain]
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print(f"# machine {json.dumps(machine)} blas_threads_cap={machine['nproc']}")
    print(f"# {len(ops)} operations in {measured:.1f} s after 1 untimed warm-up")
    print(f"# check: {'reference ok' if not problems else '; '.join(problems[:5])}; "
          f"output digest {workload.digest or '-'}")
    print(f"# fail_frac {failed / attempted:.6g} ratio ({failed} of {attempted} "
          f"{'tables' if op == 'lib' else 'invocations'} failed)")

    metrics: dict[str, dict] = {}
    if not args.trace:
        setups = [r["setup_s"] - (r["numpy_import_s"] - NUMPY_IMPORT_S) * r["numpy_at_setup"]
                  for r in plain]
        for name in ("wall_s", "setup_s", "ref_job_s", "numpy_import_s"):
            print(f"# measured {name} {statistics.median(r[name] for r in plain):.6g} s (median)")
        rss = [r["peak_rss_mb"] for r in plain]
        for name, unit, values in (("wall_s", "s", walls), ("peak_rss_mb", "MB", rss),
                                   ("setup_s", "s", setups)):
            metrics[name] = {"value": statistics.median(values), "unit": unit}
            print(f"# {name} {metrics[name]['value']:.6g} {unit} (median; {_quartiles(values)})")
    else:
        per_op = [spans.layer_metrics(r["spans"]) for r in traced_ops]
        traced_walls = [r["wall_s"] * REF_JOB_S / r["ref_job_s"] for r in traced_ops]
        for name, unit in spans.LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                value = statistics.median(traced_walls) / statistics.median(walls) - 1.0
            else:
                value = statistics.median(m[name] for m in per_op)
            metrics[name] = {"value": value, "unit": unit}
            print(f"# {name} {value:.6g} {unit}")
        if op == "cli":
            for r in traced_ops:
                top = spans.top_level_ms(r["spans"], "cli.main")
                layers = sum(ms for name, ms in top.items() if name != "trace.count")
                counting = top.get("trace.count", 0.0)
                untraced = spans.self_times(r["spans"])["cli.main"]
                total = layers + counting + untraced
                print(f"# trace: top-level layer spans {layers:.1f} ms + counter hooks "
                      f"{counting:.1f} ms + cli.untraced_ms {untraced:.1f} ms = "
                      f"{total:.1f} ms, {100 * total / 1000 / r['wall_s']:.2f}% of the "
                      f"{r['wall_s']:.3f} s traced wall time")
        print(f"# traced ops {len(traced_ops)}, untraced ops {len(plain)} "
              f"({len(per_op)} traced samples per metric)")

    shutil.rmtree(work / "inputs", ignore_errors=True)
    shutil.rmtree(work / "out", ignore_errors=True)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for testing the benchmark itself")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
