"""fsindex benchmark: one workload per run, driven by one closed-loop client.

Run from the root of a checkout (the program is imported from ``src/``):

    python3 perfbench/run.py --workload range-100nn --seed 271828 --seconds 28 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``.  With
``--trace 0`` the run reports the end-to-end metrics, with ``--trace 1``
the per-module ones.  Every metric is printed by name and unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also writes a record,
and for a traced run its spans, under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
C08 = {"search.fragment_fraction.mean": "C08: 1.61%", "search.residue_fraction.mean": "C08: 53.7%"}


def import_program():
    """Put the checkout's ``src/`` first on the path and import fsindex from it."""
    src = ROOT / "src"
    if not (src / "fsindex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fsindex package under {src}")
    sys.path.insert(0, str(src))
    import fsindex

    if Path(fsindex.__file__).resolve().parent != (src / "fsindex").resolve():
        sys.exit(f"perfbench: imported fsindex from {fsindex.__file__}, not {src}")
    return fsindex


def source_digest() -> str:
    h = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def run_workload(name: str, corpus, seed: int, seconds: float, trace: bool,
                 partition: str | None = None):
    import workloads

    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        env = workloads.Env(str(ROOT), work, partition or workloads.PARTITION)
        if name == "cli-cold":
            return workloads.run_cli(corpus, env, seed, seconds, trace)
        return workloads.run_library(name, corpus, env, seed, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: stop the running child and remove the scratch files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    fsindex = import_program()
    import numpy as np

    import inputs

    seed = inputs.DEFAULT_QUERY_SEED if args.seed is None else args.seed
    corpus = inputs.pinned_corpus()
    result = run_workload(args.workload, corpus, seed, args.seconds, bool(args.trace))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in declared} ^ set(result.metrics)
    if missing:
        raise RuntimeError(f"emitted metrics differ from BENCHMARK.json: {sorted(missing)}")
    error_rate = result.failed / result.attempted
    for message in result.errors[:5]:
        print(f"perfbench: {message}", file=sys.stderr)

    print(f"workload {args.workload}, seed {seed}, trace {args.trace}: "
          f"{result.attempted} operations, {result.failed} failed")
    for m in declared:
        note = C08.get(m["name"], "") if args.workload == "range-100nn" else ""
        print(f"  {m['name']:<40} {result.metrics[m['name']]:>16.6g} {m['unit']:<6} {note}")
    print(f"  {'error_rate':<40} {error_rate:>16.6g} ratio")
    if "tail" in result.notes:
        tail = result.notes["tail"]
        print(f"  latency_tail_ms is p{tail['percentile']:.2f}: {tail['samples_beyond']} of "
              f"{tail['samples']} samples lie beyond it")

    stem = OUT / f"{args.workload}-seed{seed}-trace{args.trace}"
    if result.spans is not None:
        result.spans.write(f"{stem}.spans.jsonl")
    units = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result.attempted,
        "failed": result.failed,
        "error_rate": error_rate,
        "metrics": {
            name: {"value": value, "unit": units[name]["unit"], "better": units[name]["better"]}
            for name, value in result.metrics.items()
        },
        "notes": result.notes,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fsindex": fsindex.__version__,
            "git_commit": git_commit(),
            "source_digest": source_digest(),
        },
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
