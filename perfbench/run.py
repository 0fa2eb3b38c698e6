#!/usr/bin/env python3
"""bibliorank benchmark: checked ``rank``/``compare`` runs on seeded workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The inputs are generated from the seed (``gen.py``) and the expected output
rows recomputed from them (``check.py``) before anything is timed. Then each
sample runs the workload's commands through the real bibliorank entry points
in a fresh child process (``child.py``) until ``--seconds`` have passed, and
every output row of every sample is checked.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, ``--trace 1``
the per-layer ones, which come from traced samples interleaved with untraced
ones. The last line of standard output is one JSON object. Any fault of the
benchmark itself (no bibliorank source, a child that crashes) exits 1
without printing a result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import tracing  # noqa: E402

CHILD_TIMEOUT_S = 120
# Adjusted times are the seconds a host would take that runs the reference
# loop (child.reference_s) in exactly this long.
REF_NOMINAL_S = 0.1
OVERRUN_S = 60  # stop sampling this long after --seconds even if a traced sample is missing


class BenchError(Exception):
    pass


def spawn(work: Path, config: Path, commands: tuple[str, ...], trace: bool) -> dict:
    """Run child.py once, wait for it and return what it reported."""
    result_path, err_path = work / "child.json", work / "child.err"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "child.py"), str(ROOT / "src"), str(config),
            str(result_path), ",".join(commands), "1" if trace else "0"]
    with err_path.open("wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, cwd=work)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"child exited with status {proc.returncode}:\n{tail}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result["command_s"] = sum(result.get(f"{c}_s", 0.0) for c in commands)
    return result


def files_hash(base: Path, pattern: str) -> str:
    h = hashlib.sha256()
    for path in sorted(base.rglob(pattern)):
        h.update(path.relative_to(base).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def record_digest(key: str, digest: str) -> str | None:
    """Remember the data-row digest under ``key`` (workload, seed, input and
    source hashes); return the earlier digest if it differs."""
    path = WORK / "digests.json"
    records = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    previous = records.get(key)
    records[key] = digest
    tmp = path.with_name(path.name + f".{os.getpid()}")
    tmp.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return previous if previous not in (None, digest) else None


def sample_loop(args, work: Path, config: Path, commands: tuple[str, ...],
                expected: dict) -> list[dict]:
    spawn(work, config, (), False)  # warm-up: bytecode and file cache, not counted
    samples: list[dict] = []
    checked: dict[tuple, Counter] = {}
    out_dir = config.parent / "out"
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(samples) % 2 == 1
        shutil.rmtree(out_dir, ignore_errors=True)
        result = spawn(work, config, commands, traced)
        result["traced"] = traced
        result["digest"] = check.digest(out_dir)
        key = (result["digest"], tuple(sorted(result["errors"])))
        if key not in checked:  # byte-identical data rows check identically
            checked[key] = check.check_outputs(out_dir, expected, result["errors"])
        result["failures"] = checked[key]
        samples.append(result)
        elapsed = time.monotonic() - start
        have_both = not args.trace or len(samples) >= 2
        if elapsed >= args.seconds and (have_both or elapsed >= args.seconds + OVERRUN_S):
            break
    return samples


def _spread(values: list[float]) -> str:
    return (f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}; "
            f"all: {' '.join(f'{v:.4g}' for v in values)}")


def adjusted(seconds: float, ref_s: float) -> float:
    """``seconds`` at the reference speed: as if the process had run the
    reference loop in exactly REF_NOMINAL_S."""
    return seconds * REF_NOMINAL_S / ref_s


def end_to_end(samples: list[dict], commands) -> tuple[dict, list[str]]:
    values = {
        "setup_s": [adjusted(s["setup_s"], s["setup_ref_s"]) for s in samples],
        "command_s": [adjusted(s["command_s"], s["command_ref_s"]) for s in samples],
        "peak_rss_mb": [s["peak_rss_mb"] for s in samples],
        # printed for reading: the unadjusted times and the reference loop
        "setup_raw_s": [s["setup_s"] for s in samples],
        "command_raw_s": [s["command_s"] for s in samples],
        "setup_ref_s": [s["setup_ref_s"] for s in samples],
        "command_ref_s": [s["command_ref_s"] for s in samples],
    }
    for cmd in commands:  # command_raw_s is their sum
        values[f"{cmd}_raw_s"] = [s[f"{cmd}_s"] for s in samples]
    unit = {"peak_rss_mb": "MB"}
    lines = [f"  {name:<14} {statistics.median(v):.6g} {unit.get(name, 's')}  ({_spread(v)})"
             for name, v in values.items()]
    return {name: statistics.median(v) for name, v in values.items()}, lines


def per_layer(samples: list[dict], commands) -> tuple[dict, list[str]]:
    traced = [s for s in samples if s["traced"]]
    plain = [s for s in samples if not s["traced"]]
    per_sample = [tracing.layer_metrics(s["spans"], s["counts"], s["missing"]) for s in traced]
    names = set().union(*per_sample)
    metrics = {n: statistics.median(m.get(n, 0) for m in per_sample) for n in names}
    metrics["trace.overhead_frac"] = (
        statistics.median(s["command_s"] for s in traced)
        / statistics.median(s["command_s"] for s in plain) - 1.0)
    for cmd in ("rank", "compare"):
        metrics[f"pipeline.run_{cmd}.wall_s"] = (
            statistics.median(s[f"{cmd}_s"] for s in plain) if cmd in commands else 0.0)
    first = samples[0]["failures"]
    for kind in check.KINDS:
        metrics[f"check.failed.{kind}"] = first.get(kind, 0)
    lines = [f"  traced samples: {len(traced)}, untraced: {len(plain)}"]
    lines += [f"  not measured: {name} is missing" for name in traced[0]["missing"]]
    lines += [f"  {name:<40} {metrics[name]:.6g}" for name in sorted(metrics)]
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor (the benchmark runs at 1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bibliorank" / "__init__.py").is_file():
        print(f"perfbench: no bibliorank source under {ROOT / 'src'}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    commands = gen.WORKLOADS[args.workload]["commands"]
    work = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        config = gen.generate(args.workload, args.seed, work / "inputs", args.scale)
        t1 = time.perf_counter()
        input_hash = files_hash(config.parent, "*.*")
        expected = check.expected_outputs(config.parent, commands)
        t2 = time.perf_counter()
        samples = sample_loop(args, work, config, commands, expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # attempted and failed describe one pass over the workload's expected
    # rows, so they depend on (workload, seed) alone and not on how many
    # samples fit in --seconds. Every sample is checked; if samples differ,
    # each kind counts its worst sample and the run is not correct.
    attempted = sum(len(r) for _, r in expected.values())
    failures = Counter()
    for s in samples:
        failures |= s["failures"]
    failed = sum(failures.values())
    digests = {s["digest"] for s in samples if not s["errors"]}
    errors = {cmd: msg for s in samples for cmd, msg in s["errors"].items()}
    previous = None
    if len(digests) == 1:
        key = (f"{args.workload}:{args.seed}:inputs={input_hash}:"
               f"source={files_hash(ROOT / 'src', '*.py')}")
        previous = record_digest(key, next(iter(digests)))
    correct = not errors and len(digests) == 1 and previous is None

    print(f"bibliorank benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    print(f"  inputs generated in {t1 - t0:.2f} s, expected rows recomputed in "
          f"{t2 - t1:.2f} s (untimed); {len(samples)} samples, each a fresh process "
          f"running {'+'.join(commands)}")
    if args.trace:
        values, lines = per_layer(samples, commands)
        section = "per_layer"
        (WORK / "traces").mkdir(parents=True, exist_ok=True)
        (WORK / "traces" / f"{args.workload}-s{args.seed}.json").write_text(json.dumps(
            [{"sample": i, "spans": s["spans"], "counts": s["counts"]}
             for i, s in enumerate(samples) if s["traced"]]), encoding="utf-8")
    else:
        values, lines = end_to_end(samples, commands)
        section = "end_to_end"
    print("\n".join(lines))
    kinds = ", ".join(f"{k} {failures[k]}" for k in check.KINDS if failures[k]) or "none"
    print(f"  failed_frac  {failed / attempted:.6g} frac  ({failed} of {attempted} "
          f"expected rows failed the check in each of {len(samples)} samples; {kinds})")
    print(f"  digest       {' '.join(sorted(digests)) or '-'} (data rows of "
          f"{len(samples) - sum(1 for s in samples if s['errors'])} error-free samples)")
    for cmd, msg in errors.items():
        print(f"  ERROR        {cmd} raised {msg}")
    if len(digests) > 1:
        print("  NONDETERMINISTIC: samples of the same inputs wrote different data rows")
    if previous:
        print(f"  NONDETERMINISTIC: an earlier run of this source wrote digest {previous}")

    metrics = {}
    for m in spec[section]:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        elif section == "end_to_end" or not any(s["missing"] for s in samples if s["traced"]):
            print(f"perfbench: metric {m['name']} is not computed", file=sys.stderr)
            return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
