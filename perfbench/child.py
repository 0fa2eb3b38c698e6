"""One benchmark sample in a fresh process: set up, then run bibliorank commands.

Usage: python3 child.py SRC_DIR CONFIG RESULT COMMANDS TRACE

COMMANDS is a comma-separated list of ``rank`` and ``compare`` (empty for a
warm-up run); TRACE is 1 to record spans. Writes a JSON object to RESULT.
A command that raises is recorded in the result; anything else that goes
wrong ends the process with a non-zero status.
"""

import contextlib
import json
import signal
import sys
import time


def peak_rss_mb() -> float:
    """This process image's own peak RSS (VmHWM), less BUFFER.

    The rusage that wait4 returns for a child is no use here: on exec, Linux
    folds the resident set of the address space being replaced into the
    child's ru_maxrss, and that address space is the parent's (vfork) or a
    copy of it (fork). The benchmark's parent is larger than some samples.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024 - BUFFER_MB  # VmHWM is in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


REF_N = 200_000  # iterations of the reference loop: about 0.1 s
TICK_N = 6_000  # iterations timed at each tick while the commands run
TICK_S = 0.1  # seconds between ticks
# Read at random by the reference loop, so that the loop slows down, as
# bibliorank's heap does, when other tenants contend for cache and memory.
# It is allocated (and every page touched) before set-up is timed, and
# peak_rss_mb subtracts it.
BUFFER = bytearray(range(256)) * (1 << 16)
BUFFER_MB = len(BUFFER) / 2**20


def reference_s(n: int = REF_N) -> float:
    """Wall time of ``n`` iterations of a fixed pure-Python loop (arithmetic,
    random reads from BUFFER, string formatting, dict stores), the kind of
    work bibliorank does. On a shared host the speed of such work drifts by
    tens of percent within seconds; the benchmark scales its timings by this
    loop's, measured in the same process."""
    start = time.perf_counter()
    table, acc, j = {}, 0, 0
    buffer, mask = BUFFER, len(BUFFER) - 1
    for i in range(n):
        j = (j * 1103515245 + 12345) & mask
        acc = (acc + i * buffer[j]) % 1_000_003
        table[f"{acc % 997}"] = i
    return time.perf_counter() - start


class Speedometer:
    """Times TICK_N iterations of the reference loop every TICK_S seconds,
    from a timer signal, while the commands run. The ticks say how fast the
    host ran during the command itself, which loops before and after it
    cannot: the speed changes within a sample."""

    def __init__(self):
        self.ticks: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.ticks.append(reference_s(TICK_N))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> None:
    src, config_path, result_path, commands, trace = sys.argv[1:6]
    sys.path.insert(0, src)

    start = time.perf_counter()
    import bibliorank.cli  # noqa: F401  (what every CLI call imports)
    from bibliorank import concordance, pipeline

    config = pipeline.load_config(config_path)
    config.validate()
    result = {"setup_s": time.perf_counter() - start, "errors": {}}
    result["setup_ref_s"] = reference_s()

    entry = {"rank": pipeline.run_rank, "compare": pipeline.run_compare}
    tracer = None
    if trace == "1":
        from tracing import ENTRY_SPANS, Tracer

        tracer = Tracer()
        tracer.install({"pipeline": pipeline, "concordance": concordance})
        entry = {cmd: tracer.wrap(span, entry[cmd])
                 for cmd, span in zip(("rank", "compare"), ENTRY_SPANS)}

    # traced samples do not tick: only untraced ones give end-to-end times
    with Speedometer() if tracer is None else contextlib.nullcontext() as speed:
        for cmd in filter(None, commands.split(",")):
            ticked = len(speed.ticks) if speed else 0
            t0 = time.perf_counter()
            try:
                entry[cmd](config)
            except Exception as exc:  # a failing command is a measured outcome
                result["errors"][cmd] = f"{type(exc).__name__}: {exc}"
            # the command's time, less the ticks that interrupted it
            result[f"{cmd}_s"] = (time.perf_counter() - t0
                                  - (sum(speed.ticks[ticked:]) if speed else 0.0))

    if tracer is not None:
        result.update(spans=tracer.spans, counts=dict(tracer.counts), missing=tracer.missing)
    result["peak_rss_mb"] = peak_rss_mb()
    # The loop's time at the speed the commands ran at: the harmonic mean of
    # the ticks (the mean speed over equal stretches of time), scaled to
    # REF_N iterations. A sample too short to tick falls back on one loop.
    ticks = speed.ticks if speed else []
    result["command_ref_s"] = (len(ticks) / sum(1 / t for t in ticks) * REF_N / TICK_N
                               if ticks else reference_s())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
