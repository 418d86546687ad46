"""One benchmark sample: a fresh interpreter that imports ``subtle`` and runs
the workload's requests in turn through ``subtle.cli.run``.

Reads a JSON spec on stdin: ``{"requests": [[argv...], ...], "trace": bool,
"src": "<path of the package's parent directory>"}``.  Writes one JSON line
to stdout with the import-done time on the monotonic clock (the parent
subtracts its spawn time), the timed request loop, peak RSS, the host-speed
probe, and each request's exit code and output digest.  Outputs are checked
after the timed loop; with ``trace`` the per-layer numbers are added.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import signal
import statistics
import sys
import time

import subtle.cli

IMPORT_DONE = time.monotonic()

# The host is shared, and its speed drifts by up to +-20% over minutes, more
# than any single run can average out.  So while the requests run, a timer
# interrupts them every PROBE_INTERVAL_S to time one call of a fixed kernel that
# does not use subtle.  The kernel multiplies two small GF(2) polynomials held
# as sets of exponent tuples: the tuple building and set hashing of the
# engine's inner loops, which is why its time follows the host's drift as the
# workloads feel it (a pure integer loop and a dict walk both tracked it
# worse).  The runner divides the measured times by the probe's slowdown.
PROBE_INTERVAL_S = 0.01
# a probe slower than this many times the sample's median was stalled (the
# process was descheduled), which says nothing about the host's speed
PROBE_CAP = 4
_PROBE_F = tuple((i % 5, i // 5 % 5, i % 3) for i in range(25))
_PROBE_G = tuple((i % 4, i % 3, i % 2) for i in range(24))


def probe_kernel() -> set:
    product = set()
    for x in _PROBE_F:
        for y in _PROBE_G:
            m = (x[0] + y[0], x[1] + y[1], x[2] + y[2])
            if m in product:
                product.discard(m)
            else:
                product.add(m)
    return product


class Probe:
    """Times ``probe_kernel`` on a wall-clock timer while it is entered."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def tick(self, *_) -> None:
        # the probe must not pay for collecting the program's garbage
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_kernel()
        self.times.append(time.perf_counter() - t0)
        if collecting:
            gc.enable()

    def kept(self) -> list[float]:
        """The probe times, each capped at ``PROBE_CAP`` times their median."""
        if not self.times:
            return []
        cap = PROBE_CAP * statistics.median(self.times)
        return [min(t, cap) for t in self.times]

    def __enter__(self) -> "Probe":
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.times:  # a loop shorter than one interval
            self.tick()


def run_request(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, error) of one CLI request; -1 on an exception."""
    out = io.StringIO()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = subtle.cli.run(list(argv))
    except Exception as exc:  # a crash is a failed request, not a lost sample
        return -1, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def oracle_mismatch(argv: list[str], output: str) -> str | None:
    """For ``ring table``: compare the corner of the printed table up to 8x8
    with the dense oracle on the same presentation."""
    from subtle.cli import _resolve_model
    from subtle.oracle import oracle_table
    from subtle.rings import block_presentation

    block = argv[2]
    model = _resolve_model(argv[argv.index("--model") + 1])
    i = argv.index("--box")
    w, d = int(argv[i + 1]), int(argv[i + 2])
    printed = {(a, b): n for a, b, n in json.loads(output)["entries"]}
    pres = block_presentation(model, block, w + d)
    sw, sd = min(w, 8), min(d, 8)
    expected = oracle_table(pres, sw, sd)
    for a, b, n in expected.cells():
        if printed.get((a, b)) != n:
            return f"({a})[{b}]: table {printed.get((a, b))}, oracle {n}"
    return None


def main() -> None:
    spec = json.loads(sys.stdin.read())
    src = spec["src"]
    if not subtle.cli.__file__.startswith(src):
        raise SystemExit(f"imported subtle from {subtle.cli.__file__}, not from {src}")

    tracer = None
    coverage = []
    if spec["trace"]:
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer()
        tracer.install()
        coverage = tracer.coverage_problems()

    # traced samples are not probed: probe time would land in the layers' self time
    probe = Probe()
    results = []
    with probe if tracer is None else contextlib.nullcontext():
        t0 = time.perf_counter()
        for argv in spec["requests"]:
            results.append(run_request(argv))
        elapsed = time.perf_counter() - t0
    # a stall inside a probe stays in the wall time, as a user would meet it
    probe_times = probe.kept()
    wall_s = elapsed - sum(probe_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers = spans = None
    if tracer is not None:
        layers = tracer.metrics()
        spans = tracer.spans
        tracer.uninstall()

    requests = []
    for argv, (code, output, err) in zip(spec["requests"], results):
        problem = None
        if code == 0 and argv[:2] == ["ring", "table"]:
            problem = oracle_mismatch(argv, output)
        requests.append({
            "code": code,
            "sha256": hashlib.sha256(output.encode()).hexdigest(),
            "error": err.strip()[-500:],
            "oracle": problem,
        })

    sys.stdout.write(json.dumps({
        "import_done": IMPORT_DONE,
        "wall_s": wall_s,
        "probe_s": statistics.fmean(probe_times) if probe_times else None,
        "probes": len(probe_times),
        "peak_rss_mb": peak_rss_mb,
        "requests": requests,
        "coverage": coverage,
        "layers": layers,
        "spans": spans,
    }) + "\n")


if __name__ == "__main__":
    main()
