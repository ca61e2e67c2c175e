"""Benchmark for cuntzgeo: one closed-loop client in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads are defined in workloads.py and
listed with their metrics in BENCHMARK.json; bench/README.md says what each
metric means and which layer should move it.

A run times ``import cuntzgeo, cuntzgeo.cli`` in fresh interpreters
(``setup_s``, before the loop and every few seconds between requests),
warms up, then sends requests one at a time, block by block, until
``--seconds`` have passed and at least the workload's minimum number of
blocks, which gives at least 100 latency samples, is done.  Each request is
timed alone; its exactness check runs after the clock stops.

The host's speed shifts by up to half, for seconds to minutes at a time, and
that moves every timing alike.  So the run also times a fixed kernel right
before, during and after each timed interval (see HostClock), and every
reported time is divided by the host's speed factor at the time it was
taken: times read as on the reference host at its faster speed.  The report
keeps the raw times beside them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
request twice, traced (see spans.py) and untraced, for the per-layer metrics
and the tracing overhead, then times the ROADMAP anchor inputs.  Either way
the last line of stdout is one JSON object, and a report with every
request's descriptor and, when traced, every span is written to bench/out/.

``correct`` is false when any answer was wrong (a failed exactness check or
a wrong exit code); ``failed`` also counts requests that raised.
"""

from __future__ import annotations

import argparse
import gc
import signal
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
SETUP_FIRST = 3      # import timings before the loop
SETUP_EVERY_S = 3.0  # then one between requests every few seconds
ANCHOR_REPEATS = 5
IMPORT_LINE = "import cuntzgeo, cuntzgeo.cli"


_TABLE = dict.fromkeys(range(1009), 0)


def _kernel() -> int:
    """Fixed interpreter work on builtins only (integer arithmetic and dict
    traffic), so that nothing the library does moves it.  It updates a table
    made once, so it holds no new memory when it runs inside a request."""
    acc = 0
    for k in range(3000):
        key = (k * 7919) % 1009
        _TABLE[key] = (_TABLE[key] + k * k) % 1000003
        acc = (acc * 31 + key) % 1000003
    return acc


class HostClock:
    """The host's speed, from timings of a fixed kernel.

    A probe runs the kernel twice with the garbage collector off and keeps
    the better time.  The run probes right before and right after each
    request and each import timing.  While a request runs, a timer signal
    also probes every ``TICK_S``, because the host can change speed within a
    long request; ``stop_ticks`` returns the time those probes took, which
    comes off the request's latency.  ``factor(first, last)`` is the mean of
    probes ``first`` to ``last`` over ``KERNEL_REF_NS``, the kernel's time on
    a 2-vCPU Xeon host at its faster speed; a time taken between those
    probes, divided by the factor, reads as on that host at that speed.
    """

    KERNEL_REF_NS = 800_000
    PROBE_RUNS = 2
    TICK_S = 0.05

    def __init__(self) -> None:
        self.probes: list[int] = []  # best kernel time of each probe, ns
        self.ticked_ns = 0
        signal.signal(signal.SIGALRM, self._tick)

    def probe(self) -> int:
        """Probe now; returns the probe's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            times = []
            for _ in range(self.PROBE_RUNS):
                t0 = perf_counter_ns()
                _kernel()
                times.append(perf_counter_ns() - t0)
            self.probes.append(min(times))
        finally:
            if enabled:
                gc.enable()
        return len(self.probes) - 1

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter_ns()
        self.probe()
        self.ticked_ns += perf_counter_ns() - t0

    def start_ticks(self) -> None:
        self.ticked_ns = 0
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def stop_ticks(self) -> int:
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.ticked_ns

    def factor(self, first: int, last: int) -> float:
        return statistics.fmean(self.probes[first:last + 1]) / self.KERNEL_REF_NS


class SetupTimer:
    """Wall time for a fresh interpreter to import the package.

    Timings are spread through the run, between requests, so that their
    median covers the same window as the requests and a short burst of host
    noise moves it little.  Each is divided by the host factor around it.
    """

    def __init__(self, clock: HostClock) -> None:
        self.cmd = [sys.executable, "-c", IMPORT_LINE]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)  # bytecode caches
        self.clock = clock
        self.spans: list[tuple[int, int, int]] = []  # (probe before, after, ns)
        self.last = 0
        for _ in range(SETUP_FIRST):
            self.sample()

    def sample(self) -> None:
        first = self.clock.probe()
        t0 = perf_counter_ns()
        subprocess.run(self.cmd, env=self.env, cwd=ROOT, check=True)
        self.last = perf_counter_ns()
        self.spans.append((first, self.clock.probe(), self.last - t0))

    def between_requests(self) -> None:
        if perf_counter_ns() - self.last >= SETUP_EVERY_S * 1e9:
            self.sample()

    def samples(self, host_factor: bool = True) -> list[float]:
        return [ns / 1e9 / (self.clock.factor(first, last) if host_factor else 1)
                for first, last, ns in self.spans]


def run_request(wl, req, b: int, records: list[dict], tracer, clock: HostClock) -> None:
    """Send one request and check its result; with a tracer, under spans.

    The host is probed right before the request, during it and right after
    it, before the check.  ``latency_ns`` excludes the probes during it.
    """
    rid = len(records)
    rec = {"id": rid, "block": b, "kind": req.kind, "descriptor": req.descriptor,
           "traced": tracer is not None, "probe": clock.probe()}
    if tracer is not None:
        tracer.install()
    clock.start_ticks()
    try:
        t0 = perf_counter_ns()
        if tracer is not None:
            out = tracer.run_request(rid, wl.execute, req)
        else:
            out = wl.execute(req)
    except Exception as exc:  # the request failed; keep going
        ticked = clock.stop_ticks()
        t1 = perf_counter_ns()
        rec["probe_end"] = clock.probe()
        rec.update(status="exception", error=f"{type(exc).__name__}: {exc}"[:200])
    else:
        ticked = clock.stop_ticks()
        t1 = perf_counter_ns()
        rec["probe_end"] = clock.probe()
        try:
            rec["sizes"] = vars(wl.verify(req, out))
            rec["status"] = "ok"
        except Exception as exc:  # a wrong answer
            rec.update(status="wrong", error=f"{type(exc).__name__}: {exc}"[:200])
    finally:
        if tracer is not None:
            tracer.uninstall()
    rec.update(latency_ns=t1 - t0 - ticked, ticked_ns=ticked)
    records.append(rec)


def run_loop(wl, seed: int, seconds: float, tracer, setup: SetupTimer,
             clock: HostClock) -> list[dict]:
    """Closed loop over the workload's blocks; returns one record per request.

    With a tracer every request runs twice in a row, traced and untraced, the
    order alternating, so the tracing overhead is measured on identical inputs
    at the same host speed.
    """
    records: list[dict] = []
    deadline = perf_counter() + seconds
    b = 0
    while b < wl.min_blocks or perf_counter() < deadline:
        for k, req in enumerate(wl.block(seed, b)):
            if tracer is None:
                run_request(wl, req, b, records, None, clock)
            else:
                for t in ((tracer, None) if (k + b) % 2 == 0 else (None, tracer)):
                    run_request(wl, req, b, records, t, clock)
            setup.between_requests()
        b += 1
    for rec in records:
        rec["host_factor"] = clock.factor(rec["probe"], rec["probe_end"])
    return records


def _ms(rec: dict, host_factor: bool) -> float:
    return rec["latency_ns"] / 1e6 / (rec["host_factor"] if host_factor else 1)


def end_to_end(records: list[dict], setup: SetupTimer,
               host_factor: bool = True) -> dict[str, float]:
    ok = [_ms(r, host_factor) for r in records if r["status"] == "ok"]
    return {
        "ops_per_s": _ops_per_s(records, host_factor),
        "latency_p50_ms": statistics.median(ok),
        "latency_p90_ms": statistics.quantiles(ok, n=10)[-1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup.samples(host_factor)),
    }


def _ops_per_s(records: list[dict], host_factor: bool = True) -> float:
    ok = sum(r["status"] == "ok" for r in records)
    return ok / (sum(_ms(r, host_factor) for r in records) / 1e3)


def run_counters(records: list[dict], min_blocks: int) -> dict[str, float]:
    """Tracing overhead, exact size counters and the error rate."""
    traced = [r for r in records if r["traced"]]
    out = {"trace.overhead_frac":
           1 - _ops_per_s(traced) / _ops_per_s([r for r in records if not r["traced"]])}
    # size counters cover the blocks every run completes, so they repeat exactly
    counted = [r["sizes"] for r in traced if r["block"] < min_blocks and "sizes" in r]
    out["scalars.max_coeff_bits"] = max(s["max_coeff_bits"] for s in counted)
    out["algebra.out_terms"] = max(s["out_terms"] for s in counted)
    out["algebra.max_word_len"] = max(s["max_word_len"] for s in counted)
    out["error_rate"] = sum(r["status"] != "ok" for r in traced) / len(traced)
    return out


# ROADMAP's re-anchor table (best of 5 in one process, Python 3.11.7), ms
ANCHOR_X = "S1 S2 S3* + 2 S2 S1* S3* + S3 S3 S1* - 1/2 S1 S1*"
ROADMAP_MS = {"levi_civita at I": 75, "levi_civita at diag(1,1,2)": 71,
              "levi_civita at dense": 78, "curvature(conn) at I": 3.2,
              "curvature(conn) at dense": 48, "unitarity_residual at I": 2.6,
              "unitarity_residual at dense": 11, "run_checks() (verify-paper)": 87,
              "d1(x*d0(x))": 13}


def anchors() -> list[dict]:
    """Time the ROADMAP baseline inputs: best and median of a few runs each."""
    import cuntzgeo as cg
    from cuntzgeo.checks import run_checks

    metrics = {"I": cg.Metric.identity(), "diag(1,1,2)": cg.Metric.diagonal(1, 1, 2),
               "dense": cg.load_metric([["3", "1/2", "1/3"], ["1/2", "5/7", "2/9"],
                                        ["1/3", "2/9", "11/13"]])}
    conns = {k: cg.levi_civita(g) for k, g in metrics.items()}
    x = cg.parse_alg(ANCHOR_X)
    cases = [(f"levi_civita at {k}", {"metric": k}, lambda g=g: cg.levi_civita(g))
             for k, g in metrics.items()]
    for k in ("I", "dense"):
        cases.append((f"curvature(conn) at {k}", {"metric": k},
                      lambda c=conns[k]: cg.curvature(c)))
        cases.append((f"unitarity_residual at {k}", {"metric": k},
                      lambda g=metrics[k], c=conns[k]: cg.unitarity_residual(g, c)))
    cases.append(("run_checks() (verify-paper)", {"command": "verify-paper"}, run_checks))
    cases.append(("d1(x*d0(x))", {"x": ANCHOR_X, "terms": len(x.terms)},
                  lambda: cg.d1(x * cg.d0(x))))
    out = []
    for name, descriptor, fn in cases:
        times = []
        for _ in range(ANCHOR_REPEATS):
            t0 = perf_counter_ns()
            fn()
            times.append((perf_counter_ns() - t0) / 1e6)
        out.append({"input": name, "descriptor": descriptor, "runs": ANCHOR_REPEATS,
                    "best_ms": min(times), "median_ms": statistics.median(times),
                    "roadmap_ms": ROADMAP_MS[name]})
    return out


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "python": f"{platform.python_implementation()} {platform.python_version()}"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cuntzgeo" / "__init__.py").is_file():
        print(f"bench: no cuntzgeo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cuntzgeo

    if Path(cuntzgeo.__file__).resolve().parent != SRC / "cuntzgeo":
        print(f"bench: imported cuntzgeo from {cuntzgeo.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    clock = HostClock()
    setup = SetupTimer(clock)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        wl = workloads.make(args.workload, workdir)
        wl.warmup()
        tracer = spans.Tracer() if args.trace else None
        t0 = perf_counter()
        records = run_loop(wl, args.seed, args.seconds, tracer, setup, clock)
        loop_s = perf_counter() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "loop_s": loop_s,
              "setup_samples_s": setup.samples(), "setup_raw_s": setup.samples(False),
              "probes_ns": clock.probes,
              "kernel_ref_ns": HostClock.KERNEL_REF_NS}
    if args.trace:
        scale = [r["latency_ns"] / (r["latency_ns"] + r["ticked_ns"]) / r["host_factor"]
                 for r in records]
        values = spans.layer_metrics(tracer.spans, scale) | run_counters(records, wl.min_blocks)
        report["anchors"] = anchors()
        base = min((s[1] for s in tracer.spans), default=0)
        report["spans"] = [[n, s - base, e - base, p, r, c]
                           for n, s, e, p, r, c in tracer.spans]
    else:
        values = end_to_end(records, setup)
        report["raw_metrics"] = end_to_end(records, setup, host_factor=False)
    missing = {m["name"] for m in wanted} ^ set(values)
    if missing:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = sum(r["status"] != "ok" for r in records)
    result = {"correct": not any(r["status"] == "wrong" for r in records),
              "attempted": len(records), "failed": failed, "metrics": metrics}
    report.update(result=result, requests=records)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report))

    ok = len(records) - failed
    print(f"{args.workload} seed {args.seed}: {len(records)} requests, {failed} failed, "
          f"latency percentiles from {ok} samples ({ok - int(0.9 * ok)} beyond p90); "
          f"report {path.relative_to(ROOT)}", file=sys.stderr)
    for a in report.get("anchors", ()):
        print(f"  anchor {a['input']}: best {a['best_ms']:.1f} ms, median "
              f"{a['median_ms']:.1f} ms (ROADMAP {a['roadmap_ms']} ms)", file=sys.stderr)
    for r in records:
        if r["status"] != "ok":
            print(f"  request {r['id']} {r['descriptor']}: {r['status']}: {r['error']}",
                  file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
