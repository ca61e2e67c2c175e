"""Self-test of the benchmark's seed handling and result contract.

    python3 bench/selftest.py

Checks, for every workload:

* the same seed gives byte-identical inputs, also in a fresh interpreter with
  another PYTHONHASHSEED, and another seed gives other inputs;
* two traced runs with the same seed report identical exact size counters;

and that run.py exits non-zero without a result line when the package
source is missing.  Exits 1 if any check fails.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
COUNTERS = ("scalars.max_coeff_bits", "algebra.out_terms", "algebra.max_word_len",
            "error_rate")


def _encode(wl, req) -> bytes:
    payload = req.payload
    if hasattr(payload, "argv"):  # a CLI call; metric files live in a temporary directory
        argv = [a.replace(str(wl.workdir), "<workdir>") for a in payload.argv]
        payload = (argv, payload.expect_code, payload.metric)
    return repr((req.kind, sorted(req.descriptor.items()), payload)).encode()


def digest(workload: str, seed: int) -> str:
    """SHA-256 of the inputs of the blocks every run completes."""
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl = workloads.make(workload, Path(tmp))
        h = hashlib.sha256()
        for b in range(wl.min_blocks):
            for req in wl.block(seed, b):
                h.update(_encode(wl, req))
        return h.hexdigest()


def _run(args: list[str], cwd: Path = ROOT, **env) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, **env), timeout=600)


def main() -> int:
    sys.path.insert(0, str(SRC))
    if sys.argv[1:2] == ["--digest"]:
        print(digest(sys.argv[2], int(sys.argv[3])))
        return 0
    import workloads

    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for name in workloads.NAMES:
        here = digest(name, 1)
        fresh = _run([__file__, "--digest", name, "1"], PYTHONHASHSEED="12345")
        check(fresh.returncode == 0 and fresh.stdout.strip() == here,
              f"{name}: seed 1 inputs identical across interpreters")
        check(digest(name, 2) != here, f"{name}: seed 2 inputs differ from seed 1")

        counters = []
        for hash_seed in ("1", "2"):
            r = _run(["bench/run.py", "--workload", name, "--seed", "7",
                      "--seconds", "1", "--trace", "1"], PYTHONHASHSEED=hash_seed)
            metrics = json.loads(r.stdout.splitlines()[-1])["metrics"] if r.returncode == 0 else {}
            counters.append({k: metrics.get(k, {}).get("value") for k in COUNTERS})
        check(None not in counters[0].values() and counters[0] == counters[1],
              f"{name}: exact counters repeat for seed 7: {counters[0]}")

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "bench", Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        r = _run(["bench/run.py", "--workload", workloads.NAMES[0], "--seed", "1",
                  "--seconds", "1", "--trace", "0"], cwd=Path(tmp))
        check(r.returncode != 0 and not r.stdout.strip(),
              "without src/ the benchmark exits non-zero and prints no result")

    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
