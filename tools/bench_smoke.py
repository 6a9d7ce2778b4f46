"""Run ``bench/run.py --seed 1 --seconds 0`` per workload and ``--trace``; exit 1 unless all pass.

Usage: ``python tools/bench_smoke.py``. ``--trace 1`` calls ``cli.main`` in process, ``--trace 0``
starts ``python -m normlens`` per call, as the benchmark times it. run.py exits 0 even when an
output fails its oracle, so a run passes only if it exits 0 and the JSON on its last stdout
line counts calls attempted and none failed; a failed run's stderr is printed. run.py starts with
none of the caller's ``PYTHON*`` settings (``PYTHONUNBUFFERED`` would let its children skip a flush
the oracle must see) and with ``PYTHONDONTWRITEBYTECODE=1``; it passes that environment on.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    failures = 0
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for trace in ("1", "0"):
        for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
            args = ["--workload", workload["name"], "--seed=1", "--seconds=0", f"--trace={trace}"]
            run = [sys.executable, str(ROOT / "bench" / "run.py"), *args]
            done = subprocess.run(run, capture_output=True, text=True, env=env, check=False)
            result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
            attempted, failed = result.get("attempted", 0), result.get("failed")
            print(f"{' '.join(args)}: {attempted} attempted, {failed} failed", flush=True)
            if attempted == 0 or failed != 0:
                failures += 1
                print(done.stderr, end="", file=sys.stderr, flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
