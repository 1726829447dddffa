"""Run every workload, each in a fresh process, and print all its metrics.

    python3 perfbench/report.py [--seed 1] [--seconds 25]

Workloads run one after another, never two at once: for each, run.py runs
untraced (end-to-end metrics) and then traced (per-layer metrics).  One row
per workload lists every metric as name=value unit, then the ungated
deck_ms.p90, the failure ratio and the host-speed probe.  The exit status is nonzero if any run failed or
any output check failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=RUN.parent.parent,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        sys.stderr.write(proc.stderr)
        return None, None
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args(argv)

    ok = True
    for workload in workloads.WORKLOADS:
        row = [workload]
        for trace in (0, 1):
            detail, result = run_one(workload, args.seed, args.seconds, trace)
            if result is None:
                row.append(f"trace={trace}:no-result")
                ok = False
                continue
            ok = ok and result["correct"]
            for name, metric in result["metrics"].items():
                row.append(f"{name}={metric['value']:.6g} {metric['unit']}")
            if "deck_ms.p90" in detail:
                row.append(f"deck_ms.p90={detail['deck_ms.p90']:.6g} ms")
            row.append(f"fail_ratio.trace{trace}={detail['fail_ratio']:.6g}")
            row.append(f"probe_ms.trace{trace}={detail['probe_ms']['median']:.4g} ms")
        print("  ".join(row), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
