"""One repetition of one workload, in a fresh process.

    python3 perfbench/rep.py --workload NAME --seed N --phase full|setup
                             --trace 0|1 --workdir DIR --result FILE

Imports heatlab from the checkout's src/ (the package is not installed)
and refuses to run when `heatlab.__file__` resolves anywhere else.  Before
timing it runs the BLAS until it reaches full speed (see warm_blas), then
times setup and, for phase "full", solve.  The result is
one JSON object written to FILE; run.py starts this script and reads it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_heatlab():
    """Import heatlab from ROOT/src or exit with status 3."""
    sys.path.insert(0, SRC)
    try:
        import heatlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import heatlab from {SRC}: {exc}")
    want = os.path.realpath(os.path.join(SRC, "heatlab", "__init__.py"))
    got = os.path.realpath(heatlab.__file__)
    if got != want:
        print(f"perfbench: heatlab resolved to {got}, not {want}", file=sys.stderr)
        sys.exit(3)
    return got


def warm_blas(max_s: float = 4.0) -> dict:
    """Run dense matrix-vector products until the BLAS runs at full speed.

    A fresh process on this kind of virtual machine starts slow: for up to
    about a second, two-thread matrix-vector products ran 20-30x slower than
    afterwards, and then dropped to full speed at once.  Full speed is
    recognised against a single-threaded reference (einsum over the same
    matrix, which does not call the BLAS): at full speed the BLAS product is
    faster, in the slow phase it is 4-8x slower.  Timing starts after three
    consecutive fast batches, or after max_s seconds.
    """
    import numpy as np

    a = np.random.default_rng(0).standard_normal((1200, 1200))
    x = np.ones(1200)
    t0 = time.perf_counter()
    batches = fast = 0
    while fast < 3 and time.perf_counter() - t0 < max_s:
        tb = time.perf_counter()
        for _ in range(10):
            a.T @ x
        blas = time.perf_counter() - tb
        tb = time.perf_counter()
        for _ in range(10):
            np.einsum("ij,i->j", a, x)
        reference = time.perf_counter() - tb
        batches += 1
        fast = fast + 1 if blas <= reference else 0
    return {"seconds": time.perf_counter() - t0, "batches": batches, "settled": fast >= 3}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--phase", choices=("full", "setup"), default="full")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    heatlab_file = import_heatlab()
    import machine
    import layers as tracing
    from workloads import WORKLOADS, heatlab_modules

    setup, solve = WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    ctx = SimpleNamespace(hl=heatlab_modules(), seed=args.seed, workdir=args.workdir)
    warm = warm_blas()

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        st0 = machine.steal_seconds()
        t0 = time.perf_counter()
        state = setup(ctx)
        t1 = time.perf_counter()
        outcome = solve(ctx, state) if args.phase == "full" else None
        t2 = time.perf_counter()
        st2 = machine.steal_seconds()
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "phase": args.phase,
        "traced": bool(args.trace),
        "setup_s": t1 - t0,
        "solve_s": t2 - t1 if outcome is not None else None,
        "steal_s": st2 - st0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "warmup": warm,
        "provenance": machine.facts(heatlab_file, ROOT),
    }
    if outcome is not None:
        result.update(
            checks=outcome.checks,
            facts=outcome.facts,
            energy_residual=outcome.energy_residual,
        )
    if tracer is not None and outcome is not None:
        agg = tracing.aggregate(tracer.spans)
        result["layers"] = tracing.layer_metrics(
            agg, tracer.trajectories, ctx.hl.evolution, outcome.artifact_bytes
        )
        result["module_self_s"] = agg["modules"]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
