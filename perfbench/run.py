"""heatlab benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every repetition runs in a fresh process (perfbench/rep.py) with the BLAS
thread count fixed to min(2, nproc).  An untraced run (--trace 0) spends
about half of S seconds on full set-up + solve repetitions (at least two),
fills the rest of S with set-up-only repetitions, and reports medians.  A traced run (--trace 1) repeats pairs of one untraced
and one traced repetition, checks that both produced identical outputs and
reports the per-layer metrics of the traced ones.

Human-readable lines come first; the last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Exit status is 0
when a result was printed, 2 when the checkout holds no heatlab sources or
an argument is bad, 1 when a repetition crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

from layers import PER_LAYER  # noqa: E402
from machine import BLAS_THREAD_VARS, cpu_count  # noqa: E402

WORKLOADS = ("dichotomy_sweep_1d", "critical_3d", "certify_potentials")
# gated end-to-end metrics; energy_residual and fail_ratio are printed beside
# them but not gated: the first is undefined on certify_potentials, the
# second is 0 on correct code (the JSON line carries it as failed/attempted)
END_TO_END = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
RUN_LIMIT_S = 170.0  # a run must end within 180 s
MIN_FULL_REPS = 2


class RepFailed(RuntimeError):
    pass


def blas_threads() -> int:
    return min(2, cpu_count())


def child_env() -> dict:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads())
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)  # heatlab comes from this checkout's src/ only
    return env


def run_rep(workload: str, seed: int, phase: str, traced: bool, deadline: float) -> dict:
    """Run one repetition in a fresh process and return its result."""
    tag = f"{os.getpid()}-{time.monotonic_ns()}"
    workdir = os.path.join(WORK, tag)
    result_path = os.path.join(WORK, f"{tag}.json")
    os.makedirs(WORK, exist_ok=True)
    cmd = [
        sys.executable, os.path.join(HERE, "rep.py"),
        "--workload", workload, "--seed", str(seed), "--phase", phase,
        "--trace", str(int(traced)), "--workdir", workdir, "--result", result_path,
    ]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=max(deadline - time.monotonic(), 1.0),
        )
        if proc.returncode != 0:
            raise RepFailed(
                f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-2000:]}"
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"{workload} repetition passed the run's time limit") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.exists(result_path):
            os.remove(result_path)
    result["wall_s"] = time.monotonic() - t0
    return result


def check_counts(reps) -> tuple[int, int]:
    attempted = sum(len(r["checks"]) for r in reps)
    failed = sum(1 for r in reps for c in r["checks"] if not c[1])
    return attempted, failed


def failed_checks(reps) -> list:
    return [f"FAILED check {name}: {detail}"
            for r in reps for name, ok, detail in r["checks"] if not ok]


def median_spread(values) -> str:
    if len(values) == 1:
        return "n=1"
    return f"n={len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def describe_provenance(prov: dict, threads: int) -> list:
    return [
        f"heatlab: {prov['heatlab_file']} (commit {prov['git_commit']})",
        f"machine: nproc {prov['nproc']}, cpu {prov['cpu_model']}",
        f"software: python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, "
        f"blas {prov['blas_vendor']}",
        f"blas threads: set {threads}, reported {prov['blas_threads']}",
    ]


def untraced_run(workload: str, seed: int, seconds: float, lines: list) -> dict:
    """Full repetitions for about half the run (at least MIN_FULL_REPS), then
    set-up-only repetitions for the rest.

    The full-repetition count is fixed after the first one, so that a run
    near a boundary does not flip between two counts from run to run.
    """
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    full, setups = [], []
    n_full = MIN_FULL_REPS
    while len(full) < n_full:
        rep = run_rep(workload, seed, "full", False, deadline)
        full.append(rep)
        lines.append(
            f"rep {len(full)}: setup {rep['setup_s']:.4f} s, solve {rep['solve_s']:.4f} s, "
            f"rss {rep['peak_rss_mb']:.1f} MB, warm-up {rep['warmup']['seconds']:.2f} s, "
            f"machine steal {rep['steal_s']:.2f} s, "
            f"checks {sum(c[1] for c in rep['checks'])}/{len(rep['checks'])}"
        )
        if len(full) == 1:
            n_full = max(MIN_FULL_REPS, int(seconds // (2.0 * rep["wall_s"])))
    while True:
        per_setup = statistics.median(r["wall_s"] for r in setups) if setups else None
        left = seconds - (time.monotonic() - start)
        if per_setup is None:
            # a set-up repetition costs about the full one minus its solve
            per_setup = full[0]["wall_s"] - full[0]["solve_s"]
        if left < per_setup:
            break
        setups.append(run_rep(workload, seed, "setup", False, deadline))
    attempted, failed = check_counts(full)
    lines += failed_checks(full)
    setup_values = [r["setup_s"] for r in full + setups]
    lines.append("set-up samples: " + " ".join(f"{v:.4f}" for v in setup_values))
    samples = {
        "setup_s": setup_values,
        "solve_s": [r["solve_s"] for r in full],
        "peak_rss_mb": [r["peak_rss_mb"] for r in full],
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        lines.append(
            f"{name:16s} = {statistics.median(values):.6g} {unit}  (median; "
            f"{median_spread(values)})"
        )
    residuals = [r["energy_residual"] for r in full]
    if residuals[0] is None:
        lines.append(f"{'energy_residual':16s} = n/a (no dissipating run)")
    else:
        lines.append(
            f"{'energy_residual':16s} = {residuals[0]:.6g} 1  (n={len(residuals)}, "
            f"{'identical' if len(set(residuals)) == 1 else 'DIFFERS'} across repetitions)"
        )
    lines.append(
        f"{'fail_ratio':16s} = {failed / attempted:.6g} 1  ({failed} of {attempted} "
        f"checks failed over {len(full)} repetitions)"
    )
    lines[1:1] = describe_provenance(full[0]["provenance"], blas_threads())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def profile_facts(workload: str, layers: dict) -> list:
    """Trace facts of the hand profile this benchmark was built from."""
    facts = []
    if workload == "dichotomy_sweep_1d":
        facts += [
            ("operators.assemble_calls == 5", layers["operators.assemble_calls"] == 5),
            ("variational.ground_state_calls == 10",
             layers["variational.ground_state_calls"] == 10),
            ("evolution.integrate_calls == 4", layers["evolution.integrate_calls"] == 4),
        ]
    if workload in ("dichotomy_sweep_1d", "critical_3d"):
        facts += [
            ("evolution.transforms_per_step ~ 10",
             abs(layers["evolution.transforms_per_step"] - 10.0) <= 0.5),
            ("transforms >= 85% of evolution.integrate_s",
             layers["evolution.transform_share"] >= 0.85),
        ]
    if workload == "certify_potentials":
        facts.append(("semigroup.smoothing_norm_calls >= 300",
                      layers["semigroup.smoothing_norm_calls"] >= 300))
    return [f"profile fact {'reproduced' if ok else 'NOT reproduced'}: {name}"
            for name, ok in facts]


def traced_run(workload: str, seed: int, seconds: float, lines: list) -> dict:
    """Pairs of untraced + traced repetitions while another pair fits."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain, traced = [], []
    while True:
        plain.append(run_rep(workload, seed, "full", False, deadline))
        traced.append(run_rep(workload, seed, "full", True, deadline))
        per_pair = (time.monotonic() - start) / len(traced)
        if time.monotonic() - start + per_pair > seconds:
            break
    attempted, failed = check_counts(plain + traced)
    for a, b in zip(plain, traced):
        attempted += 1
        if a["facts"] != b["facts"] or a["energy_residual"] != b["energy_residual"]:
            failed += 1
            lines.append("FAILED check traced_outputs_identical")
    lines += failed_checks(plain + traced)
    overhead = (statistics.median(r["solve_s"] for r in traced)
                - statistics.median(r["solve_s"] for r in plain))
    metrics = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_s":
            value = overhead
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:34s} = {value:.6g} {unit}")
    lines.append(
        f"tracing overhead: traced solve_s - untraced solve_s = {overhead:.4f} s "
        f"(medians over {len(traced)} pairs)"
    )
    lines.append(f"fail_ratio = {failed / attempted:.6g} 1  ({failed} of {attempted} checks "
                 f"failed, traced-vs-untraced identity included)")
    mods = traced[0]["module_self_s"]
    total = sum(mods.values())
    lines.append("self time by layer (first traced repetition): " + ", ".join(
        f"{m} {s:.3f} s ({s / total:.1%})" for m, s in sorted(mods.items(), key=lambda kv: -kv[1])
    ))
    lines += profile_facts(workload, traced[0]["layers"])
    lines[1:1] = describe_provenance(traced[0]["provenance"], blas_threads())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lines = [f"perfbench {workload} seed={seed} seconds={seconds:g} trace={int(trace)}"]
    try:
        if trace:
            return traced_run(workload, seed, seconds, lines)
        return untraced_run(workload, seed, seconds, lines)
    finally:
        print("\n".join(lines), flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "heatlab", "__init__.py")):
        print(f"perfbench: no heatlab sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
