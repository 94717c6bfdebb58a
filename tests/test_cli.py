"""Command-line entry point, exercised in-process via main(argv)."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatlab.experiments as experiments
import heatlab.variational as variational
from heatlab.cli import VERIFY_HEADER, main
from heatlab.config import load_experiment_config
from heatlab.experiments import build_operator, run_experiment

SMALL_RUN = """
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -15.0
domain.upper = 15.0
grid.n = 200
operator.kind = dirichlet_laplacian
initial.recipe = gaussian
initial.amplitude = 0.3
integrator.t_max = 10.0
integrator.rel_tol = 1.0e-5
"""

BLOWUP_RUN = """
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -15.0
domain.upper = 15.0
grid.n = 200
operator.kind = dirichlet_laplacian
initial.recipe = scaled_ground_state
initial.lambda = 1.5
integrator.t_max = 20.0
integrator.sup_cap = 1.0e4
integrator.rel_tol = 1.0e-5
"""


SWEEP_LAMBDA = "sweep.key = initial.lambda\nsweep.values = 0.5, 1.5\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def count_calls(monkeypatch, *names):
    """Count the calls experiments makes to each named function it binds."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        original = getattr(experiments, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)

    for name in names:
        counting(name)
    return calls


def test_solve_writes_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "out")
    rc = main(["solve", cfg, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "verdict = Dissipates" in printed
    for fname in ("trajectory.csv", "summary.txt", "constants.txt"):
        assert os.path.exists(os.path.join(out, fname)), fname
    with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == "t,mass,energy_norm,E,J,lp,sup,dissipation_cum,s_norm_cum"
    assert len(lines) > 3
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    with open(os.path.join(out, "summary.txt"), encoding="utf-8") as fh:
        summary = fh.read()
    assert "verdict = Dissipates" in summary
    assert "energy_identity_residual" in summary
    with open(os.path.join(out, "constants.txt"), encoding="utf-8") as fh:
        consts = fh.read()
    assert "level = " in consts
    assert "# --- config echo ---" in consts


CRITICAL_RUN = """
equation.regime = critical
domain.kind = box
domain.lower = -5.0, -5.0, -5.0
domain.upper = 5.0, 5.0, 5.0
grid.n = 9
operator.kind = dirichlet_laplacian
initial.recipe = gaussian
initial.amplitude = 0.3
integrator.t_max = 1.0
"""


def _constants(out):
    with open(os.path.join(out, "constants.txt"), encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split(" = ", 1) for line in fh if " = " in line)


def test_critical_constants_name_the_continuum_values(tmp_path):
    # the lattice S_h on (-5, 5)^3 at n = 9 lies above the continuum best
    # constant, so the lattice level lies below the continuum one
    out = str(tmp_path / "crit")
    assert main(["solve", write_cfg(tmp_path, CRITICAL_RUN), "--out", out]) == 0
    consts = _constants(out)
    assert consts["S_continuum"] == repr(variational.talenti_constant(3))
    assert math.isclose(float(consts["S_continuum"]), 0.42726, rel_tol=1e-5)
    assert math.isclose(float(consts["level_continuum"]), 0.42726**-3 / 3.0, rel_tol=1e-4)
    assert float(consts["S"]) > float(consts["S_continuum"])
    assert float(consts["level"]) < float(consts["level_continuum"])
    sub = str(tmp_path / "sub")
    assert main(["solve", write_cfg(tmp_path, SMALL_RUN, "sub.cfg"), "--out", sub]) == 0
    assert "S_continuum" not in _constants(sub)  # subcritical: no continuum reference


def test_solve_blowup_is_success_exit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOWUP_RUN)
    out = str(tmp_path / "out")
    rc = main(["solve", cfg, "--out", out])
    assert rc == 0  # a detected blow-up is a successful experiment
    printed = capsys.readouterr().out
    assert "verdict = BlowsUp" in printed
    assert "T_detect" in printed


def test_classify_prints_membership(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "cls")
    rc = main(["classify", cfg, "--out", out])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "membership = Mplus" in printed
    assert "level = " in printed
    with open(os.path.join(out, "classification.txt"), encoding="utf-8") as fh:
        text = fh.read()
    assert "membership = Mplus" in text


def test_classify_rejects_absorbing(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path, SMALL_RUN + "equation.nonlinearity = absorbing\n"
    )
    rc = main(["classify", cfg])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error" in err and "nonlinearity" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_classify_refuses_overflowing_data(tmp_path, capsys):
    # gaussian data: at 1e80 the L^4 power sum is past double range, so E and J
    # are; at 1e160 the energy norm is too
    for amplitude in ("1.0e80", "1.0e160"):
        huge = SMALL_RUN.replace("initial.amplitude = 0.3", f"initial.amplitude = {amplitude}")
        out = tmp_path / "cls"
        assert main(["classify", write_cfg(tmp_path, huge), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "field overflows: E or J is past double range" in captured.err
        assert "membership" not in captured.out and not out.exists()


def test_verify_spacetime_row_needs_spectral_gap(tmp_path):
    # the Dirichlet line has mu_1 > 0; a depth-2 gaussian well pulls mu_1 below 0
    well = SMALL_RUN.replace(
        "operator.kind = dirichlet_laplacian",
        "operator.kind = schrodinger\npotential.kind = gaussian_well\npotential.depth = 2.0",
    )
    for text, gap in ((SMALL_RUN, True), (well, False)):
        cfg = write_cfg(tmp_path, text)
        assert (build_operator(load_experiment_config(cfg)).mu_min > 0) == gap
        out = tmp_path / f"ver_{gap}"
        assert main(["verify", cfg, "--out", str(out)]) == 0
        names = [ln.split(",")[1] for ln in (out / "verification.csv").read_text().splitlines()]
        assert ("spacetime_identity" in names) == gap


def test_verify_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "ver")
    rc = main(["verify", cfg, "--out", out])
    assert rc == 0
    with open(os.path.join(out, "verification.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert lines[0] == VERIFY_HEADER
    assert len(lines) >= 4
    names = [ln.split(",")[1] for ln in lines[1:]]
    assert "l2_to_l2_decay" in names
    assert "l2_to_linf_decay" in names
    assert "gaussian_kernel_bound" in names
    assert all(ln.split(",")[-1] in ("true", "false") for ln in lines[1:])
    assert "estimates passed" in capsys.readouterr().out


def test_ground_state_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "gs")
    rc = main(["ground-state", cfg, "--out", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "profile.csv"))
    with open(os.path.join(out, "constants.txt"), encoding="utf-8") as fh:
        text = fh.read()
    assert "ground_state_energy = " in text
    printed = capsys.readouterr().out
    assert "level = " in printed


def test_ground_state_refuses_configs_without_one(tmp_path, capsys, monkeypatch):
    assemblies = []
    monkeypatch.setattr(experiments, "assemble", lambda *a, **k: assemblies.append(1))
    absorbing = SMALL_RUN + "equation.nonlinearity = absorbing\n"
    for text, key in ((absorbing, "equation.nonlinearity"), (CRITICAL_RUN, "equation.regime")):
        out = tmp_path / "gs"
        assert main(["ground-state", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error") and key in err
        assert not out.exists()
    assert assemblies == []  # refused from the config keys, before any assembly


def test_solve_refuses_absorbing_scaled_ground_state(tmp_path, capsys, monkeypatch):
    assemblies = []
    monkeypatch.setattr(experiments, "assemble", lambda *a, **k: assemblies.append(1))
    text = SMALL_RUN.replace("initial.recipe = gaussian", "initial.recipe = scaled_ground_state")
    out = tmp_path / "run"
    cfg = write_cfg(tmp_path, text + "equation.nonlinearity = absorbing\n")
    assert main(["solve", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and "initial.recipe" in err
    assert not out.exists() and assemblies == []


def _tree_bytes(root):
    """Every file under root, by relative path, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_sweep_runs_axis(tmp_path, capsys):
    # three values at --threads 2: one parallel group integrates two rows
    text = BLOWUP_RUN + "sweep.key = initial.lambda\nsweep.values = 0.5, 1.5, 0.9\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "sweep"
    rc = main(["sweep", cfg, "--out", str(out), "--threads", "2"])
    assert rc == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("index,value,verdict")
    assert len(lines) == 4
    verdicts = {ln.split(",")[1]: ln.split(",")[2] for ln in lines[1:]}
    assert verdicts["1.5"] == "BlowsUp"
    serial = tmp_path / "sweep_serial"
    assert main(["sweep", cfg, "--out", str(serial), "--threads", "1"]) == 0
    parallel_files = _tree_bytes(out)
    assert len(parallel_files) == 1 + 3 * 3  # sweep.csv and each row's three artifacts
    assert _tree_bytes(serial) == parallel_files


def test_sweep_threads_must_be_positive(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BLOWUP_RUN + SWEEP_LAMBDA)
    for threads in ("0", "-3", "two"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", cfg, "--out", str(tmp_path / "x"), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_parallel_sweep_starts_at_most_one_worker_per_row(tmp_path, monkeypatch):
    pool_sizes = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InlineExecutor)
    text = SMALL_RUN + "sweep.key = initial.amplitude\nsweep.values = 0.3, 0.2\n"
    cfg = write_cfg(tmp_path, text)
    for threads in ("64", "2", "1"):
        out = tmp_path / f"sweep_{threads}"
        assert main(["sweep", cfg, "--out", str(out), "--threads", threads]) == 0
        assert len((out / "sweep.csv").read_text().splitlines()) == 3
    assert pool_sizes == [2, 2]  # two rows; a serial sweep makes no pool

    # three initial.* rows at --threads 2: two groups, each built and
    # integrated once (rows 0 and 2 together, row 1 alone)
    calls = count_calls(monkeypatch, "assemble", "integrate_rows")
    text = SMALL_RUN + "sweep.key = initial.amplitude\nsweep.values = 0.3, 0.2, 0.1\n"
    out = tmp_path / "sweep_groups"
    assert main(["sweep", write_cfg(tmp_path, text), "--out", str(out), "--threads", "2"]) == 0
    assert len((out / "sweep.csv").read_text().splitlines()) == 4
    assert calls == {"assemble": 2, "integrate_rows": 2}
    assert pool_sizes == [2, 2, 2]


def test_sweep_records_a_failed_shared_build_in_every_row(tmp_path, monkeypatch):
    # a negative inverse-power potential with a node on the origin cannot be
    # assembled; the group's one build fails, and every row says so
    text = """
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -5.0
domain.upper = 5.0
grid.n = 9
operator.kind = schrodinger
potential.kind = inverse_power
potential.alpha = 0.5
potential.coupling = 1.0
potential.sign = -1
initial.recipe = gaussian
integrator.t_max = 1.0
sweep.key = initial.amplitude
sweep.values = 0.3, 0.2, 0.1
"""
    calls = count_calls(monkeypatch, "assemble")
    out = tmp_path / "sweep"
    assert main(["sweep", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    assert calls["assemble"] == 1
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        assert row.split(",")[-1].startswith(
            "AssemblyError: inverse_power potential is singular at a grid node; "
        )


def test_sweep_empty_axis(tmp_path):
    cfg = write_cfg(
        tmp_path, SMALL_RUN + "sweep.key = initial.amplitude\nsweep.values =\n"
    )
    out = str(tmp_path / "sweep0")
    rc = main(["sweep", cfg, "--out", out])
    assert rc == 0
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 1  # header only


def test_sweep_captures_per_run_failures(tmp_path):
    # a negative amplitude is fine, but a bogus lambda fails validation in
    # the worker and must land in the error column, not crash the sweep
    cfg = write_cfg(
        tmp_path,
        BLOWUP_RUN + "sweep.key = initial.lambda\nsweep.values = 0.5, -2.0\n",
    )
    out = str(tmp_path / "sweepfail")
    rc = main(["sweep", cfg, "--out", out])
    assert rc == 0
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) == 3
    bad = [ln for ln in lines[1:] if ln.split(",")[1] == "-2.0"]
    assert len(bad) == 1
    assert "lambda" in bad[0]


def test_overflowing_initial_data_is_refused_by_solve_and_sweep(tmp_path, capsys):
    # E and J of the initial state are past double range: 1e80 gaussian data
    # at p = 3, and 1e160 at p = 1.5, where |u|^2 and the mass are too
    huge = SMALL_RUN.replace("initial.amplitude = 0.3", "initial.amplitude = 1.0e80")
    for text in (huge, huge.replace("1.0e80", "1.0e160").replace("p = 3.0", "p = 1.5")):
        out = tmp_path / "run"
        assert main(["solve", write_cfg(tmp_path, text), "--out", str(out)]) == 1
        assert "initial state overflows" in capsys.readouterr().err
        assert not out.exists()  # a refused run leaves no directory behind
    text = SMALL_RUN + "sweep.key = initial.amplitude\nsweep.values = 0.3, 1.0e80\n"
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", write_cfg(tmp_path, text, "sweep.cfg"), "--out", str(sweep_out)]) == 0
    rows = (sweep_out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert rows[0].split(",")[2] == "Dissipates" and rows[0].endswith(",")
    assert rows[1].split(",")[-1].startswith("ValueError: initial state overflows")


DEEP_WELL_RUN = """
equation.regime = subcritical
equation.p = 3.0
domain.kind = interval
domain.lower = -10.0
domain.upper = 10.0
grid.n = 200
operator.kind = schrodinger
potential.kind = gaussian_well
potential.depth = 6
initial.recipe = gaussian
initial.amplitude = 0.01
integrator.t_max = 1
"""


def test_operator_below_the_energy_bound_is_refused_by_solve_and_sweep(tmp_path, capsys):
    # mu_1 = -3.93 on this well, so mu_1 + 1 < 0: no energy space.  solve
    # used to exit 0 with verdict Dissipates while the mass grew 208-fold
    out = tmp_path / "run"
    assert main(["solve", write_cfg(tmp_path, DEEP_WELL_RUN), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no energy space: ") and "positive spectrum" in err
    assert not out.exists()  # a refused run leaves no directory behind
    text = DEEP_WELL_RUN + "sweep.key = initial.amplitude\nsweep.values = 0.01, 0.1, 1.0\n"
    sweep_out = tmp_path / "sweep"
    assert main(["sweep", write_cfg(tmp_path, text, "sweep.cfg"), "--out", str(sweep_out)]) == 0
    rows = (sweep_out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        error = row.split(",")[-1]
        assert error.startswith("ValueError: no energy space: ") and "positive spectrum" in error
    assert sorted(os.listdir(sweep_out)) == ["sweep.csv"]


def test_verify_refuses_an_operator_with_no_energy_space(tmp_path, capsys):
    # class A verifies e^{-t(L + 1)}, which grows here (mu_1 + 1 = -2.93); the
    # rule is applied before any verifier runs, which used to fail with
    # "semigroup grows past double range at t = 1e+11"
    out = tmp_path / "ver"
    assert main(["verify", write_cfg(tmp_path, DEEP_WELL_RUN), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: no energy space: ") and "L + 1" in err
    assert not out.exists()


HARDY_BOX = """
equation.regime = subcritical
equation.p = 3.0
domain.kind = box
domain.lower = -5.0, -5.0, -5.0
domain.upper = 5.0, 5.0, 5.0
grid.n = 8
operator.kind = schrodinger
potential.kind = inverse_power
potential.sign = -1
initial.recipe = gaussian
initial.amplitude = 0.1
integrator.t_max = 0.5
"""


@pytest.mark.parametrize(
    "text, key",
    [
        (HARDY_BOX + "potential.alpha = 3.0\npotential.coupling = 1.0\n", "potential.alpha"),
        (HARDY_BOX + "potential.alpha = 2.0\npotential.coupling = 0.5\n", "potential.coupling"),
        (
            SMALL_RUN.replace("operator.kind = dirichlet_laplacian", "operator.kind = schrodinger")
            + "potential.kind = inverse_power\npotential.alpha = 2.0\n"
            + "potential.coupling = 0.5\npotential.sign = -1\n",
            "potential.alpha",
        ),
    ],
    ids=["alpha_3_in_3d", "coupling_above_hardy", "inverse_square_in_1d"],
)
def test_potential_outside_its_range_is_config_error(tmp_path, capsys, text, key):
    # these passed the config and failed at assembly (exit 1) naming no key
    cfg = write_cfg(tmp_path, text)
    for command in ("solve", "classify"):
        out = tmp_path / command
        assert main([command, cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: config key '{key}': ")
        assert captured.out == "" and not out.exists()


def test_sweep_records_a_potential_outside_its_range(tmp_path):
    text = SMALL_RUN.replace("operator.kind = dirichlet_laplacian", "operator.kind = schrodinger")
    text += "potential.kind = inverse_power\npotential.alpha = 0.5\npotential.coupling = 1.0\n"
    text += "sweep.key = potential.alpha\nsweep.values = 0.5, 2.0\n"
    out = tmp_path / "sweep"
    assert main(["sweep", write_cfg(tmp_path, text), "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    good, bad = (row.split(",") for row in rows)
    assert good[-1] == "" and good[2] == "Dissipates"
    assert bad[-1].startswith("ConfigError: config key 'potential.alpha': ")
    assert sorted(os.listdir(out)) == ["run_000", "sweep.csv"]


def test_sweep_without_axis_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    rc = main(["sweep", cfg, "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "sweep" in capsys.readouterr().err


def test_config_error_names_key(tmp_path, capsys):
    for line, key in (
        ("grid.m = 3", "grid.m"),
        ("integrator.dt_init = 1.0", "integrator.dt_init"),  # dt_max defaults to 0.5
    ):
        cfg = write_cfg(tmp_path, SMALL_RUN + line + "\n")
        rc = main(["solve", cfg, "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert key in err


@pytest.mark.parametrize(
    "key, value", [("domain.upper", "inf"), ("equation.p", "nan"), ("initial.amplitude", "nan")]
)
def test_non_finite_number_is_config_error(tmp_path, capsys, key, value):
    lines = [f"{key} = {value}" if line.startswith(f"{key} = ") else line
             for line in SMALL_RUN.splitlines()]
    assert f"{key} = {value}" in lines
    out = tmp_path / "x"
    rc = main(["solve", write_cfg(tmp_path, "\n".join(lines) + "\n"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config key '{key}': expected a finite number" in err
    assert not out.exists()


def test_console_entry_point_exit_codes(tmp_path):
    # python -m heatlab.cli runs sys.exit(main()), as the installed script does
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for text, code, printed in (
        (SMALL_RUN, 0, "membership = Mplus"),
        (SMALL_RUN + "grid.m = 3\n", 2, "config key 'grid.m'"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "heatlab.cli", "classify", write_cfg(tmp_path, text)],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == code, proc.stderr[-2000:]
        assert printed in proc.stdout + proc.stderr


def test_missing_config_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_seed_override_lands_in_summary(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = str(tmp_path / "seeded")
    rc = main(["solve", cfg, "--out", out, "--seed", "42"])
    assert rc == 0
    with open(os.path.join(out, "summary.txt"), encoding="utf-8") as fh:
        assert "seed = 42" in fh.read()


@pytest.mark.parametrize(
    "line, detected",
    [
        # |u|^2 u of every stage overflows, so each attempt is rejected until
        # dt falls below dt_min; the datum is already past 0.01 * sup_cap
        ("initial.amplitude = 1.0e60", True),
        # no step can meet the tolerance: dt collapses while nothing grows
        ("integrator.rel_tol = 1.0e-30", False),
    ],
    ids=["stage_overflow", "dt_collapse"],
)
def test_failed_steps_end_in_named_outcome(tmp_path, line, detected):
    key = line.split(" = ")[0]
    text = "".join(ln + "\n" for ln in SMALL_RUN.splitlines() if not ln.startswith(key))
    cfg = write_cfg(tmp_path, text + line + "\n")
    out = str(tmp_path / "out")
    assert main(["solve", cfg, "--out", out]) == 0
    with open(os.path.join(out, "summary.txt"), encoding="utf-8") as fh:
        summary = fh.read()
    assert "end_reason = dt_underflow" in summary
    assert ("T_detect = " in summary) == detected
    with open(os.path.join(out, "trajectory.csv"), encoding="utf-8") as fh:
        assert "nan" not in fh.read().lower()


def test_negative_seed_is_config_error(tmp_path, capsys):
    # both the config key and the --seed override go through the seed schema check
    for text, extra in ((SMALL_RUN + "seed = -1\n", []), (SMALL_RUN, ["--seed", "-1"])):
        cfg = write_cfg(tmp_path, text)
        rc = main(["verify", cfg, "--out", str(tmp_path / "ver")] + extra)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error")
        assert "'seed'" in err


@pytest.fixture
def count_solves(monkeypatch):
    """Count the Nehari fixed-point solves (one per ground state or S)."""
    calls = []
    original = variational._nehari_fixed_point

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(variational, "_nehari_fixed_point", counting)
    return calls


def test_sobolev_route_solves_ground_state_once(tmp_path, count_solves):
    cfg = load_experiment_config(write_cfg(tmp_path, BLOWUP_RUN))
    op = build_operator(cfg)
    mode = variational.EquationMode.subcritical(3.0, 1)
    consts = variational.mountain_pass_level(op, mode, method="sobolev_formula")
    assert consts.ground_state is not None
    assert len(count_solves) == 2  # the direct ratio maximiser and the ground state


def test_scaled_ground_state_run_solves_once(tmp_path, count_solves):
    cfg = load_experiment_config(write_cfg(tmp_path, BLOWUP_RUN))
    run_experiment(cfg, str(tmp_path / "out"))
    assert len(count_solves) == 1


def test_ground_state_command_solves_once(tmp_path, count_solves):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    assert main(["ground-state", cfg, "--out", str(tmp_path / "gs")]) == 0
    assert len(count_solves) == 1


def test_serial_sweep_builds_operator_and_constants_once(tmp_path, monkeypatch, count_solves):
    text = BLOWUP_RUN + "sweep.key = initial.lambda\nsweep.values = 0.5, 1.5, 0.9\n"
    calls = count_calls(monkeypatch, "assemble", "integrate_rows")
    out = str(tmp_path / "sweep")
    assert main(["sweep", write_cfg(tmp_path, text), "--out", out, "--threads", "1"]) == 0
    assert calls["assemble"] == 1 and len(count_solves) == 1
    # the rows are integrated together in one lockstep call
    assert calls["integrate_rows"] == 1
    # every row writes what a standalone run of its config writes
    cfg = load_experiment_config(str(tmp_path / "run.cfg"))
    for i, lam in enumerate((0.5, 1.5, 0.9)):
        alone = str(tmp_path / f"alone_{i}")
        run_experiment(cfg.with_override("initial.lambda", lam), alone)
        for name in ("trajectory.csv", "summary.txt", "constants.txt"):
            with open(os.path.join(out, f"run_{i:03d}", name), "rb") as fa, open(
                os.path.join(alone, name), "rb"
            ) as fb:
                assert fa.read() == fb.read(), (i, name)


def test_rerun_artifacts_are_byte_identical(tmp_path):
    run = write_cfg(tmp_path, BLOWUP_RUN)
    axis = write_cfg(tmp_path, BLOWUP_RUN + SWEEP_LAMBDA, "sweep.cfg")
    for command, cfg, names in (
        ("solve", run, ("trajectory.csv", "summary.txt", "constants.txt")),
        ("ground-state", run, ("profile.csv", "constants.txt")),
        ("classify", run, ("classification.txt",)),
        ("verify", run, ("verification.csv",)),
        ("sweep", axis, ("sweep.csv", "run_001/summary.txt")),
    ):
        first, second = tmp_path / f"{command}_1", tmp_path / f"{command}_2"
        for out in (first, second):
            assert main([command, cfg, "--out", str(out)]) == 0
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), (command, name)


def _summary_keys(out):
    return [line.split(" = ")[0] for line in (out / "summary.txt").read_text().splitlines()]


RUN_KEYS = (
    ["end_reason", "t_final"],
    ["accepted_steps", "rejected_steps", "samples", "mass_initial", "mass_final",
     "energy_initial", "energy_final", "energy_norm_initial", "energy_norm_final", "sup_final",
     "dissipation_cum", "energy_identity_residual", "mass_identity_residual", "constants_status",
     "classification_initial", "delta_hat", "below_y_C", "invariance_ok"],
)


def test_summary_key_order(tmp_path):
    small, blowup = tmp_path / "small", tmp_path / "blowup"
    assert main(["solve", write_cfg(tmp_path, SMALL_RUN), "--out", str(small)]) == 0
    assert main(["solve", write_cfg(tmp_path, BLOWUP_RUN, "b.cfg"), "--out", str(blowup)]) == 0
    head, body = RUN_KEYS
    assert _summary_keys(small) == ["seed", "verdict", "rate_stat"] + head + body
    assert _summary_keys(blowup) == (
        ["seed", "verdict", "T_est"] + head + ["T_detect"] + body
        + ["concavity_A", "concavity_alpha", "concavity_margin", "concavity_t_tilde"]
    )


FAILED_SOLVE = "no convergence after 2000 iterations (residual 3.760e-01)"


@pytest.fixture
def failing_solve(monkeypatch):
    """Make every Nehari fixed-point solve fail as a non-converging one does."""

    def failing(*args, **kwargs):
        raise variational.ConvergenceError("no convergence after 2000 iterations", 0.376)

    monkeypatch.setattr(variational, "_nehari_fixed_point", failing)


def test_solve_notes_failed_constants_for_gaussian_data(tmp_path, failing_solve):
    out = tmp_path / "run"
    assert main(["solve", write_cfg(tmp_path, SMALL_RUN), "--out", str(out)]) == 0
    summary = (out / "summary.txt").read_text(encoding="utf-8").splitlines()
    assert f"constants_status = failed: {FAILED_SOLVE}" in summary


def test_solve_from_ground_state_fails_with_failed_constants(tmp_path, failing_solve, capsys):
    cfg = write_cfg(tmp_path, BLOWUP_RUN)
    assert main(["solve", cfg, "--out", str(tmp_path / "run")]) == 1
    assert f"error: {FAILED_SOLVE}" in capsys.readouterr().err


def test_serial_sweep_records_failed_constants_in_every_row(tmp_path, failing_solve):
    text = BLOWUP_RUN + SWEEP_LAMBDA
    out = tmp_path / "sweep"
    assert main(["sweep", write_cfg(tmp_path, text), "--out", str(out), "--threads", "1"]) == 0
    rows = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 2
    for row in rows:
        assert row.split(",")[-1] == f"ConvergenceError: {FAILED_SOLVE}"
