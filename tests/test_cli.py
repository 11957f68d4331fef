"""Config parsing and the experiment runner end to end."""

import math
import re

import numpy as np
import pytest

from cpsmap import __version__, cli, estimators
from cpsmap.cli import (
    ConfigError,
    ExperimentConfig,
    _drift,
    _validate_drift,
    _validate_exact_mapping,
    convergence_study,
    load_config,
    main,
    parse_config_text,
    run_experiment,
    run_validations,
)
from cpsmap.cps import gamma_wigner, onto_sphere, sample_sphere_batch
from cpsmap.dynamics import grid_march
from cpsmap.estimators import MethodSpec
from cpsmap.kernels import inverse_kernel_coefficients, kernel_trace
from cpsmap.models import ModelSpec, build_hamiltonian, save_hamiltonian

BASE = """
model.kind = two_level
model.delta = 1.0
method.family = cmm
tcf.pairs = 1,1,1,1; 1,1,2,2
tcf.t_max = 5
tcf.n_times = 6
tcf.n_traj = 20000
tcf.seed = 7
"""


def write_config(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_config_text_basics():
    got = parse_config_text("a = 1\n# comment\nb.c = x y  # trailing\n\n")
    assert got == {"a": "1", "b.c": "x y"}


def test_parse_config_text_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")


def test_load_config_full(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert cfg.method.family == "cmm"
    assert cfg.pairs == [((1, 1), (1, 1)), ((1, 1), (2, 2))]
    assert cfg.n_traj == 20000
    assert cfg.seed == 7
    assert np.allclose(cfg.t_grid(), np.linspace(0.0, 5.0, 6))


def test_load_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, BASE + "tcf.banana = 3\nmodel.extra = 1\n")
    with pytest.raises(ConfigError, match="unknown config key"):
        load_config(path)
    with pytest.raises(ConfigError, match="tcf.banana"):
        load_config(path)


@pytest.mark.parametrize("key", ["validate.n_traj", "validate.exact_mapping", "validate.drift", "validate.moments"])
def test_load_config_rejects_the_retired_validation_keys(tmp_path, capsys, key):
    # the moments check reads the run's own frames, so it has no sample size,
    # and every check runs whenever its subject exists, so none has a switch
    path = write_config(tmp_path, BASE + f"{key} = 1\n")
    with pytest.raises(ConfigError, match=rf"^unknown config key\(s\): {re.escape(key)}$"):
        load_config(path)
    assert main(["validate", str(path)]) == 1
    assert key in capsys.readouterr().err


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_unknown_family(tmp_path):
    path = write_config(tmp_path, "model.kind = two_level\nmethod.family = sqc2\n")
    with pytest.raises(ConfigError, match="unknown family 'sqc2'"):
        load_config(path)


def test_load_config_unknown_model(tmp_path):
    path = write_config(tmp_path, "model.kind = ising\nmethod.family = cmm\n")
    with pytest.raises(ConfigError, match="unknown kind"):
        load_config(path)


def test_load_config_bad_pair(tmp_path):
    path = write_config(
        tmp_path, "model.kind = two_level\nmethod.family = cmm\ntcf.pairs = 1,2\n"
    )
    with pytest.raises(ConfigError, match="tcf.pairs"):
        load_config(path)


@pytest.mark.parametrize("pairs", ["1,1,1,3", "0,1,1,1", "1,1,1,1; 2,3,1,1"])
def test_pair_index_outside_the_states_is_rejected_at_load(tmp_path, capsys, pairs):
    # run once failed inside estimate_tcf and validate passed the config
    path = write_config(tmp_path, BASE.replace("tcf.pairs = 1,1,1,1; 1,1,2,2", f"tcf.pairs = {pairs}"))
    with pytest.raises(ConfigError, match=r"tcf.pairs: index outside 1..2"):
        load_config(path)
    for command in ("run", "validate"):
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 1
        assert "config error: tcf.pairs: index outside 1..2" in capsys.readouterr().err


def test_load_config_family_domain_error_is_config_error(tmp_path):
    text = "model.kind = two_level\nmethod.family = cornered_simplex\nmethod.gamma = 0\n"
    with pytest.raises(ConfigError, match="gamma > 0"):
        load_config(write_config(tmp_path, text))


def test_load_config_overrides(tmp_path):
    cfg = load_config(
        write_config(tmp_path), overrides={"seed": 99, "threads": 3, "out": tmp_path / "o"}
    )
    assert cfg.seed == 99
    assert cfg.threads == 3
    assert cfg.out_dir == tmp_path / "o"


def test_load_config_rejects_a_negative_seed(tmp_path, capsys):
    path = write_config(tmp_path, BASE.replace("tcf.seed = 7", "tcf.seed = -3"))
    with pytest.raises(ConfigError, match="^tcf.seed: "):
        load_config(path)
    with pytest.raises(ConfigError, match="^tcf.seed: "):
        load_config(write_config(tmp_path), overrides={"seed": -1})
    assert main(["run", str(write_config(tmp_path)), "--seed", "-1", "--out", str(tmp_path / "o")]) == 1
    assert "tcf.seed" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["2.5e0", "1e400", "-1e400", "nan", "1.5"])
def test_load_config_rejects_an_integer_that_is_not_whole(tmp_path, capsys, value):
    # 2.5e0 once ran 2 trajectories, and 1e400 escaped main as an OverflowError
    path = write_config(tmp_path, BASE.replace("tcf.n_traj = 20000", f"tcf.n_traj = {value}"))
    with pytest.raises(ConfigError, match=f"^tcf.n_traj: not an integer: '{re.escape(value)}'"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "tcf.n_traj: not an integer" in capsys.readouterr().err


def test_load_config_takes_whole_exponent_forms(tmp_path):
    cfg = load_config(write_config(tmp_path, BASE.replace("tcf.n_traj = 20000", "tcf.n_traj = 2.5e4")))
    assert cfg.n_traj == 25000


def test_load_config_wmm_weight_string(tmp_path):
    text = (
        "model.kind = two_level\n"
        "method.family = wmm\n"
        "method.weight = 0:0.43599615858976654; 0.93557280411231:0.5640038414102335\n"
    )
    cfg = load_config(write_config(tmp_path, text))
    assert cfg.method.family == "wmm"
    assert cfg.method.weight.pairs == ((0.0, 0.43599615858976654), (0.93557280411231, 0.5640038414102335))


@pytest.mark.parametrize(
    "line, key",
    [
        ("method.family = cmmcv\nmethod.components = ;", "method.components"),
        ("method.family = cmmcv\nmethod.components = 0.5", "method.components"),
        ("method.family = cmmcv\nmethod.components = a:0", "method.components"),
        ("method.family = cmmcv\nmethod.components = nan:0.3", "method.components"),
        ("method.family = cmmcv\nmethod.components = 1:nan", "method.components"),
        ("method.family = wmm\nmethod.weight = ;", "method.weight"),
        ("method.family = wmm\nmethod.weight = 0:1; 0.5", "method.weight"),
        ("method.family = wmm\nmethod.weight = triangle", "method.weight"),
    ],
)
def test_load_config_names_the_bad_list_key(tmp_path, line, key):
    text = f"model.kind = two_level\n{line}\n"
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(write_config(tmp_path, text))


@pytest.mark.parametrize("weight", ["0.1:nan", "0.2:1; nan:0", "inf:1"])
def test_load_config_names_a_non_finite_weight(tmp_path, capsys, weight):
    # a non-finite comb entry once passed the wmm checks, and weight errors
    # were reported under method.family
    path = write_config(tmp_path, f"model.kind = two_level\nmethod.family = wmm\nmethod.weight = {weight}\n")
    with pytest.raises(ConfigError, match=r"^method.weight: comb entry .* is not finite"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert "method.weight: comb entry" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "lines, key",
    [
        ("model.kind = random\nmodel.F = 1", "model.F"),
        ("model.kind = ladder\nmodel.F = 1", "model.F"),
        ("model.kind = two_level\nmodel.delta = nan", "model.delta"),
        ("model.kind = two_level\nmodel.epsilon = -inf", "model.epsilon"),
        ("model.kind = random\nmodel.scale = inf", "model.scale"),
        ("model.kind = random\nmodel.seed = -1", "model.seed"),
        ("model.kind = ladder\nmodel.gap = inf", "model.gap"),
        ("model.kind = ladder\nmodel.coupling = nan", "model.coupling"),
        ("model.kind = two_level\nmethod.family = cmmcv\nmethod.components = 1:inf", "method.components"),
    ],
    ids=["random-F1", "ladder-F1", "delta-nan", "epsilon-inf", "scale-inf", "seed-negative", "gap-inf",
         "coupling-nan", "components-inf"],
)
def test_load_config_names_a_bad_model_key(tmp_path, capsys, lines, key):
    # these were "F must be at least 2", "H has non-finite entries" or numpy's
    # "expected non-negative integer"; inf * eye(F) warned before its error
    if "method.family" not in lines:
        lines += "\nmethod.family = cmm"
    path = write_config(tmp_path, lines + "\n")
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "lines, key",
    [
        ("model.kind = random\nmodel.F = 3\nmodel.scale = 1e308", "model.scale"),
        ("model.kind = random\nmodel.F = 3\nmodel.scale = 1e300\ntcf.t_max = 1e10", "model.scale"),
        ("model.kind = two_level\nmodel.delta = 1e307", "model.delta, model.epsilon"),
        ("model.kind = ladder\nmodel.F = 4\nmodel.gap = 1e306", "model.gap, model.coupling"),
    ],
    ids=["random-1e308", "random-by-t_max", "two_level", "ladder"],
)
def test_load_config_names_the_key_of_an_overflowing_hamiltonian(tmp_path, capsys, lines, key):
    # the phases lambda t of the maps up to tcf.t_max overflowed; at 1e308 the run
    # leaked a RuntimeWarning and failed with 'Eigenvalues did not converge'
    path = write_config(tmp_path, lines + "\nmethod.family = cmm\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: the Hamiltonian has max"):
        load_config(path)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    assert f"config error: {key}: " in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_run_below_the_scale_bound_passes_with_finite_results(tmp_path):
    # random at F = 3 stays finite up to 1e300 by t = 10; the matrix route's
    # exact-backend drift failed it on rounding (3.9e285), the closed form reads 0
    path = write_config(tmp_path, "model.kind = random\nmodel.F = 3\nmodel.scale = 1e300\nmethod.family = cmm\ntcf.n_traj = 2000\n")
    assert main(["run", str(path), "--out", str(tmp_path / "big")]) == 0
    assert "nan_points: 0" in (tmp_path / "big" / "manifest.txt").read_text()


RK4_PROBE = "model.kind = random\nmodel.F = 3\nmodel.scale = {scale}\nmethod.family = cmm\ntcf.backend = rk4\ntcf.dt = 1e-2\n"
DT_MESSAGE = r"tcf.dt: dt = 0.01 is past rk4's stability edge: max\|lambda\| h = .* exceeds 2 sqrt\(2\)"


def test_load_config_names_tcf_dt_past_rk4s_stability_edge(tmp_path):
    # max|lambda| h = 11.7 > 2 sqrt(2): validate read 'drift: FAIL ... inf' (exit 2), run stopped in estimate_tcf
    with pytest.raises(ConfigError, match=f"^{DT_MESSAGE}"):
        load_config(write_config(tmp_path, RK4_PROBE.format(scale=1000)))


@pytest.mark.parametrize("command", ["validate", "run"])
def test_validate_and_run_reject_tcf_dt_past_rk4s_stability_edge_alike(tmp_path, capsys, command):
    path = write_config(tmp_path, RK4_PROBE.format(scale=1000))
    assert main([command, str(path), "--out", str(tmp_path / "out")]) == 1
    assert re.fullmatch(f"config error: {DT_MESSAGE} = 2.828; dt must be at most 0.002415\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_a_stable_rk4_step_still_loads_and_passes_its_drift_line(tmp_path, capsys):
    path = write_config(tmp_path, RK4_PROBE.format(scale=1))
    cfg = load_config(path)
    assert (cfg.backend, cfg.dt) == ("rk4", 1e-2)
    assert main(["validate", str(path)]) == 0
    assert "validation drift: pass (backend=rk4" in capsys.readouterr().out


def test_load_config_model_file(tmp_path):
    H = build_hamiltonian(ModelSpec.ladder(3))
    hpath = tmp_path / "h.txt"
    save_hamiltonian(hpath, H)
    text = f"model.kind = file\nmodel.path = {hpath}\nmethod.family = gdtwa\n"
    cfg = load_config(write_config(tmp_path, text))
    assert np.array_equal(build_hamiltonian(cfg.model), H)
    text = "model.kind = ladder\nmodel.F = 3\nmodel.gap = 1\nmodel.coupling = 0.1\nmethod.family = gdtwa\n"
    cfg = load_config(write_config(tmp_path, text, "ladder.cfg"))
    assert np.array_equal(build_hamiltonian(cfg.model), H)


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="n_times"):
        ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], n_times=1)
    with pytest.raises(ConfigError, match="t_max"):
        ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], t_max=0.0)
    for t_max in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="tcf.t_max"):
            ExperimentConfig(
                ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], t_max=t_max
            )
    for threads in (0, -4):
        with pytest.raises(ConfigError, match="tcf.threads"):
            ExperimentConfig(
                ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], threads=threads
            )
    for n_traj in (0, -3):
        with pytest.raises(ConfigError, match="^tcf.n_traj: "):
            ExperimentConfig(
                ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], n_traj=n_traj
            )
    for dt in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ConfigError, match="^tcf.dt: "):
            ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], dt=dt)
    with pytest.raises(ConfigError, match="^tcf.backend: unknown backend 'rk5'$"):
        ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], backend="rk5")


def test_main_rejects_bad_threads_and_run_length(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--threads", "-4", "--out", str(tmp_path / "o")]) == 1
    assert "tcf.threads" in capsys.readouterr().err
    path = write_config(tmp_path, BASE + "tcf.t_max = nan\n")
    assert main(["validate", str(path)]) == 1
    assert "tcf.t_max" in capsys.readouterr().err
    # once these passed validate and failed only in the estimate, without the key
    for line in ("tcf.n_traj = 0", "tcf.dt = 0"):
        path = write_config(tmp_path, BASE + line + "\n")
        assert main(["validate", str(path)]) == 1
        assert f"config error: {line.split(' =')[0]}: " in capsys.readouterr().err


def test_run_experiment_outputs(tmp_path):
    cfg = load_config(write_config(tmp_path), overrides={"out": tmp_path / "out"})
    summary = run_experiment(cfg)
    assert summary.exit_code == 0
    assert all(v.passed for v in summary.validations)
    assert summary.n_rows == 2 * 6  # pairs times grid points
    text = summary.results_path.read_text()
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header, data = lines[0], lines[1:]
    assert header.startswith("n,m,k,l,t,")
    assert len(data) == summary.n_rows
    # estimates agree with the exact reference columns at 5 SE
    assert summary.max_error_over_se <= 5.0
    manifest = summary.manifest_path.read_text()
    assert "validation exact_mapping: pass" in manifest
    assert "validation drift: pass" in manifest
    assert "validation moments: pass" in manifest
    assert "wall_time_s:" in manifest
    assert manifest.startswith(f"version: {__version__}\n")


def test_run_experiment_deterministic_across_threads(tmp_path):
    base = write_config(tmp_path)
    cfg1 = load_config(base, overrides={"out": tmp_path / "a", "threads": 1})
    cfg2 = load_config(base, overrides={"out": tmp_path / "b", "threads": 4})
    s1 = run_experiment(cfg1)
    s2 = run_experiment(cfg2)
    assert s1.results_path.read_bytes() == s2.results_path.read_bytes()

    def validation_lines(summary):
        lines = summary.manifest_path.read_text().splitlines()
        return [ln for ln in lines if ln.startswith("validation ")]

    assert len(validation_lines(s1)) == 3
    assert validation_lines(s1) == validation_lines(s2)


def test_run_experiment_seed_changes_results(tmp_path):
    base = write_config(tmp_path)
    cfg1 = load_config(base, overrides={"out": tmp_path / "a"})
    cfg2 = load_config(base, overrides={"out": tmp_path / "b", "seed": 8})
    s1 = run_experiment(cfg1)
    s2 = run_experiment(cfg2)
    assert s1.results_path.read_bytes() != s2.results_path.read_bytes()


def test_run_experiment_single_trajectory(tmp_path):
    text = BASE.replace("tcf.n_traj = 20000", "tcf.n_traj = 1")
    cfg = load_config(write_config(tmp_path, text), overrides={"out": tmp_path / "out"})
    summary = run_experiment(cfg)
    data = [
        ln
        for ln in summary.results_path.read_text().splitlines()
        if ln and not ln.startswith(("#", "n,"))
    ]
    assert all(",nan" in ln for ln in data)  # SE column is nan


def test_convergence_study_needs_three_sizes(tmp_path):
    cfg = load_config(write_config(tmp_path), overrides={"out": tmp_path / "out"})
    with pytest.raises(ConfigError, match="at least 3"):
        convergence_study(cfg, [100, 1000])


def test_convergence_study_ehrenfest_population_is_flat(tmp_path):
    # ehrenfest populations use a deterministic initial condition, so
    # the error does not shrink with ensemble size
    text = (
        "model.kind = two_level\n"
        "model.delta = 1.0\n"
        "method.family = ehrenfest\n"
        "tcf.pairs = 1,1,2,2\n"
        "tcf.t_max = 4\n"
        "tcf.n_times = 5\n"
    )
    cfg = load_config(write_config(tmp_path, text), overrides={"out": tmp_path / "out"})
    report = convergence_study(cfg, [1000, 4000, 16000])
    assert abs(report.slope) < 0.05
    assert report.path.exists()
    assert "n_traj,max_error" in report.path.read_text()


def test_convergence_study_cmm_shrinks(tmp_path):
    cfg = load_config(write_config(tmp_path), overrides={"out": tmp_path / "out"})
    report = convergence_study(cfg, [1000, 10000, 100000])
    assert report.slope < -0.25
    assert report.max_errors[0] > report.max_errors[-1]


def test_main_run_and_exit_codes(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["run", str(cfg_path), "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "validation" in out
    assert (tmp_path / "out" / "results.csv").exists()


def test_main_usage_error(tmp_path, capsys):
    code = main(["frobnicate"])
    assert code == 1
    assert "usage error" in capsys.readouterr().err


def test_main_config_error(tmp_path, capsys):
    path = write_config(tmp_path, "model.kind = two_level\nmethod.family = nope\n")
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_main_validate_subcommand(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["validate", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["validation exact_mapping", "validation drift"]
    assert all(": pass (" in ln for ln in lines)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    assert "validation moments: pass" in capsys.readouterr().out


def test_main_validate_is_the_same_at_any_thread_count(tmp_path, capsys):
    path = write_config(tmp_path)
    printed = {}
    for command in ("validate", "run"):
        for threads in ("1", "2"):
            assert main([command, str(path), "--threads", threads, "--out", str(tmp_path / threads)]) == 0
            out = capsys.readouterr().out
            printed[command, threads] = [ln for ln in out.splitlines() if ln.startswith("validation ")]
    assert len(printed["validate", "1"]) == 2 and len(printed["run", "1"]) == 3
    assert printed["validate", "1"] == printed["validate", "2"] == printed["run", "1"][:2]
    assert printed["run", "1"] == printed["run", "2"]


def test_main_validation_failure_exit_code(tmp_path, capsys):
    # a coarse rk4 step drifts far beyond the invariant tolerance
    text = BASE + "tcf.backend = rk4\ntcf.dt = 0.5\n"
    path = write_config(tmp_path, text)
    code = main(["validate", str(path)])
    assert code == 2
    assert "validation drift: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("backend, dt", [("exact", 1e-3), ("rk4", 0.05)])
def test_drift_validation_bounds_sampled_trajectories(backend, dt):
    # the map-based drift is the worst case over the whole Wigner sphere
    H = build_hamiltonian(ModelSpec.random(3, seed=4))
    detail = _validate_drift(H, backend, dt).detail
    reported = float(detail.split("drift ")[1].split(" ")[0])
    F = H.shape[0]
    g = gamma_wigner(F)
    rng = np.random.default_rng(12)
    times = np.linspace(0.0, 10.0, 11)[1:]
    Z = np.concatenate([sample_sphere_batch(F, g, rng, 1) for _ in range(16)])
    Zt = Z @ np.swapaxes(grid_march(H, times, backend, dt), -1, -2)
    # each trajectory's norm residual (1/2)|z(t)|^2 - s and its H_C drift from t = 0
    s = 1.0 + F * g
    norm = np.abs(0.5 * np.sum(np.abs(Zt) ** 2, axis=-1) - s)
    energy = np.abs(kernel_trace(Zt[..., None, :], H, g).real - kernel_trace(Z[:, None, :], H, g).real)
    sampled = max(np.max(norm), np.max(energy))
    # reported carries 4 significant digits; a sampled drift also carries the
    # rounding of its own norm and energy sums, a few ulp of s and s |H|
    rounding = 8.0 * np.finfo(np.float64).eps * s * (1.0 + np.linalg.norm(H, 2))
    assert sampled <= reported * (1.0 + 5e-4) + rounding, (sampled, reported)
    assert reported <= (1e-10 if backend == "exact" else 1e-3)


def matrix_drift(H, backend, dt):
    """The drift read off the maps of the 10 grid times: s max|eig| of U^dagger U - I and U^dagger H U - H."""
    F = H.shape[0]
    U = grid_march(H, np.linspace(0.0, 10.0, 11)[1:], backend, dt)
    Ud = np.conj(np.swapaxes(U, -1, -2))
    dev = np.concatenate([Ud @ U - np.eye(F), Ud @ H @ U - H])
    return (1.0 + F * gamma_wigner(F)) * float(np.max(np.abs(np.linalg.eigvalsh(dev))))


@pytest.mark.parametrize("F, dt, scale", [(3, 1e-2, 1.0), (3, 1e-3, 1.0), (8, 0.037, 1.0), (3, 1e-2, 100.0)])
def test_closed_form_drift_matches_the_matrix_route(F, dt, scale):
    H = build_hamiltonian(ModelSpec.random(F, seed=4, scale=scale))
    assert _drift(H, "exact", dt) == 0.0
    # the matrix route carries the rounding of its products and eigensolve, which
    # it reads on the exact maps, whose drift is 0; the closed form carries none
    floor = matrix_drift(H, "exact", dt)
    got, ref = _drift(H, "rk4", dt), matrix_drift(H, "rk4", dt)
    assert abs(got - ref) <= 1e-6 * ref + 2.0 * floor, (got, ref, floor)
    if ref > 1e6 * floor:
        assert abs(got - ref) <= 1e-6 * ref


def moments_line(validations):
    (line,) = [v for v in validations if v.name == "moments"]
    return line


def test_exact_mapping_validation_fails_on_the_wrong_sphere(tmp_path, monkeypatch):
    assert _validate_exact_mapping(3, MethodSpec.cmm(0.0)).passed
    # inverse-kernel coefficients of the sphere at gamma = 1 fail the closed form at 0
    monkeypatch.setattr(
        estimators, "inverse_kernel_coefficients", lambda F, g: inverse_kernel_coefficients(F, 1.0)
    )
    bad = _validate_exact_mapping(3, MethodSpec.cmm(0.0))
    assert not bad.passed
    assert "closed-form miss" in bad.detail
    monkeypatch.undo()
    # and a cmm run at gamma = 0 whose sampler draws the sphere at gamma = 1
    # fails the moments check on its own frames
    cfg = load_config(write_config(tmp_path, BASE + "method.gamma = 0\n"), overrides={"out": tmp_path / "o"})
    assert moments_line(run_experiment(cfg).validations).passed
    monkeypatch.setattr(estimators, "onto_sphere", lambda w, F, g: onto_sphere(w, F, 1.0))
    summary = run_experiment(cfg)
    line = moments_line(summary.validations)
    assert not line.passed
    assert "worst |dev|/SE" in line.detail
    assert summary.exit_code == 2


@pytest.mark.parametrize(
    "method, passed",
    [
        ("method.family = wmm\nmethod.weight = 0.25:1", False),  # misses by 0.25
        ("method.family = cmmcv\nmethod.components = 1:0.1", False),  # misses by 0.52
        ("method.family = wmm\nmethod.weight = 0:0.75; 1:0.25", True),
    ],
)
def test_main_validate_checks_the_configured_comb(tmp_path, capsys, method, passed):
    # the check once looked at the cmm pair at the Wigner gamma and passed
    # combs that estimate_tcf rejects
    path = write_config(tmp_path, BASE.replace("method.family = cmm", method))
    assert main(["validate", str(path)]) == (0 if passed else 2)
    out = capsys.readouterr().out
    assert f"validation exact_mapping: {'pass' if passed else 'FAIL'} (" in out
    assert f"({method.split()[2]} comb, closed-form miss" in out
    assert "validation drift: pass" in out
    if not passed:
        # estimate_tcf rejects the comb, so run stops before it writes a result
        assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "comb violates the exact mapping condition" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def test_a_cc_run_checks_its_comb_once_in_the_estimate_and_once_for_the_manifest(tmp_path, monkeypatch):
    calls = []
    miss = estimators._mapping_miss

    def counted(F, terms):
        calls.append(F)
        return miss(F, terms)

    monkeypatch.setattr(estimators, "_mapping_miss", counted)
    monkeypatch.setattr(cli, "_mapping_miss", counted)
    text = BASE.replace("tcf.pairs = 1,1,1,1; 1,1,2,2", "tcf.pairs = 1,1,1,1; 1,1,2,2; 1,2,2,1; 2,2,1,1")
    cfg = load_config(write_config(tmp_path, text), overrides={"out": tmp_path / "o"})
    assert run_experiment(cfg).exit_code == 0
    assert calls == [2, 2]


def test_a_family_without_a_comb_prints_no_exact_mapping_line(tmp_path, capsys):
    # a non-cc family once got the exact_mapping line of a cmm stand-in at its
    # gamma, which at gamma = 1e9 missed by rounding (1.2e-7) and failed a run
    # whose estimates equal the gamma = 0 run's
    text = (
        "model.kind = random\nmodel.F = 3\nmodel.seed = 4\nmethod.family = hill_ww\nmethod.gamma = 1e9\n"
        "tcf.pairs = 1,1,2,2; 1,1,1,1\ntcf.n_times = 5\ntcf.n_traj = 2000\n"
    )
    path = write_config(tmp_path, text)
    for command, checks in (("run", ["drift", "moments"]), ("validate", ["drift"])):
        assert main([command, str(path), "--out", str(tmp_path / "o")]) == 0
        lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("validation ")]
        assert [ln.split()[1].rstrip(":") for ln in lines] == checks
        assert all(": pass (" in ln for ln in lines)


def test_moments_validation_fails_at_the_wrong_gamma(tmp_path, monkeypatch):
    # frames drawn at the Wigner gamma against the closed form of the sphere at 0
    cfg = load_config(write_config(tmp_path))
    H = build_hamiltonian(cfg.model)
    assert moments_line(run_validations(cfg, H, cli._estimates(cfg, H))).passed
    sphere_mean = estimators._sphere_mean
    monkeypatch.setattr(estimators, "_sphere_mean", lambda F, terms, b=0.5: sphere_mean(F, [(1.0, 0.0, None, None)], b))
    bad = moments_line(run_validations(cfg, H, cli._estimates(cfg, H)))
    assert not bad.passed
    assert "worst |dev|/SE" in bad.detail


def test_no_validation_sample_is_drawn_without_the_moments_check(tmp_path, monkeypatch, capsys):
    # no check draws a sample of its own: validate, which has no run to
    # judge, makes no estimate_tcf call, and run hands the check its results
    path = write_config(tmp_path)
    cfg = load_config(path)
    H = build_hamiltonian(cfg.model)
    results = cli._estimates(cfg, H)
    monkeypatch.setattr(cli, "estimate_tcf", None)
    assert [v.name for v in run_validations(cfg, H)] == ["exact_mapping", "drift"]
    assert main(["validate", str(path)]) == 0
    assert "validation moments" not in capsys.readouterr().out
    assert [v.name for v in run_validations(cfg, H, results)] == ["exact_mapping", "drift", "moments"]


def test_zero_variance_product_that_misses_fails(tmp_path, monkeypatch):
    # every ehrenfest trajectory has the same actions: the diagonal of its
    # frame moment has zero variance and must hit its closed form to 1e-12
    text = BASE.replace("method.family = cmm", "method.family = ehrenfest")
    cfg = load_config(write_config(tmp_path, text))
    H = build_hamiltonian(cfg.model)
    assert moments_line(run_validations(cfg, H, cli._estimates(cfg, H))).passed
    focus_mean = estimators._focus_mean
    monkeypatch.setattr(estimators, "_focus_mean", lambda F, side, on, off: focus_mean(F, side, on + 1e-9, off))
    bad = moments_line(run_validations(cfg, H, cli._estimates(cfg, H)))
    assert not bad.passed
    assert "zero-variance deviation" in bad.detail


def test_moments_check_needs_two_blocks(tmp_path, capsys):
    # one trajectory fills one block, which gives no jackknife SE; validate
    # judges no frames, so it has no moments line to fail
    path = write_config(tmp_path, BASE.replace("tcf.n_traj = 20000", "tcf.n_traj = 1"))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("validation moments")]
    assert line.startswith("validation moments: FAIL (tcf.n_traj = 1 ")
    assert "nan" not in line
    assert main(["validate", str(path)]) == 0
    assert "validation moments" not in capsys.readouterr().out


def test_run_with_few_trajectories_passes_the_moments_check(tmp_path):
    # tcf.n_traj below the block count leaves blocks empty: the limit widens
    for n_traj in (2, 3, 5, 10):
        for seed in range(5):
            text = BASE.replace("tcf.n_traj = 20000", f"tcf.n_traj = {n_traj}")
            text = text.replace("tcf.seed = 7", f"tcf.seed = {seed}")
            summary = run_experiment(load_config(write_config(tmp_path, text), overrides={"out": tmp_path / "o"}))
            assert summary.exit_code == 0, (n_traj, seed, str(moments_line(summary.validations)))


def test_moments_lines_and_results_are_the_same_at_one_and_two_threads(tmp_path):
    # gdtwa draws one ensemble per density side, each with its own check
    text = (
        "model.kind = random\nmodel.F = 3\nmodel.seed = 4\nmethod.family = gdtwa\n"
        "tcf.pairs = 1,1,2,2; 1,2,2,1; 2,2,1,1\ntcf.n_times = 5\ntcf.n_traj = 30000\n"
    )
    path = write_config(tmp_path, text)
    runs = [run_experiment(load_config(path, overrides={"out": tmp_path / f"t{t}", "threads": t})) for t in (1, 2)]
    assert runs[0].results_path.read_bytes() == runs[1].results_path.read_bytes()
    lines = [str(moments_line(r.validations)) for r in runs]
    assert lines[0] == lines[1]
    assert lines[0].startswith("validation moments: pass (gdtwa() frames, worst |dev|/SE = ")


def test_main_converge_bad_sizes(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(["converge", str(path), "--n", "abc,def", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not a number list" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["1e3,2.5e0,1e5", "1e3,1e4,1e400"])
def test_main_converge_rejects_sizes_that_are_not_whole(tmp_path, capsys, sizes):
    code = main(["converge", str(write_config(tmp_path)), "--n", sizes, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "not a number list" in capsys.readouterr().err


@pytest.mark.parametrize("sizes", ["0,10,100", "10,-5,100"])
def test_main_converge_rejects_sizes_below_one(tmp_path, capsys, sizes):
    code = main(["converge", str(write_config(tmp_path)), "--n", sizes, "--out", str(tmp_path / "o")])
    assert code == 1
    assert "usage error: --n: sizes must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_converge_needs_three_distinct_sizes(tmp_path, capsys):
    # a line through one size once printed a slope with a RankWarning and exit 0
    code = main(["converge", str(write_config(tmp_path)), "--n", "10,10,10", "--out", str(tmp_path / "o")])
    assert code == 1
    assert "usage error: --n: needs at least 3 distinct sizes, got '10,10,10'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_main_converge_exits_2_on_a_nan_error(tmp_path, capsys):
    # a lone hill_ww trajectory outside the density window divides by a zero denominator
    text = (
        "model.kind = random\nmodel.F = 3\nmethod.family = hill_ww\n"
        "tcf.pairs = 1,1,2,2\ntcf.t_max = 2\ntcf.n_times = 5\n"
    )
    code = main(["converge", str(write_config(tmp_path, text)), "--n", "1,2,3", "--out", str(tmp_path / "o")])
    assert code == 2
    captured = capsys.readouterr()
    assert "slope = nan" in captured.out
    assert "max_error is NaN at n = 1, 2, 3" in captured.err
    rows = (tmp_path / "o" / "convergence.csv").read_text().splitlines()
    assert rows[-3:] == ["1,nan", "2,nan", "3,nan"]


def test_main_converge_runs(tmp_path, capsys):
    path = write_config(tmp_path)
    code = main(
        ["converge", str(path), "--n", "1e3,1e4,1e5", "--out", str(tmp_path / "conv")]
    )
    assert code == 0
    assert "slope" in capsys.readouterr().out
    assert (tmp_path / "conv" / "convergence.csv").exists()


def test_main_rk4_gdtwa_three_level(tmp_path):
    # multiframe rk4 through the full pipeline
    text = (
        "model.kind = random\n"
        "model.F = 3\n"
        "model.seed = 4\n"
        "method.family = gdtwa\n"
        "tcf.pairs = 1,1,1,1\n"
        "tcf.t_max = 2\n"
        "tcf.n_times = 3\n"
        "tcf.n_traj = 4000\n"
        "tcf.backend = rk4\n"
        "tcf.dt = 0.01\n"
    )
    path = write_config(tmp_path, text)
    code = main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_run_flags_zero_variance_points(tmp_path):
    # every ehrenfest population trajectory carries the same value, so the
    # SE is rounding noise: err/SE is NaN and left out of the worst ratio
    text = (
        "model.kind = random\n"
        "model.F = 3\n"
        "model.seed = 4\n"
        "method.family = ehrenfest\n"
        "tcf.pairs = 1,1,2,2\n"
        "tcf.t_max = 2\n"
        "tcf.n_times = 5\n"
        "tcf.n_traj = 4000\n"
        "tcf.backend = rk4\n"
        "tcf.dt = 0.01\n"
    )
    path = write_config(tmp_path, text)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    data = [
        ln.split(",")
        for ln in (tmp_path / "out" / "results.csv").read_text().splitlines()
        if ln and not ln.startswith(("#", "n,"))
    ]
    assert len(data) == 5
    assert all(row[-1] == "nan" for row in data)
    assert all(float(row[7]) <= 1e-12 for row in data)
    assert "zero_variance_points: 5" in (tmp_path / "out" / "manifest.txt").read_text()
    summary = run_experiment(load_config(path, overrides={"out": tmp_path / "again"}))
    assert summary.max_error_over_se == 0.0


def test_run_counts_nan_points(tmp_path):
    # two triangle_ww trajectories whose summed window vanishes at t = 2:
    # that estimate is 0/0, and the manifest says so
    text = (
        "model.kind = random\n"
        "model.F = 3\n"
        "model.seed = 4\n"
        "method.family = triangle_ww\n"
        "tcf.pairs = 1,1,2,2\n"
        "tcf.t_max = 2\n"
        "tcf.n_times = 5\n"
        "tcf.n_traj = 2\n"
        "tcf.seed = 65\n"
    )
    summary = run_experiment(load_config(write_config(tmp_path, text), overrides={"out": tmp_path / "out"}))
    data = [
        ln.split(",")
        for ln in summary.results_path.read_text().splitlines()
        if ln and not ln.startswith(("#", "n,"))
    ]
    nan_rows = [row for row in data if "nan" in (row[5], row[6], row[7])]
    assert [row[4] for row in nan_rows] == ["2.0"]
    assert summary.nan_points == 1
    assert summary.exit_code == 0
    assert math.isfinite(summary.max_error_over_se)
    assert "nan_points: 1" in summary.manifest_path.read_text()
