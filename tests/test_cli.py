"""Config parsing and the experiment runner end to end."""

import math
import re
import subprocess

import numpy as np
import pytest

from cpsmap import __version__, cli
from cpsmap.cli import (
    ConfigError,
    ExperimentConfig,
    _check_products,
    _product_sums,
    _validate_drift,
    _validate_exact_mapping,
    _validate_moments,
    _version_string,
    convergence_study,
    load_config,
    main,
    parse_config_text,
    run_experiment,
    run_validations,
)
from cpsmap.cps import gamma_wigner, sample_sphere_batch
from cpsmap.dynamics import grid_march
from cpsmap.estimators import POOL_ROWS as CHECK_ROWS, MethodSpec
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
validate.n_traj = 20000
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


def test_load_config_model_file(tmp_path):
    H = build_hamiltonian(ModelSpec.ladder(3))
    hpath = tmp_path / "h.txt"
    save_hamiltonian(hpath, H)
    text = f"model.kind = file\nmodel.path = {hpath}\nmethod.family = gdtwa\n"
    cfg = load_config(write_config(tmp_path, text))
    assert np.array_equal(build_hamiltonian(cfg.model), H)


def test_experiment_config_validation():
    with pytest.raises(ConfigError, match="n_times"):
        ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], n_times=1)
    with pytest.raises(ConfigError, match="t_max"):
        ExperimentConfig(ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], t_max=0.0)
    for n in (0, 1):
        with pytest.raises(ConfigError, match="validate.n_traj"):
            ExperimentConfig(
                ModelSpec.two_level(1.0), MethodSpec.cmm(0.0), [((1, 1), (1, 1))], validate_n_traj=n
            )
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


def test_main_rejects_bad_threads_and_run_length(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path), "--threads", "-4", "--out", str(tmp_path / "o")]) == 1
    assert "tcf.threads" in capsys.readouterr().err
    path = write_config(tmp_path, BASE + "tcf.t_max = nan\n")
    assert main(["validate", str(path)]) == 1
    assert "tcf.t_max" in capsys.readouterr().err


def test_version_falls_back_when_git_describe_times_out(monkeypatch):
    def hang(*args, **kwargs):
        raise subprocess.TimeoutExpired(args[0], kwargs.get("timeout"))

    monkeypatch.setattr(subprocess, "run", hang)
    assert _version_string() == __version__


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
    code = main(["validate", str(path)])
    assert code == 0
    assert "validation moments: pass" in capsys.readouterr().out


def test_main_validate_is_the_same_at_any_thread_count(tmp_path, capsys):
    path = write_config(tmp_path)
    printed = []
    for threads in ("1", "2"):
        assert main(["validate", str(path), "--threads", threads]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0].count("validation ") == 3
    assert printed[0] == printed[1]


def test_main_validation_failure_exit_code(tmp_path, capsys):
    # a coarse rk4 step drifts far beyond the invariant tolerance
    text = BASE + "tcf.backend = rk4\ntcf.dt = 0.5\nvalidate.exact_mapping = false\nvalidate.moments = false\n"
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


def sphere_sample(F, gamma, n=20000, seed=5):
    return sample_sphere_batch(F, gamma, np.random.default_rng(seed), n)


def chunk_sums(sums, Z):
    return [sums(Z[lo:lo + CHECK_ROWS]) for lo in range(0, len(Z), CHECK_ROWS)]


def moment_sums(Z):
    return chunk_sums(lambda c: _product_sums(c, c.conj()), Z)


def test_exact_mapping_validation_fails_on_the_wrong_sphere(monkeypatch):
    assert _validate_exact_mapping(3, 0.0).passed
    # inverse-kernel coefficients of the sphere at gamma = 1 fail the closed form at 0
    monkeypatch.setattr(cli, "inverse_kernel_coefficients", lambda F, g: inverse_kernel_coefficients(F, 1.0))
    bad = _validate_exact_mapping(3, 0.0)
    assert not bad.passed
    assert "closed-form miss" in bad.detail
    # and a sample of that sphere fails the moments check at 0
    assert not _validate_moments(moment_sums(sphere_sample(3, 1.0)), 3, 0.0).passed


def test_moments_validation_fails_at_the_wrong_gamma():
    Z = sphere_sample(3, gamma_wigner(3))
    assert _validate_moments(moment_sums(Z), 3, gamma_wigner(3)).passed
    bad = _validate_moments(moment_sums(Z), 3, 0.0)
    assert not bad.passed
    assert "worst |dev|/SE" in bad.detail


def one_pass_worst(A, B, target):
    # one np.mean and np.std(ddof=1) per column pair
    return max(
        abs(np.mean(A[:, i] * B[:, j]) - target[i, j])
        / (np.std(A[:, i] * B[:, j], ddof=1) / np.sqrt(len(A)))
        for i in range(A.shape[1])
        for j in range(B.shape[1])
    )


def test_check_products_matches_per_product_mean_and_std():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(500, 3)) + 1j * rng.normal(size=(500, 3))
    B = rng.normal(size=(500, 2)) + 0.5
    target = np.full((3, 2), 0.1)
    worst = one_pass_worst(A, B, target)
    got = _check_products("x", "label", [_product_sums(A, B)], target)
    assert got.detail == f"label, worst |dev|/SE = {worst:.2f} (limit 5)"
    assert got.passed == (worst <= 5.0)


def test_validation_chunks_match_a_one_pass_reference(tmp_path, monkeypatch):
    # 20 001 rows: two full chunks and a last partial one
    text = BASE.replace("validate.n_traj = 20000", "validate.n_traj = 20001")
    cfg = load_config(write_config(tmp_path, text), overrides={"threads": 2})
    F, g = 2, gamma_wigner(2)
    seen = {}

    def spy(name, label, parts, target):
        seen[name] = list(parts)
        return _check_products(name, label, seen[name], target)

    monkeypatch.setattr(cli, "_check_products", spy)
    got = {v.name: v.detail for v in run_validations(cfg, build_hamiltonian(cfg.model))}
    sizes = (CHECK_ROWS, CHECK_ROWS, 20001 - 2 * CHECK_ROWS)
    streams = [
        np.random.Generator(np.random.Philox(np.random.SeedSequence(7 + 101, spawn_key=(c,))))
        for c in range(len(sizes))
    ]
    chunks = [sample_sphere_batch(F, g, rng, n) for rng, n in zip(streams, sizes)]
    # chunk c's partial sums come from its own stream, in chunk order
    for c, Zc in enumerate(chunks):
        want = _product_sums(Zc, Zc.conj())
        assert [np.asarray(x).tobytes() for x in seen["moments"][c]] == [
            np.asarray(x).tobytes() for x in want
        ]
    # the exact-mapping check is a closed form and reads no sample
    assert list(seen) == ["moments"]

    Z = np.concatenate(chunks)
    worst = one_pass_worst(Z, Z.conj(), 2.0 * (1.0 + F * g) / F * np.eye(F))
    assert got["moments"] == f"gamma={g:.6g}, worst |dev|/SE = {worst:.2f} (limit 5)"


def test_no_validation_sample_is_drawn_without_the_moments_check(tmp_path, monkeypatch):
    cfg = load_config(write_config(tmp_path, BASE + "validate.moments = false\n"))
    monkeypatch.setattr(cli, "_run_blocks", None)
    assert [v.name for v in run_validations(cfg, build_hamiltonian(cfg.model))] == ["exact_mapping", "drift"]


def test_zero_variance_product_that_misses_fails():
    # at F = 1 every |z|^2 is 2(1 + gamma): the one moment has zero variance
    Z = sphere_sample(1, 0.5)
    assert _validate_moments(moment_sums(Z), 1, 0.5).passed
    bad = _validate_moments(moment_sums(Z), 1, 0.4)
    assert not bad.passed
    assert "zero-variance deviation" in bad.detail


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
        "validate.n_traj = 20000\n"
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
        "validate.n_traj = 20000\n"
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
        "tcf.seed = 0\n"
        "validate.n_traj = 2000\n"
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
    assert math.isfinite(summary.max_error_over_se)
    assert "nan_points: 1" in summary.manifest_path.read_text()
