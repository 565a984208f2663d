"""Generators: determinism, statistics, spectra, container format."""

import numpy as np
import pytest

from dalsparse import (
    DalpFormatError,
    GenSpec,
    LambdaRule,
    SolverConfig,
    estimate_spectral_norm_sq,
    export_problem_csv,
    gen_gaussian_design,
    gen_sparse_coeffs,
    generate,
    impose_power_law_spectrum,
    load_problem,
    resolve_spec,
    save_problem,
    solve,
)


class TestGaussianDesign:
    def test_deterministic_per_seed(self):
        a = gen_gaussian_design(128, 512, seed=7)
        b = gen_gaussian_design(128, 512, seed=7)
        np.testing.assert_array_equal(a, b)
        c = gen_gaussian_design(128, 512, seed=8)
        assert not np.array_equal(a, c)

    def test_entry_variance_close_to_target(self):
        a = gen_gaussian_design(100, 400, seed=1)
        target = 1.0 / (2 * 400)
        assert np.var(a) == pytest.approx(target, rel=0.05)

    def test_entry_mean_within_clt_bound(self):
        a = gen_gaussian_design(100, 400, seed=2)
        sigma = np.sqrt(1.0 / (2 * 400))
        assert abs(a.mean()) <= 3 * sigma / np.sqrt(a.size)

    def test_largest_singular_value_near_one(self):
        a = gen_gaussian_design(512, 2048, seed=3)
        top = np.sqrt(estimate_spectral_norm_sq(a))
        assert 0.8 <= top <= 1.2


class TestSparseCoeffs:
    def test_four_percent_rule(self):
        w = gen_sparse_coeffs(100, 0.04, seed=4)
        nz = w[w != 0]
        assert nz.size == 4
        assert set(np.unique(nz)).issubset({-1.0, 1.0})

    def test_full_density_has_no_zeros(self):
        w = gen_sparse_coeffs(64, 1.0, seed=5)
        assert np.count_nonzero(w) == 64

    def test_seeds_give_different_supports(self):
        a = gen_sparse_coeffs(200, 0.04, seed=6)
        b = gen_sparse_coeffs(200, 0.04, seed=7)
        assert not np.array_equal(a, b)

    def test_count_uses_round_half_to_even(self):
        # 0.5*3 = 1.5 -> 2 and 0.5*5 = 2.5 -> 2 under banker's rounding
        assert np.count_nonzero(gen_sparse_coeffs(3, 0.5, seed=8)) == 2
        assert np.count_nonzero(gen_sparse_coeffs(5, 0.5, seed=8)) == 2


class TestPowerLawSpectrum:
    def test_singular_values_follow_inverse_index(self):
        rng = np.random.default_rng(9)
        a = impose_power_law_spectrum(rng.standard_normal((30, 80)))
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, 1.0 / np.arange(1, 31), rtol=1e-8)

    def test_condition_number_equals_row_count(self):
        rng = np.random.default_rng(10)
        a = impose_power_law_spectrum(rng.standard_normal((25, 100)))
        s = np.linalg.svd(a, compute_uv=False)
        assert s[0] / s[-1] == pytest.approx(25.0, rel=1e-6)

    def test_1x1_matrix_has_unit_magnitude(self):
        out = impose_power_law_spectrum(np.array([[-0.3]]))
        assert abs(out[0, 0]) == pytest.approx(1.0)

    def test_nonfinite_input_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            impose_power_law_spectrum(np.array([[np.nan, 1.0], [0.0, 2.0]]))


class TestGenerate:
    def test_normal_family_defaults(self):
        gen = generate(GenSpec(family="normal", m=128, seed=11))
        assert gen.problem.m == 128
        assert gen.problem.n == 512
        assert gen.problem.lam == 0.025
        assert np.count_nonzero(gen.true_coeffs) == round(0.04 * 512)

    def test_largescale_family_defaults(self):
        gen = generate(GenSpec(family="largescale", n=4096, seed=12))
        assert gen.problem.m == 1024
        assert gen.problem.lam == pytest.approx(0.025)

    def test_poor_family_is_noise_free(self):
        gen = generate(GenSpec(family="poor", m=64, seed=13))
        assert gen.problem.lam == 0.0003
        residual = gen.problem.observations - gen.problem.design @ gen.true_coeffs
        assert np.abs(residual).max() == 0.0

    def test_generate_is_pure_function_of_spec(self):
        spec = GenSpec(family="normal", m=32, seed=14)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.problem.design, b.problem.design)
        np.testing.assert_array_equal(a.problem.observations, b.problem.observations)
        np.testing.assert_array_equal(a.true_coeffs, b.true_coeffs)

    def test_resolution_errors(self):
        with pytest.raises(ValueError):
            resolve_spec(GenSpec(family="normal"))
        with pytest.raises(ValueError):
            resolve_spec(GenSpec(family="largescale"))
        with pytest.raises(ValueError):
            resolve_spec(GenSpec(family="poor", m=4096))

    def test_lambda_rule_override(self):
        gen = generate(GenSpec(family="normal", m=16,
                               lambda_rule=LambdaRule("fixed", 0.4), seed=15))
        assert gen.problem.lam == 0.4

    def test_explicit_n_overrides_family_rule(self):
        gen = generate(GenSpec(family="normal", m=16, n=100, seed=15))
        assert (gen.problem.m, gen.problem.n) == (16, 100)
        assert np.count_nonzero(gen.true_coeffs) == round(0.04 * 100)

    def test_support_recovery_sanity(self):
        # the exact optimum at these settings keeps every true coordinate but
        # adds extra small ones, so coverage is the sharp check and the
        # Jaccard floor guards against gross support inflation
        coverage = []
        jaccard = []
        for seed in range(1, 11):
            gen = generate(GenSpec(family="normal", m=256, seed=seed))
            report = solve(gen.problem,
                           SolverConfig(outer_tolerance=1e-4, inner_variant="pcg"))
            true_support = set(np.flatnonzero(gen.true_coeffs))
            est_support = set(np.flatnonzero(report.w_final))
            coverage.append(len(true_support & est_support) / len(true_support))
            jaccard.append(len(true_support & est_support) / len(true_support | est_support))
        assert np.mean(coverage) >= 0.8
        assert np.mean(jaccard) >= 0.5


class TestProblemFiles:
    def test_round_trip_bitwise(self, tmp_path):
        gen = generate(GenSpec(family="normal", m=16, seed=16))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        loaded = load_problem(path)
        np.testing.assert_array_equal(loaded.problem.design, gen.problem.design)
        np.testing.assert_array_equal(loaded.problem.observations,
                                      gen.problem.observations)
        np.testing.assert_array_equal(loaded.true_coeffs, gen.true_coeffs)
        assert loaded.problem.lam == gen.problem.lam
        assert loaded.seed is None

    def test_header_layout_normative(self, tmp_path):
        gen = generate(GenSpec(family="normal", m=4, n=8, seed=17))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        raw = path.read_bytes()
        assert raw[:4] == b"DALP"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:16], "little") == 4
        assert int.from_bytes(raw[16:24], "little") == 8
        assert np.frombuffer(raw[24:32], dtype="<f8")[0] == gen.problem.lam
        assert len(raw) == 32 + 8 * (4 * 8 + 4 + 8)
        # first column of the design leads the payload (column-major order)
        first_col = np.frombuffer(raw[32 : 32 + 8 * 4], dtype="<f8")
        np.testing.assert_array_equal(first_col, gen.problem.design[:, 0])

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.dalp"
        path.write_bytes(b"NOPE" + bytes(28))
        with pytest.raises(DalpFormatError):
            load_problem(path)

    def test_truncated_file_rejected(self, tmp_path):
        gen = generate(GenSpec(family="normal", m=4, n=8, seed=18))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(DalpFormatError):
            load_problem(path)

    def test_unsupported_version_rejected(self, tmp_path):
        gen = generate(GenSpec(family="normal", m=4, n=8, seed=19))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(DalpFormatError):
            load_problem(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        gen = generate(GenSpec(family="normal", m=4, n=8, seed=21))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        path.write_bytes(path.read_bytes() + bytes(8))
        with pytest.raises(DalpFormatError, match="does not match header"):
            load_problem(path)

    def test_file_shorter_than_header_rejected(self, tmp_path):
        path = tmp_path / "short.dalp"
        path.write_bytes(b"DALP" + bytes(20))
        with pytest.raises(DalpFormatError, match="too short"):
            load_problem(path)

    def test_huge_header_rejected_before_allocation(self, tmp_path):
        # m*n*8 bytes would be 2**83: the length check must fire before any read
        path = tmp_path / "huge.dalp"
        path.write_bytes(b"DALP" + (1).to_bytes(4, "little")
                         + (2**40).to_bytes(8, "little") * 2 + bytes(8))
        with pytest.raises(DalpFormatError, match="does not match header"):
            load_problem(path)

    @pytest.mark.parametrize("lam", [0.0, -0.5, float("nan")])
    def test_non_positive_lambda_rejected(self, tmp_path, lam):
        gen = generate(GenSpec(family="normal", m=4, n=8, seed=22))
        path = tmp_path / "p.dalp"
        save_problem(path, gen)
        raw = bytearray(path.read_bytes())
        raw[24:32] = np.float64(lam).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(DalpFormatError, match="lambda"):
            load_problem(path)

    def test_csv_export_round_trips_values(self, tmp_path):
        import csv

        gen = generate(GenSpec(family="normal", m=3, n=6, seed=20))
        path = tmp_path / "p.csv"
        export_problem_csv(path, gen)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "i", "j", "value"]
        meta = rows[1]
        assert meta[0] == "meta" and int(meta[1]) == 3 and int(meta[2]) == 6
        a_rows = [r for r in rows if r[0] == "A"]
        assert len(a_rows) == 18
        rebuilt = np.zeros((3, 6))
        for r in a_rows:
            rebuilt[int(r[1]), int(r[2])] = float(r[3])
        np.testing.assert_array_equal(rebuilt, gen.problem.design)
        b_rows = [r for r in rows if r[0] == "b"]
        np.testing.assert_array_equal(
            [float(r[3]) for r in b_rows], gen.problem.observations
        )
