"""Generators: determinism, statistics, spectra, container format."""

import math

import numpy as np
import pytest

from dalsparse import (
    DalpFormatError,
    GenSpec,
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

    @staticmethod
    def svd_route(design):
        u, _, vt = np.linalg.svd(design, full_matrices=False)
        return (u / np.arange(1, min(design.shape) + 1)) @ vt

    @pytest.mark.parametrize(
        "design",
        [gen_gaussian_design(64, 256, seed=s) for s in range(1, 6)]
        + [np.random.default_rng(11).standard_normal((96, 40))],
        ids=[f"poor-m64-seed{s}" for s in range(1, 6)] + ["tall-96x40"],
    )
    def test_matches_svd_reconstruction(self, design):
        ref = self.svd_route(design)
        out = impose_power_law_spectrum(design)
        assert out.shape == design.shape
        assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", [(64, 64), (120, 48)])
    def test_square_and_tall_spectra(self, shape):
        a = impose_power_law_spectrum(np.random.default_rng(12).standard_normal(shape))
        s = np.linalg.svd(a, compute_uv=False)
        np.testing.assert_allclose(s, 1.0 / np.arange(1, min(shape) + 1), rtol=1e-9)

    def test_rank_deficient_input_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            impose_power_law_spectrum(np.zeros((3, 5)))
        a = np.random.default_rng(13).standard_normal((6, 20))
        a[4] = a[1]
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient"):
            impose_power_law_spectrum(a)


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

    @pytest.mark.parametrize(
        "family, size",
        [("normal", dict(m=2.5)), ("normal", dict(m=16, n=40.0)), ("poor", dict(m=True)),
         ("normal", dict(m=0)), ("largescale", dict(n=-1)), ("largescale", dict(n=64, m=8.0))],
    )
    def test_sizes_must_be_positive_integers(self, family, size):
        with pytest.raises(ValueError, match="must be an integer of at least 1"):
            resolve_spec(GenSpec(family=family, **size))
        with pytest.raises(ValueError, match="must be an integer of at least 1"):
            gen_gaussian_design(size.get("m", 8), size.get("n", 32), seed=1)

    def test_family_lam_defaults_are_exact(self):
        assert resolve_spec(GenSpec(family="normal", m=16)).lam == 0.025
        assert resolve_spec(GenSpec(family="poor", m=16)).lam == 0.0003
        assert resolve_spec(GenSpec(family="largescale", n=64)).lam == 1.6 / math.sqrt(64)
        gen = generate(GenSpec("largescale", n=4096, seed=1))
        assert gen.problem.lam == 1.6 / math.sqrt(4096)

    def test_lambda_rule_override(self):
        gen = generate(GenSpec(family="normal", m=16, lam=0.4, seed=15))
        assert gen.problem.lam == 0.4

    @pytest.mark.parametrize("value", [0.0, -0.4, np.inf, np.nan])
    def test_lambda_rule_value_must_be_finite_and_positive(self, value):
        with pytest.raises(ValueError, match="lam must be finite and positive"):
            GenSpec(family="normal", m=16, lam=value)

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="family must be one of"):
            GenSpec(family="uniform", m=16)

    @pytest.mark.parametrize("density", [0.0, 1.5, np.nan])
    def test_density_must_lie_in_unit_interval(self, density):
        with pytest.raises(ValueError, match=r"density must lie in \(0, 1\]"):
            GenSpec(family="normal", m=16, density=density)
        with pytest.raises(ValueError, match=r"density must lie in \(0, 1\]"):
            gen_sparse_coeffs(64, density, seed=1)

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


class TestGenSpecSeed:
    """A seed is a 64-bit Philox key: it lies in [0, 2**64)."""

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_out_of_range_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            GenSpec(family="normal", m=4, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_bounds_accepted(self, seed):
        assert generate(GenSpec(family="normal", m=4, seed=seed)).seed == seed

    @pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, "1"])
    def test_non_integral_rejected(self, seed):
        # 1.5 and 1.9 would otherwise draw seed 1's problem under seed 1.5.
        with pytest.raises(ValueError, match="seed must lie in"):
            GenSpec(family="normal", m=16, seed=seed)

    def test_numpy_integer_accepted(self):
        gen = generate(GenSpec(family="normal", m=4, seed=np.int64(3)))
        same = generate(GenSpec(family="normal", m=4, seed=3))
        np.testing.assert_array_equal(gen.problem.design, same.problem.design)


class TestGenSpecNoise:
    """A noise variance is finite and nonnegative."""

    @pytest.mark.parametrize("noise", [-1.0, float("inf"), float("nan")])
    def test_invalid_rejected(self, noise):
        with pytest.raises(ValueError, match="noise_variance"):
            GenSpec(family="normal", m=4, noise_variance=noise)

    def test_zero_accepted(self):
        p = generate(GenSpec(family="normal", m=4, noise_variance=0.0)).problem
        assert np.all(np.isfinite(p.observations))


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

    @pytest.mark.parametrize("m, n, lam", [(0, 8, 0.025), (4, 0, 0.025),
                                           (4, 8, float("inf"))])
    def test_header_of_invalid_problem_rejected(self, tmp_path, m, n, lam):
        # Length-consistent containers whose header no problem can have.
        path = tmp_path / "p.dalp"
        path.write_bytes(b"DALP" + (1).to_bytes(4, "little") + m.to_bytes(8, "little")
                         + n.to_bytes(8, "little") + np.float64(lam).tobytes()
                         + bytes(8 * (m * n + m + n)))
        with pytest.raises(DalpFormatError, match="invalid header"):
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
