"""Generator oracles: distribution identities, Monte Carlo bands, determinism.

Monte Carlo assertions use fixed seeds, so they are deterministic; bands are
set at 4 standard errors to leave real failures visible without flakiness if
seeds change.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy import stats

from promolab import datagen
from promolab.datagen import (
    FeatureConfig,
    GenConfig,
    GroundTruth,
    RctDataset,
    cpg_parameters,
    generate_rct,
    load_ground_truth_csv,
    redraw_outcomes,
    sample_cpg,
)
from promolab.errors import ValidationError
from promolab.nncore import make_rng

from oracles import BAD_ARMS, with_second


class TestCpgParameters:
    @pytest.mark.parametrize("mu", [0.1, 1.0, 7.3])
    @pytest.mark.parametrize("phi", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("rho", [1.1, 1.5, 1.9])
    def test_mean_identity(self, mu, phi, rho):
        lam, alpha, theta = cpg_parameters(mu, phi, rho)
        assert abs(lam * alpha * theta - mu) < 1e-12 * max(1.0, mu)

    def test_zero_probability_formula(self):
        # P(0) = exp(-lambda); for mu=2, phi=1, rho=1.5: lambda = 2 sqrt(2)
        lam, _, _ = cpg_parameters(2.0, 1.0, 1.5)
        assert abs(lam - 2.0 * np.sqrt(2.0)) < 1e-12

    def test_variance_matches_phi_mu_rho(self):
        # Var = lambda * alpha * (alpha + 1) * theta^2 = phi * mu^rho
        mu, phi, rho = 3.0, 2.0, 1.4
        lam, alpha, theta = cpg_parameters(mu, phi, rho)
        assert abs(lam * alpha * (alpha + 1) * theta**2 - phi * mu**rho) < 1e-10


class TestSampleCpg:
    def test_moments_and_zero_mass(self):
        mu, phi, rho = 2.0, 1.0, 1.5
        n = 200_000
        draws = sample_cpg(np.full(n, mu), phi, rho, make_rng(3001))
        lam, _, _ = cpg_parameters(mu, phi, rho)
        p0 = np.exp(-lam)
        se_zero = np.sqrt(p0 * (1 - p0) / n)
        assert abs(np.mean(draws == 0.0) - p0) < 4 * se_zero
        se_mean = np.sqrt(phi * mu**rho / n)
        assert abs(draws.mean() - mu) < 4 * se_mean

    def test_exact_zeros_not_tiny_values(self):
        draws = sample_cpg(np.full(1000, 0.3), 2.0, 1.6, make_rng(5))
        assert np.all((draws == 0.0) | (draws > 1e-12))
        assert np.any(draws == 0.0)

    def test_scalar_path(self):
        rng = make_rng(6)
        x = sample_cpg(2.0, 1.0, 1.5, rng)
        assert isinstance(x, float) and x >= 0.0

    def test_heterogeneous_mu(self):
        mu = np.array([0.5, 5.0])
        draws = np.array([sample_cpg(mu, 1.0, 1.5, make_rng(7, i)) for i in range(4000)])
        assert abs(draws[:, 0].mean() - 0.5) < 0.1
        assert abs(draws[:, 1].mean() - 5.0) < 0.3

    def test_domain_validation(self):
        rng = make_rng(0)
        with pytest.raises(ValidationError):
            sample_cpg(1.0, 1.0, 2.5, rng)
        with pytest.raises(ValidationError):
            sample_cpg(-1.0, 1.0, 1.5, rng)
        with pytest.raises(ValidationError):
            sample_cpg(1.0, 0.0, 1.5, rng)


def _logit(p):
    return np.log(p / (1.0 - p))


class TestSurfaces:
    LAYOUTS = ([0.0, 1.0, 2.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0], [0.5, 3.0, 0.0, 2.5])
    ROWS = np.array([[10.0, 5.0, 1.0, 2.0, 1.0], [60.0, 12.0, 4.0, 8.0, 3.0], [400.0, 1.0, 0.0, 90.0, 0.1]])

    @pytest.mark.parametrize("world", ["default", "decorrelated"])
    def test_control_column_ignores_the_other_coupons(self, world):
        # the control arm carries no arm effect and no interaction, so its
        # column is the same bytes whatever the other coupons are and wherever the zero sits
        columns = []
        for coupons in self.LAYOUTS:
            cfg = GenConfig(n_customers=10, coupon_values=np.array(coupons), world=world)
            columns.append([surface[:, cfg.control_arm].tobytes() for surface in cfg.surfaces(self.ROWS)])
        assert all(c == columns[0] for c in columns[1:]), world

    def test_unknown_world_rejected(self):
        with pytest.raises(ValidationError, match="generation.world must be one of .*, got 'exotic'"):
            GenConfig(n_customers=10, world="exotic")

    def test_effects_monotone_in_coupon(self):
        cfg = GenConfig(n_customers=10, coupon_values=np.array([0.0, 1.0, 2.0, 3.0]))
        p, _, _ = cfg.surfaces(np.array([40.0, 9.0, 2.0, 3.7, 2.2]))
        assert np.all(np.diff(p[0]) > 0)

    @pytest.mark.parametrize("world", ["default", "decorrelated"])
    def test_one_row_is_one_row_of_a_batch(self, world):
        cfg = GenConfig(n_customers=10, coupon_values=np.array([1.0, 0.0, 2.0]), world=world)
        batch = cfg.surfaces(self.ROWS)
        # a one-row matmul may round differently from a batch one, in the last bit
        for i, row in enumerate(self.ROWS):
            for one, many, atol in zip(cfg.surfaces(row), batch, (1e-15, 1e-12, 1e-12)):
                assert one.shape == (1, 3)
                np.testing.assert_allclose(one[0], many[i], rtol=0, atol=atol)


class TestGenConfigValidation:
    def test_exactly_one_zero_coupon(self):
        with pytest.raises(ValidationError):
            GenConfig(n_customers=10, coupon_values=np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValidationError):
            GenConfig(n_customers=10, coupon_values=np.array([0.5, 1.0]))

    @pytest.mark.parametrize("coupons", [[0.0, 0.5, 1.0], [1.0, 0.0], [2.5, 1.0, 0.0]])
    def test_default_world_direct_coupon_slope(self, coupons):
        # at the feature center z = 0 and the interactions vanish, so the direct
        # logit over the control's is the default world's coupon slope 0.30 times the coupon
        cfg = GenConfig(n_customers=10, coupon_values=np.array(coupons))
        p, _, _ = cfg.surfaces(datagen._DEFAULT_CENTER)
        lift = _logit(p[0]) - _logit(p[0, cfg.control_arm])
        np.testing.assert_allclose(lift, 0.30 * cfg.coupon_values, rtol=0, atol=1e-12)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            GenConfig(
                n_customers=10,
                coupon_values=np.array([0.0, 1.0]),
                assignment_probs=np.array([0.5, 0.4]),
            )

    def test_default_probs_uniform(self):
        cfg = GenConfig(n_customers=10, coupon_values=np.array([0.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(cfg.assignment_probs, 0.25)
        assert cfg.control_arm == 0

    @pytest.mark.parametrize("n", [2.5, 10.0, True, "10"], ids=["fraction", "float", "bool", "str"])
    def test_n_customers_must_be_an_integer(self, n):
        with pytest.raises(ValidationError, match="n_customers must be an integer"):
            GenConfig(n_customers=n)

    def test_numpy_integer_n_customers_accepted(self):
        assert GenConfig(n_customers=np.int64(10)).n_customers == 10


class TestFeatureConfigValidation:
    """Every value numpy's samplers would reject, or a non-number, is a ValidationError."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("recency_p", 1.5),
            ("recency_p", 0.0),
            ("freq_long_p", -0.1),
            ("freq_short_p", 2.0),
            ("freq_long_n", 0),
            ("freq_short_n", -1),
            ("money_long_log_sd", -1.0),
            ("money_short_log_sd", -0.5),
            ("money_long_log_mean", np.nan),
            ("money_short_log_mean", np.inf),
            ("recency_p", "abc"),
            ("freq_long_n", None),
            ("freq_short_p", True),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"features.{field}"):
            FeatureConfig(**{field: value})

    def test_boundary_values_sample(self):
        # p = 1 and a zero log sd are the samplers' own limits, and numpy
        # integers pass as numbers
        config = FeatureConfig(
            recency_p=1.0, freq_long_p=1.0, freq_short_n=np.int64(1), money_long_log_sd=0.0
        )
        rows = config.sample([make_rng(0, k) for k in range(5)], 20)
        assert rows.shape == (20, 5) and np.all(np.isfinite(rows))
        assert np.all(rows[:, 0] == 1) and np.all(rows[:, 3] == np.exp(1.0))


class TestGenerateRct:
    def test_deterministic(self, small_world):
        cfg, dataset, _ = small_world
        again, _ = generate_rct(cfg)
        np.testing.assert_array_equal(dataset.features, again.features)
        np.testing.assert_array_equal(dataset.arm, again.arm)
        np.testing.assert_array_equal(dataset.s, again.s)
        np.testing.assert_array_equal(dataset.y, again.y)

    def test_customer_streams_do_not_depend_on_population_size(self):
        base = GenConfig(n_customers=40, coupon_values=np.array([0.0, 1.0]), seed=9)
        bigger = GenConfig(n_customers=80, coupon_values=np.array([0.0, 1.0]), seed=9)
        d1, t1 = generate_rct(base)
        d2, t2 = generate_rct(bigger)
        np.testing.assert_array_equal(d1.features, d2.features[:40])
        np.testing.assert_array_equal(d1.arm, d2.arm[:40])
        np.testing.assert_array_equal(d1.s, d2.s[:40])
        np.testing.assert_array_equal(d1.y, d2.y[:40])
        np.testing.assert_array_equal(t1.p_direct, t2.p_direct[:40])
        np.testing.assert_array_equal(t1.mu_promo_given_direct, t2.mu_promo_given_direct[:40])
        np.testing.assert_array_equal(t1.mu_post, t2.mu_post[:40])

    def test_arm_independent_of_features(self, small_world):
        _, dataset, _ = small_world
        # bin a feature and test independence from the assigned arm
        bins = np.digitize(dataset.features[:, 0], np.quantile(dataset.features[:, 0], [0.25, 0.5, 0.75]))
        table = np.zeros((4, int(dataset.arm.max()) + 1))
        for b, a in zip(bins, dataset.arm):
            table[b, a] += 1
        assert stats.chi2_contingency(table).pvalue > 1e-4

    def test_assignment_matches_probs(self):
        cfg = GenConfig(
            n_customers=8000,
            coupon_values=np.array([0.0, 1.0, 2.0]),
            assignment_probs=np.array([0.5, 0.3, 0.2]),
            seed=11,
        )
        dataset, _ = generate_rct(cfg)
        freq = np.bincount(dataset.arm, minlength=3) / dataset.n
        assert np.all(np.abs(freq - cfg.assignment_probs) < 4 * np.sqrt(0.25 / dataset.n))

    def test_direct_flag_rate_matches_truth(self, small_world):
        _, dataset, truth = small_world
        rows = np.arange(dataset.n)
        p = truth.p_direct[rows, dataset.arm]
        se = np.sqrt(np.sum(p * (1 - p))) / dataset.n
        assert abs(dataset.s.mean() - p.mean()) < 4 * se

    def test_amount_mean_matches_truth(self, small_world):
        _, dataset, truth = small_world
        rows = np.arange(dataset.n)
        mu = truth.mean_enduring[rows, dataset.arm]
        # variance bound: promo part + post part, roughly phi * mu^rho + promo var
        se = np.sqrt(np.mean(4.0 * mu**1.5 + mu**2) / dataset.n)
        assert abs(dataset.y.mean() - mu.mean()) < 4 * se

    def test_zero_fraction_matches_truth(self, small_world):
        _, dataset, truth = small_world
        rows = np.arange(dataset.n)
        p0 = truth.zero_probability()[rows, dataset.arm]
        se = np.sqrt(np.sum(p0 * (1 - p0))) / dataset.n
        assert abs(np.mean(dataset.y == 0.0) - p0.mean()) < 4 * se

    def test_direct_purchase_forces_positive_amount(self, small_world):
        _, dataset, _ = small_world
        assert np.all(dataset.y[dataset.s == 1] > 0.0)
        assert np.all(dataset.y >= 0.0)

    def test_ground_truth_shapes(self, small_world):
        cfg, dataset, truth = small_world
        assert truth.p_direct.shape == (dataset.n, cfg.n_arms)
        assert np.all((truth.p_direct > 0) & (truth.p_direct < 1))
        assert np.all(truth.mu_promo_given_direct > 0)
        assert np.all(truth.mu_post > 0)

    def test_policy_value_is_sum_of_means(self, small_world):
        _, dataset, truth = small_world
        arms = np.zeros(dataset.n, dtype=np.int64)
        expected = truth.mean_enduring[:, 0].sum()
        assert abs(truth.policy_value(arms) - expected) < 1e-9

    @pytest.mark.parametrize("bad", sorted(BAD_ARMS))
    def test_policy_value_refuses_non_index_arms(self, small_world, bad):
        # a fractional arm was once truncated and scored; the suite turns any
        # warning into an error, so none may come before the refusal
        _, dataset, truth = small_world
        arms = BAD_ARMS[bad](dataset.arm)
        with pytest.raises(ValidationError, match="^arms must be 1-D whole-number"):
            truth.policy_value(arms)

    def test_policy_value_takes_whole_float_arms(self, small_world):
        _, dataset, truth = small_world
        assert truth.policy_value(dataset.arm.astype(np.float64)) == truth.policy_value(dataset.arm)

    # column -> (make it one the dataset must refuse, message); the int64 casts
    # once truncated a fraction, warned on a NaN or, from a list holding NaN,
    # raised a bare ValueError
    IDS = "^customer_id values must be 1-D finite whole numbers"
    BAD_COLUMNS = {
        **{f"arm_{kind}": ("arm", bad, "^arms must be 1-D whole-number") for kind, bad in BAD_ARMS.items()},
        "arm_negative": ("arm", lambda arm: arm - 1, r"^arm index out of range \[0, "),
        "s_half": ("s", lambda s: with_second(s, 0.5), "^s must be 0 or 1"),
        "s_nan": ("s", lambda s: with_second(s, np.nan), "^s must be 0 or 1"),
        "id_half": ("customer_id", lambda ids: ids + 0.5, IDS),
        "id_nan_list": ("customer_id", lambda ids: [np.nan, *ids[1:]], IDS),
    }

    @pytest.mark.parametrize("bad", sorted(BAD_COLUMNS))
    def test_dataset_refuses_before_the_cast(self, small_world, bad):
        _, dataset, _ = small_world
        sub = dataset.subset(np.arange(6))
        name, make, message = self.BAD_COLUMNS[bad]
        with pytest.raises(ValidationError, match=message):
            dataclasses.replace(sub, **{name: make(getattr(sub, name))})

    def test_dataset_keeps_negative_ids(self, small_world):
        _, dataset, _ = small_world
        sub = dataset.subset(np.arange(6))
        shifted = dataclasses.replace(sub, customer_id=sub.customer_id - 3.0)
        assert shifted.customer_id.tolist() == [-3, -2, -1, 0, 1, 2]

    @pytest.mark.parametrize("bad", [-1, 3], ids=["negative", "past_the_last"])
    def test_policy_value_rejects_out_of_range_arms(self, small_world, bad):
        # arm -1 once scored as the last arm, and arm 3 of 3 raised IndexError
        _, dataset, truth = small_world
        arms = np.zeros(dataset.n, dtype=np.int64)
        arms[5] = bad
        with pytest.raises(ValidationError, match="arm index out of range"):
            truth.policy_value(arms)


    # SHA-256 of the log columns and the three truth matrices, at seed 3 and
    # 3 000 customers, for both worlds with the zero coupon first, in the
    # middle and last: the response arithmetic may be restated, never moved.
    WORLD_DIGESTS = {
        ("default", (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)):
            "68e91105273a3d737009a175220a20ff338fa14b768004615ac59b501aaee39d",
        ("default", (1.0, 0.0, 2.0)):
            "8cf71514bc73bdfc0610d1484826e464f1305e2e59f5152e5a2672e1d680f41e",
        ("default", (1.0, 2.0, 0.0)):
            "faff0a5d2453e704596caad857d1703211dfc7ed8999ea03bdce855c68ef8b59",
        ("decorrelated", (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)):
            "759cb1f5b5e92df51d7423c3474b839ae1b16b67a7ce7e97dc9652abf813043d",
        ("decorrelated", (1.0, 0.0, 2.0)):
            "435f90a00f3403f0e6d84b021e4bed9c6d00fc140adaa051b1bfd4f83b9182b0",
        ("decorrelated", (1.0, 2.0, 0.0)):
            "9706f6615f1dcbb5a644419bc6078d8cc7804a64fe12394183a904bafff96e68",
    }

    @pytest.mark.parametrize("world, coupons", list(WORLD_DIGESTS))
    def test_world_bytes_pinned(self, world, coupons):
        cfg = GenConfig(n_customers=3000, coupon_values=np.array(coupons), seed=3, world=world)
        dataset, truth = generate_rct(cfg)
        digest = hashlib.sha256()
        for arr in (
            dataset.customer_id, dataset.features, dataset.arm, dataset.s, dataset.y,
            truth.p_direct, truth.mu_promo_given_direct, truth.mu_post,
        ):
            digest.update(arr.tobytes())
        assert digest.hexdigest() == self.WORLD_DIGESTS[world, coupons]


class TestRedrawOutcomes:
    def test_mean_tracks_truth(self, small_world):
        cfg, dataset, truth = small_world
        reps = 60
        sums = np.array(
            [redraw_outcomes(truth, cfg.assignment_probs, make_rng(77, r))[2].sum() for r in range(reps)]
        )
        # expectation over random assignment: mean over arms weighted by probs
        expected = float((truth.mean_enduring * cfg.assignment_probs).sum())
        se = sums.std(ddof=1) / np.sqrt(reps)
        assert abs(sums.mean() - expected) < 4 * se

    def test_bytes_pinned(self):
        # SHA-256 of (arm, s, y) as the single-stream sampler drew them before
        # generate_rct and redraw_outcomes shared one outcome draw.
        rng = np.random.default_rng(5)
        n, m = 500, 4
        truth = GroundTruth(
            p_direct=rng.uniform(0.05, 0.9, (n, m)),
            mu_promo_given_direct=rng.uniform(0.2, 5.0, (n, m)),
            mu_post=rng.uniform(0.1, 6.0, (n, m)),
            phi=4.0,
            rho=1.5,
            promo_gamma_shape=2.0,
        )
        arm, s, y = redraw_outcomes(truth, np.array([0.4, 0.3, 0.2, 0.1]), make_rng(12, 3))
        digest = hashlib.sha256(arm.tobytes() + s.tobytes() + y.tobytes()).hexdigest()
        assert digest == "9a3e45a8df2e2957d7775868383fd351bc97d2cec4ae95dda5621ba346f64b04"

    @pytest.mark.parametrize(
        "probs",
        [[0.5, 0.5, 0.5, -0.5], [np.nan] * 4, [0.4, 0.3, 0.2, 0.2], [np.inf, 0.0, 0.0, 0.0]],
        ids=["negative", "nan", "sum_above_one", "inf"],
    )
    def test_probs_must_be_a_distribution(self, probs):
        # only the length was checked: these ran and skewed the arms
        truth = GroundTruth(
            p_direct=np.full((5, 4), 0.5), mu_promo_given_direct=np.ones((5, 4)),
            mu_post=np.ones((5, 4)), phi=4.0, rho=1.5, promo_gamma_shape=2.0,
        )
        with pytest.raises(ValidationError, match="assignment_probs must be finite, nonnegative and sum to 1"):
            redraw_outcomes(truth, np.array(probs), make_rng(1))

    def test_direct_flag_consistent(self, small_world):
        cfg, _, truth = small_world
        arm, s, y = redraw_outcomes(truth, cfg.assignment_probs, make_rng(78))
        assert np.all(y[s == 1] > 0)
        assert arm.shape == s.shape == y.shape == (truth.n,)


class TestCsvRoundTrips:
    def test_dataset_round_trip_is_exact(self, small_world, tmp_path):
        _, dataset, _ = small_world
        path = tmp_path / "dataset.csv"
        dataset.to_csv(path)
        loaded = RctDataset.from_csv(path)
        np.testing.assert_array_equal(dataset.features, loaded.features)
        np.testing.assert_array_equal(dataset.y, loaded.y)
        np.testing.assert_array_equal(dataset.customer_id, loaded.customer_id)
        second = tmp_path / "again.csv"
        loaded.to_csv(second)
        assert path.read_bytes() == second.read_bytes()

    def test_dataset_header_pinned(self, small_world, tmp_path):
        _, dataset, _ = small_world
        path = tmp_path / "d.csv"
        dataset.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "customer_id,recency,freq_long,freq_short,money_long,money_short,arm,s,y"

    def test_header_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("customer,recency\n1,2\n")
        with pytest.raises(ValidationError):
            RctDataset.from_csv(path)

    def test_ground_truth_round_trip(self, small_world, tmp_path):
        _, dataset, truth = small_world
        path = tmp_path / "truth.csv"
        truth.to_csv(path, dataset.customer_id)
        header = path.read_text().splitlines()[0]
        assert header == "customer_id,arm,p_true,mu_true"
        ids, p, mu = load_ground_truth_csv(path)
        np.testing.assert_array_equal(ids, dataset.customer_id)
        np.testing.assert_array_equal(p, truth.p_direct)
        np.testing.assert_array_equal(mu, truth.mean_enduring)


    @pytest.mark.parametrize(
        "rows",
        [
            "0,1,0.5,1.0\n0,0,0.5,1.0\n",  # arms out of order
            "0,0,0.5,1.0\n0,1,0.5,1.0\n1,0,0.5,1.0\n",  # customer 1 lacks arm 1
            "0,-1,0.5,1.0\n",  # negative arm
        ],
    )
    def test_ground_truth_pairs_must_be_complete_and_ordered(self, tmp_path, rows):
        path = tmp_path / "truth.csv"
        path.write_text("customer_id,arm,p_true,mu_true\n" + rows)
        with pytest.raises(ValidationError, match="arms 0, 1"):
            load_ground_truth_csv(path)


class TestWorldShapes:
    def test_default_world_is_heterogeneous(self, small_world):
        _, _, truth = small_world
        uplift = truth.mean_enduring[:, -1] - truth.mean_enduring[:, 0]
        assert np.std(uplift) > 0.05 * abs(np.mean(uplift))

    def test_decorrelated_world_misaligns_direct_and_enduring_uplift(self):
        coupons = np.array([0.0, 1.5, 3.0])
        cfg = GenConfig(
            n_customers=4000,
            coupon_values=coupons,
            world="decorrelated",
            seed=13,
        )
        _, truth = generate_rct(cfg)
        direct_uplift = truth.p_direct[:, -1] - truth.p_direct[:, 0]
        enduring_uplift = truth.mean_enduring[:, -1] - truth.mean_enduring[:, 0]
        r = np.corrcoef(direct_uplift, enduring_uplift)[0, 1]
        assert r < 0.2

    def test_feature_config_sampling_bounds(self):
        rows = FeatureConfig().sample([make_rng(21, k) for k in range(5)], 500)
        assert rows.shape == (500, 5) and rows.dtype == np.float64
        assert np.all(rows[:, 0] >= 1)  # recency is at least one day
        assert np.all(rows[:, 1] >= 0) and np.all(rows[:, 2] >= 0)
        assert np.all(rows[:, 3] > 0) and np.all(rows[:, 4] > 0)
