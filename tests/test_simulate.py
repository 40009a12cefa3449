import hashlib

import numpy as np
import pytest

from partitest import (
    GroupedSample,
    NullTableMeta,
    ScenarioSpec,
    generate_null_table,
    generate_scenario,
    make_scenario,
    parse_scenario_file,
    power_study,
    run_test,
)
from partitest.simulate import _BUILTINS, _normal_quantile, builtin_scenarios, dataset_for_test


class TestScenarioGeneration:
    def test_determinism(self):
        spec = make_scenario("gauss-shift", n=40, seed=11)
        a = generate_scenario(spec, 3)
        b = generate_scenario(spec, 3)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        c = generate_scenario(spec, 4)
        assert not np.array_equal(a[1], c[1])

    def test_gauss_shift_moments(self):
        spec = make_scenario("gauss-shift", n=8000, seed=1)
        labels, values = generate_scenario(spec, 0)
        g1 = values[labels == 1]
        g2 = values[labels == 2]
        assert abs(g1.mean()) < 0.06 and abs(g2.mean() - 0.5) < 0.06
        assert abs(g1.std() - 1.0) < 0.05 and abs(g2.std() - 1.0) < 0.05

    def test_gauss_scale_moments(self):
        spec = make_scenario("gauss-scale", n=8000, seed=2)
        labels, values = generate_scenario(spec, 0)
        assert abs(values[labels == 2].std() - 0.6) < 0.04

    def test_null_uniform_support(self):
        spec = make_scenario("null-uniform", n=5000, seed=3)
        x, y = generate_scenario(spec, 0)
        assert 0 < x.min() and x.max() < 1 and 0 < y.min() and y.max() < 1
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.05

    def test_mixture_component_fractions(self):
        spec = make_scenario("gauss-mixture-2d", n=20000, seed=4)
        x, y = generate_scenario(spec, 0)
        # second component sits near (-0.125, 0.675) with sd 0.1
        frac_near = np.mean((x < 0.1) & (y > 0.45))
        assert abs(frac_near - 0.2) < 0.03

    def test_normal_quantile_is_within_8_ulp_of_scipy_ndtri(self):
        special = pytest.importorskip("scipy.special")
        # uniforms of _uniform_stream's form, (k + 0.5) 2^-53, with 2000 at each
        # tail; k = 2^53 - 1 is left out, as it rounds to 1.0
        k = np.concatenate(
            [
                np.random.default_rng(29).integers(0, 2**53 - 1, size=400_000),
                np.arange(2000),
                2**53 - 2 - np.arange(2000),
            ]
        )
        u = np.sort((k + 0.5) * 2.0**-53)
        got, want = _normal_quantile(u), special.ndtri(u)
        assert np.all(np.abs(got - want) <= 8 * np.spacing(np.abs(want)))
        assert np.all(np.diff(got) >= 0)

    def test_unknown_scenario_lists_builtins(self):
        with pytest.raises(ValueError, match="gauss-shift"):
            make_scenario("nope", n=10)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_scenario("gauss-shift", n=10, replicates=0)
        with pytest.raises(ValueError):
            make_scenario("gauss-shift", n=10, alpha=1.5)

    def test_builtin_listing(self):
        names = builtin_scenarios()
        assert "gauss-shift" in names and "null-uniform" in names


class TestScenarioFiles:
    def test_gauss_family_roundtrip(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text(
            "# two-sample gaussian\n"
            "name=custom-shift\nproblem=ksample\nfamily=gauss\nn=30\ngroups=15,15\n"
            "mu1=0\nsigma1=1\nmu2=1.0\nsigma2=1\nseed=9\nreplicates=5\nalpha=0.1\n"
        )
        spec = parse_scenario_file(str(path))
        assert spec.name == "custom-shift" and spec.replicates == 5 and spec.alpha == 0.1
        labels, values = generate_scenario(spec, 0)
        assert labels.size == 30
        assert values[labels == 2].mean() > values[labels == 1].mean() - 0.5

    def test_shape_family(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text(
            "name=wavy\nproblem=independence\nfamily=shape\nshape=sine\n"
            "n=50\nnoise=0.1\nfrequency=2\n"
        )
        spec = parse_scenario_file(str(path), seed=4)
        x, y = generate_scenario(spec, 0)
        assert x.size == y.size == 50

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text("name=x\nproblem=ksample\nfamily=gauss\n")
        with pytest.raises(ValueError):
            parse_scenario_file(str(path))

    @pytest.mark.parametrize(
        "family,change,message",
        [
            ("mixture2d", "mean1=0", "mean1 needs 2"),
            ("mixture2d", "cov2=1,0", "cov2 needs 3"),
            ("mixture2d", "cov1=1,2,1", "cov1 is not a positive-definite"),
            ("mixture2d", "weight1=1.5", "weight1 must lie in"),
            ("gauss", "sigma2=0", "sigma1 and sigma2 must be positive"),
            ("shape", "noise=-0.1", "noise must be non-negative"),
            ("gauss", "mu1=nan", "mu1 must be finite"),
            ("shape", "noise=inf", "noise must be finite"),
        ],
    )
    def test_out_of_range_parameter_rejected(self, tmp_path, family, change, message):
        valid = {
            "mixture2d": "problem=independence\nn=20\nweight1=0.5\n"
            "mean1=0,0\ncov1=1,0.5,1\nmean2=1,1\ncov2=1,0,1\n",
            "gauss": "problem=ksample\nn=20\ngroups=10,10\nmu1=0\nsigma1=1\nmu2=1\nsigma2=1\n",
            "shape": "problem=independence\nn=20\nshape=circle\nnoise=0.1\n",
        }[family]
        path = tmp_path / "scn.txt"
        path.write_text(f"name=x\nfamily={family}\n{valid}")
        parse_scenario_file(str(path))
        key = change.split("=")[0]
        edited = [change if line.split("=")[0] == key else line for line in valid.splitlines()]
        path.write_text(f"name=x\nfamily={family}\n" + "".join(f"{line}\n" for line in edited))
        with pytest.raises(ValueError, match=message):
            parse_scenario_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "scn.txt"
        path.write_text("name=x\nbogus line\n")
        with pytest.raises(ValueError, match="key=value"):
            parse_scenario_file(str(path))


class TestScenarioSchema:
    """Built-ins, files and direct specs share one parser and one family table."""

    @pytest.mark.parametrize("name", builtin_scenarios())
    def test_builtin_equals_its_file(self, tmp_path, name):
        spec = make_scenario(name, n=24, seed=3, replicates=7)
        groups = f"groups={','.join(map(str, spec.group_sizes))}\n" if spec.group_sizes else ""
        path = tmp_path / "scn.txt"
        path.write_text(
            f"name={name}\nproblem={spec.problem}\nn=24\n{groups}"
            + "".join(f"{field}\n" for field in _BUILTINS[name].split())
        )
        assert parse_scenario_file(str(path), seed=3, replicates=7) == spec

    @pytest.mark.parametrize(
        "family,problem",
        [
            ("gauss", "independence"),
            ("mixture2d", "ksample"),
            ("shape", "ksample"),
            ("uniform-independent", "ksample"),
        ],
    )
    def test_family_belongs_to_its_problem(self, family, problem):
        with pytest.raises(ValueError, match=f"family '{family}' belongs to the"):
            ScenarioSpec(
                name="x",
                problem=problem,
                n=4,
                group_sizes=(2, 2) if problem == "ksample" else None,
                params=(("family", family),),
                seed=0,
                replicates=1,
                alpha=0.05,
            )

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario family: 'nope'"):
            ScenarioSpec("x", "independence", 4, None, (("family", "nope"),), 0, 1, 0.05)

    @pytest.mark.parametrize("group_sizes", [(30, 30, 30), (90,)])
    def test_gauss_groups_match_mu(self, group_sizes):
        with pytest.raises(ValueError, match=f"needs 2 group sizes, got {len(group_sizes)}"):
            make_scenario("gauss-shift", n=90, group_sizes=group_sizes)


# SHA-256 of each built-in's data (seed 12; N=24 and 300; replicates 0-2;
# every column as little-endian float64).  No BLAS call touches the data, so
# they hold under each OpenBLAS kernel and numpy SIMD set of the CI matrix.
BUILTIN_DIGESTS = {
    "gauss-mixture-2d": "0180377cb44079a6fea05e1574bb126a6a596a56220ff1d13bc698ddf163465b",
    "gauss-scale": "54927f9897b378182d71f8cefd3ad8f8edcab3dc7366c45821b4d9c59825da38",
    "gauss-shift": "59857ac10dacfa2bfcf77106ba28e172bb89a152a85e6d7628635c686ddd8467",
    "gauss-shift-scale": "0541204241456b9c93e84e63dd761315517bf4f1b9a501d8ba12d69f3a6b7302",
    "null-equal": "6c36f7e586225a9979e5a096a908dfe13ade942dd64b8ede8ccbdba4fe6c7ea8",
    "null-uniform": "e20d812b2ddfa6e11b9fe2ff1248cdc5f48a403858b965016fd4fa395a3199a2",
}

# SHA-256 of each built-in's per-column ranks (seed 12; N=24, 100 and 300;
# replicates 0-49; each column's stable argsort as little-endian int64).
# Every statistic reads ranks only: the normal quantile may move the data
# digests above in their last bits, but it must not move these.
BUILTIN_RANK_DIGESTS = {
    "gauss-mixture-2d": "f208beb6bcc9724eeda75b7f4afb51b1e62d3f16e0787d365baabd2e5a7e08dc",
    "gauss-scale": "3d0faddffc8f80dde77641da481a50000ec77f2963ea45dbe9b7b37091d6cd77",
    "gauss-shift": "0adb0be66ef069673a68d6b05a30c6c86c3fac11696ee6b9a2cdae0befcbc98e",
    "gauss-shift-scale": "b14f61cdc9cceadd3b64e6e988a656f70fb1fbc13811ff1201dfb99a81c72669",
    "null-equal": "fc1359bc42272eb4677f6c781e334544a6efaba1fa8294f5a8832de46b6df386",
    "null-uniform": "fc57330433ff0b6d40976acf8b589feccc451095cb2ddcb948afd106b67fd541",
}


class TestBuiltinDigests:
    def test_every_builtin_is_pinned(self):
        assert sorted(BUILTIN_DIGESTS) == sorted(BUILTIN_RANK_DIGESTS) == list(builtin_scenarios())

    @pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
    def test_data_digest(self, name):
        digest = hashlib.sha256()
        for n in (24, 300):
            spec = make_scenario(name, n=n, seed=12)
            for rep in range(3):
                for column in generate_scenario(spec, rep):
                    digest.update(np.asarray(column, dtype="<f8").tobytes())
        assert digest.hexdigest() == BUILTIN_DIGESTS[name]

    @pytest.mark.parametrize("name", sorted(BUILTIN_RANK_DIGESTS))
    def test_rank_digest(self, name):
        digest = hashlib.sha256()
        for n in (24, 100, 300):
            spec = make_scenario(name, n=n, seed=12)
            for rep in range(50):
                for column in generate_scenario(spec, rep):
                    digest.update(np.argsort(column, kind="stable").astype("<i8").tobytes())
        assert digest.hexdigest() == BUILTIN_RANK_DIGESTS[name]


@pytest.fixture(scope="module")
def small_table():
    meta = NullTableMeta(
        problem="ksample",
        family="sum",
        score="lr",
        n=24,
        group_sizes=(12, 12),
        m_max=8,
        b=400,
        seed=7,
    )
    return generate_null_table(meta)


class TestPowerStudy:
    def test_single_replicate_smoke(self, small_table):
        spec = make_scenario("gauss-shift", n=24, seed=5, replicates=1)
        report = power_study(spec, small_table)
        assert report.rejection_rate in (0.0, 1.0)
        assert report.standard_error == 0.0

    def test_determinism(self, small_table):
        spec = make_scenario("null-equal", n=24, seed=6, replicates=30)
        a = power_study(spec, small_table)
        b = power_study(spec, small_table)
        assert a.rejections == b.rejections
        assert np.array_equal(a.per_m_rates, b.per_m_rates)

    def test_thread_count_invariance(self, small_table):
        spec = make_scenario("gauss-shift", n=24, seed=6, replicates=40)
        a = power_study(spec, small_table, threads=1)
        b = power_study(spec, small_table, threads=4)
        assert a.rejections == b.rejections
        assert np.array_equal(a.per_m_rates, b.per_m_rates)

    def test_per_m_rates_shape(self, small_table):
        spec = make_scenario("null-equal", n=24, seed=6, replicates=10)
        report = power_study(spec, small_table)
        assert len(report.ms) == small_table.meta.m_max - 1
        assert report.per_m_rates.shape == (len(report.ms),)

    def test_meta_mismatch_rejected(self, small_table):
        spec = make_scenario("gauss-shift", n=30, seed=5, replicates=2)
        with pytest.raises(ValueError, match="table incompatible"):
            power_study(spec, small_table)

    def test_obvious_shift_detected(self, small_table):
        # widely separated groups reject essentially always
        spec = make_scenario("gauss-shift", n=24, seed=8, replicates=10)
        labels, values = generate_scenario(spec, 0)
        values = values + 40.0 * (labels == 2)
        gs = GroupedSample.from_values(labels, values, 0)
        res = run_test(gs, small_table, "minp")
        assert res.final_pvalue <= 0.01

    def test_dataset_for_test_types(self, small_table):
        spec = make_scenario("null-uniform", n=12, seed=5, replicates=1)
        x, y = dataset_for_test(spec, 0)
        assert x.n == y.n == 12
