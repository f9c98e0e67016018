"""CLI contract tests: subcommands, formats, exit codes."""

import csv
import dataclasses
import io
import json
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from ncgauge import cli, gauge, heisenberg, hopf, torus
from ncgauge.cli import main, parse_q_token, parse_theta, ConfigError


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestPell:
    def test_delta_5(self, capsys):
        code, out = run(capsys, ["pell", "--delta", "5"])
        assert code == 0
        data = json.loads(out)
        assert (data["u"], data["v"]) == (3, 1)
        assert data["phi"] == [[2, 1], [1, 1]]

    def test_delta_8(self, capsys):
        code, out = run(capsys, ["pell", "--delta", "8"])
        data = json.loads(out)
        assert (data["u"], data["v"]) == (6, 2)
        assert data["epsilon"] == pytest.approx(3 + 2 * np.sqrt(2))

    def test_square_delta_is_config_error(self, capsys):
        assert main(["pell", "--delta", "9"]) == 2

    def test_delta_724_succeeds(self, capsys):
        # 724 = 4 * 181: the minimal v is about 1.8e17
        code, out = run(capsys, ["pell", "--delta", "724"])
        assert code == 0
        data = json.loads(out)
        assert data["u"] ** 2 - 724 * data["v"] ** 2 == 4
        assert data["norm"] == "1"


class TestStabilizer:
    def test_golden(self, capsys):
        code, out = run(capsys, ["stabilizer", "--theta", "1/2,1/2,5", "--grades", "6"])
        assert code == 0
        data = json.loads(out)
        assert data["phi"] == [2, 1, 1, 1]
        assert data["checks"]["power_homomorphism"]
        assert data["checks"]["c_cocycle"]

    def test_bad_theta(self):
        assert main(["stabilizer", "--theta", "0,0,5"]) == 2
        assert main(["stabilizer", "--theta", "0,1,4"]) == 2


class TestTorusCheck:
    def test_passes(self, capsys):
        code, out = run(capsys, ["torus-check", "--theta", "1/2,1/2,5"])
        assert code == 0
        assert json.loads(out)["pass"]

    # theta = sqrt 8000 = 89.4 and (1 + sqrt 31249)/2 = 88.9: a phase formed
    # from theta * k before the reduction mod 1 failed star_antimultiplicative
    @pytest.mark.parametrize("theta", ["0,1,8000", "1/2,1/2,31249"])
    def test_passes_far_from_the_unit_interval(self, capsys, theta):
        code, out = run(capsys, ["torus-check", "--theta", theta])
        assert code == 0
        assert json.loads(out)["pass"]

    def test_deterministic_given_seed(self, capsys):
        _, out1 = run(capsys, ["torus-check", "--theta", "0,1,2", "--seed", "7"])
        _, out2 = run(capsys, ["torus-check", "--theta", "0,1,2", "--seed", "7"])
        assert out1 == out2


class TestHeisenbergMemoryGuard:
    def test_grade_8_estimate(self):
        # |c_8| = 470 832 sectors for sqrt2: 7.7 GB per sample array
        need, m = cli.commutator_table_bytes(
            parse_theta("0,1,2"), heisenberg.GridSpec(), 8
        )
        assert m == 8
        assert need == cli.COMMUTATOR_ARRAYS * 470_832 * 1024 * 16

    def test_grade_8_exits_2_before_allocating(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "memory_budget", lambda: 8 * 2**30)

        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled a grade the guard should refuse")

        monkeypatch.setattr(heisenberg, "gaussian", no_sampling)
        code = main(["heisenberg-verify", "--theta", "0,1,2", "--grades", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert "35.9 GiB" in err and "470832 sectors" in err

    def test_budget_sets_the_limit(self, capsys, monkeypatch):
        ctx, grid = parse_theta("1/2,1/2,5"), heisenberg.GridSpec()
        need, _ = cli.commutator_table_bytes(ctx, grid, 2)
        monkeypatch.setattr(cli, "memory_budget", lambda: need - 1)
        assert main(["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "2"]) == 2
        code, out = run(capsys, ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1"])
        assert code == 0 and json.loads(out)["pass"]

    def test_memory_budget_is_positive(self):
        assert cli.memory_budget() > 0


class TestHeisenbergTruncations:
    @pytest.mark.parametrize(
        "theta", ["1/2,1/2,5", "0,1,2", "1,1,3"], ids=["golden", "sqrt2", "one_plus_sqrt3"]
    )
    def test_clipped_product_is_counted_not_failed(self, capsys, theta):
        # the associativity triple (1, 1, -1) builds P_2 x P_-1, whose mass is
        # window-clipped on all three thetas
        code, out = run(
            capsys, ["heisenberg-verify", "--theta", theta, "--grades", "3", "--seed", "1"]
        )
        data = json.loads(out)
        assert data["truncations"] == {"mul_associativity": 1}
        assert not any(f.startswith("assoc") for f in data["failures"])
        assert data["pass"] == (not data["failures"])
        assert code == (0 if data["pass"] else 1)

    def test_counts_survive_an_overflow_and_other_warnings_pass_on(self):
        counts = {}
        with pytest.warns(RuntimeWarning, match="passed on"):
            with cli.count_truncations(counts, "first"):
                warnings.warn("clipped", heisenberg.TruncationWarning)
                warnings.warn("passed on", RuntimeWarning)
        with pytest.raises(heisenberg.WindowOverflow):
            with cli.count_truncations(counts, "second"):
                warnings.warn("clipped", heisenberg.TruncationWarning)
                warnings.warn("clipped", heisenberg.TruncationWarning)
                raise heisenberg.WindowOverflow("window exhausted")
        assert counts == {"first": 1, "second": 2}


class TestHeisenbergProductTable:
    SEED_4 = ["heisenberg-verify", "--theta", "0,1,2", "--grid", "12,1024,8",
              "--grades", "3", "--seed", "4"]

    def test_shared_products_replay_their_truncations(self, capsys):
        # P_1 x P_-1 hits the V-mode cap, and two associativity triples read it
        code, out = run(capsys, self.SEED_4)
        assert json.loads(out)["truncations"] == {"mul_associativity": 3}

    def test_each_shared_product_is_computed_once(self, capsys, monkeypatch):
        calls = {"_pair_to_heis": 0, "_pair_to_torus": 0}
        for name in calls:
            kernel = getattr(heisenberg, name)

            def counted(f, g, kernel=kernel, name=name):
                calls[name] += 1
                return kernel(f, g)

            monkeypatch.setattr(heisenberg, name, counted)
        run(capsys, self.SEED_4)
        assert calls == {"_pair_to_heis": 7, "_pair_to_torus": 6}

    def test_every_read_replays_the_warnings(self, monkeypatch):
        computed = []

        def loud_product(p, q):
            computed.append((p, q))
            warnings.warn("clipped", heisenberg.TruncationWarning)
            return "pq"

        monkeypatch.setattr(heisenberg, "mul_P", loud_product)
        table = cli.ProductTable({1: "p", -1: "q"})
        counts = {}
        for section in ("first", "second", "third"):
            with cli.count_truncations(counts, section):
                assert table[1, -1] == "pq"
        assert counts == {"first": 1, "second": 1, "third": 1}
        assert computed == [("p", "q")]


class TestMonopole:
    @pytest.mark.parametrize("delta, grades", [(109, 11), (157, 12), (181, 12), (193, 12)])
    def test_large_units_report_the_ratios_beyond_floats_exactly(self, capsys, delta, grades):
        code, out = run(capsys, ["monopole", "--theta", f"0,1,{delta}", "--grades", str(grades)])
        assert code == 0 and json.loads(out)["pass"] is True
        ctx = parse_theta(f"0,1,{delta}")
        ratios = gauge.adaptedness_test(ctx, 1, M=grades)["ratios"]
        exact = {m: str(ctx.eps_pow(-m) * ctx.c(m) / m) for m in ratios}
        beyond = [m for m, v in ratios.items() if isinstance(v, str)]
        assert beyond and all(ratios[m] == exact[m] for m in beyond)
        assert all(isinstance(v, float) for m, v in ratios.items() if m not in beyond)

    def test_sweep(self, capsys):
        code, out = run(
            capsys,
            ["monopole", "--theta", "1/2,1/2,5", "--q-sweep", "1,eps,eps^2,2"],
        )
        assert code == 0
        data = json.loads(out)
        byq = {row["token"]: row for row in data["q_sweep"]}
        assert byq["eps^2"]["adapted"] and not byq["eps^2"]["relative_adapted"]
        assert byq["eps"]["relative_adapted"] and not byq["eps"]["adapted"]
        assert not byq["1"]["adapted"] and not byq["2"]["adapted"]
        assert byq["eps^2"]["constant"]["im"] == pytest.approx(-data["epsilon"])

    def test_csv_schema_stable(self, capsys):
        args = ["monopole", "--theta", "1/2,1/2,5", "--q-sweep", "1,eps^2",
                "--format", "csv"]
        _, out1 = run(capsys, args)
        _, out2 = run(capsys, args)
        assert out1 == out2
        keys = [line.split(",")[0] for line in out1.strip().splitlines()[1:]]
        assert "q_sweep.1.adapted" in keys


class TestCohomology:
    def test_builtin_cycle(self, capsys):
        code, out = run(capsys, ["cohomology", "--builtin", "cycle:4"])
        assert code == 0
        data = json.loads(out)
        assert data["hochschild"]["dim_Z"] == data["hochschild"]["brute_force_Z"]
        assert "op" in data and data["skipped"] == []
        assert data["maurer_cartan"]["sigma"] == "unit"

    @pytest.mark.parametrize("token", ["cycle:4", "jet:2"])
    def test_op_block_carries_every_residual(self, capsys, token):
        code, out = run(capsys, ["cohomology", "--builtin", token])
        assert code == 0
        op = json.loads(out)["op"]
        keys = {
            "op_sigma_hom", "op_sigma_star", "op_sigma_fixes_B", "op_sigma_unit",
            "op_sigma_forms_left", "op_sigma_forms_right", "op_sigma_prolongable",
            "op_mu_derivation", "op_mu_star", "op_mu_restricts", "op_gauge_compat",
            "max", "tol", "generators",
        }
        assert set(op) == keys
        assert op["tol"] == 1e-10
        assert op["generators"] == ["B (x) 1", "1 (x) g^1"]
        residuals = [v for k, v in op.items() if k not in ("tol", "generators")]
        assert op["max"] == max(residuals) <= op["tol"]

    def test_jet_5_runs_the_op_checks(self, capsys):
        code, out = run(capsys, ["cohomology", "--builtin", "jet:5"])
        assert code == 0
        data = json.loads(out)
        assert "op" in data and data["skipped"] == []
        assert data["op"]["max"] <= data["op"]["tol"]
        assert data["maurer_cartan"]["sigma"] == "jet_unitary"

    def test_jet_name_without_the_jet_layout_uses_the_unit(self, capsys, tmp_path):
        inst = hopf.cycle_instance(3)
        inst.name = "jet-like cycle"
        path = tmp_path / "cycle3.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 0
        assert json.loads(out)["maurer_cartan"]["sigma"] == "unit"

    @pytest.mark.parametrize("name", ["jet-like cycle", "cycle-on-Z2"])
    def test_a_jet_sized_b_that_is_not_the_jet_algebra_uses_the_unit(self, capsys, tmp_path, name):
        # C(Z_8) with its cycle calculus and C[Z_2] acting by x -> x - 4:
        # dim B = 4 dim H, but B is not the jet algebra (jet_unitary raised
        # NotAdmissible on it when the name held "jet")
        def half_turn(blocks):
            act = np.zeros((8 * blocks, 2, 8 * blocks))
            for x, e, j in np.ndindex(8, blocks, 2):
                act[x * blocks + e, j, (x - 4 * j) % 8 * blocks + e] = 1.0
            return act

        inst = hopf.cycle_instance(8)
        inst.H, inst.name = hopf.cyclic_group_hopf(2), name
        inst.actB, inst.actM, inst.actO2 = half_turn(1), half_turn(2), half_turn(1)
        path = tmp_path / "cycle8.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        data = json.loads(out)
        assert code == 0 and data["pass"]
        assert data["hopf_gate"]["max"] == 0.0 and data["data_gate"] == 0.0
        assert data["maurer_cartan"]["sigma"] == "unit"

    def test_the_jet_algebra_under_another_name_samples_a_jet_unitary(self, capsys, tmp_path):
        inst = hopf.jet_instance(2)
        inst.name = "d2"
        path = tmp_path / "d2.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 0
        assert json.loads(out)["maurer_cartan"]["sigma"] == "jet_unitary"

    def test_corrupted_antipode_gate_failure(self, capsys, tmp_path):
        inst = hopf.jet_instance(2)
        # corrupt S: S(g) = 0.7 g
        inst.H.antipode = inst.H.antipode + hopf.IndexForm((2, 2), ([1], [1]), np.array([-0.3]))
        path = tmp_path / "bad.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 1
        assert not json.loads(out)["pass"]

    def test_instance_round_trip(self, capsys, tmp_path):
        inst = hopf.function_instance(3)
        path = tmp_path / "fn3.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 0
        assert json.loads(out)["hochschild"]["dim_Z"] == 2

    def test_unnamed_instance_is_reported_by_its_path(self, capsys, tmp_path):
        inst = hopf.function_instance(3)
        inst.name = ""
        path = tmp_path / "unnamed.json"
        path.write_text(hopf.dump_instance(inst))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["instance"] == str(path)
        # the JSON round trip keeps C[Z_3] exact, so the enumerator still runs
        assert data["skipped"] == [] and "brute_force_Z" in data["hochschild"]

    def test_non_cyclic_h_skips_the_enumerator(self, capsys, tmp_path):
        from test_hopf_op import translations_on_s3

        path = tmp_path / "s3.json"
        path.write_text(hopf.dump_instance(translations_on_s3()))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        assert code == 0
        data = json.loads(out)
        assert data["pass"] and data["failures"] == []
        assert set(data["hochschild"]) == {"dim_Z", "dim_B", "dim_HH"}
        assert [entry["check"] for entry in data["skipped"]] == ["enumerator"]
        assert data["op"]["max"] <= data["op"]["tol"]

    def test_bad_builtin(self):
        assert main(["cohomology", "--builtin", "nope:3"]) == 2

    @pytest.mark.parametrize("token", ["cycle:0", "jet:0", "function:0", "cycle:-2", "jet:-1"])
    def test_builtin_size_below_one_is_config_error(self, capsys, token):
        assert main(["cohomology", "--builtin", token]) == 2
        assert "n must be at least 1" in capsys.readouterr().err

    def test_memory_guard_exits_2_before_solving(self, capsys, monkeypatch):
        inst = hopf.jet_instance(5)
        need = cli.cohomology_bytes(inst, hopf.hochschild_systems(inst))
        monkeypatch.setattr(cli, "memory_budget", lambda: need - 1)

        def no_solving(*args, **kwargs):
            raise AssertionError("solved a system the guard should refuse")

        monkeypatch.setattr(hopf, "solve_hochschild_space", no_solving)
        assert main(["cohomology", "--builtin", "jet:5"]) == 2
        err = capsys.readouterr().err
        assert "the Hochschild solver and the crossed-product checks" in err
        assert f"{need / 2**30:.1f} GiB" in err

    @pytest.mark.parametrize("token", ["function:3", "jet:5", "cycle:8"])
    def test_memory_guard_runs_at_its_estimate(self, capsys, monkeypatch, token):
        inst = cli._builtin_instance(token)
        need = cli.cohomology_bytes(inst, hopf.hochschild_systems(inst))
        monkeypatch.setattr(cli, "memory_budget", lambda: need)
        assert main(["cohomology", "--builtin", token]) == 0
        monkeypatch.setattr(cli, "memory_budget", lambda: need - 1)
        assert main(["cohomology", "--builtin", token]) == 2

    def test_the_guard_refuses_whole_components_before_building_them(self, capsys, monkeypatch):
        # cycle:64 with one entry of leftM scaled by 1 + 2^-40, which its
        # systems are not invariant under the point translation: two
        # components of 16 384 x 4 096, 4.2 GiB to the guard, counted from
        # index arrays and refused before any block is built
        inst = hopf.cycle_instance(64)
        values = inst.leftM.values.copy()
        values[0] *= 1 + 2**-40
        bare = dataclasses.replace(inst, leftM=hopf.IndexForm(inst.leftM.shape, inst.leftM.index, values))
        monkeypatch.setattr(cli, "_builtin_instance", lambda token: bare)
        monkeypatch.setattr(cli, "memory_budget", lambda: 2 * 2**30)
        tracemalloc.start()
        try:
            code = main(["cohomology", "--builtin", "cycle:64"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("configuration error: cycle(Z_64) needs about 4.2 GiB")
        assert peak <= 64 * 2**20, peak / 2**20


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta": "1/2,1/2,5", "grades": 3}))
        code, out = run(capsys, ["stabilizer", "--config", str(cfg), "--theta", "0,1,2"])
        assert code == 0
        data = json.loads(out)
        # flag overrides config for theta; grades comes from config
        assert data["theta"]["delta"] == 8
        assert "3" in data["powers"] and "4" not in data["powers"]

    def test_missing_config(self):
        assert main(["pell", "--delta", "5", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("text,reason", [
        ("[1, 2]", "not an object"),
        ('{"command": "nope"}', "sets 'command'"),
    ], ids=["list", "command"])
    def test_config_that_is_not_options_is_config_error(self, capsys, tmp_path, text, reason):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert main(["pell", "--delta", "5", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and reason in err

    def test_unknown_keys_and_nulls_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"colour": "blue", "grades": 1, "out": None}))
        code, out = run(capsys, ["pell", "--delta", "5", "--config", str(cfg)])
        assert code == 0 and sorted(json.loads(out)["powers"]) == ["-1", "0", "1"]

    @pytest.mark.parametrize("entry", [{"grades": -1}, {"tol": math.nan}, {"grades": 2.5}])
    def test_config_entries_are_checked_like_flags(self, capsys, tmp_path, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(entry))
        argv = ["torus-check", "--theta", "0,1,2"] if "tol" in entry else ["pell", "--delta", "5"]
        # an argparse error, as for the flag
        assert main([*argv, "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("flag", [["--grades", "7"], ["--grades=7"]],
                             ids=["space", "equals"])
    def test_explicit_flag_overrides_config(self, capsys, tmp_path, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grades": 2}))
        code, out = run(capsys, ["pell", "--delta", "5", *flag, "--config", str(cfg)])
        assert code == 0
        assert sorted(map(int, json.loads(out)["powers"])) == list(range(-7, 8))

    def test_the_default_parser_is_built_once_and_keeps_its_defaults(self, capsys, tmp_path):
        assert cli.default_parser() is cli.default_parser()
        _, plain = run(capsys, ["pell", "--delta", "5"])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grades": 1, "format": "pretty"}))
        code, out = run(capsys, ["pell", "--delta", "5", "--config", str(cfg)])
        assert code == 0 and "powers.1.0" in out
        # the config built a parser of its own: the next plain call gets the
        # built-in defaults (--grades 4, json) back
        code, again = run(capsys, ["pell", "--delta", "5"])
        assert code == 0 and again == plain
        assert sorted(map(int, json.loads(again)["powers"])) == list(range(-4, 5))

    def test_config_strings_go_through_the_option_parser(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": "0x10"}))
        _, out = run(capsys, ["torus-check", "--theta", "0,1,2", "--config", str(cfg)])
        _, ref = run(capsys, ["torus-check", "--theta", "0,1,2", "--seed", "16"])
        assert out == ref


class TestParsers:
    def test_q_tokens(self):
        ctx = parse_theta("1/2,1/2,5")
        assert parse_q_token("eps^2", ctx) == ctx.eps**2
        assert parse_q_token("eps", ctx) == ctx.eps
        assert parse_q_token("eps^-3", ctx) == ctx.eps_pow(-3)
        assert parse_q_token("1/2", ctx).r == 0.5
        assert float(parse_q_token("2.718", ctx)) == pytest.approx(2.718)
        with pytest.raises(ConfigError):
            parse_q_token("nope", ctx)

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        code = main(["pell", "--delta", "12", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["u"] == 4

    @pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["no-directory", "a-directory"])
    def test_an_unwritable_out_is_config_error(self, capsys, tmp_path, where):
        # FileNotFoundError and IsADirectoryError ended the run with exit 1
        out = tmp_path / where
        assert main(["pell", "--delta", "5", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write --out {str(out)!r}")
        assert "Traceback" not in err


class TestQTokenEdges:
    def test_zero_rejected(self):
        assert main(["monopole", "--theta", "1/2,1/2,5", "--q-sweep", "0,eps"]) == 2

    def test_a_zero_denominator_is_config_error(self, capsys):
        # Fraction("1/0") raised ZeroDivisionError, which ended the run with exit 1
        assert main(["monopole", "--theta", "1/2,1/2,5", "--q-sweep", "1/0"]) == 2
        assert capsys.readouterr().err.startswith("configuration error: invalid q token '1/0'")

    def test_bad_eps_power(self):
        assert main(["monopole", "--theta", "1/2,1/2,5", "--q-sweep", "eps^x"]) == 2

    @pytest.mark.parametrize("tok", ["epsfoo", "eps^2^3", "eps^", "eps2"])
    def test_an_eps_token_is_eps_or_an_integer_power(self, capsys, tok):
        # epsfoo ran with q = eps and eps^2^3 with q = eps^2
        assert main(["monopole", "--theta", "1/2,1/2,5", "--q-sweep", tok]) == 2
        assert capsys.readouterr().err.startswith("configuration error:")

    @pytest.mark.parametrize("tok", ["nan", "inf", "1e400", "eps^2000"])
    def test_non_finite_q_rejected(self, capsys, tok):
        with pytest.raises(ConfigError, match="finite"):
            parse_q_token(tok, parse_theta("0,1,2"))
        assert main(["monopole", "--theta", "0,1,2", "--q-sweep", tok]) == 2
        assert "finite float value" in capsys.readouterr().err


def strict_json(text: str):
    """json.loads that refuses NaN and +-Infinity, which strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestUnitsBeyondTheFloatRange:
    """D = 31249 is the one non-square discriminant below 31250 whose unit
    has no float (u has 1098 bits).  Each suite exited 1 with an
    OverflowError when the context was built."""

    THETA = "1/2,1/2,31249"

    def test_the_context_builds_and_only_the_float_of_eps_overflows(self):
        ctx = parse_theta(self.THETA)
        assert ctx.eps.norm() == 1 and ctx.c(1) != 0
        with pytest.raises(OverflowError):
            ctx.eps_float

    def test_pell_reports_epsilon_exactly(self, capsys):
        code, out = run(capsys, ["pell", "--delta", "31249"])
        data = strict_json(out)
        assert code == 0 and data["u"].bit_length() == 1098
        assert data["epsilon"] == str(parse_theta(self.THETA).eps)

    def test_stabilizer_reports_epsilon_exactly(self, capsys):
        code, out = run(capsys, ["stabilizer", "--theta", self.THETA])
        data = strict_json(out)
        assert code == 0 and data["pass"]
        assert data["epsilon"]["value"] == str(parse_theta(self.THETA).eps)

    def test_monopole_sweeps_the_tokens_with_a_float(self, capsys):
        code, out = run(capsys, ["monopole", "--theta", self.THETA, "--q-sweep", "1,2,eps^-1"])
        data = strict_json(out)
        ctx = parse_theta(self.THETA)
        assert code == 0 and data["pass"]
        assert data["epsilon"] == str(ctx.eps)
        assert data["expected_constant"]["im"] == str(-ctx.eps * ctx.c(1))

    def test_monopole_names_the_token_without_a_float(self, capsys):
        assert main(["monopole", "--theta", self.THETA]) == 2
        assert "q token 'eps' has no finite float value" in capsys.readouterr().err

    def test_heisenberg_verify_is_config_error(self, capsys):
        assert main(["heisenberg-verify", "--theta", self.THETA, "--grades", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: --grades 1 needs over 2^")

    def test_a_q_that_underflows_is_reported_exactly(self, capsys):
        # eps^-1 is about 10^-331: its float was 0.0, although the sweep
        # tested the exact non-zero field element
        argv = ["monopole", "--theta", self.THETA, "--grades", "3", "--q-sweep", "1,2,eps^-1"]
        code, out = run(capsys, argv)
        row = strict_json(out)["q_sweep"][2]
        assert code == 0 and row["token"] == "eps^-1"
        assert row["q"] == str(parse_theta(self.THETA).eps_pow(-1))

    def test_the_sector_count_is_named_by_its_size(self, capsys):
        # the message spelled out a 330-digit count
        assert main(["heisenberg-verify", "--theta", self.THETA, "--grades", "1"]) == 2
        err = capsys.readouterr().err
        assert "(5 arrays of over 2^" in err and " sectors x 1024 points at grade 1)" in err
        assert max(map(len, re.findall(r"\d+", err))) < 20

    def test_an_expected_constant_beyond_the_float_range_is_exact(self, capsys):
        # eps (543 bits) has a float but -eps c_1 does not: its float
        # product was -Infinity, which is not JSON
        code, out = run(capsys, ["monopole", "--theta", "1/2,1/2,9241", "--q-sweep", "1,eps"])
        data = strict_json(out)
        ctx = parse_theta("1/2,1/2,9241")
        assert code == 0 and isinstance(data["epsilon"], float)
        assert data["expected_constant"]["im"] == str(-ctx.eps * ctx.c(1))


class TestGridValidation:
    @pytest.mark.parametrize("grid", [
        "12,0", "12,2", "12,4", "nan,1024,8", "inf", "-inf", "0", "12,1024,0", "12,1024,-1",
        "1e-300,64",
    ])
    def test_degenerate_grid_is_config_error(self, capsys, grid):
        argv = ["heisenberg-verify", "--theta", "0,1,2", "--grades", "1", f"--grid={grid}"]
        assert main(argv) == 2
        assert "invalid --grid" in capsys.readouterr().err

    def test_a_fourth_field_is_config_error(self, capsys):
        # 12,1024,8,99 ran on the grid 12,1024,8
        argv = ["heisenberg-verify", "--theta", "0,1,2", "--grades", "1", "--grid", "12,1024,8,99"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: invalid --grid") and "three fields" in err

    def test_the_fields_not_given_are_the_gridspec_defaults(self):
        assert cli.parse_grid("12", 1e-6) == heisenberg.GridSpec(L=12.0, tol=1e-6)
        assert cli.parse_grid("12,512", 1e-6) == heisenberg.GridSpec(L=12.0, N=512, tol=1e-6)

    def test_grid_too_wide_for_the_test_vector_is_config_error(self, capsys):
        argv = ["heisenberg-verify", "--theta", "0,1,2", "--grades", "1", "--grid", "1e5"]
        assert main(argv) == 2
        assert "test vector as zero" in capsys.readouterr().err

    def test_coarsest_grid_reports_the_empty_star(self, capsys):
        argv = ["heisenberg-verify", "--theta", "0,1,2", "--grades", "1", "--grid", "12,6"]
        code, out = run(capsys, argv)
        assert code == 1
        data = json.loads(out)
        assert "window overflow" in data["failures"]
        assert "zero on the grid" in data["window_overflow"]


class TestNumericFlags:
    @pytest.mark.parametrize("argv", [
        ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1", "--tol", "nan"],
        ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1", "--tol", "inf"],
        ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1", "--tol-grid", "nan"],
        ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1", "--tol-grid=-1e-6"],
        ["torus-check", "--theta", "0,1,2", "--tol", "nan"],
        ["torus-check", "--theta", "0,1,2", "--tol=-1"],
        ["monopole", "--theta", "0,1,2", "--tol", "inf"],
        ["monopole", "--theta", "0,1,2", "--grades", "1"],
        ["stabilizer", "--theta", "0,1,2", "--grades=-1"],
        ["heisenberg-verify", "--theta", "0,1,2", "--grades", "0"],
        ["pell", "--delta", "5", "--grades=-1"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[3:]))
    def test_out_of_range_is_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "must be" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["torus-check", "--theta", "1/2,1/2,5", "--seed", "-1"],
        ["heisenberg-verify", "--theta", "1/2,1/2,5", "--seed", "-1"],
        ["cohomology", "--builtin", "jet:3", "--seed", "-5"],
        ["cohomology", "--builtin", "jet:3", "--seed=-0x5"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
    def test_a_negative_seed_is_a_usage_error(self, capsys, argv):
        # each ran up to numpy's default_rng, which raised ValueError
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "argument --seed: must be at least 0" in err and "Traceback" not in err

    def test_a_negative_seed_in_a_config_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": -1}))
        assert main(["torus-check", "--theta", "1/2,1/2,5", "--config", str(cfg)]) == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err

    def test_empty_sweep_checks_nothing(self, capsys):
        assert main(["monopole", "--theta", "0,1,2", "--q-sweep", ","]) == 2
        assert "checked nothing" in capsys.readouterr().err

    def test_smallest_grades_run(self, capsys):
        assert main(["monopole", "--theta", "0,1,2", "--grades", "2"]) == 0
        assert main(["stabilizer", "--theta", "0,1,2", "--grades", "0"]) == 0


class TestUsage:
    @pytest.mark.parametrize("argv", [[], ["nope"], ["pell"], ["pell", "--delta", "x"]],
                             ids=["empty", "command", "required", "type"])
    def test_usage_error_returns_2(self, capsys, argv):
        assert main(argv) == 2
        assert "usage:" in capsys.readouterr().err

    def test_help_returns_0(self, capsys):
        assert main(["cohomology", "--help"]) == 0
        assert "--builtin" in capsys.readouterr().out


VECTOR = {"shape": [1], "re": [0.0], "im": [0.0]}


def with_entry(block, key, value):
    """An edit of a dumped instance that sets data[block][key] to value."""
    return lambda data: {**data, block: {**data[block], key: value}}


def tensor(shape, re):
    return {"shape": shape, "re": re, "im": [0.0] * len(re)}


# H of dimension 0 (every table of H empty) acting on B = M = C: each gate is
# a maximum over no entries, so both read 0
DIMENSION_ZERO_H = {
    "name": "H = 0",
    "hopf": {name: tensor([0] * len(axes), []) for name, axes in hopf.FiniteHopf.AXES.items()},
    "coefficients": {
        **{name: tensor([1] * len(hopf.ModuleAlgebra.AXES[name]), [1.0])
           for name in ("mulB", "unitB", "starB", "leftM", "rightM", "starM")},
        "actB": tensor([1, 0, 1], []),
        "actM": tensor([1, 0, 1], []),
    },
}


class TestInstanceFiles:
    @pytest.mark.parametrize("block,name,edit", [
        ("coefficients", "actB", lambda t: t["re"].pop()),
        # one entry would broadcast against re; each part must fill the shape
        ("coefficients", "actB", lambda t: t.update(im=[0.0])),
        ("coefficients", "dB", lambda t: t["re"].__setitem__(0, float("nan"))),
        ("hopf", "mul", lambda t: t["im"].__setitem__(3, float("nan"))),
    ], ids=["short-re", "one-im", "nan-dB", "nan-mul"])
    def test_bad_tensor_is_config_error(self, capsys, tmp_path, block, name, edit):
        data = json.loads(hopf.dump_instance(hopf.cycle_instance(3)))
        edit(data[block][name])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["cohomology", "--instance", str(path)]) == 2
        label = name if block == "coefficients" else f"hopf.{name}"
        assert f"tensor {label}" in capsys.readouterr().err

    @pytest.mark.parametrize("dropped", ["dB", "d1", "leftO2", "dB,d1"])
    def test_partial_degree_two_block_is_config_error(self, capsys, tmp_path, dropped):
        # the wedge is set, so data_report would contract every dropped piece
        data = json.loads(hopf.dump_instance(hopf.cycle_instance(3)))
        for name in dropped.split(","):
            data["coefficients"][name] = None
        path = tmp_path / "partial.json"
        path.write_text(json.dumps(data))
        assert main(["cohomology", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "Traceback" not in err
        assert f"needs {dropped.replace(',', ', ')} too" in err

    @pytest.mark.parametrize("edit,named", [
        (with_entry("coefficients", "mulX", VECTOR), "unknown key(s) 'mulX'"),
        (lambda d: {**d, "coefficients": {k: v for k, v in d["coefficients"].items()
                                          if k != "mulB"}}, "table mulB is missing"),
        (lambda d: {**d, "coefficients": list(d["coefficients"].values())},
         "coefficients is not a JSON object"),
        (lambda d: [d], "the instance is not a JSON object"),
        (with_entry("coefficients", "unitB", {"shape": [2], "re": [1.0, 1.0], "im": [0.0, 0.0]}),
         "table unitB (b) has b = 2, not 3"),
        (with_entry("coefficients", "mulB", None), "table mulB is missing"),
        (with_entry("hopf", "comul", None), "table comul is missing"),
        (lambda d: DIMENSION_ZERO_H, "H has dimension 0"),
    ], ids=["unknown-table", "missing-mulB", "coefficients-list", "top-level-list",
            "short-unitB", "null-mulB", "null-comul", "dimension-0-H"])
    def test_malformed_instance_is_config_error(self, capsys, tmp_path, edit, named):
        data = edit(json.loads(hopf.dump_instance(hopf.cycle_instance(3))))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["cohomology", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot load instance:")
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("token", ["function:2", "function:4", "cycle:2", "cycle:5",
                                       "jet:1", "jet:3"])
    def test_an_instance_dump_reports_as_its_builtin(self, capsys, tmp_path, token):
        path = tmp_path / "dump.json"
        path.write_text(hopf.dump_instance(cli._builtin_instance(token)))
        code, out = run(capsys, ["cohomology", "--builtin", token])
        assert run(capsys, ["cohomology", "--instance", str(path)]) == (code, out)

    def test_a_dump_without_the_symmetry_reports_as_its_builtin(self, capsys, tmp_path):
        # a dump carries no symmetry, as one written before instances
        # declared it did not: the solver finds the point translation and
        # prints the builtin's report byte for byte, the jet algebra's
        # Maurer-Cartan sample included
        path = tmp_path / "dump.json"
        for token in ("jet:3", "cycle:5"):
            data = json.loads(hopf.dump_instance(cli._builtin_instance(token)))
            assert not {"symB", "symM", "symO2"} & set(data["coefficients"])
            path.write_text(json.dumps(data))
            code, want = run(capsys, ["cohomology", "--builtin", token])
            assert code == 0 and run(capsys, ["cohomology", "--instance", str(path)]) == (code, want)

    def test_a_dump_that_declares_a_symmetry_is_refused_by_key(self, capsys, tmp_path):
        # the tables symB, symM and symO2 are no longer part of the format
        data = json.loads(hopf.dump_instance(hopf.cycle_instance(3)))
        translation = {"shape": [3], "re": [1.0, 2.0, 0.0], "im": [0.0] * 3}
        data["coefficients"] |= {"symB": translation, "symM": None, "symO2": translation}
        path = tmp_path / "declared.json"
        path.write_text(json.dumps(data))
        assert main(["cohomology", "--instance", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot load instance:")
        assert "coefficients has unknown key(s) 'symB', 'symM', 'symO2'" in err

    def test_a_table_invariant_up_to_rounding_solves(self, capsys, tmp_path):
        # an entry of 1e-12 in leftM joining the points 0, 1 and 2, where
        # the tables join none: within the data gate's tolerance, but the
        # systems are no longer invariant under the point translation, so
        # the solver factors their whole components and runs every check
        inst = hopf.jet_instance(3)
        leftM = inst.leftM.dense()
        leftM[0, 4, 8] = 1e-12  # b at point 0, m at 1, the product at 2
        noisy = dataclasses.replace(inst, leftM=leftM)
        assert 0 < noisy.data_report()["max"] <= 1e-10
        (A, rows, cols), _ = hopf.hochschild_systems(noisy)
        assert {s[0] for s in hopf.component_shapes(A, rows, cols)} == {1}
        path = tmp_path / "noisy.json"
        path.write_text(hopf.dump_instance(noisy))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        report = json.loads(out)
        assert code == 0 and report["pass"] and "op" in report
        assert report["hochschild"] == json.loads(run(capsys, ["cohomology", "--builtin", "jet:3"])[1])["hochschild"]

    def test_a_data_gate_failure_that_keeps_the_symmetry_keeps_the_report(self, capsys, tmp_path):
        # starM off by 1e-9, as invariant as before: the gate fails, and the
        # solver, which reads no gate, still runs
        inst = hopf.jet_instance(3)
        path = tmp_path / "off.json"
        path.write_text(hopf.dump_instance(dataclasses.replace(inst, starM=inst.starM.dense() * (1 + 1e-9))))
        code, out = run(capsys, ["cohomology", "--instance", str(path)])
        report = json.loads(out)
        # the star is off in the Op checks too
        assert code == 1 and report["failures"][0] == "module-algebra data"
        assert report["data_gate"] > 1e-10 and "data_gate_detail" not in report
        assert {"hochschild", "maurer_cartan", "op"} <= set(report)


VERDICT_RUNS = [
    ["stabilizer", "--theta", "1/2,1/2,5"],
    ["torus-check", "--theta", "1/2,1/2,5"],
    ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1"],
    ["monopole", "--theta", "1/2,1/2,5"],
    ["cohomology", "--builtin", "jet:2"],
]


def assert_csv_is_the_flattened_json(capsys, argv):
    """Every csv row is two fields, the key and value of the flattened JSON
    report in order; a complex value, an {re, im} object in JSON, is one
    row re+imj."""
    _, out = run(capsys, argv)
    _, text = run(capsys, [*argv, "--format", "csv"])
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["key", "value"]
    want, i = cli._flatten(json.loads(out)), 0
    for row in rows[1:]:
        key = row[0]
        if want[i][0] == key:
            expected, i = f"{want[i][1]}", i + 1
        else:
            assert (want[i][0], want[i + 1][0]) == (f"{key}.re", f"{key}.im")
            expected, i = f"{want[i][1]}+{want[i + 1][1]}j", i + 2
        assert row == [key, expected]
    assert i == len(want)


class TestCsv:
    # keys such as twist1.(0,1) and mul_associativity.(1, 1, -1) hold commas
    @pytest.mark.parametrize("argv", [["pell", "--delta", "5"], *VERDICT_RUNS],
                             ids=lambda argv: argv[0])
    def test_rows_are_the_flattened_json_report(self, capsys, argv):
        assert_csv_is_the_flattened_json(capsys, argv)

    def test_the_skipped_reason_is_one_field(self, capsys, tmp_path):
        from test_hopf_op import translations_on_s3

        path = tmp_path / "s3.json"
        path.write_text(hopf.dump_instance(translations_on_s3()))
        assert_csv_is_the_flattened_json(capsys, ["cohomology", "--instance", str(path)])


class TestVerdict:
    @pytest.mark.parametrize("argv", VERDICT_RUNS, ids=lambda argv: argv[0])
    def test_schema(self, capsys, argv):
        code, out = run(capsys, argv)
        data = json.loads(out)
        assert isinstance(data["pass"], bool)
        assert isinstance(data["failures"], list)
        assert all(isinstance(f, str) for f in data["failures"])
        assert list(data)[-2:] == ["failures", "pass"]
        assert (code == 0) == data["pass"]

    def test_pell_has_no_verdict(self, capsys):
        _, out = run(capsys, ["pell", "--delta", "5"])
        assert not {"pass", "failures"} & set(json.loads(out))

    def test_checks(self):
        report = {}
        checks = [("nan", math.nan, 1.0), ("big", 2.0, 1.0), ("edge", 1.0, 1.0),
                  ("false", False), ("true", True)]
        assert cli.verdict(report, checks) == 1
        assert report == {"failures": ["nan", "big", "false"], "pass": False}
        assert cli.verdict(report, [("fine", 0.0, 0.0)]) == 0 and report["pass"]
        assert cli.verdict({}, None) == 0
        with pytest.raises(ConfigError, match="checked nothing"):
            cli.verdict({}, [])

    def test_nan_torus_residual_fails(self, capsys, monkeypatch):
        # NaN on the first of 200 samples: a running Python max drops it
        d_B1, calls = torus.d_B1, []

        def nan_first(w):
            calls.append(w)
            return NaNNorm() if len(calls) == 1 else d_B1(w)

        monkeypatch.setattr(torus, "d_B1", nan_first)
        code, out = run(capsys, ["torus-check", "--theta", "1/2,1/2,5"])
        data = json.loads(out)
        assert code == 1 and data["failures"] == ["d_squared: nan"]

    def test_nan_heisenberg_residual_fails(self, capsys, monkeypatch):
        monkeypatch.setattr(heisenberg.HeisenbergElement, "inner", lambda self, other: math.nan)
        code, out = run(capsys, ["heisenberg-verify", "--theta", "1/2,1/2,5", "--grades", "1"])
        data = json.loads(out)
        assert code == 1
        assert {"twist3 at m=-1: nan", "twist3 at m=1: nan"} <= set(data["failures"])

    def test_nan_cohomology_residual_fails(self, capsys, monkeypatch):
        # NaN centrality of the M-valued MC cocycle, third of its four residuals
        centrality = hopf.centrality
        monkeypatch.setattr(hopf, "centrality",
                            lambda f, tx: math.nan if f.target == "M" else centrality(f, tx))
        code, out = run(capsys, ["cohomology", "--builtin", "cycle:4"])
        data = json.loads(out)
        assert code == 1 and data["failures"] == ["Maurer-Cartan identities"]
        assert math.isnan(data["maurer_cartan"]["mc_is_cocycle"])


class NaNNorm:
    def norm(self):
        return math.nan
