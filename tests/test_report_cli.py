"""Report documents, serialization contracts, and the CLI surface."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from dualcoh import cli
from dualcoh.catalog import FAMILIES, FAMILY_ALIASES, FAMILY_IDS, sweep_parameter_list
from dualcoh.errors import InconsistentPresentationError, InvalidPresentationError
from dualcoh.report import (
    SCHEMA_VERSION,
    ReportDocument,
    RunConfig,
    element_from_pairs,
    run_checks,
    run_family,
    run_sweep,
    sweep_to_json,
)
from dualcoh.rings import RINGS, su_algebra


def family_config(**kw):
    base = dict(family_id="sl-imag-sp", parameters={"n": 2})
    base.update(kw)
    return RunConfig(**base)


class TestReportDocument:
    def test_fields_and_values(self):
        doc = run_family(family_config())
        assert doc.family == "sl-imag-sp"
        assert doc.betti_G[0] == 1 and doc.betti_G[-1] == 1
        assert doc.fundamental_class == [["e5^1", "-1"]]
        assert doc.top_degree_G - doc.top_degree_H == 5
        assert doc.nonvanishing["verdict"] is True
        assert doc.nonvanishing["witness"] == [["e3^1*e7^1", "1"]]
        assert doc.ghost["present"] and doc.ghost["is_ghost"]
        assert doc.timing is not None

    def test_json_roundtrip_lossless(self):
        doc = run_family(family_config())
        data = json.loads(doc.to_json())
        back = ReportDocument.from_dict(data)
        assert back.to_dict() == doc.to_dict()

    def test_no_floats_anywhere(self):
        doc = run_family(family_config(checks=("oracle", "paper-identities")))

        def scan(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for k, v in node.items():
                    scan(k)
                    scan(v)
            elif isinstance(node, list):
                for v in node:
                    scan(v)

        scan(doc.to_dict())

    def test_witness_reverifies_from_serialized_terms(self):
        from dualcoh import pairing, family_sl_imag_sp
        doc = run_family(family_config(parameters={"n": 3}))
        inst = family_sl_imag_sp(3)
        G = inst.dual_G
        fc = element_from_pairs(G, doc.fundamental_class)
        w = element_from_pairs(G, doc.nonvanishing["witness"])
        assert pairing(fc, w) != 0

    @pytest.mark.parametrize("coeff", [0.1, 1.0, True, None, Fraction(1, 2)])
    def test_serialized_coefficient_must_be_a_string_or_int(self, coeff):
        G = su_algebra(3)
        assert element_from_pairs(G, [["e3^1", "1/10"], ["e5^1", 2]]) == G.element(
            {(1, 0): Fraction(1, 10), (0, 1): 2})
        with pytest.raises(InvalidPresentationError, match="string or an int"):
            element_from_pairs(G, [["e3^1", coeff]])

    @pytest.mark.parametrize("pairs", [
        [["e3^1", "abc"]], [["e3^1", "1/0"]], [["e9^1", "1"]], [["e3^x", "1"]],
        [["e3^1"]], [["e3^1", "1", "2"]], [[3, "1"]], [[None, "1"]], [["e3^-1", "1"]]],
        ids=["coefficient", "zero-denominator", "generator", "exponent", "short-pair",
             "long-pair", "int-monomial", "none-monomial", "negative-exponent"])
    def test_malformed_terms_refused(self, pairs):
        with pytest.raises(InvalidPresentationError):
            element_from_pairs(su_algebra(3), pairs)

    def test_checks_attached(self):
        doc = run_family(family_config(checks=("properties",)))
        names = {r["name"] for r in doc.check_results}
        assert "duality-nondegeneracy" in names
        assert all(r["passed"] for r in doc.check_results)

    def test_determinism_byte_identical(self):
        cfg = family_config(checks=("oracle",))
        a = run_family(cfg).to_json()
        b = run_family(family_config(checks=("oracle",))).to_json()
        assert a == b

    def test_family_alias(self):
        doc = run_family(RunConfig(family_id="siegel",
                                   parameters={"g": 2, "parts": [1, 1]}))
        assert doc.family == "siegel-product"


class TestSweep:
    def test_siegel_sweep_counts(self):
        cfg = RunConfig(family_id="siegel-product", parameters={})
        reports, errors, summary, _ = run_sweep("siegel-product", {"g": (2, 4)}, cfg)
        assert summary["instances"] == 4  # [1,1]; [2,1]; [2,2],[3,1]
        assert summary["nonvanishing_true"] == 4
        assert summary["errors"] == 0 and not errors

    def test_empty_range(self):
        cfg = RunConfig(family_id="sp-in-ugg", parameters={})
        reports, errors, summary, _ = run_sweep("sp-in-ugg", {"g": (3, 2)}, cfg)
        assert summary["instances"] == 0
        assert reports == [] and errors == []

    def test_sweep_bytes_deterministic(self):
        cfg = RunConfig(family_id="unitary-product", parameters={})
        ranges = {"p": (1, 2), "q": (1, 2)}
        one = sweep_to_json(*run_sweep("unitary-product", ranges, cfg)[:3])
        two = sweep_to_json(*run_sweep("unitary-product", ranges, cfg)[:3])
        assert one == two

    def test_unknown_suite_rejected(self):
        with pytest.raises(Exception):
            RunConfig(family_id="sp-in-ugg", parameters={"g": 1},
                      checks=("nonsense",))


class TestRunChecks:
    def test_single_suite(self):
        out = run_checks(RunConfig(family_id=None, parameters={},
                                   checks=("paper-identities",)))
        assert out["passed"] is True
        assert {r["name"] for r in out["results"]} >= {
            "lagrangian-square-truncation", "lagrangian-top-product"}


    def test_repeated_suite_runs_once(self, capsys):
        outputs = []
        for argv in (["--suite", "oracle", "--suite", "oracle"], ["--suite", "oracle"]):
            assert cli.main(["check", *argv, "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["suites"] == ["oracle"]

    def test_repeated_family_check_runs_once(self, capsys):
        outputs = []
        for checks in ("oracle,oracle", "oracle"):
            assert cli.main(["family", "sl-imag-sp", "--n", "2", "--checks", checks,
                             "--json"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        names = [r["name"] for r in json.loads(outputs[0])["check_results"]]
        assert len(names) == len(set(names)) and "betti-oracle" in names


class TestCli:
    def test_family_text(self, capsys):
        assert cli.main(["family", "sl-imag-sp", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "nonvanishing: True" in out and "ghost: True" in out

    def test_family_json(self, capsys):
        assert cli.main(["family", "siegel", "--g", "2", "--parts", "1,1",
                         "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family"] == "siegel-product"
        assert data["nonvanishing"]["verdict"] is True
        assert "timing" not in data

    def test_family_siegel_g7_with_identities(self, capsys):
        assert cli.main(["family", "siegel", "--g", "7", "--parts", "4,3",
                         "--checks", "paper-identities", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nonvanishing"]["verdict"] is True
        results = {r["name"]: r["passed"] for r in data["check_results"]}
        assert results == {"theta-pairing-identity": True}

    def test_family_siegel_seven_parts(self, capsys):
        # seven factors: more than there are Greek factor prefixes
        assert cli.main(["family", "siegel", "--g", "7", "--parts", "1,1,1,1,1,1,1",
                         "--checks", "oracle,paper-identities,properties", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["nonvanishing"]["verdict"] is True
        assert data["check_results"] and all(r["passed"] for r in data["check_results"])

    def test_usage_errors(self, capsys):
        assert cli.main(["family", "siegel", "--g", "2", "--parts", "3"]) == 2
        assert cli.main(["family", "nonsense", "--n", "2"]) == 2
        assert cli.main(["family", "siegel", "--g", "2"]) == 2
        assert cli.main(["family", "unitary", "--p", "2", "--q", "2",
                         "--parts", "bogus"]) == 2

    def test_cap_exit_code(self, capsys):
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--cap", "2"]) == 3

    def test_cap_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALCOH_MONOMIAL_CAP", "2")
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1"]) == 3
        # explicit flag wins over the environment
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--cap", "100000"]) == 0

    def test_inconsistency_exit_code(self, capsys, monkeypatch):
        def boom(config):
            raise InconsistentPresentationError("forced")
        monkeypatch.setattr(cli, "run_family", boom)
        assert cli.main(["family", "sl-imag-sp", "--n", "2"]) == 4

    def test_sweep_text(self, capsys):
        assert cli.main(["sweep", "sl-odd-real", "--n", "1..2"]) == 0
        out = capsys.readouterr().out
        assert "nonvanishing true 2" in out

    def test_sweep_json_determinism(self, capsys):
        args = ["sweep", "siegel", "--g", "2..3", "--json"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        data = json.loads(first)
        assert data["summary"]["instances"] == 2

    def test_check_subcommand(self, capsys):
        assert cli.main(["check", "--suite", "paper-identities", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True

    def test_ring_poincare(self, capsys):
        assert cli.main(["ring", "grassmannian", "--p", "2", "--q", "3",
                         "--poincare"]) == 0
        out = capsys.readouterr().out.split()
        assert out == ["1", "0", "1", "0", "2", "0", "2", "0", "2", "0", "1",
                       "0", "1"]

    def test_ring_json(self, capsys):
        assert cli.main(["ring", "lagrangian", "--g", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["total_dimension"] == 4
        assert data["poincare"] == [1, 0, 1, 0, 1, 0, 1]

    def test_ring_usage(self, capsys):
        assert cli.main(["ring", "lagrangian"]) == 2
        assert cli.main(["ring", "bogus", "--n", "2"]) == 2

    def test_family_json_n3_report_values(self, capsys):
        assert cli.main(["family", "sl-imag-sp", "--n", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        terms = data["fundamental_class"]
        assert len(terms) == 1 and terms[0][0] == "e5^1*e9^1"
        assert terms[0][1] in ("1", "-1")
        assert data["nonvanishing"]["verdict"] is True
        assert data["ghost"]["is_ghost"] is True

    def test_unitary_deficit_sweep_all_true(self, capsys):
        # p = 1, q up to 4, including parts like [(1, q-1)] with q_i short of q
        assert cli.main(["sweep", "unitary", "--p", "1..1", "--q", "2..4",
                         "--allow-q-deficit", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["summary"]["nonvanishing_false"] == 0
        assert data["summary"]["errors"] == 0
        wanted = [{"p": 1, "q": q, "parts": [[1, q - 1]]} for q in (2, 3, 4)]
        seen = [r["parameters"] for r in data["reports"]]
        for params in wanted:
            assert params in seen

    def test_config_file_defaults_and_flag_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "dualcoh.json"
        cfg.write_text(json.dumps({"cap": 2, "checks": ["oracle"]}))
        # config cap of 2 forces the resource error
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--config", str(cfg)]) == 3
        # explicit flag overrides the config file
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--config", str(cfg), "--cap", "100000", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert {r["name"] for r in data["check_results"]} == {"betti-oracle"}

    def test_config_file_read_once_per_command(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "dualcoh.json"
        cfg.write_text(json.dumps({"seed": 7}))
        paths = []
        load = cli._load_config_file
        monkeypatch.setattr(cli, "_load_config_file",
                            lambda path: paths.append(path) or load(path))
        assert cli.main(["family", "sl-imag-sp", "--n", "2",
                         "--config", str(cfg), "--json"]) == 0
        assert paths == [str(cfg)]

    def test_config_file_unreadable(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert cli.main(["family", "sl-imag-sp", "--n", "2",
                         "--config", str(bad)]) == 2

    def test_sweep_bad_range_is_usage_error(self, capsys):
        assert cli.main(["sweep", "siegel", "--g", "x..3"]) == 2
        assert "cannot parse range" in capsys.readouterr().err

    def test_sweep_reversed_range_is_usage_error(self, capsys):
        assert cli.main(["sweep", "siegel", "--g", "5..2", "--json"]) == 2
        captured = capsys.readouterr()
        assert "reversed" in captured.err and not captured.out

    def test_cap_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("DUALCOH_MONOMIAL_CAP", "abc")
        assert cli.main(["family", "sl-imag-sp", "--n", "2"]) == 2
        assert "DUALCOH_MONOMIAL_CAP" in capsys.readouterr().err
        assert cli.main(["ring", "lagrangian", "--g", "2"]) == 2

    def test_cap_env_ignored_when_flag_or_config_sets_cap(self, capsys, monkeypatch, tmp_path):
        # flags beat the config file, which beats the environment: a cap set
        # by either leaves a malformed DUALCOH_MONOMIAL_CAP unread
        monkeypatch.setenv("DUALCOH_MONOMIAL_CAP", "abc")
        assert cli.main(["family", "sl-imag-sp", "--n", "2", "--cap", "1000"]) == 0
        cfg = tmp_path / "dualcoh.json"
        cfg.write_text(json.dumps({"cap": 1000}))
        assert cli.main(["family", "sl-imag-sp", "--n", "2", "--config", str(cfg)]) == 0
        assert cli.main(["ring", "lagrangian", "--g", "2", "--cap", "1000"]) == 0
        cfg.write_text(json.dumps({"cap": 2}))
        monkeypatch.setenv("DUALCOH_MONOMIAL_CAP", "1000000")
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--config", str(cfg)]) == 3

    def test_cap_below_one_is_usage_error(self, capsys, monkeypatch):
        assert cli.main(["ring", "lagrangian", "--g", "3", "--cap", "0"]) == 2
        assert cli.main(["family", "siegel", "--g", "3", "--parts", "2,1",
                         "--cap", "-1"]) == 2
        monkeypatch.setenv("DUALCOH_MONOMIAL_CAP", "0")
        assert cli.main(["ring", "lagrangian", "--g", "3"]) == 2
        assert "at least 1" in capsys.readouterr().err

    def test_ring_cap_exit_code(self, capsys):
        assert cli.main(["ring", "lagrangian", "--g", "3", "--cap", "2"]) == 3

    @pytest.mark.parametrize("command", ["family", "sweep", "ring"])
    def test_cap_help_is_shared(self, capsys, command):
        assert cli.main([command, "--help"]) == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--cap CAP {cli._CAP_HELP}" in help_text
        assert "200000" in cli._CAP_HELP

    def test_config_file_values_validated(self, capsys, tmp_path):
        cfg = tmp_path / "dualcoh.json"
        for bad in ({"cap": "abc"}, {"seed": "abc"}, {"seed": 1.5},
                    {"cap": True}, {"checks": 5}, {"checks": [1]}):
            cfg.write_text(json.dumps(bad))
            assert cli.main(["family", "sl-imag-sp", "--n", "2",
                             "--config", str(cfg)]) == 2, bad
            assert "usage error" in capsys.readouterr().err


def _flags(params):
    """The ``family`` command-line flags for a parameter dict."""
    out = []
    for k, v in params.items():
        if k == "parts":
            v = ",".join(":".join(map(str, a)) if isinstance(a, list) else str(a) for a in v)
        out += [f"--{k}", str(v)]
    return out


class TestFamilyTable:
    """Every family id and alias of the catalog table, through the CLI."""

    @staticmethod
    def smallest(fid):
        ranks = FAMILIES[FAMILY_ALIASES.get(fid, fid)].ranks
        return sweep_parameter_list(fid, {k: (1, 2) for k in ranks})[0]

    @pytest.mark.parametrize("fid", [*FAMILY_IDS, *FAMILY_ALIASES])
    def test_smallest_instance(self, fid, capsys):
        assert cli.main(["family", fid, *_flags(self.smallest(fid)), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["family"] == FAMILY_ALIASES.get(fid, fid)
        assert data["parameters"] == self.smallest(fid)

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_missing_or_unknown_flag_exits_2(self, fid, capsys):
        params = self.smallest(fid)
        for k in params:
            argv = ["family", fid, *_flags({j: v for j, v in params.items() if j != k})]
            assert cli.main(argv) == 2, argv
            assert f"family {fid} needs exactly" in capsys.readouterr().err
        other = next(k for k in ("n", "g", "p", "q") if k not in params)
        assert cli.main(["family", fid, *_flags(params), f"--{other}", "1"]) == 2
        assert other in capsys.readouterr().err.split("; got ")[1].strip().split(", ")

    @pytest.mark.parametrize("fid", FAMILY_IDS)
    def test_sweep_missing_range_exits_2(self, fid, capsys):
        ranks = FAMILIES[fid].ranks
        for k in ranks:
            argv = ["sweep", fid, *(a for j in ranks if j != k for a in (f"--{j}", "1..2"))]
            assert cli.main(argv) == 2, argv
            assert f"sweep {fid} needs exactly" in capsys.readouterr().err

    @pytest.mark.parametrize("rid", RINGS)
    def test_ring_missing_flag_exits_2(self, rid, capsys):
        names = RINGS[rid][1]
        for k in names:
            argv = ["ring", rid, *(a for j in names if j != k for a in (f"--{j}", "2"))]
            assert cli.main(argv) == 2, argv
            assert f"ring {rid} needs exactly" in capsys.readouterr().err
        assert cli.main(["ring", rid, *(a for j in names for a in (f"--{j}", "2"))]) == 0


def test_python_m_dualcoh_prints_what_main_prints(capsys):
    # -I would also drop the working directory (src) from sys.path, so the
    # run is isolated with -E -s instead.
    argv = ["ring", "su", "--n", "3", "--json"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run([sys.executable, "-E", "-s", "-m", "dualcoh", *argv], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert cli.main(argv) == 0
    assert out == capsys.readouterr().out


def test_cli_import_does_not_import_main():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, dualcoh.cli; print('dualcoh.__main__' in sys.modules)"
    out = subprocess.run([sys.executable, "-E", "-s", "-c", code], cwd=src,
                         capture_output=True, text=True, check=True).stdout
    assert out == "False\n"


class TestParserReuse:
    """``main`` builds its parser once per process; every later call must
    parse exactly as a freshly built parser would."""

    @pytest.fixture
    def recorded(self, monkeypatch):
        seen = []
        for name in ("cmd_family", "cmd_sweep", "cmd_check", "cmd_ring"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        return seen

    def test_parser_not_built_at_import(self):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = "import dualcoh.cli as c; print(c._parser.cache_info().currsize)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env={**os.environ, "PYTHONPATH": src}).stdout
        assert out.strip() == "0"

    def test_parser_built_once(self, monkeypatch, recorded):
        cli._parser.cache_clear()
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        assert cli.main(["ring", "su", "--n", "3"]) == 0
        assert cli.main(["ring", "su", "--n", "4"]) == 0
        assert builds == [1]
        cli._parser.cache_clear()

    def test_second_call_parses_like_a_fresh_parser(self, recorded):
        argvs = [
            ["check", "--suite", "oracle", "--suite", "paper-identities", "--json"],
            ["check", "--suite", "oracle", "--suite", "paper-identities", "--json"],
            ["check"],
            ["family", "sl-imag-sp", "--n", "2", "--checks", "oracle,properties"],
            ["family", "sl-imag-sp", "--n", "2"],
            ["sweep", "siegel", "--g", "2..3"],
        ]
        for argv in argvs:
            assert cli.main(argv) == 0
        assert recorded == [vars(cli.build_parser().parse_args(argv)) for argv in argvs]
        # The append action's list default is never extended in place.
        assert [r["suite"] for r in recorded[:3]] == [
            ["oracle", "paper-identities"], ["oracle", "paper-identities"], []]
        assert [r["checks"] for r in recorded[3:5]] == ["oracle,properties", ""]

    def test_version_twice(self, capsys):
        for _ in range(2):
            assert cli.main(["--version"]) == 0
            assert capsys.readouterr().out == f"dualcoh {cli.TOOL_VERSION}\n"

    def test_usage_error_then_valid_call(self, capsys):
        assert cli.main(["family"]) == 2
        assert "family_id" in capsys.readouterr().err
        assert cli.main(["ring", "grassmannian", "--p", "1", "--q", "1",
                         "--poincare"]) == 0
        assert capsys.readouterr().out.split() == ["1", "0", "1"]
        assert cli.main(["check", "--suite"]) == 2
        assert cli.main(["check", "--suite", "paper-identities", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["suites"] == ["paper-identities"]


# SHA-256 of what each command prints, run in-process.  A change that moves
# any byte of these outputs must update the digests on purpose, and bump
# SCHEMA_VERSION when it changes the layout.
GOLDEN_DIGESTS = {
    "sweep siegel --g 2..6 --json":
        "a21cb52a0d5d3dfaf9a372c2aff625b38a45e5793bd0c33ecbaf4388312a2e4a",
    "sweep sp-in-ugg --g 1..5 --json":
        "8d92c505dd318dcf940b36a5d010b10341e5c39737bbe4fa590055a534f3379f",
    "sweep unitary --p 1..5 --q 1..5 --json":
        "ead3030913a3dc1732b4e61c4852d0ea4c54c63d7983acb58feecf10fb1ba045",
    "sweep sl-imag-sp --n 2..6 --json":
        "91462a643c7161d7c6135f13acbe8103785c2f4620191410201c745490305530",
    "sweep sl-odd-real --n 1..5 --json":
        "2198f97d983185934f5065d6a5971904af2e4d5e2891237cebd41430fc11855f",
    "check --json --seed 21":
        "72cae0bb83150f124642decaf6899e1c71b49aba73d86a5c7d56e79683de89d7",
    # product families at their edges: a one-part Siegel H (a copy of G),
    # seven factors, and a three-factor unitary H
    "family siegel --g 3 --parts 3 --json --checks oracle,paper-identities,properties":
        "e1ba66c0822d0f30c694b347b64bfe7c4af4af7ef436b01036f3cfc7c4e19e88",
    "family siegel --g 7 --parts 1,1,1,1,1,1,1 --json --checks oracle,paper-identities,properties":
        "f6e5db7468a146df2e7f833632544882c4c6b0d08fe846edda67cdb88e09d398",
    "family unitary --p 3 --q 3 --parts 1:1,1:1,1:1 --json --checks oracle,paper-identities,properties":
        "afe00f5b5dfb054df73cded2f1d60396c8e20e18a4c70b20eb3ee0a45ea195c8",
}


def test_golden_digests(capsys, monkeypatch):
    """The five certified sweeps, one ``check`` and three product-family
    instances print exactly the pinned bytes, under schema version 2."""
    monkeypatch.delenv("DUALCOH_MONOMIAL_CAP", raising=False)
    assert SCHEMA_VERSION == 2
    for command, digest in GOLDEN_DIGESTS.items():
        assert cli.main(command.split()) == 0, command
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest, command
