"""Front-end tests: flag parsing, exit codes, report formats, and
agreement between the streamed reports and direct library calls."""

import hashlib
import json
import re

import pytest

from metaice import scalar as S
from metaice import lattice as L
from metaice import crystal as C
from metaice import metaplectic as MP
from metaice import cli

MODULAR = ("--mode", "modular", "--prime", str(S.DEFAULT_PRIME))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


# -- documented invocations --------------------------------------------------

def test_appendix_report_covers_all_cases(capsys):
    code, out = run_cli(capsys, "verify", "appendix", "--nq", "2")
    cases = json.loads(out)
    assert code == 0
    assert len(cases) == 32
    assert all(case["verdict"] == "pass" for case in cases)
    assert all(case["params"] == {"nq": 2} for case in cases)
    assert set(cases[0]) == {"suite", "case", "params", "lhs", "rhs",
                             "verdict", "elapsed"}


def test_partition_value_matches_library(capsys):
    code, out = run_cli(capsys, "ice", "partition", "--lambda", "2,2,0",
                        "--columns", "5", "--n", "2", "--b", "1", "--c", "1",
                        "--charges", "1,1,2")
    assert code == 0
    case = json.loads(out)[0]
    system = L.boundary_from_partition((2, 2, 0), N=5, nq=2)
    assert case["lhs"] == L.partition_function(system, (1, 1, 2)).to_json()
    assert case["params"]["nq"] == 2


def test_thm82_trivial_cover_passes(capsys):
    code, out = run_cli(capsys, "verify", "thm82", "--lambda", "1,0",
                        "--n", "1", "--b", "1", "--c", "1")
    assert code == 0
    cases = json.loads(out)
    assert [case["case"] for case in cases][-1] == "classes"


def test_whittaker_reference_class(capsys):
    code, out = run_cli(capsys, "whittaker", "--lambda", "2,2,0",
                        "--gamma", "4,3,1", "--n", "2", "--b", "1", "--c", "1")
    assert code == 0
    piece_case, value_case = json.loads(out)
    cosets = MP.lattice_and_cosets(MP.CoverParams(2, 1, 1, 3))
    piece = C.coset_piece((4, 3, 1), (2, 2, 0), cosets)
    assert piece_case["lhs"] == piece.to_json()
    assert value_case["lhs"] == (S.z_mono((0, 2, 2), 2) * piece).to_json()


def test_enumerate_count_matches_library(capsys):
    code, out = run_cli(capsys, "ice", "enumerate", "--lambda", "1,0",
                        "--nq", "2")
    assert code == 0
    case = json.loads(out)[0]
    system = L.boundary_from_partition((1, 0), nq=2)
    assert case["lhs"]["count"] == len(L.enumerate_states(system))
    assert len(case["lhs"]["states"]) == case["lhs"]["count"]


def test_single_cover_suites_pass(capsys):
    for argv in (("verify", "prop71", "--n", "3", "--b", "1", "--c", "0"),
                 ("verify", "thm12", "--n", "2", "--b", "1", "--c", "1"),
                 ("verify", "train", "--lambda", "1,0", "--nq", "1,2"),
                 ("verify", "twist", "--nq", "1,2")):
        code, out = run_cli(capsys, *argv)
        assert code == 0
        assert all(case["verdict"] == "pass" for case in json.loads(out))


def test_train_suite_runs_one_transfer_per_system(capsys, monkeypatch):
    calls = []
    completions = L._row_completions

    def spy(*args):
        calls.append(args)
        return completions(*args)

    monkeypatch.setattr(L, "_row_completions", spy)
    L._classes.cache_clear()
    code, _ = run_cli(capsys, "verify", "train", "--lambda", "2,2,0", "--nq", "1,2")
    assert code == 0
    during = len(calls)
    L._classes.cache_clear()
    for nq in (1, 2):
        L.partition_by_class(L.boundary_from_partition((2, 2, 0), nq=nq))
    assert during == len(calls) - during > 0
    # both class maps are memoised by shape: a repeat run makes no row step
    code, _ = run_cli(capsys, "verify", "train", "--lambda", "2,2,0", "--nq", "1,2")
    assert code == 0 and len(calls) == 2 * during


# -- exit codes ---------------------------------------------------------------

def test_usage_errors_exit_two(capsys):
    bad = (
        ("ice", "partition", "--lambda", "1,0", "--nq", "2", "--n", "2"),  # override vs cover
        # abbreviated flags; rtt has no --n, so --n would abbreviate --nq
        ("verify", "rtt", "--nq", "2", "--n", "2"),
        ("verify", "rrr", "--nq", "2", "--tri", "3"),
        ("verify", "twist", "--form", "text"),
        ("verify", "train", "--la", "1,0"),
        ("verify", "rrr", "--mode", "modular", "--seed", "7"),  # no prime
        ("verify", "rrr", "--mode", "symbolic", "--seed", "7"),  # stray seed
        ("verify", "rrr", "--nq", "2", "--seed", "7"),  # seed without --mode modular
        ("verify", "thm82", "--lambda", "1,0"),  # no cover
        ("verify", "thm82", "--n", "2", "--b", "1", "--c", "1"),  # no lambda
        ("verify", "thm82", "--lambda", "1,0", "--nq", "2"),  # override
        ("whittaker", "--lambda", "1,0", "--gamma", "1", "--n", "2"),
        ("ice", "partition", "--lambda", "1,0", "--rank", "3"),
        ("ice", "partition", "--lambda", "1,0", "--b", "1"),  # b without n
        ("ice", "partition", "--lambda", "junk"),
        ("verify", "nosuchsuite"),
        ("verify", "rrr", "--nq", "2", *MODULAR, "--seed", "7", "--trials", "0"),
        # 2^62 is composite; 1 is below 2; the bound is beyond exact testing
        ("verify", "unitarity", "--nq", "2", "--mode", "modular",
         "--prime", str(1 << 62), "--seed", "7"),
        ("verify", "rrr", "--mode", "modular", "--prime", "1", "--seed", "7"),
        ("verify", "rrr", "--mode", "modular",
         "--prime", str(S.PRIME_TEST_BOUND), "--seed", "7"),
        # prime, but its Schwartz-Zippel bound at nq = 2 is 2^-13.2
        ("verify", "unitarity", "--nq", "2", "--mode", "modular",
         "--prime", "101", "--seed", "7"),
        # a modular scan at nq = 1 is bounded too: 2^-9.8 here
        ("verify", "rrr", "--nq", "1", "--mode", "modular",
         "--prime", "101", "--seed", "7"),
        # 2^-41.8 at nq = 1, but 2^-33.6 at nq = 2
        ("verify", "rrr", "--nq", "1,2", "--mode", "modular",
         "--prime", "307", "--seed", "7"),
        # rank 1 has no diagram; rank 0 is not a rank
        ("verify", "thm12", "--rank", "1", "--n", "2", "--b", "1", "--c", "1"),
        ("verify", "prop71", "--rank", "0", "--n", "2"),
        ("verify", "rtt", "--rank", "0"),
        # one part has no simple reflection to swap: zero classes
        ("verify", "train", "--lambda", "0", "--nq", "2"),
        ("ice", "partition", "--lambda", "1,0", "--nq", "2,3"),  # one modulus
        ("verify", "thm82", "--lambda", "2,1,0", "--n", "0"),  # no cover
        ("verify", "thm82", "--lambda", "2,1,0", "--n", "2", "--b", "1",
         "--c", "1", "--columns", "2"),  # grid narrower than lambda_1 + r
        ("ice", "partition", "--lambda", "2,-1,0", "--nq", "1"),  # no partition
        ("ice", "partition", "--lambda", "2,1,0", "--nq", "2",
         "--charges", "1,2"),  # two charges for three rows
        ("ice", "partition", "--lambda", "2,2,0", "--columns", "4"),  # narrow grid
        # only symbolic scans requested: seeded-mode flags have no reader
        ("verify", "rrr", "--nq", "1", "--seed", "3", "--trials", "5"),
        ("verify", "unitarity", "--nq", "1", "--seed", "3"),
        ("verify", "unitarity", "--nq", "1", "--mode", "symbolic", "--trials", "3"),
        ("verify", "rtt", "--nq", "0"),  # no modulus
        ("whittaker", "--lambda", "1,0", "--gamma", "1,0"),  # no cover
    )
    for argv in bad:
        with pytest.raises(SystemExit) as err:
            cli.main(list(argv))
        assert err.value.code == 2, argv
        capsys.readouterr()
    # symbolic scans run at every nq
    code, out = run_cli(capsys, "verify", "rrr", "--nq", "2", "--mode", "symbolic")
    assert code == 0 and json.loads(out)[0]["lhs"]["mode"] == "symbolic"


@pytest.mark.parametrize("argv, refused", [
    (("verify", "twist", "--nq", "1", "--lambda", "3,1", "--rank", "2", "--columns", "9"),
     "--lambda 3,1 --rank 2 --columns 9"),
    (("verify", "train", "--rank", "5", "--nq", "1"), "--rank 5"),
])
def test_suites_refuse_flags_they_do_not_use(capsys, argv, refused):
    with pytest.raises(SystemExit) as err:
        cli.main(list(argv))
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "metaice: error: unrecognized arguments: %s\n" % refused)


VERIFY_FLAGS = sorted(set().union(*cli.SUITE_FLAGS.values()))


@pytest.mark.parametrize("suite, flag", [
    (suite, flag) for suite, row in sorted(cli.SUITE_FLAGS.items())
    for flag in VERIFY_FLAGS if flag not in row])
def test_suite_parsers_take_only_their_row(capsys, suite, flag):
    option = cli.FLAGS[flag][0]
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", suite, option, "1"])
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(
        "unrecognized arguments: %s 1\n" % option)


@pytest.mark.parametrize("error", [KeyError, TypeError, MemoryError, ValueError])
def test_runner_errors_become_one_failing_record(capsys, monkeypatch, error):
    def broken(args):
        raise error("broken suite")

    monkeypatch.setitem(cli.SUITES, "twist", broken)
    code, out = run_cli(capsys, "verify", "twist", "--nq", "1")
    assert code == 1
    assert json.loads(out) == [{"suite": "twist", "case": "error", "params": {},
                                "lhs": {"error": str(error("broken suite"))},
                                "rhs": None, "verdict": "fail", "elapsed": None}]


def test_parser_is_built_once(capsys, monkeypatch):
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    for _ in range(3):
        code, _ = run_cli(capsys, "verify", "twist", "--nq", "1")
        assert code == 0
    assert builds == [1]


def test_zero_seed_and_trial_count_reach_the_scan(capsys, monkeypatch):
    calls = []

    def spy(nq, trials=20, seed=None, p=None):
        calls.append((nq, trials, seed, p))
        return {"mode": "modular", "points": trials, "boundaries": 1,
                "failures": [], "ok": True, "sz_log2_bound": -100.0}

    monkeypatch.setattr(cli.RV, "rrr_scan", spy)
    code, _ = run_cli(capsys, "verify", "rrr", "--nq", "2", *MODULAR,
                      "--seed", "0", "--trials", "1")
    assert code == 0
    assert calls == [(2, 1, 0, S.DEFAULT_PRIME)]


def test_prime_just_large_enough_runs(capsys):
    for suite in ("rrr", "unitarity"):
        code, out = run_cli(capsys, "verify", suite, "--nq", "2", "--mode",
                            "modular", "--prime", "1000003", "--seed", "7")
        assert code == 0
        case = json.loads(out)[0]
        assert case["lhs"]["sz_log2_bound"] < cli.SZ_LOG2_MAX
    assert round(cli.RV._sz_log2_bound(2, 20, 2, 1000003)) == -279


def test_vanished_denominator_is_a_failing_case(capsys, monkeypatch):
    # at p = 3 a crossing denominator 1 - v Z vanishes on the first point;
    # such a prime is a usage error, so lift the bound to reach the scan
    monkeypatch.setattr(cli, "SZ_LOG2_MAX", float("inf"))
    for suite in ("rrr", "unitarity"):
        code, out = run_cli(capsys, "verify", suite, "--nq", "2", "--mode",
                            "modular", "--prime", "3", "--seed", "1")
        assert code == 1
        case = json.loads(out)[0]
        assert case["verdict"] == "fail"
        assert case["lhs"]["error"].startswith("nq=2, trial 0 of seed 1:")


def test_vanished_denominator_keeps_the_other_cases(capsys, monkeypatch):
    # at p = 163 and seed 1, 1 - v Z vanishes on the first nq = 2 point
    # while all 20 nq = 1 points have nonzero denominators
    monkeypatch.setattr(cli, "SZ_LOG2_MAX", float("inf"))
    code, out = run_cli(capsys, "verify", "rrr", "--nq", "1,2", "--mode", "modular",
                        "--prime", "163", "--seed", "1")
    assert code == 1
    passed, vanished = json.loads(out)
    assert passed["case"] == "nq=1" and passed["verdict"] == "pass"
    assert passed["lhs"]["mode"] == "modular"
    assert vanished["case"] == "nq=2" and vanished["params"] == {"nq": 2}
    assert vanished["verdict"] == "fail"
    assert vanished["lhs"]["error"].startswith("nq=2, trial 0 of seed 1:")


def test_verification_failure_exits_one(capsys, monkeypatch):
    def failing_rtt(nq):
        return {"rows": (1, 2), "boundaries": 1, "inhabited": 1,
                "failures": ["broken boundary"], "ok": False}

    def failing_pair(ci, cj, params):
        return {"ok": (ci, cj) != (1, 2)}

    monkeypatch.setattr(cli.RV, "rtt_scan", failing_rtt)
    monkeypatch.setattr(cli.MP, "prop71_check", failing_pair)
    code, out = run_cli(capsys, "verify", "rtt", "--nq", "1")
    assert code == 1
    case = json.loads(out)[0]
    assert case["verdict"] == "fail"
    assert case["rhs"] == {"failures": ["broken boundary"]}
    # the cover sweep: every cover with n <= 4 at the given rank
    code, out = run_cli(capsys, "verify", "prop71", "--rank", "3")
    assert code == 1
    cases = json.loads(out)
    assert len(cases) == 60 and {case["params"]["r"] for case in cases} == {3}
    assert [case["lhs"]["failures"] for case in cases
            if case["verdict"] == "fail"] == [[[1, 2]]] * 58


def test_train_failure_lists_the_unequal_classes(capsys, monkeypatch):
    # double the weight that moves each charge across the crossing: only
    # the classes with c_i != c_{i+1} read it
    plain = cli.RV.r_weight

    def bent(nw, sw, ne, se, rows, nq):
        w = plain(nw, sw, ne, se, rows, nq)
        return w * 2 if nw != sw and (ne, se) == (sw, nw) else w

    monkeypatch.setattr(cli.RV, "r_weight", bent)
    code, out = run_cli(capsys, "verify", "train", "--lambda", "2,0", "--nq", "2")
    assert code == 1
    case, = json.loads(out)
    assert case["verdict"] == "fail"
    fails = case["lhs"]["failures"]
    assert fails
    assert all(charges[i - 1] != charges[i] for i, charges in fails)


def test_suite_help_lists_only_its_flags(capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["verify", "rtt", "--help"])
    assert err.value.code == 0
    flags = re.findall(r"--[a-z]+", capsys.readouterr().out)
    assert set(flags) == {"--help", "--nq", "--format", "--timings"}


# -- report behavior ----------------------------------------------------------

def test_reports_are_byte_identical(capsys):
    _, first = run_cli(capsys, "verify", "twist", "--nq", "1,2")
    _, second = run_cli(capsys, "verify", "twist", "--nq", "1,2")
    assert first == second


# SHA-256 of the stdout of each default report and documented example
PINNED_REPORTS = {
    "verify appendix": "add8cfba36665e54177de26e8a4eb42a04bd647353c4d36f4ad243897365b603",
    "verify rtt": "aefa3853b32339b459446234ae9243110bc09d41476410386be20c7dbee3cca4",
    "verify rrr": "362f2459d8e656ea67a5c4060545ad106e29d3803726c459b5bcbc9573d4d60a",
    "verify unitarity": "7c4e11be7df302f9bab16b8d956dcee86ceb695f6b1bacc1e59bc4173b356bed",
    "verify twist": "1d1738ed619b1572fd0a5e92202ef617a0c0c1867bab2a2d0e76be4792c6c04d",
    "verify prop71": "600d4447384b8f9cd9963990545f497c8b0470b49d9cd0a11c9088d4f80975a9",
    "verify thm12": "1d44581c289eeefcdbe2cb9fc05c2f0e40cf64f5314078b9def9ea58987f1a0a",
    "verify thm82 --lambda 2,2,0 --n 2 --b 1 --c 1":
        "0ea78857fe171ae4b87c324ae50d251e9020bd55e6d6def3f4908314f066f602",
    "verify train": "ce71e3c4512512d7cf573609018d4ecb7e01f78c16d48638b19f6d64291b1131",
    "ice enumerate --lambda 1,0 --nq 2":
        "9712ff2a6c768128ea53556b80d6f41a7e534eb1825a1d45a902a7c9dbb7731f",
    "ice partition --lambda 2,2,0 --columns 5 --n 2 --b 1 --c 1 --charges 1,1,2":
        "68d293bfe98166da750b72170f595ea3d985715fda849a446906a559e3bd2cd4",
    "whittaker --lambda 2,2,0 --gamma 4,3,1 --n 2 --b 1 --c 1":
        "8e715a375792b7e6e282388099fffe18b9d940f89895a6d101cecd022eca594a",
}


def test_default_reports_are_pinned(capsys):
    got = {}
    for argv in PINNED_REPORTS:
        code, out = run_cli(capsys, *argv.split())
        assert code == 0, argv
        got[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_REPORTS


def test_seeded_modular_reports_are_reproducible(capsys):
    argv = ("verify", "rrr", "--nq", "2", "--mode", "modular",
            "--prime", str(S.DEFAULT_PRIME), "--seed", "11")
    _, first = run_cli(capsys, *argv)
    _, second = run_cli(capsys, *argv)
    assert first == second
    case = json.loads(first)[0]
    assert case["lhs"]["mode"] == "modular"
    assert case["lhs"]["sz_log2_bound"] < -40
    assert case["rhs"]["sz_log2_bound_max"] == -40


def test_modes_agree_where_both_run(capsys):
    for suite, boundaries in (("unitarity", 16), ("rrr", 64)):
        code_auto, auto = run_cli(capsys, "verify", suite, "--nq", "1")
        code_sym, sym = run_cli(capsys, "verify", suite, "--nq", "1",
                                "--mode", "symbolic")
        code_mod, mod = run_cli(capsys, "verify", suite, "--nq", "1", *MODULAR,
                                "--seed", "7", "--trials", "3")
        assert code_auto == code_sym == code_mod == 0
        assert auto == sym
        auto, mod = json.loads(auto)[0], json.loads(mod)[0]
        assert auto["lhs"]["mode"] == "symbolic"
        assert auto["lhs"]["boundaries"] == boundaries
        assert mod["lhs"]["mode"] == "modular" and mod["lhs"]["points"] == 3
        assert mod["lhs"]["boundaries"] == 3 * boundaries
        assert mod["lhs"]["sz_log2_bound"] < cli.SZ_LOG2_MAX
        assert mod["verdict"] == auto["verdict"] == "pass"


def test_csv_and_text_formats(capsys):
    _, out = run_cli(capsys, "verify", "twist", "--nq", "1", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "suite,case,params,lhs,rhs,verdict,elapsed"
    assert len(lines) == 2 and lines[1].startswith("twist,nq=1,")
    _, out = run_cli(capsys, "verify", "twist", "--nq", "1", "--format", "text")
    assert out.splitlines() == ["PASS twist :: nq=1", "passed 1/1"]


def test_timings_flag_fills_elapsed(capsys):
    _, out = run_cli(capsys, "verify", "twist", "--nq", "1")
    assert json.loads(out)[0]["elapsed"] is None
    _, out = run_cli(capsys, "verify", "twist", "--nq", "1", "--timings")
    assert json.loads(out)[0]["elapsed"] > 0


def test_rtt_report_shape(capsys):
    code, out = run_cli(capsys, "verify", "rtt", "--nq", "1")
    assert code == 0
    case = json.loads(out)[0]
    assert case["lhs"]["inhabited"] > 0
    assert case["rhs"] == {"failures": []}
