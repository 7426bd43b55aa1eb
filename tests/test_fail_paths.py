"""Every verification suite can fail.  Each row runs one suite through the
command line with one package function or table perturbed so that a
weight is wrong, and names the exit code and the failing cases that the
suite must then report.  A suite that no perturbation can fail gives no
verdict, so every suite has a row."""

import importlib
import json
import pkgutil

import pytest

import metaice
from metaice import cli
from metaice import crystal as C
from metaice import metaplectic as MP
from metaice import qgroup as QG
from metaice import rvertex as R


def _clear_memos():
    """Empty every memo of the package, so that no weight computed with or
    without a perturbation outlives it."""
    for info in pkgutil.iter_modules(metaice.__path__):
        module = importlib.import_module("metaice." + info.name)
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    R._R_MEMO.clear()


def _double_frozen_numerators(cases):
    """Appendix case 8 with its frozen lhs numerators doubled."""
    def doubled(builder, nq):
        for charges, lhs, rhs in builder(nq):
            yield charges, {key: num * 2 for key, num in lhs.items()}, rhs
    return [(name, spins, (lambda nq, b=builder: doubled(b, nq)) if name == "8" else builder)
            for name, spins, builder in cases]


def _double_all_plus_crossing(r_weight):
    """The crossing weight with all four legs (1, 1) at rows (1, 2) doubled."""
    def bent(nw, sw, ne, se, rows, nq):
        w = r_weight(nw, sw, ne, se, rows, nq)
        return w * 2 if rows == (1, 2) and nw == sw == ne == se == (1, 1) else w
    return bent


def _double_charge_swap(r_weight):
    """The weights that move each charge across the crossing, doubled."""
    def bent(nw, sw, ne, se, rows, nq):
        w = r_weight(nw, sw, ne, se, rows, nq)
        return w * 2 if nw != sw and (ne, se) == (sw, nw) else w
    return bent


def _double_kojima_entry(kojima_r):
    """The untwisted matrix with its ((1, 1), (1, 1)) entry doubled."""
    def bent(z, nq):
        mat = kojima_r(z, nq)
        key = ((1, 1), (1, 1))
        return {**mat, key: mat[key] * 2}
    return bent


def _double_tau2(tau_fracs):
    """The crossing coefficients with tau2 doubled."""
    def bent(d, i, nq):
        tau1, tau2 = tau_fracs(d, i, nq)
        return tau1, 2 * tau2
    return bent


def _split_without_w0(class_pieces):
    """The class split with w0(lambda) dropped: pieces land in wrong classes."""
    return lambda I, lam, basis: class_pieces(I, (0,) * len(lam), basis)


# suite: argv, (patch owner, attribute), perturbation of its value, failing cases
ROWS = {
    "appendix": (["verify", "appendix", "--nq", "1"],
                 (R, "APPENDIX_CASES"), _double_frozen_numerators, ["8"]),
    "rtt": (["verify", "rtt", "--nq", "1,2"],
            (R, "r_weight"), _double_all_plus_crossing, ["nq=1", "nq=2"]),
    "rrr": (["verify", "rrr", "--nq", "1,2"],
            (R, "r_weight"), _double_all_plus_crossing, ["nq=1", "nq=2"]),
    "unitarity": (["verify", "unitarity", "--nq", "1,2"],
                  (R, "r_weight"), _double_all_plus_crossing, ["nq=1", "nq=2"]),
    "twist": (["verify", "twist", "--nq", "1,2,3"],
              (QG, "kojima_r"), _double_kojima_entry, ["nq=1", "nq=2", "nq=3"]),
    "prop71": (["verify", "prop71", "--n", "3", "--b", "1", "--c", "1"],
               (MP, "_tau_fracs"), _double_tau2, ["n=3,b=1,c=1"]),
    "thm12": (["verify", "thm12", "--n", "3", "--b", "1", "--c", "1", "--rank", "3"],
              (MP, "_tau_fracs"), _double_tau2, ["n=3,b=1,c=1"]),
    "thm82": (["verify", "thm82", "--lambda", "2,1,0", "--n", "2", "--b", "0", "--c", "1"],
              (C, "_class_pieces"), _split_without_w0, ["gamma=[0, 0, 0]", "classes"]),
    "train": (["verify", "train", "--lambda", "2,0", "--nq", "2"],
              (R, "r_weight"), _double_charge_swap, ["lambda=[2, 0],nq=2"]),
}


def test_every_suite_has_a_row():
    assert set(ROWS) == set(cli.SUITES)
    assert all(argv[:2] == ["verify", suite] for suite, (argv, *_) in ROWS.items())


@pytest.mark.parametrize("suite", sorted(ROWS))
def test_a_wrong_weight_fails_the_suite(suite, monkeypatch, capsys):
    argv, (owner, name), perturb, failing = ROWS[suite]
    assert cli.main(argv) == 0
    capsys.readouterr()
    _clear_memos()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(owner, name, perturb(getattr(owner, name)))
            code = cli.main(argv)
    finally:
        _clear_memos()
    cases = json.loads(capsys.readouterr().out)
    assert code == 1
    assert [case["case"] for case in cases if case["verdict"] == "fail"] == failing
    if suite == "twist":
        # a wrong entry of the untwisted matrix reaches the mismatch listing
        assert all(len(case["lhs"]["mismatches"]) == 1 for case in cases)
