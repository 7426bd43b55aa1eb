"""Command-line front end: state enumeration, partition functions,
Whittaker values, and the verification suites, with seeded randomized
modes and machine-readable reports.

Reports are streams of case records {suite, case, params, lhs, rhs,
verdict, elapsed} rendered as json, csv, or text.  Identical
invocations produce byte-identical reports; per-case wall times are
filled in only under --timings since they vary run to run.  Exit status
is 0 when every case passes, 1 when any case fails, 2 on usage errors.
"""

import argparse
import csv
import io
import json
import time
from itertools import product

from . import scalar as S
from . import lattice as L
from . import rvertex as RV
from . import qgroup as QG
from . import metaplectic as MP
from . import crystal as C


DEFAULT_SEED = 20260815
SZ_LOG2_MAX = -40.0


class RunConfig:
    """One parsed invocation: subcommand, cover or modulus data, grid
    data, evaluation mode, and report options."""

    __slots__ = ["subcommand", "n", "b", "c", "rank", "lam", "columns",
                 "charges", "gamma", "nq", "mode", "prime", "seed",
                 "trials", "fmt", "timings"]

    def __init__(self, subcommand, **kw):
        self.subcommand = subcommand
        for name in self.__slots__[1:]:
            setattr(self, name, kw.get(name))

    def cover(self):
        """CoverParams from the n/b/c flags; rank defaults to the
        partition length when one was given."""
        rank = self.rank
        if rank is None:
            rank = 2 if self.lam is None else len(self.lam)
        return MP.CoverParams(self.n, self.b or 0, self.c or 0, rank)

    def modulus(self):
        """Single working modulus: the explicit override, the cover's
        n_Q, or 1."""
        if self.nq is not None:
            return self.nq[0]
        if self.n is not None:
            return self.cover().nq
        return 1


def _ints(text):
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("expected comma-separated integers, got %r" % text)


def _case(suite, case, params, lhs, rhs, ok, elapsed=None):
    return {"suite": suite, "case": case, "params": params, "lhs": lhs,
            "rhs": rhs, "verdict": "pass" if ok else "fail",
            "elapsed": elapsed}


def _clock(cfg):
    return time.perf_counter() if cfg.timings else None


def _elapsed(start):
    return None if start is None else time.perf_counter() - start


# -- verification suites ---------------------------------------------------

def _suite_appendix(cfg):
    cases = []
    for nq in cfg.nq or (1, 2, 3, 4):
        start = _clock(cfg)
        rep = RV.appendix_regression(nq)
        took = _elapsed(start)
        bad = {}
        for item in rep["mismatches"]:
            bad.setdefault(item[0], []).append(str(item[1:]))
        cases += [_case("appendix", entry["case"], {"nq": nq},
                        {"instances": entry["instances"],
                         "states": entry["states"]},
                        {"frozen_rows": entry["frozen_rows"],
                         "mismatches": bad.get(entry["case"], [])},
                        entry["case"] not in bad, took)
                  for entry in rep["cases"]]
    return cases


def _suite_rtt(cfg):
    cases = []
    for nq in cfg.nq or (1, 2, 3):
        start = _clock(cfg)
        rep = RV.rtt_scan(nq)
        cases.append(_case("rtt", "nq=%d" % nq,
                           {"nq": nq, "rows": list(rep["rows"])},
                           {"boundaries": rep["boundaries"],
                            "inhabited": rep["inhabited"]},
                           {"failures": [str(f) for f in rep["failures"]]},
                           rep["ok"], _elapsed(start)))
    return cases


def _scan_suite(name, scan, cfg):
    cases = []
    for nq in cfg.nq:
        start = _clock(cfg)
        try:
            rep = scan(nq, cfg.trials, cfg.seed, cfg.prime, cfg.mode == "modular")
        except ZeroDivisionError as exc:
            # a modular denominator vanished at a sample point; the
            # message names the trial and the seed
            cases.append(_case(name, "nq=%d" % nq, {"nq": nq}, {"error": str(exc)},
                               None, False, _elapsed(start)))
            continue
        took = _elapsed(start)
        lhs = {"mode": rep["mode"], "boundaries": rep["boundaries"],
               "failures": [str(f) for f in rep["failures"]]}
        rhs = {"failures": []}
        ok = rep["ok"]
        if rep["mode"] == "modular":
            lhs["points"] = rep["points"]
            lhs["sz_log2_bound"] = rep["sz_log2_bound"]
            rhs["sz_log2_bound_max"] = SZ_LOG2_MAX
            ok = ok and rep["sz_log2_bound"] < SZ_LOG2_MAX
        cases.append(_case(name, "nq=%d" % nq, {"nq": nq}, lhs, rhs, ok, took))
    return cases


def _suite_twist(cfg):
    cases = []
    for nq in cfg.nq or (1, 2, 3):
        start = _clock(cfg)
        rep = QG.compare_to_ice_r(nq)
        cases.append(_case("twist", "nq=%d" % nq,
                           {"nq": nq, "rows": list(rep["rows"])},
                           {"entries": rep["entries"],
                            "mismatches": [str(m) for m in rep["mismatches"]]},
                           {"mismatches": []}, rep["ok"], _elapsed(start)))
    return cases


def _cover_list(cfg, max_n):
    if cfg.n is not None:
        return [cfg.cover()]
    rank = 2 if cfg.rank is None else cfg.rank
    return [MP.CoverParams(n, b, c, rank)
            for n in range(1, max_n + 1)
            for b in range(n) for c in range(2 * n)]


def _suite_prop71(cfg):
    cases = []
    for params in _cover_list(cfg, 4):
        start = _clock(cfg)
        fails = []
        pairs = 0
        for ci, cj in product(range(1, params.n + 1), repeat=2):
            pairs += 1
            if not MP.prop71_check(ci, cj, params)["ok"]:
                fails.append([ci, cj])
        cases.append(_case("prop71", "n=%d,b=%d,c=%d" % (params.n, params.b, params.c),
                           params.to_json(), {"pairs": pairs, "failures": fails},
                           {"failures": []}, not fails, _elapsed(start)))
    return cases


def _suite_thm12(cfg):
    cases = []
    for params in _cover_list(cfg, 4):
        start = _clock(cfg)
        fails = []
        count = 0
        for i in range(1, params.r):
            for residues in product(range(1, params.n + 1), repeat=params.r):
                count += 1
                if not MP.theorem12_diagram(params, residues, i)["ok"]:
                    fails.append([i, list(residues)])
        cases.append(_case("thm12", "n=%d,b=%d,c=%d" % (params.n, params.b, params.c),
                           params.to_json(), {"diagrams": count, "failures": fails},
                           {"failures": []}, not fails, _elapsed(start)))
    return cases


def _suite_thm82(cfg):
    params = cfg.cover()
    lam = cfg.lam
    columns = cfg.columns or (lam[0] + len(lam))
    start = _clock(cfg)
    rep = C.verify_thm82(lam, len(lam), columns, params)
    took = _elapsed(start)
    base = dict(rep["params"], **{"lambda": rep["lambda"], "N": rep["N"],
                                  "nq": rep["nq"]})
    cases = [_case("thm82", "gamma=%s" % (ch["gamma"],), base,
                   ch.get("lhs", {"charges": ch["c"]}),
                   ch.get("rhs", {"charges": ch["c"]}), ch["ok"], None)
             for ch in rep["checks"]]
    cases.append(_case("thm82", "classes", base,
                       {"checked": len(rep["checks"]), "skipped": rep["skipped"]},
                       {"nonzero_classes": len(rep["checks"])}, rep["ok"], took))
    return cases


def _suite_train(cfg):
    lams = [cfg.lam] if cfg.lam else [(1, 0), (2, 0), (2, 2, 0)]
    cases = []
    for lam, nq in product(lams, cfg.nq or (1, 2, 3)):
        start = _clock(cfg)
        system = L.boundary_from_partition(lam, nq=nq)
        r = len(lam)
        fails = []
        classes = 0
        for i in range(1, r):
            for charges in product(range(1, nq + 1), repeat=r):
                classes += 1
                res = RV.train_functional_equation(lam, charges, i, system)
                if not res["equal"]:
                    fails.append([i, list(charges)])
        cases.append(_case("train", "lambda=%s,nq=%d" % (list(lam), nq),
                           {"lambda": list(lam), "nq": nq},
                           {"classes": classes, "failures": fails},
                           {"failures": []}, not fails, _elapsed(start)))
    return cases


# -- data commands -----------------------------------------------------------

def _grid_system(cfg):
    nq = cfg.modulus()
    return L.boundary_from_partition(cfg.lam, cfg.rank, cfg.columns, nq,
                                     cfg.charges), nq


def _ice_enumerate(cfg):
    start = _clock(cfg)
    system, nq = _grid_system(cfg)
    states = L.enumerate_states(system)
    payload = {"count": len(states),
               "states": [st.to_json(nq) for st in states]}
    params = {"lambda": list(cfg.lam), "N": system.N, "nq": nq,
              "charges": list(cfg.charges) if cfg.charges else None}
    return [_case("ice-enumerate", "states", params, payload, None, True,
                  _elapsed(start))]


def _ice_partition(cfg):
    start = _clock(cfg)
    system, nq = _grid_system(cfg)
    value = L.partition_function(system, cfg.charges)
    params = {"lambda": list(cfg.lam), "N": system.N, "nq": nq,
              "charges": list(cfg.charges) if cfg.charges else None}
    return [_case("ice-partition", "Z", params, value.to_json(), None, True,
                  _elapsed(start))]


def _whittaker(cfg):
    start = _clock(cfg)
    params = cfg.cover()
    nq = params.nq
    lam = cfg.lam
    r = len(lam)
    cosets = MP.lattice_and_cosets(params)
    piece = C.coset_piece(C.i_lambda(lam, r, nq), cfg.gamma, lam, cosets)
    value = S.z_mono(tuple(reversed(lam)), nq) * piece
    took = _elapsed(start)
    base = dict(params.to_json(), **{"lambda": list(lam),
                                     "gamma": list(cfg.gamma), "nq": nq})
    return [_case("whittaker", "class-piece", base, piece.to_json(), None,
                  True, None),
            _case("whittaker", "value", base, value.to_json(), None, True,
                  took)]


SUITES = {
    "appendix": _suite_appendix,
    "rtt": _suite_rtt,
    "rrr": lambda cfg: _scan_suite("rrr", RV.rrr_scan, cfg),
    "unitarity": lambda cfg: _scan_suite("unitarity", RV.unitarity_scan, cfg),
    "twist": _suite_twist,
    "prop71": _suite_prop71,
    "thm12": _suite_thm12,
    "thm82": _suite_thm82,
    "train": _suite_train,
}


# -- report rendering --------------------------------------------------------

def render(cases, fmt):
    if fmt == "json":
        return json.dumps(cases, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["suite", "case", "params", "lhs", "rhs",
                         "verdict", "elapsed"])
        for case in cases:
            writer.writerow([case["suite"], case["case"],
                             json.dumps(case["params"], sort_keys=True),
                             json.dumps(case["lhs"], sort_keys=True),
                             json.dumps(case["rhs"], sort_keys=True),
                             case["verdict"],
                             "" if case["elapsed"] is None else repr(case["elapsed"])])
        return out.getvalue()
    lines = []
    for case in cases:
        lines.append("%s %s :: %s" % (case["verdict"].upper(), case["suite"],
                                      case["case"]))
    passed = sum(case["verdict"] == "pass" for case in cases)
    lines.append("passed %d/%d" % (passed, len(cases)))
    return "\n".join(lines) + "\n"


# -- argument parsing --------------------------------------------------------

def _add_report_flags(parser):
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="json", dest="fmt")
    parser.add_argument("--timings", action="store_true",
                        help="fill per-case wall times (breaks byte-identity)")


def _add_cover_flags(parser):
    parser.add_argument("--n", type=int)
    parser.add_argument("--b", type=int)
    parser.add_argument("--c", type=int)
    parser.add_argument("--rank", type=int)


def _add_mode_flags(parser):
    parser.add_argument("--mode", choices=("symbolic", "modular"))
    parser.add_argument("--prime", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metaice",
        description="Exact solvable-lattice computations: enumeration, "
                    "partition functions, Whittaker values, verification suites.")
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--nq", type=_ints)
    verify.add_argument("--lambda", type=_ints, dest="lam")
    verify.add_argument("--columns", type=int)
    _add_cover_flags(verify)
    _add_mode_flags(verify)
    _add_report_flags(verify)

    ice = top.add_parser("ice", help="grid-state data commands")
    ice.add_argument("action", choices=("enumerate", "partition"))
    ice.add_argument("--lambda", type=_ints, dest="lam", required=True)
    ice.add_argument("--columns", type=int)
    ice.add_argument("--charges", type=_ints)
    ice.add_argument("--nq", type=_ints)
    _add_cover_flags(ice)
    _add_report_flags(ice)

    whit = top.add_parser("whittaker", help="class piece of the generating sum")
    whit.add_argument("--lambda", type=_ints, dest="lam", required=True)
    whit.add_argument("--gamma", type=_ints, required=True)
    _add_cover_flags(whit)
    _add_report_flags(whit)

    return parser


# the flags each verification suite reads, as RunConfig fields; --format
# and --timings are accepted everywhere
SUITE_FLAGS = {
    "appendix": ("nq",),
    "rtt": ("nq",),
    "twist": ("nq",),
    "rrr": ("nq", "mode", "prime", "seed", "trials"),
    "unitarity": ("nq", "mode", "prime", "seed", "trials"),
    "prop71": ("n", "b", "c", "rank"),
    "thm12": ("n", "b", "c", "rank"),
    "thm82": ("lam", "n", "b", "c", "rank", "columns"),
    "train": ("lam", "nq"),
}


def _config_from_args(parser, args):
    kw = {name: getattr(args, name, None) for name in RunConfig.__slots__[1:]}
    if args.command == "verify":
        sub = args.suite
        unused = ["--lambda" if name == "lam" else "--" + name
                  for name, value in kw.items() if value is not None
                  and name not in SUITE_FLAGS[sub] + ("fmt", "timings")]
        if unused:
            parser.error("%s does not use %s" % (sub, ", ".join(unused)))
    else:
        sub = "%s-%s" % (args.command, args.action) if args.command == "ice" \
            else args.command
    cfg = RunConfig(sub, **kw)

    if cfg.nq is not None and cfg.n is not None:
        parser.error("--nq overrides the modulus and conflicts with cover "
                     "parameters --n/--b/--c")
    if (cfg.b is not None or cfg.c is not None) and cfg.n is None:
        parser.error("--b/--c need --n")
    if cfg.nq is not None and any(q < 1 for q in cfg.nq):
        parser.error("--nq entries must be positive")
    if cfg.subcommand.startswith("ice-") and cfg.nq is not None and len(cfg.nq) > 1:
        parser.error("ice commands take one --nq entry")
    if cfg.rank is not None and cfg.rank < (2 if cfg.subcommand in ("prop71", "thm12") else 1):
        parser.error("--rank must be at least 2 for prop71 and thm12, and 1 elsewhere")
    if cfg.mode == "modular" and (cfg.prime is None or cfg.seed is None):
        parser.error("--mode modular requires --prime and --seed")
    if cfg.mode == "symbolic" and (cfg.prime is not None or cfg.seed is not None):
        parser.error("--prime/--seed only apply to --mode modular")
    if cfg.prime is not None and not (cfg.prime < S.PRIME_TEST_BOUND
                                      and S.is_prime(cfg.prime)):
        parser.error("--prime must be a prime below %d" % S.PRIME_TEST_BOUND)
    if cfg.trials is not None and cfg.trials < 1:
        parser.error("--trials must be at least 1")
    if cfg.subcommand in ("rrr", "unitarity"):
        cfg.nq = cfg.nq or (1, 2, 3)
        cfg.trials = 20 if cfg.trials is None else cfg.trials
        cfg.seed = DEFAULT_SEED if cfg.seed is None else cfg.seed
        cfg.prime = S.DEFAULT_PRIME if cfg.prime is None else cfg.prime
        if cfg.mode == "symbolic" and any(q > 1 for q in cfg.nq):
            parser.error("symbolic scans support nq = 1 only; use --mode modular")
        factors = 3 if cfg.subcommand == "rrr" else 2   # crossing weights per term
        for nq in (q for q in cfg.nq if q > 1 or cfg.mode == "modular"):
            bound = RV._sz_log2_bound(nq, cfg.trials, factors, cfg.prime)
            if bound >= SZ_LOG2_MAX:
                parser.error("--prime %d is too small: failure bound 2^%.1f at nq=%d"
                             % (cfg.prime, bound, nq))
    if cfg.subcommand == "thm82":
        if cfg.lam is None:
            parser.error("thm82 needs --lambda")
        if cfg.n is None:
            parser.error("thm82 needs cover parameters --n/--b/--c")
    if cfg.subcommand == "whittaker":
        if cfg.n is None:
            parser.error("whittaker needs cover parameters --n/--b/--c")
        if len(cfg.gamma) != len(cfg.lam):
            parser.error("--gamma must match the partition length")
    try:
        nq = cfg.modulus()   # builds the cover when one is given
        if cfg.lam is not None:
            # partition and --rank, thm82 grid width, ice charges; a
            # narrow ice grid fails as a case
            L.System(cfg.lam, cfg.rank, cfg.columns if cfg.subcommand == "thm82" else None,
                     nq, cfg.charges)
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(parser, args)
    if cfg.subcommand in SUITES:
        runner = SUITES[cfg.subcommand]
    elif cfg.subcommand == "ice-enumerate":
        runner = _ice_enumerate
    elif cfg.subcommand == "ice-partition":
        runner = _ice_partition
    else:
        runner = _whittaker
    try:
        cases = runner(cfg)
    except (AssertionError, KeyError, MemoryError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        # the scan suites record a vanished modular denominator per case;
        # any error that escapes a case becomes one failing record
        cases = [_case(cfg.subcommand, "error", {}, {"error": str(exc)},
                       None, False, None)]
    print(render(cases, cfg.fmt), end="")
    return 0 if all(case["verdict"] == "pass" for case in cases) else 1


if __name__ == "__main__":
    raise SystemExit(main())
