"""Command-line front end: state enumeration, partition functions,
Whittaker values, and the verification suites, with machine-readable
reports.  Every suite is exact at every nq; `verify rrr` and `verify
unitarity` also take --mode modular, an opt-in cross-check at seeded
random points mod a prime that reports its Schwartz-Zippel bound.

Reports are streams of case records {suite, case, params, lhs, rhs,
verdict, elapsed} rendered as json, csv, or text.  Identical
invocations produce byte-identical reports; per-case wall times are
filled in only under --timings since they vary run to run.  Exit status
is 0 when every case passes, 1 when any case fails, 2 on usage errors.
"""

import argparse
import csv
import functools
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


SZ_LOG2_MAX = -40.0


def cover(args):
    """CoverParams from the n/b/c flags, at the rank len(--lambda) when the
    command takes a partition, else --rank (2 by default)."""
    if args.lam is not None:
        rank = len(args.lam)
    else:
        rank = 2 if args.rank is None else args.rank
    return MP.CoverParams(args.n, args.b or 0, args.c or 0, rank)


def modulus(args):
    """Single working modulus: the explicit override, the cover's n_Q,
    or 1."""
    if args.nq is not None:
        return args.nq[0]
    if args.n is not None:
        return cover(args).nq
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


def _clock(args):
    return time.perf_counter() if args.timings else None


def _elapsed(start):
    return None if start is None else time.perf_counter() - start


# -- verification suites ---------------------------------------------------

def _suite_appendix(args):
    cases = []
    for nq in args.nq or (1, 2, 3, 4):
        start = _clock(args)
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


def _per_nq(check):
    """A suite with one case per modulus, 1, 2, 3 by default;
    check(args, nq) gives the case's params, lhs, rhs and verdict.  A
    modular denominator that vanishes at a sample point fails only that
    nq's case; its message names the trial and the seed."""
    def run(args):
        cases = []
        for nq in args.nq or (1, 2, 3):
            start = _clock(args)
            try:
                params, lhs, rhs, ok = check(args, nq)
            except ZeroDivisionError as exc:
                params, lhs, rhs, ok = {"nq": nq}, {"error": str(exc)}, None, False
            cases.append(_case(args.suite, "nq=%d" % nq, params, lhs, rhs, ok,
                               _elapsed(start)))
        return cases
    return run


def _rtt(args, nq):
    rep = RV.rtt_scan(nq)
    return ({"nq": nq, "rows": list(rep["rows"])},
            {"boundaries": rep["boundaries"], "inhabited": rep["inhabited"]},
            {"failures": [str(f) for f in rep["failures"]]}, rep["ok"])


def _twist(args, nq):
    rep = QG.compare_to_ice_r(nq)
    return ({"nq": nq, "rows": list(rep["rows"])},
            {"entries": rep["entries"],
             "mismatches": [str(m) for m in rep["mismatches"]]},
            {"mismatches": []}, rep["ok"])


def _scan(args, nq):
    scan = RV.rrr_scan if args.suite == "rrr" else RV.unitarity_scan
    rep = scan(nq, args.trials, args.seed, args.prime)
    lhs = {"mode": rep["mode"], "boundaries": rep["boundaries"],
           "failures": [str(f) for f in rep["failures"]]}
    rhs = {"failures": []}
    ok = rep["ok"]
    if rep["mode"] == "modular":
        lhs["points"] = rep["points"]
        lhs["sz_log2_bound"] = rep["sz_log2_bound"]
        rhs["sz_log2_bound_max"] = SZ_LOG2_MAX
        ok = ok and rep["sz_log2_bound"] < SZ_LOG2_MAX
    return {"nq": nq}, lhs, rhs, ok


def _per_cover(count_key, checks):
    """A suite with one case per cover: the one given, or every cover with
    n <= 4; checks(params) yields a (label, ok) pair per identity, and
    the labels of the failing ones are reported."""
    def run(args):
        if args.n is not None:
            covers = [cover(args)]
        else:
            rank = 2 if args.rank is None else args.rank
            covers = [MP.CoverParams(n, b, c, rank) for n in range(1, 5)
                      for b in range(n) for c in range(2 * n)]
        cases = []
        for params in covers:
            start = _clock(args)
            results = list(checks(params))
            fails = [label for label, ok in results if not ok]
            cases.append(_case(args.suite, "n=%d,b=%d,c=%d" % (params.n, params.b, params.c),
                               params.to_json(), {count_key: len(results), "failures": fails},
                               {"failures": []}, not fails, _elapsed(start)))
        return cases
    return run


def _prop71_checks(params):
    for ci, cj in product(range(1, params.n + 1), repeat=2):
        yield [ci, cj], MP.prop71_check(ci, cj, params)["ok"]


def _thm12_checks(params):
    for i in range(1, params.r):
        for residues in product(range(1, params.n + 1), repeat=params.r):
            yield [i, list(residues)], MP.theorem12_diagram(params, residues, i)["ok"]


def _suite_thm82(args):
    params = cover(args)
    lam = args.lam
    columns = args.columns or (lam[0] + len(lam))
    start = _clock(args)
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


def _suite_train(args):
    lams = [args.lam] if args.lam else [(1, 0), (2, 0), (2, 2, 0)]
    cases = []
    for lam, nq in product(lams, args.nq or (1, 2, 3)):
        start = _clock(args)
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

def _grid(args):
    """The ice commands' system, modulus and report params."""
    nq = modulus(args)
    system = L.boundary_from_partition(args.lam, None, args.columns, nq, args.charges)
    params = {"lambda": list(args.lam), "N": system.N, "nq": nq,
              "charges": list(args.charges) if args.charges else None}
    return system, nq, params


def _ice_enumerate(args):
    start = _clock(args)
    system, nq, params = _grid(args)
    states = L.enumerate_states(system)
    payload = {"count": len(states),
               "states": [st.to_json(nq) for st in states]}
    return [_case("ice-enumerate", "states", params, payload, None, True,
                  _elapsed(start))]


def _ice_partition(args):
    start = _clock(args)
    system, nq, params = _grid(args)
    value = L.partition_function(system, args.charges)
    return [_case("ice-partition", "Z", params, value.to_json(), None, True,
                  _elapsed(start))]


def _whittaker(args):
    start = _clock(args)
    params = cover(args)
    nq = params.nq
    lam = args.lam
    cosets = MP.lattice_and_cosets(params)
    piece = C.coset_piece(args.gamma, lam, cosets)
    value = S.z_mono(tuple(reversed(lam)), nq) * piece
    took = _elapsed(start)
    base = dict(params.to_json(), **{"lambda": list(lam),
                                     "gamma": list(args.gamma), "nq": nq})
    return [_case("whittaker", "class-piece", base, piece.to_json(), None,
                  True, None),
            _case("whittaker", "value", base, value.to_json(), None, True,
                  took)]


SUITES = {
    "appendix": _suite_appendix,
    "rtt": _per_nq(_rtt),
    "rrr": _per_nq(_scan),
    "unitarity": _per_nq(_scan),
    "twist": _per_nq(_twist),
    "prop71": _per_cover("pairs", _prop71_checks),
    "thm12": _per_cover("diagrams", _thm12_checks),
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

# every flag by its Namespace name: option and argparse keywords
FLAGS = {
    "nq": ("--nq", {"type": _ints}),
    "lam": ("--lambda", {"type": _ints}),
    "columns": ("--columns", {"type": int}),
    "charges": ("--charges", {"type": _ints}),
    "gamma": ("--gamma", {"type": _ints}),
    "n": ("--n", {"type": int}),
    "b": ("--b", {"type": int}),
    "c": ("--c", {"type": int}),
    "rank": ("--rank", {"type": int}),
    "mode": ("--mode", {"choices": ("symbolic", "modular")}),
    "prime": ("--prime", {"type": int}),
    "seed": ("--seed", {"type": int}),
    "trials": ("--trials", {"type": int}),
    "fmt": ("--format", {"choices": ("json", "csv", "text"), "default": "json"}),
    "timings": ("--timings", {"action": "store_true",
                              "help": "fill per-case wall times (breaks byte-identity)"}),
}
COVER = ("n", "b", "c")
SEEDED = ("mode", "prime", "seed", "trials")

# the flags each verification suite reads; every command also takes
# --format and --timings
SUITE_FLAGS = {
    "appendix": ("nq",),
    "rtt": ("nq",),
    "twist": ("nq",),
    "rrr": ("nq",) + SEEDED,
    "unitarity": ("nq",) + SEEDED,
    "prop71": COVER + ("rank",),
    "thm12": COVER + ("rank",),
    "thm82": ("lam",) + COVER + ("columns",),
    "train": ("lam", "nq"),
}


def _command(subparsers, name, suite, run, flags, required=(), **kw):
    """One subparser that takes exactly `flags`, --format and --timings;
    its Namespace carries the report's suite name and the runner (None
    for a verification suite, whose runner main reads from SUITES)."""
    parser = subparsers.add_parser(name, allow_abbrev=False, **kw)
    for dest in flags + ("fmt", "timings"):
        option, spec = FLAGS[dest]
        parser.add_argument(option, dest=dest, required=dest in required, **spec)
    parser.set_defaults(suite=suite, run=run)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="metaice", allow_abbrev=False,
        description="Exact solvable-lattice computations: enumeration, "
                    "partition functions, Whittaker values, verification suites.")
    # a flag the command does not take reads as None
    parser.set_defaults(**dict.fromkeys(FLAGS))
    top = parser.add_subparsers(dest="command", required=True)

    verify = top.add_parser("verify", allow_abbrev=False,
                            help="run a verification suite")
    suites = verify.add_subparsers(dest="suite", required=True)
    for suite in sorted(SUITES):
        _command(suites, suite, suite, None, SUITE_FLAGS[suite])

    ice = top.add_parser("ice", allow_abbrev=False, help="grid-state data commands")
    actions = ice.add_subparsers(dest="action", required=True)
    grid = ("lam", "columns", "charges", "nq") + COVER
    _command(actions, "enumerate", "ice-enumerate", _ice_enumerate, grid, ("lam",))
    _command(actions, "partition", "ice-partition", _ice_partition, grid, ("lam",))

    _command(top, "whittaker", "whittaker", _whittaker, ("lam", "gamma") + COVER,
             ("lam", "gamma"), help="class piece of the generating sum")
    return parser


def _config_from_args(parser, args):
    """The rules that span several flags; a broken one is a usage error.
    Fills in the modular scans' trial count."""
    if args.nq is not None and args.n is not None:
        parser.error("--nq overrides the modulus and conflicts with cover "
                     "parameters --n/--b/--c")
    if (args.b is not None or args.c is not None) and args.n is None:
        parser.error("--b/--c need --n")
    if args.nq is not None and any(q < 1 for q in args.nq):
        parser.error("--nq entries must be positive")
    if args.suite.startswith("ice-") and args.nq is not None and len(args.nq) > 1:
        parser.error("ice commands take one --nq entry")
    if args.rank is not None and args.rank < 2:
        parser.error("--rank must be at least 2")
    if args.suite == "train" and args.lam is not None and len(args.lam) < 2:
        parser.error("train needs a --lambda of at least two parts")
    if (args.mode != "modular"
            and (args.prime, args.seed, args.trials) != (None, None, None)):
        parser.error("--prime/--seed/--trials only apply to --mode modular")
    if args.mode == "modular":
        if args.prime is None or args.seed is None:
            parser.error("--mode modular requires --prime and --seed")
        if not (args.prime < S.PRIME_TEST_BOUND and S.is_prime(args.prime)):
            parser.error("--prime must be a prime below %d" % S.PRIME_TEST_BOUND)
        args.trials = 20 if args.trials is None else args.trials
        if args.trials < 1:
            parser.error("--trials must be at least 1")
        factors = 3 if args.suite == "rrr" else 2   # crossing weights per term
        for nq in args.nq or (1, 2, 3):
            bound = RV._sz_log2_bound(nq, args.trials, factors, args.prime)
            if bound >= SZ_LOG2_MAX:
                parser.error("--prime %d is too small: failure bound 2^%.1f at nq=%d"
                             % (args.prime, bound, nq))
    if args.suite == "thm82":
        if args.lam is None:
            parser.error("thm82 needs --lambda")
        if args.n is None:
            parser.error("thm82 needs cover parameters --n/--b/--c")
    if args.suite == "whittaker":
        if args.n is None:
            parser.error("whittaker needs cover parameters --n/--b/--c")
        if len(args.gamma) != len(args.lam):
            parser.error("--gamma must match the partition length")
    try:
        nq = modulus(args)   # builds the cover when one is given
        if args.lam is not None:
            # partition, grid width, ice charges
            L.System(args.lam, None, args.columns, nq, args.charges)
    except ValueError as exc:
        parser.error(str(exc))


@functools.lru_cache(maxsize=1)
def _parser():
    """The parser, built once per process."""
    return build_parser()


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    _config_from_args(parser, args)
    run = args.run or SUITES[args.suite]
    try:
        cases = run(args)
    except (AssertionError, KeyError, MemoryError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        # any error that escapes a case becomes one failing record
        cases = [_case(args.suite, "error", {}, {"error": str(exc)},
                       None, False, None)]
    print(render(cases, args.fmt), end="")
    return 0 if all(case["verdict"] == "pass" for case in cases) else 1


if __name__ == "__main__":
    raise SystemExit(main())
