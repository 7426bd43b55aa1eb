"""One pass of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workload.py --workload grid --seed 1 \
        --spawned-at <CLOCK_MONOTONIC before the launch> [--trace] [--setup-only]

A pass imports metaice, builds the workload's inputs, then makes its
calls back to back (a closed loop with one caller) and checks every
output.  Caches start cold because the process is new, as they do for
every metaice invocation.  The last line of standard output is a JSON
object with the pass's set-up time, time to verdict, peak resident set,
checks attempted and failed, and, under --trace, the per-layer metrics.
run.py launches the passes and aggregates them.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

from metaice import cli, crystal as C, lattice as L, metaplectic as MP, qgroup as QG
from metaice import scalar as S

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(os.path.dirname(HERE), ".bench_out")

# SHA-256 of the canonical JSON of every exact, seed-independent result,
# recorded when the benchmark was added.
EXPECTED = {
    "exchange appendix":
        "329892cff1957643a2b2f5681a2747384e962752f904620b71d49d73f4c433bf",
    "exchange rtt":
        "63084468d05094ab836330d243cf230c3b0999753c33d7b0233bd2cbc519b252",
    "exchange rrr":
        "d9788df703c3bbb238214dfdc0f2975966b023660767b300f709a9f11066f344",
    "exchange twist":
        "dec120cad108061add97142b865b5a4b7664cf81eb995c4b54bd3cebdbd81d40",
    "exchange prop71":
        "2af38f40bf9de47cafe46ff1e9e1830596e91a029d6ac598d0ba0b9eb85fd70a",
    "exchange thm12":
        "ad9bf32e96b530814ae32f7cdf03915e2f88fe00983d8c8158988fe4383cffeb",
    "grid classes (0,0,0,0,0,0) nq=1":
        "525ed94fc368cbab870c372ce3dbe41edb6f0f0c41c6873f899eee55d5dd15d0",
    "grid classes (2,1,0,0,0,0) nq=2":
        "d08c2906cdde0753f18071fe14b810357143fa5abcb53b730f3da835e0aa637f",
    "grid thm82 (3,2,1,0) N=7":
        "1711298f96de869a3cefee9023e96d085a8c85b04067c3d73cf71051d1dea079",
    "grid train":
        "3521abb62d39d16e573e438cda0c1b86f70c51d9f96f257993e983393b8f2ea2",
    "crystal i_lambda (4,3,2,1,0) nq=2":
        "f975f1685d0684871502c15efba5350f6ab6a0be0f0f82a4e4de8ca6dea9eeab",
}


def clock():
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Gate:
    """Counts checks and keeps a description of each failed one."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def digest(self, name, payload):
        if not isinstance(payload, str):
            payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        got = hashlib.sha256(payload.encode()).hexdigest()
        self.check(got == self.expected.get(name), "digest %s: got %s" % (name, got))

    def cli(self, name, argv, digest):
        """Run one metaice invocation; exit code, every verdict and, for
        seed-independent reports, the report digest are checked.  Returns
        the parsed case records."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        report = out.getvalue()
        self.check(code == 0, "%s: exit code %d" % (name, code))
        cases = json.loads(report)
        for case in cases:
            self.check(case["verdict"] == "pass", "%s: %s failed" % (name, case["case"]))
        if digest:
            self.digest(name, report)
        return cases


def class_map_json(classes):
    return sorted([list(charges), value.to_json()] for charges, value in classes.items())


# -- workloads: each builds its inputs and returns its steps ---------------

def exchange(seed):
    """Crossing tables, Frac arithmetic and modular evaluation; the lattice
    and crystal layers stay idle.  The seed reaches every modular leg."""
    seeded = ["--mode", "modular", "--prime", str(S.DEFAULT_PRIME), "--seed", str(seed)]
    runs = [
        ("exchange appendix", ["verify", "appendix", "--nq", "1,2,3,4,5,6"], True),
        ("exchange rtt", ["verify", "rtt", "--nq", "1,2,3,4,5"], True),
        ("exchange rrr", ["verify", "rrr", "--nq", "1"], True),
        ("exchange rrr modular", ["verify", "rrr", "--nq", "2,3,4"] + seeded, False),
        ("exchange unitarity modular",
         ["verify", "unitarity", "--nq", "2,3,4,5,6"] + seeded, False),
        ("exchange twist", ["verify", "twist", "--nq", "1,2,3,4,5,6"], True),
        ("exchange prop71", ["verify", "prop71", "--rank", "3"], True),
        ("exchange thm12", ["verify", "thm12", "--rank", "3"], True),
    ]

    def verify(name, argv, digest):
        def step(gate):
            cases = gate.cli(name, argv, digest)
            if name == "exchange rtt":
                for case in cases:
                    nq = case["params"]["nq"]
                    gate.check(case["lhs"]["boundaries"] == 4 * (nq + 1) ** 4,
                               "rtt nq=%d: boundary count" % nq)
        return name, step

    def graded_ybe(nq):
        def step(gate):
            gate.check(QG.check_graded_ybe(nq, seed=seed)["ok"],
                       "graded YBE nq=%d seed=%d" % (nq, seed))
        return "exchange graded ybe nq=%d" % nq, step

    return [verify(*run) for run in runs] + [graded_ybe(2), graded_ybe(3)]


def grid(seed):
    """Symbolic ring products, grid enumeration and Boltzmann weights; the
    crossing tables and the quantum group stay idle.  Takes no random input."""
    shapes = [((0,) * 6, 1, 7436), ((2, 1, 0, 0, 0, 0), 2, None)]
    systems = [(L.boundary_from_partition(lam, nq=nq), lam, nq, count)
               for lam, nq, count in shapes]
    covers = [MP.CoverParams(n, b, c, 4) for n in (1, 2) for b in range(n)
              for c in range(2 * n)]
    train = ["verify", "train", "--lambda", "2,2,0,0", "--nq", "1,2"]

    def classes(system, lam, nq, count):
        name = "grid classes %s nq=%d" % (str(lam).replace(" ", ""), nq)

        def step(gate):
            gate.digest(name, class_map_json(L.partition_by_class(system)))
            if count is not None:
                gate.check(len(L.enumerate_states(system)) == count,
                           "%s: state count" % name)
        return name, step

    def thm82(gate):
        reports = [C.verify_thm82((3, 2, 1, 0), 4, 7, params) for params in covers]
        for params, rep in zip(covers, reports):
            gate.check(rep["ok"], "thm82 %r" % (params,))
        gate.digest("grid thm82 (3,2,1,0) N=7", reports)

    return ([classes(*system) for system in systems]
            + [("grid thm82 (3,2,1,0) N=7", thm82),
               ("grid train", lambda gate: gate.cli("grid train", train, True))])


def crystal(seed):
    """Root data, node and pattern constructors and the bijections; the
    ring is a small share and the exchange layers stay idle.  Enumeration
    here produces states as output instead of folding them into sums.
    Takes no random input."""
    shapes = [((0,) * 6, 7436), ((1, 0, 0, 0, 0, 0), None)]
    systems = [(lam, L.boundary_from_partition(lam), count) for lam, count in shapes]
    nodes = {}

    def i_lambda(gate):
        name = "crystal i_lambda (4,3,2,1,0) nq=2"
        gate.digest(name, C.i_lambda((4, 3, 2, 1, 0), 5, 2).to_json())

    def round_trips(lam):
        def step(gate):
            nodes[lam] = C.crystal_enumerate(lam, 6)
            for node in nodes[lam]:
                pattern = C.node_to_gt(node, lam)
                state = C.gt_to_ice(pattern)
                gate.check(C.gt_to_node(pattern) == node and C.ice_to_gt(state) == pattern,
                           "round trip %r" % (node,))
        return "crystal round trips %s" % (lam,), step

    def states(lam, system, count):
        def step(gate):
            found = L.enumerate_states(system)
            mapped = sorted(C.gt_bijections(state)["node"].vector() for state in found)
            name = "states %s" % (lam,)
            gate.check(mapped == [node.vector() for node in nodes[lam]],
                       "%s: nodes from states differ from enumerated nodes" % name)
            if count is not None:
                gate.check(len(found) == count, "%s: state count" % name)
        return "crystal states %s" % (lam,), step

    steps = [("crystal i_lambda", i_lambda)]
    for lam, system, count in systems:
        steps += [round_trips(lam), states(lam, system, count)]
    return steps


WORKLOADS = {"exchange": exchange, "grid": grid, "crystal": crystal}


def run_pass(workload, seed, spawned_at, trace=False, setup_only=False):
    """Build inputs, make every call, check every output; returns the
    pass record that main prints."""
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer("%s-seed%d-pid%d" % (workload, seed, os.getpid()))
        tracer.install()
    steps = WORKLOADS[workload](seed)
    first = clock()
    record = {"setup_s": first - spawned_at}
    if setup_only:
        return record
    gate = Gate(EXPECTED)
    for name, step in steps:
        if tracer:
            step = tracer.wrap(step, "bench." + name, span=True)
        step(gate)
    last = clock()
    record.update(time_to_verdict_s=last - first,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  attempted=gate.attempted, failed=len(gate.failures),
                  failures=gate.failures[:20])
    if tracer:
        record["per_layer"] = tracer.metrics()
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "trace-%s-seed%d.json" % (workload, seed))
        tracer.write(path, {"workload": workload, "seed": seed,
                            "time_to_verdict_s": record["time_to_verdict_s"]})
        record["trace_file"] = path
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run_pass(args.workload, args.seed, args.spawned_at, args.trace,
                      args.setup_only)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
