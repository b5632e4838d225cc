"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans and counters.

Functions are wrapped where their callers look them up: verify_targeted
finds propagate_bounds in safecomp.verifier, the guard finds evaluate in
safecomp.guard, and so on. A metric whose functions are missing from the
program (renamed or removed) is left out rather than reported as zero.
"""

from __future__ import annotations


def _nodes(counters, args, kwargs, result, dur):
    counters["verifier.nodes"] += result.stats.nodes


def _ce_hit(counters, args, kwargs, result, dur):
    counters["verifier.ce_hits"] += result is not None


def _batch_rows(counters, args, kwargs, result, dur):
    counters["network.evaluate_batch.rows"] += len(result)


def _pool(counters, args, kwargs, result, dur):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    counters["app.pool_capacity_s"] += workers * dur / 1e9


def _decision(counters, args, kwargs, result, dur):
    key = result.kind if result.reason is None else f"{result.kind}.{result.reason}"
    counters[f"guard.decisions.{key}"] += 1


def _states(name):
    def hook(counters, args, kwargs, result, dur):
        counters[f"{name}.states"] += result.states_explored
    return hook


def wrap_targets():
    """(owner, attribute, span name, result hook) for every traced function."""
    from safecomp import app, cli, compose, contracts, guard, regions, verifier

    return [
        (verifier, "verify_targeted", "verifier.verify_targeted", _nodes),
        (verifier, "propagate_bounds", "verifier.propagate_bounds", None),
        (verifier, "score_gap_bound", "verifier.score_gap_bound", None),
        (verifier, "find_counterexample", "verifier.find_counterexample", _ce_hit),
        (verifier, "evaluate_batch", "network.evaluate_batch", _batch_rows),
        (verifier, "evaluate", "network.evaluate", None),
        (guard, "evaluate", "network.evaluate", None),
        (guard, "guard_eval", "guard.guard_eval", _decision),
        (contracts.RegionContract, "contains", "contracts.contains", None),
        (app, "run_parallel_verification", "app.run_parallel_verification", _pool),
        (app, "verify_full", "app.verify_full", None),
        (cli, "cmd_discover", "cli.discover", None),
        (cli, "cmd_verify", "cli.verify", None),
        (cli, "cmd_emit_contracts", "cli.emit_contracts", None),
        (cli, "cmd_check_system", "cli.check_system", None),
        (cli, "discover_regions", "regions.discover_regions", None),
        (regions, "kmeans", "regions.kmeans", None),
        (compose, "check_property", "compose.check_property", _states("compose.check_property")),
        (compose, "check_implication", "compose.check_implication",
         _states("compose.check_implication")),
        (compose, "most_general_environment", "compose.most_general_environment", None),
    ]


def _ratio(a, b):
    return a / b if b else 0.0


# name -> (spans it needs, value(totals, counter)); units and directions are in BENCHMARK.json
# totals[name] = (calls, total_s, self_s, raised); counter(key) -> float
def _calls(n):
    return lambda T, C: T[n][0]


def _self(n):
    return lambda T, C: T[n][2]


def _total(n):
    return lambda T, C: T[n][1]


def _us_per_call(n):
    return lambda T, C: 1e6 * _ratio(T[n][1], T[n][0])


PB, CE, SG, VT = ("verifier.propagate_bounds", "verifier.find_counterexample",
                  "verifier.score_gap_bound", "verifier.verify_targeted")
EV, EB, GE, CT = "network.evaluate", "network.evaluate_batch", "guard.guard_eval", "contracts.contains"
CP, CI = "compose.check_property", "compose.check_implication"

PER_LAYER = {
    f"{PB}.calls": ((PB,), _calls(PB)),
    f"{PB}.self_s": ((PB,), _self(PB)),
    f"{PB}.us_per_call": ((PB,), _us_per_call(PB)),
    f"{CE}.calls": ((CE,), _calls(CE)),
    f"{CE}.self_s": ((CE,), _self(CE)),
    "verifier.ce_hit_ratio": ((CE,), lambda T, C: _ratio(C("verifier.ce_hits"), T[CE][0])),
    f"{SG}.calls": ((SG,), _calls(SG)),
    f"{SG}.self_s": ((SG,), _self(SG)),
    "verifier.nodes": ((VT,), lambda T, C: C("verifier.nodes")),
    "verifier.pruned_nodes": ((VT, PB), lambda T, C: C("verifier.nodes") - T[PB][0]),
    "verifier.discharge_ratio": ((PB, CE), lambda T, C: _ratio(T[PB][0] - T[CE][0], T[PB][0])),
    f"{VT}.self_s": ((VT,), _self(VT)),
    "verifier.nodes_per_s": ((VT,), lambda T, C: _ratio(C("verifier.nodes"), T[VT][1])),
    "app.run_parallel_verification.s": (("app.run_parallel_verification",),
                                        _total("app.run_parallel_verification")),
    "app.pool_efficiency": (("app.run_parallel_verification", "app.verify_full"),
                            lambda T, C: _ratio(T["app.verify_full"][1], C("app.pool_capacity_s"))),
    "cli.discover.s": (("cli.discover",), _total("cli.discover")),
    "cli.verify.s": (("cli.verify",), _total("cli.verify")),
    "cli.emit_contracts.s": (("cli.emit_contracts",), _total("cli.emit_contracts")),
    "cli.check_system.s": (("cli.check_system",), _total("cli.check_system")),
    "regions.discover_regions.s": (("regions.discover_regions",), _total("regions.discover_regions")),
    "regions.kmeans.calls": (("regions.kmeans",), _calls("regions.kmeans")),
    "regions.kmeans.self_s": (("regions.kmeans",), _self("regions.kmeans")),
    f"{EV}.calls": ((EV,), _calls(EV)),
    f"{EV}.us_per_call": ((EV,), _us_per_call(EV)),
    f"{EB}.rows": ((EB,), lambda T, C: C(f"{EB}.rows")),
    f"{EB}.us_per_row": ((EB,), lambda T, C: 1e6 * _ratio(T[EB][1], C(f"{EB}.rows"))),
    f"{CT}.calls_per_row": ((CT, GE), lambda T, C: _ratio(T[CT][0], T[GE][0])),
    f"{CT}.us_per_call": ((CT,), _us_per_call(CT)),
    f"{GE}.self_us": ((GE,), lambda T, C: 1e6 * _ratio(T[GE][2], T[GE][0])),
    f"{GE}.raised": ((GE,), lambda T, C: T[GE][3]),
    "guard.decisions.Covered": ((GE,), lambda T, C: C("guard.decisions.Covered")),
    "guard.decisions.FailSafe.outside_regions": (
        (GE,), lambda T, C: C("guard.decisions.FailSafe.outside_regions")),
    "guard.decisions.FailSafe.uncertain": ((GE,), lambda T, C: C("guard.decisions.FailSafe.uncertain")),
    f"{CP}.s": ((CP,), _total(CP)),
    f"{CP}.states": ((CP,), lambda T, C: C(f"{CP}.states")),
    f"{CI}.s": ((CI,), _total(CI)),
    f"{CI}.states": ((CI,), lambda T, C: C(f"{CI}.states")),
    "compose.most_general_environment.s": (("compose.most_general_environment",),
                                           _total("compose.most_general_environment")),
    "compose.states_per_s": ((CP, CI), lambda T, C: _ratio(
        C(f"{CP}.states") + C(f"{CI}.states"), T[CP][1] + T[CI][1])),
}


def per_layer_metrics(tracer, units: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, unit) for every metric whose spans were installed;
    units maps each metric name to its unit."""
    totals = tracer.totals()
    zero = (0, 0.0, 0.0, 0)
    T = {name: totals.get(name, zero) for name in tracer.installed}
    out = {}
    for name, (needs, fn) in PER_LAYER.items():
        if all(n in tracer.installed for n in needs):
            out[name] = (float(fn(T, tracer.counter)), units[name])
    return out
