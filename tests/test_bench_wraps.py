"""The traced benchmark run still sees the verifier's work through its wraps.

bench/layers.wrap_targets() wraps functions where their callers look them
up. A call that bypasses such a module global would silently drop out of the
per-layer metrics; only the slow bench/test_bench.py would notice. These
tests install counting wrappers at the verifier and app entries and run one
small verification through app.run_parallel_verification, and at the compose
entries around assume-guarantee checks of the EBS demo and of a C1 with an
assumption.
"""

import importlib.util
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from ag_fixtures import BIN, const_component
from conftest import identity_network
from safecomp import app, compose, verifier
from safecomp.contracts import ComponentContract, LabelIs, parse_property
from safecomp.regions import Region

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _wrap_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.wrap_targets()


def test_verifier_and_app_wraps_see_every_call(monkeypatch):
    calls = Counter()
    targeted = []

    def counting(span, fn):
        def wrapper(*args, **kwargs):
            calls[span] += 1
            result = fn(*args, **kwargs)
            if span == "verifier.verify_targeted":
                targeted.append(result)
            return result
        return wrapper

    spans = []
    for owner, attribute, span, _ in _wrap_targets():
        if owner in (verifier, app):
            monkeypatch.setattr(owner, attribute, counting(span, getattr(owner, attribute)))
            spans.append(span)

    # three labels: "b" wins at (0.45, 0.55, 0.1), so one target is Unsafe
    # (CE search and re-validation run) and "c" is Safe at the root
    net = identity_network(3)
    region = Region("r0", np.array([0.5, 0.45, 0.1]), 0.1, "Linf", 0, 1, (0,))
    results = app.run_parallel_verification(net, [region], workers=1, max_nodes=64)
    report = app.build_verification_report(net, results, {})

    assert {"verifier.verify_targeted", "verifier.propagate_bounds",
            "app.run_parallel_verification", "app.verify_full"} <= set(spans)
    assert [s for s in spans if calls[s] == 0] == []
    assert calls["verifier.verify_targeted"] == net.n_labels - 1
    assert calls["verifier.propagate_bounds"] > 0
    total = sum(v["stats"]["nodes"] for entry in report["regions"]
                for v in entry["verdicts"].values())
    assert sum(v.stats.nodes for v in targeted) == total
    assert {v["status"] for v in report["regions"][0]["verdicts"].values()} == {"Unsafe", "Safe"}


def _record_compose(monkeypatch):
    """Install recording wrappers at the compose entries; span -> results."""
    results = defaultdict(list)

    def recording(span, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            results[span].append(result)
            return result
        return wrapper

    for owner, attribute, span, _ in _wrap_targets():
        if owner is compose:
            monkeypatch.setattr(owner, attribute, recording(span, getattr(owner, attribute)))
    return results


def test_compose_wraps_see_every_premise(monkeypatch):
    results = _record_compose(monkeypatch)
    demo = app.build_ebs_demo(braking_ticks=2)
    report = compose.check_assume_guarantee(
        demo.m1, demo.c1, demo.dnn_contract, demo.p, class_domain=app.SEMAPHORE_LABELS,
        token_map={label: LabelIs(label) for label in app.SEMAPHORE_LABELS})

    assert report.conclusion
    [premise1] = results["compose.check_property"]
    [premise3] = results["compose.check_implication"]
    assert premise1.states_explored == report.premise("M1 |= C1").states_explored
    assert premise3.states_explored == report.premise("C1 & C2 => P").states_explored > 0


def test_compose_wraps_see_the_assumption_environment(monkeypatch):
    # premise 1 of a C1 with an assumption runs M1 under the most general
    # environment of that assumption; neither the EBS demo's C1 nor the
    # fleet's has one
    results = _record_compose(monkeypatch)
    c1 = ComponentContract("resp", parse_property("G (c=1 => F<=1 (c=0))"),
                           parse_property("G (c=1 => F<=1 (v=1))"),
                           inputs={"c": BIN}, outputs={"v": BIN})
    c2 = ComponentContract("quiet", None, parse_property("G (c=1 => F<=1 (c=0))"),
                           inputs={}, outputs={"c": BIN})
    report = compose.check_assume_guarantee(
        compose.System((const_component("resp", "v", "1"),)), c1, c2, c1.guarantee,
        m2_model=compose.System((const_component("quiet", "c", "0"),)))

    assert report.conclusion
    [env] = results["compose.most_general_environment"]
    assert set(env.outputs) == {"c"}
    assert report.premise("M1 |= C1").states_explored > 0

