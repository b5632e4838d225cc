import itertools
import re
from collections import deque

import numpy as np
import pytest

from ag_fixtures import (
    BIN,
    TRI,
    braking_fleet,
    const_component,
    mine_guarantee,
    random_ag_instance,
    random_component,
    random_cyclic_system,
    random_property,
)
from safecomp.app import build_ebs_demo
from safecomp.compose import (
    CheckResult,
    ComponentModel,
    TraceStep,
    ContractMonitor,
    Product,
    PropertyMonitor,
    System,
    Wire,
    abstract_dnn_component,
    check_assume_guarantee,
    check_implication,
    check_property,
    component_from_json,
    contract_monitor,
    most_general_environment,
    replay_violation,
    system_from_json,
    wire_by_name,
    _dnn_constraint,
)
from safecomp.contracts import (
    Always,
    Atom,
    ComponentContract,
    DnnContract,
    Eventually,
    LabelIs,
    LabelNotIn,
    RegionContract,
    parse_property,
)


def trace_satisfies(prop, valuations):
    """Independent prefix semantics: an obligation is violated only if its
    deadline tick lies inside the trace and no tick in the window satisfied
    the consequent."""
    for t, v in enumerate(valuations):
        if not prop.antecedent.holds(v):
            continue
        if isinstance(prop.consequent, Eventually):
            deadline = t + prop.consequent.bound
            window = valuations[t:min(deadline, len(valuations) - 1) + 1]
            if deadline <= len(valuations) - 1 and \
                    not any(prop.consequent.atom.holds(u) for u in window):
                return False
        else:
            if not prop.consequent.holds(v):
                return False
    return True


class TestComponentAndSystem:
    def test_stateless_component_has_one_product_state(self):
        prod = Product(System((const_component(),)))
        assert prod.explore() == [("s",)]

    def test_cyclic_wiring_is_well_defined(self):
        # a echoes b's output; b echoes a's; both delayed one tick (Moore)
        def echo(name, in_port, out_port):
            return ComponentModel(
                name=name,
                inputs={in_port: BIN},
                outputs={out_port: BIN},
                states=("0", "1"),
                initial=("0",),
                output_map={"0": {out_port: "0"}, "1": {out_port: "1"}},
                transitions={(s, (v,)): v for s in ("0", "1") for v in BIN},
            )

        sys = System(
            (echo("a", "inb", "outa"), echo("b", "ina", "outb")),
            (Wire("a", "outa", "b", "ina"), Wire("b", "outb", "a", "inb")),
        )
        reachable = Product(sys).explore()
        assert ("0", "0") in reachable
        assert len(reachable) <= 4

    def test_transition_totality_enforced(self):
        with pytest.raises(ValueError, match="no transition"):
            ComponentModel(
                name="bad",
                inputs={"x": BIN},
                outputs={"y": BIN},
                states=("s",),
                initial=("s",),
                output_map={"s": {"y": "0"}},
                transitions={("s", ("0",)): "s"},  # missing x=1
            )

    def test_repeated_initial_state_rejected(self):
        with pytest.raises(ValueError, match="repeated initial state"):
            ComponentModel(
                name="twice",
                inputs={},
                outputs={"y": BIN},
                states=("s", "t"),
                initial=("s", "s"),
                output_map={"s": {"y": "0"}, "t": {"y": "1"}},
                transitions={("s", ()): "t", ("t", ()): "s"},
            )

    def test_wiring_type_mismatch_rejected(self):
        wide = const_component("wide", "v", "2", domain=("0", "1", "2"))
        narrow = ComponentModel(
            name="narrow",
            inputs={"v": BIN},
            outputs={"w": BIN},
            states=("s",),
            initial=("s",),
            output_map={"s": {"w": "0"}},
            transitions={("s", (v,)): "s" for v in BIN},
        )
        with pytest.raises(ValueError, match="domain"):
            System((wide, narrow), (Wire("wide", "v", "narrow", "v"),))

    def test_product_count_matches_duplicate_bfs(self):
        demo = build_ebs_demo(braking_ticks=2)
        prod = Product(demo.full_system)
        reachable = prod.explore()

        # independent BFS written against the same semantics, name-keyed
        comps = {c.name: c for c in demo.full_system.components}
        order = [c.name for c in demo.full_system.components]
        wires = {(w.dst_comp, w.dst_port): (w.src_comp, w.src_port)
                 for w in demo.full_system.wiring}
        env_ports = sorted(
            (port, dom) for c in demo.full_system.components
            for port, dom in c.inputs.items() if (c.name, port) not in wires
        )

        def successors(named_states):
            outs = {}
            for name in order:
                outs[name] = comps[name].output_map[named_states[name]]
            for env_combo in itertools.product(*(d for _, d in env_ports)):
                env = dict(zip((p for p, _ in env_ports), env_combo))
                nxt = {}
                for name in order:
                    c = comps[name]
                    iv = {}
                    for port in c.inputs:
                        src = wires.get((name, port))
                        iv[port] = outs[src[0]][src[1]] if src else env[port]
                    nxt[name] = c.step(named_states[name], iv)
                yield tuple(nxt[n] for n in order)

        seen = set()
        frontier = [dict(zip(order, s)) for s in prod.initial_states()]
        seen.update(tuple(f[n] for n in order) for f in frontier)
        while frontier:
            state = frontier.pop()
            for nxt in successors(state):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(dict(zip(order, nxt)))
        assert len(seen) == len(reachable)

    def test_compose_order_invariant_state_counts(self):
        demo = build_ebs_demo(braking_ticks=2)
        comps = demo.full_system.components
        base = len(Product(demo.full_system).explore())
        for perm in itertools.permutations(range(3)):
            sys_p = System(tuple(comps[i] for i in perm), demo.full_system.wiring)
            assert len(Product(sys_p).explore()) == base


class TestCheckProperty:
    def test_trivial_property_holds(self):
        result = check_property(System((const_component(),)),
                                parse_property("G (true => true)"))
        assert result.holds

    def test_constant_violation_one_step_trace(self):
        result = check_property(System((const_component(value="1"),)),
                                parse_property("G (true => v=0)"))
        assert not result.holds
        assert len(result.counterexample) == 1
        assert result.counterexample[0].valuation == {"v": "1"}

    def test_unknown_port_rejected(self):
        with pytest.raises(ValueError, match="unknown port"):
            check_property(System((const_component(),)),
                           parse_property("G (true => nosuch=1)"))

    def test_unknown_value_rejected(self):
        with pytest.raises(ValueError, match="outside domain"):
            check_property(System((const_component(),)),
                           parse_property("G (true => v=7)"))

    def test_ebs_subsystem_three_tick_budget_holds(self):
        demo = build_ebs_demo(braking_ticks=2)
        result = check_property(demo.m1, parse_property("G (Class=red => F<=3 (velocity=0))"))
        assert result.holds

    def test_ebs_slow_vehicle_fails_with_replayable_trace(self):
        demo = build_ebs_demo(braking_ticks=4)
        prop = parse_property("G (Class=red => F<=3 (velocity=0))")
        result = check_property(demo.m1, prop)
        assert not result.holds
        assert replay_violation(demo.m1, prop, result.counterexample)

    def test_shortest_counterexample(self):
        demo = build_ebs_demo(braking_ticks=4)
        prop = parse_property("G (Class=red => F<=3 (velocity=0))")
        result = check_property(demo.m1, prop)
        # red at tick 0, deadline at tick 3: no shorter witness exists
        assert len(result.counterexample) == 4


def reference_check(system, prop):
    """Name-keyed model checker, the oracle of the compiled one: breadth-first
    search over (component states, PropertyMonitor memory), stepping every
    component with ComponentModel.step, roots in initial-state product order
    and edges in sorted-port lexicographic environment order. Returns the
    CheckResult and the product states in discovery order."""
    comps = system.components
    wires = {(w.dst_comp, w.dst_port): (w.src_comp, w.src_port) for w in system.wiring}
    env_ports = sorted({(port, dom) for c in comps for port, dom in c.inputs.items()
                        if (c.name, port) not in wires})
    envs = [dict(zip([p for p, _ in env_ports], combo))
            for combo in itertools.product(*(d for _, d in env_ports))]
    mon = PropertyMonitor(prop)
    parents = {(states, mon.initial()): None
               for states in itertools.product(*(c.initial for c in comps))}
    discovered = dict.fromkeys(states for states, _ in parents)
    queue = deque(parents)
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        states, mem = node
        outputs = outputs_of(comps, states)
        for env in envs:
            valuation = {**outputs, **env}
            violated, mem2 = mon.step(mem, valuation)
            if violated:
                trace = [TraceStep(states, env, valuation)]
                while parents[node] is not None:
                    node, env = parents[node]
                    trace.append(TraceStep(node[0], env, {**outputs_of(comps, node[0]), **env}))
                return CheckResult(False, tuple(reversed(trace)), explored), list(discovered)
            nxt = tuple(
                c.step(s, {port: outputs[wires[(c.name, port)][1]]
                           if (c.name, port) in wires else env[port] for port in c.inputs})
                for c, s in zip(comps, states))
            if (nxt, mem2) not in parents:
                parents[(nxt, mem2)] = (node, env)
                queue.append((nxt, mem2))
                discovered.setdefault(nxt)
    return CheckResult(True, None, explored), list(discovered)


def outputs_of(comps, states):
    outputs = {}
    for c, s in zip(comps, states):
        outputs.update(c.output_map[s])
    return outputs


class TestCompiledAgainstReference:
    """check_property and Product.explore run on integer tables; the
    name-keyed reference_check must give equal results."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_cyclic_systems(self, seed):
        system = random_cyclic_system(seed)
        rng = np.random.default_rng(1000 + seed)
        ports = system.ports()
        for _ in range(8):
            prop = random_property(rng, ports)
            assert check_property(system, prop) == reference_check(system, prop)[0]
        # a property that never fails walks the whole product
        _, order = reference_check(system, parse_property("G (true => true)"))
        assert Product(system).explore() == order

    @pytest.mark.parametrize("seed", range(12))
    def test_random_ag_systems(self, seed):
        *_, full, candidates = random_ag_instance(seed)
        for prop in candidates[::5]:
            assert check_property(full, prop) == reference_check(full, prop)[0]

    def test_ebs_demo_against_reference(self):
        for bt in (1, 3):
            system = build_ebs_demo(bt).full_system
            for k in (2, 4):
                prop = parse_property(f"G (x=red => F<={k} (velocity=0))")
                assert check_property(system, prop) == reference_check(system, prop)[0]

    @staticmethod
    def assert_matches_reference(system, props):
        for prop in props:
            assert check_property(system, prop) == reference_check(system, prop)[0], prop
        _, order = reference_check(system, parse_property("G (true => true)"))
        assert Product(system).explore() == order

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bt", [2, 4])
    def test_fleets_against_reference(self, n, bt):
        m1, c1, stopped = braking_fleet(n, bt)
        dnn = build_ebs_demo(bt).dnn_contract
        full = wire_by_name(m1, abstract_dnn_component(dnn, LABELS, token_map=TOKEN_MAPS[0]))
        self.assert_matches_reference(full, [parse_property(f"G (x=red => F<={k} ({stopped}))")
                                             for k in (3, 4, 5)])
        self.assert_matches_reference(m1, [c1.guarantee])

    @pytest.mark.parametrize("seed", range(10))
    def test_random_wide_systems(self, seed):
        """Six to eight components, each with two initial states, wired in a
        ring; every other one also reads an environment port."""
        rng = np.random.default_rng(500 + seed)
        k = int(rng.integers(6, 9))
        comps = tuple(random_component(f"K{i}", rng, [f"o{(i - 1) % k}"] + ["e"] * (i % 2 == 0),
                                       [f"o{i}"], n_initial=2) for i in range(k))
        system = System(comps, tuple(Wire(f"K{i}", f"o{i}", f"K{(i + 1) % k}", f"o{i}")
                                     for i in range(k)))
        ports = system.ports()
        self.assert_matches_reference(system, [random_property(rng, ports) for _ in range(6)])

    def test_system_of_no_components(self):
        self.assert_matches_reference(System(()), [parse_property("G (true => true)")])
        assert check_implication([], parse_property("G (true => true)"), {}) == \
            CheckResult(True, None, 1)

    @pytest.mark.parametrize("seed", range(3))
    def test_small_steps_and_sorting_change_nothing(self, seed, monkeypatch):
        # one node a step, and every step's repeated keys sorted out first
        import safecomp.compose as compose_module
        monkeypatch.setattr(compose_module, "LEVEL_EDGES", 1)
        monkeypatch.setattr(compose_module, "SORT_EDGES", 0)
        self.test_fleets_against_reference(2, 2 + 2 * (seed % 2))
        self.test_random_wide_systems(seed)
        self.test_state_count_bound_past_int64()

    def test_state_count_bound_past_int64(self):
        """22 components of 9 states: about 1e21 product states, beyond int64
        keys, of which the 9 where every counter agrees are reachable."""
        def counter(i):
            states = tuple(f"c{j}" for j in range(9))
            inputs = {"go": BIN, **({f"top{i - 1}": BIN} if i else {})}
            return ComponentModel(
                f"C{i}", inputs, {f"top{i}": BIN}, states, ("c0",),
                {st: {f"top{i}": "1" if st == "c8" else "0"} for st in states},
                {(st, key): states[(j + int(key[0])) % 9] for j, st in enumerate(states)
                 for key in itertools.product(BIN, repeat=len(inputs))})

        comps = tuple(counter(i) for i in range(22))
        assert np.prod([float(len(c.states)) for c in comps]) > 2.0 ** 63
        system = System(comps, tuple(Wire(f"C{i}", f"top{i}", f"C{i + 1}", f"top{i}")
                                     for i in range(21)))
        props = [parse_property("G (true => top21=0)"), parse_property("G (go=1 => F<=3 (top0=1))"),
                 parse_property("G (top3=1 => top20=1)")]
        self.assert_matches_reference(system, props)
        assert len(Product(system).explore()) == 9
        result = check_property(system, props[0])
        assert not result.holds and len(result.counterexample) == 9

    # (holds, states_explored) of the EBS full system under
    # G (x=red => F<=k (velocity=0)), k = 1..6, as the name-keyed checker gave them
    EBS_PINS = {
        1: [(False, 19), (False, 44), (False, 62), (True, 73), (True, 73), (True, 73)],
        2: [(False, 19), (False, 44), (False, 62), (True, 73), (True, 73), (True, 73)],
        3: [(False, 19), (False, 37), (False, 86), (False, 110), (False, 128), (True, 139)],
        4: [(False, 19), (False, 37), (False, 86), (False, 110), (False, 128), (True, 139)],
    }

    @pytest.mark.parametrize("bt", [1, 2, 3, 4])
    def test_ebs_demo_pinned_counts(self, bt):
        system = build_ebs_demo(bt).full_system
        got = []
        for k in range(1, 7):
            result = check_property(system, parse_property(f"G (x=red => F<={k} (velocity=0))"))
            got.append((result.holds, result.states_explored))
        assert got == self.EBS_PINS[bt]


class LatchedClassifier:
    """Name-keyed reading of a DNN contract in premise 3, the oracle of
    _dnn_constraint: the state is the previous token ("outside" at tick
    zero), and a class the token's guarantee does not allow rejects."""

    def __init__(self, token_map, labels, token_port="x", class_port="Class"):
        self.allowed = {}
        for token, g in token_map.items():
            self.allowed[token] = ((g.label,) if isinstance(g, LabelIs) else labels if g is None
                                   else tuple(l for l in labels if l not in g.labels))
        self.labels, self.ports = labels, (token_port, class_port)

    def initial(self):
        return "outside"

    def step(self, state, valuation):
        token, cls = (valuation[p] for p in self.ports)
        if state == "rejected" or cls not in self.allowed.get(state, self.labels):
            return "rejected"
        return token

    @staticmethod
    def is_bad(state):
        return state == "rejected"


def reference_implication(contracts, prop, ports):
    """Name-keyed premise 3, the oracle of check_implication over compiled
    contract monitors: breadth-first search over (ContractMonitor states,
    PropertyMonitor memory), one edge per valuation of every port in
    sorted-port lexicographic order. A violation of prop counts only while
    every contract prefix is still inside its language after that tick; a
    node that leaves a language is not expanded. A contract may also be a
    name-keyed monitor itself, such as LatchedClassifier."""
    monitors = [c if hasattr(c, "step") else ContractMonitor(c) for c in contracts]
    mon = PropertyMonitor(prop)
    names = sorted(ports)
    valuations = [dict(zip(names, combo)) for combo in itertools.product(*(ports[n] for n in names))]
    root = (tuple(m.initial() for m in monitors), mon.initial())
    parents = {root: None}
    queue = deque([root])
    explored = 0
    while queue:
        node = queue.popleft()
        explored += 1
        cstates, mem = node
        for v in valuations:
            nxt = tuple(m.step(st, v) for m, st in zip(monitors, cstates))
            in_language = not any(m.is_bad(st) for m, st in zip(monitors, nxt))
            violated, mem2 = mon.step(mem, v)
            if violated and in_language:
                trace = [TraceStep((), v, v)]
                while parents[node] is not None:
                    node, v = parents[node]
                    trace.append(TraceStep((), v, v))
                return CheckResult(False, tuple(reversed(trace)), explored)
            if in_language and not violated and (nxt, mem2) not in parents:
                parents[(nxt, mem2)] = (node, v)
                queue.append((nxt, mem2))
    return CheckResult(True, None, explored)


class TestPremiseThree:
    @pytest.mark.parametrize("seed", range(60))
    def test_compiled_premise_three_equals_reference(self, seed):
        instance = random_ag_instance(seed)
        if instance is None:
            pytest.skip("no holding guarantees mined")
        _, c1, _, c2, _, candidates = instance
        ports = {**c1.inputs, **c1.outputs, **c2.inputs, **c2.outputs}
        monitors = [contract_monitor(c1), contract_monitor(c2)]
        for prop in candidates:
            assert check_implication(monitors, prop, ports) == \
                reference_implication([c1, c2], prop, ports), prop

    def test_unread_ports_vary_and_show_in_traces(self):
        # C1 reads only a, C2 only b; p's port c is read by neither
        c1 = ComponentContract("C1", None, parse_property("G (true => a=1)"),
                               outputs={"a": BIN, "z": BIN})
        c2 = ComponentContract("C2", None, parse_property("G (true => b=0)"),
                               outputs={"b": BIN})
        ports = {"a": BIN, "b": BIN, "c": BIN, "z": BIN}
        prop = parse_property("G (c=1 => b=1)")
        result = check_implication([contract_monitor(c1), contract_monitor(c2)], prop, ports)
        assert not result.holds
        assert [st.valuation for st in result.counterexample] == \
            [{"a": "1", "b": "0", "c": "1", "z": "0"}]
        assert result == reference_implication([c1, c2], prop, ports)

    def test_violation_into_rejected_constraint_state_is_absolved(self):
        # p fails at the tick a=0 arrives; at that same tick C1 breaks, so the
        # edge leads into its rejecting state and the violation does not count
        c1 = ComponentContract("C1", None, parse_property("G (true => a=1)"), outputs={"a": BIN})
        ports = {"a": BIN, "b": BIN}
        prop = parse_property("G (b=1 => a=1)")
        result = check_implication([contract_monitor(c1)], prop, ports)
        assert result == reference_implication([c1], prop, ports) == CheckResult(True, None, 1)
        unconstrained = check_implication([], prop, ports)
        assert not unconstrained.holds
        assert [st.valuation for st in unconstrained.counterexample] == [{"a": "0", "b": "1"}]

    def test_atom_on_a_port_outside_the_ports_raises_naming_it(self):
        c1 = ComponentContract("C1", None, parse_property("G (true => F<=2 (b=1))"),
                               outputs={"a": BIN, "b": BIN})
        with pytest.raises(ValueError, match="environment port is named 'b'"):
            check_implication([contract_monitor(c1)], parse_property("G (true => a=1)"),
                              {"a": BIN})

    def test_atom_value_outside_its_domain_never_holds(self):
        # C1 declares a over three values, but premise 3 ranges a over two:
        # a=2 never holds, so C1 forbids nothing and only CB constrains
        c1 = ComponentContract("C1", None, parse_property("G (a=2 => F<=1 (b=0))"),
                               outputs={"a": TRI, "b": BIN})
        c2 = ComponentContract("C2", parse_property("G (true => a=2)"),
                               parse_property("G (true => b=1)"), inputs={"a": TRI},
                               outputs={"b": BIN})
        ports = {"a": BIN, "b": BIN}
        for text in ("G (true => b=1)", "G (a=1 => F<=2 (b=0))", "G (b=0 => F<=1 (b=1))"):
            prop = parse_property(text)
            for contracts in ([c1], [c2], [c1, c2]):
                assert check_implication([contract_monitor(c) for c in contracts], prop,
                                         ports) == reference_implication(contracts, prop, ports)
        held = check_implication([contract_monitor(c1)], parse_property("G (true => b=1)"), ports)
        assert not held.holds and held.counterexample[0].valuation == {"a": "0", "b": "0"}

    # (holds, states_explored) of premise 3 on the EBS demo under
    # G (x=red => F<=k (velocity=0)), k = 1..6, per token map (TOKEN_MAPS, then
    # None), the same for every braking tick; pinned so that a change to
    # premise 3's search shows up as a diff
    PREMISE_THREE_PINS = (
        [(False, 5), (False, 10), (False, 34), (True, 41), (True, 41), (True, 41)],
        [(False, 5), (False, 10), (False, 34), (True, 41), (True, 41), (True, 41)],
        [(False, 5), (False, 10), (False, 34), (True, 41), (True, 41), (True, 41)],
        [(False, 5), (False, 10), (False, 38), (False, 54), (False, 70), (False, 86)],
        [(False, 6), (False, 14), (False, 34), (True, 41), (True, 41), (True, 41)],
    )

    @pytest.mark.parametrize("bt", [1, 2, 3, 4])
    def test_ebs_premise_three_pinned_counts(self, bt):
        demo = build_ebs_demo(bt)
        for token_map, pins in zip(TOKEN_MAPS + (None,), self.PREMISE_THREE_PINS):
            got = []
            for k in range(1, 7):
                report = check_assume_guarantee(
                    demo.m1, demo.c1, demo.dnn_contract,
                    parse_property(f"G (x=red => F<={k} (velocity=0))"),
                    class_domain=LABELS, token_map=token_map)
                premise = report.premise("C1 & C2 => P")
                got.append((premise.holds, premise.states_explored))
            assert got == pins, token_map

    @pytest.mark.parametrize("steps", ["whole-levels", "small-steps"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fleet_with_dnn_constraint_equals_reference(self, n, steps, monkeypatch):
        if steps == "small-steps":
            import safecomp.compose as compose_module
            monkeypatch.setattr(compose_module, "LEVEL_EDGES", 1)
            monkeypatch.setattr(compose_module, "SORT_EDGES", 0)
        _m1, c1, stopped = braking_fleet(n, 2)
        ports = {**c1.inputs, **c1.outputs, "x": (*LABELS, "outside")}
        for token_map in TOKEN_MAPS:
            constraints = [contract_monitor(c1), _dnn_constraint(token_map, "x", "Class")]
            oracles = [c1, LatchedClassifier(token_map, LABELS)]
            for k in (3, 4, 5):
                prop = parse_property(f"G (x=red => F<={k} ({stopped}))")
                assert check_implication(constraints, prop, ports) == \
                    reference_implication(oracles, prop, ports), (token_map, prop)


class TestSplitStep:
    """The level search steps the components that read no env port of more
    than one value (S) once per product state and the others (D) once per
    (state, env) edge. Each mix of the two must match the name-keyed
    references, searching whole levels and one node a step with every step's
    repeated keys sorted out first."""

    @pytest.fixture(params=["whole-levels", "small-steps"], autouse=True)
    def steps(self, request, monkeypatch):
        if request.param == "small-steps":
            import safecomp.compose as compose_module
            monkeypatch.setattr(compose_module, "LEVEL_EDGES", 1)
            monkeypatch.setattr(compose_module, "SORT_EDGES", 0)

    @staticmethod
    def ring(seed, reads_env, extra=()):
        """Components K0..Kn-1 wired in a ring, Ki reading env port e when
        reads_env[i], plus the unwired components in extra."""
        rng = np.random.default_rng(700 + seed)
        k = len(reads_env)
        comps = tuple(random_component(f"K{i}", rng, [f"o{(i - 1) % k}"] + ["e"] * reads_env[i],
                                       [f"o{i}"], n_initial=2) for i in range(k))
        return System(comps + tuple(extra), tuple(Wire(f"K{i}", f"o{i}", f"K{(i + 1) % k}", f"o{i}")
                                                  for i in range(k)))

    @staticmethod
    def assert_split_matches_reference(system, n_static, seed):
        assert Product(system)._n_static == n_static
        rng = np.random.default_rng(seed)
        ports = system.ports()
        TestCompiledAgainstReference.assert_matches_reference(
            system, [random_property(rng, ports) for _ in range(6)])

    @pytest.mark.parametrize("seed", range(4))
    def test_closed_system(self, seed):
        # D is empty: no env port, one env index
        system = self.ring(seed, [False] * 5)
        self.assert_split_matches_reference(system, 5, seed)

    def test_stateless_closed_system(self):
        system = System((const_component(), const_component("zero", port="w", value="0")))
        self.assert_split_matches_reference(system, 2, 0)
        assert Product(system).explore() == [("s", "s")]

    @pytest.mark.parametrize("seed", range(4))
    def test_single_valued_env_port(self, seed):
        # U reads env port u, which has one value, so D is still empty
        rng = np.random.default_rng(seed)
        u = random_component("U", rng, ["u"], ["w"], in_domain=("1",), n_initial=2)
        system = self.ring(seed, [False] * 4, extra=(u,))
        assert system.env_ports == {"u": ("1",)}
        self.assert_split_matches_reference(system, 5, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_every_component_reads_env(self, seed):
        # S is empty
        self.assert_split_matches_reference(self.ring(seed, [True] * 5), 0, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_ring(self, seed):
        self.assert_split_matches_reference(self.ring(seed, [True, False, False, True, False]),
                                            3, seed)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_mixed_fleet(self, n):
        # of the fleet's 2n + 1 components only the perception stub reads env
        # ports, x and its Class
        m1, _c1, stopped = braking_fleet(n, 2)
        dnn = build_ebs_demo(2).dnn_contract
        full = wire_by_name(m1, abstract_dnn_component(dnn, LABELS, token_map=TOKEN_MAPS[0]))
        assert Product(full)._n_static == 2 * n
        TestCompiledAgainstReference.assert_matches_reference(
            full, [parse_property(f"G (x=red => F<={k} ({stopped}))") for k in (3, 4)])

    # CA reads a's one value and goes bad at tick 2; CN reads no port and
    # never goes bad; CB reads b and c
    IMPLICATION = (
        ComponentContract("CA", None, parse_property("G (a=1 => F<=2 (a=0))"),
                          outputs={"a": ("1",)}),
        ComponentContract("CN", None, parse_property("G (true => true)")),
        ComponentContract("CB", None, parse_property("G (b=1 => F<=1 (c=1))"),
                          outputs={"b": BIN, "c": BIN}),
    )

    @pytest.mark.parametrize("chosen", [(0,), (1,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])
    def test_implication_with_each_side(self, chosen):
        ports = {"a": ("1",), "b": BIN, "c": BIN}
        contracts = [self.IMPLICATION[i] for i in chosen]
        monitors = [contract_monitor(c) for c in contracts]
        for text in ("G (c=0 => F<=3 (b=1))", "G (true => b=0)", "G (b=1 => c=1)",
                     "G (a=1 => F<=2 (b=1 & c=0))"):
            prop = parse_property(text)
            assert check_implication(monitors, prop, ports) == \
                reference_implication(contracts, prop, ports), text

    @pytest.mark.parametrize("chosen", [(0,), (1,), (0, 1)])
    def test_implication_with_no_edge_side(self, chosen):
        # every port has one value: one env index, and CA's ok flags prune
        ports = {"a": ("1",)}
        contracts = [self.IMPLICATION[i] for i in chosen]
        monitors = [contract_monitor(c) for c in contracts]
        prod = Product(System(()), ports)
        assert all(monitor(prod)[0].shape[1] == 1 for monitor in monitors)
        for text in ("G (a=1 => F<=3 (a=1))", "G (true => true)"):
            prop = parse_property(text)
            assert check_implication(monitors, prop, ports) == \
                reference_implication(contracts, prop, ports), text


LABELS = ("red", "green", "yellow")
# perception token maps for the EBS demo's contract: label_is everywhere;
# label_is, label_not_in and unconstrained mixed; label_not_in with an
# unconstrained "outside"; unconstrained everywhere
TOKEN_MAPS = (
    {label: LabelIs(label) for label in LABELS},
    {"red": LabelIs("red"), "green": LabelNotIn(("red",)), "yellow": None},
    {"red": LabelNotIn(("green", "yellow")), "green": LabelNotIn(("red",)),
     "yellow": LabelNotIn(("red", "green")), "outside": None},
    {label: None for label in LABELS},
)


class TestDnnPathOracle:
    """An AG conclusion over a DNN contract must hold on the composition of
    M1 with abstract_dnn_component, whose class answers the token one tick
    later. The composition reads the token map as given, so the oracle
    concludes from premises 1 and 3: premise 2 also fails a token map that
    the contract's regions do not carry, which several maps here are not."""

    @staticmethod
    def conclusions(m1, c1, dnn, props, token_map):
        """(property, premises 1 and 3 hold, holds on M1 || abstract
        classifier) per property."""
        full = wire_by_name(m1, abstract_dnn_component(dnn, LABELS, token_map=token_map))
        for prop in props:
            report = check_assume_guarantee(m1, c1, dnn, prop, class_domain=LABELS,
                                            token_map=token_map)
            concluded = all(report.premise(name).holds for name in ("M1 |= C1", "C1 & C2 => P"))
            yield prop, concluded, check_property(full, prop).holds

    @pytest.mark.parametrize("bt", [1, 2, 3, 4])
    @pytest.mark.parametrize("token_map", range(len(TOKEN_MAPS)))
    def test_ebs_conclusions_hold_on_latched_composition(self, bt, token_map):
        demo = build_ebs_demo(bt)
        props = [parse_property(f"G (x=red => F<={k} (velocity=0))") for k in range(1, 7)]
        for prop, concluded, holds in self.conclusions(demo.m1, demo.c1, demo.dnn_contract,
                                                        props, TOKEN_MAPS[token_map]):
            assert holds or not concluded, prop

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bt", [2, 4])
    def test_fleet_conclusions_hold_on_latched_composition(self, n, bt):
        m1, c1, stopped = braking_fleet(n, bt)
        dnn = build_ebs_demo(bt).dnn_contract
        props = [parse_property(f"G (x=red => F<={k} ({stopped}))") for k in (3, 4, 5)]
        got = [(concluded, holds) for _, concluded, holds in
               self.conclusions(m1, c1, dnn, props, TOKEN_MAPS[0])]
        # three braking ticks plus the perception latch: F<=4 is the first
        # deadline the rule proves for a fleet that brakes in time
        assert got == ([(False, False), (True, True), (True, True)] if bt == 2 else
                       [(False, False)] * 3)

    @staticmethod
    def random_guarantee(rng, expected):
        """label_is the expected label, or label_not_in one or two others."""
        if rng.random() < 0.5:
            return LabelIs(expected)
        others = [l for l in LABELS if l != expected]
        size = int(rng.integers(1, len(others) + 1))
        return LabelNotIn(tuple(sorted(rng.choice(others, size=size, replace=False))))

    def random_case(self, seed):
        """Random M1 reading Class and writing o, its mined C1, a random DNN
        contract and token map, and properties over x, Class and o."""
        rng = np.random.default_rng(seed)
        m1 = System((random_component("M1", rng, ["Class"], ["o"], in_domain=LABELS),))
        triggers = [Atom(())] + [Atom((("Class", l),)) for l in LABELS]
        c1_candidates = [Always(t, Eventually(k, Atom((("o", w),))) if k else Atom((("o", w),)))
                         for t in triggers for w in BIN for k in (0, 1, 2)]
        g1 = mine_guarantee(m1, c1_candidates, rng) or Always(Atom(()), Atom(()))
        c1 = ComponentContract("C1", None, g1, inputs={"Class": LABELS}, outputs={"o": BIN})
        regions = []
        for i in range(int(rng.integers(1, 4))):
            expected = str(rng.choice(LABELS))
            guarantee = self.random_guarantee(rng, expected)
            summary = "FullySafe" if isinstance(guarantee, LabelIs) else "TargetedSafe"
            regions.append(RegionContract(f"r{i}", np.full(2, 0.5), 0.1, "Linf", guarantee,
                                          {"summary": summary, "expected_label": expected}))
        dnn = DnnContract("net", tuple(regions))
        token_map = None
        if rng.random() < 0.7:
            names = [r.id for r in regions] + (["outside"] if rng.random() < 0.5 else [])
            token_map = {name: None if rng.random() < 0.3 else
                         self.random_guarantee(rng, str(rng.choice(LABELS))) for name in names}
        tokens = tuple(token_map or [r.id for r in regions])
        tokens += ("outside",) if "outside" not in tokens else ()
        ports = {"x": tokens, "Class": LABELS, "o": BIN}
        props = [g1] + [random_property(rng, ports) for _ in range(8)]
        return m1, c1, dnn, props, token_map

    def test_random_contracts_conclusions_hold_on_latched_composition(self):
        outcomes = set()
        for seed in range(40):
            m1, c1, dnn, props, token_map = self.random_case(seed)
            for prop, concluded, holds in self.conclusions(m1, c1, dnn, props, token_map):
                assert holds or not concluded, (seed, prop)
                outcomes.add(concluded)
        assert outcomes == {True, False}


class TestMonitors:
    def test_immediate_violation_detected_at_tick(self):
        mon = PropertyMonitor(parse_property("G (a=1 => b=1)"))
        violated, mem = mon.step(mon.initial(), {"a": "1", "b": "0"})
        assert violated

    def test_deadline_inclusive_boundary(self):
        mon = PropertyMonitor(parse_property("G (p=1 => F<=2 (q=1))"))
        mem = mon.initial()
        v1, mem = mon.step(mem, {"p": "1", "q": "0"})
        v2, mem = mon.step(mem, {"p": "0", "q": "0"})
        v3, mem = mon.step(mem, {"p": "0", "q": "1"})  # exactly at the deadline
        assert not (v1 or v2 or v3)

    def test_deadline_miss_detected(self):
        mon = PropertyMonitor(parse_property("G (p=1 => F<=2 (q=1))"))
        mem = mon.initial()
        results = []
        for v in ({"p": "1", "q": "0"}, {"p": "0", "q": "0"}, {"p": "0", "q": "0"}):
            violated, mem = mon.step(mem, v)
            results.append(violated)
        assert results == [False, False, True]

    @staticmethod
    def compiled(contract, ports):
        """contract_monitor's tables over ports, and the env index of each
        valuation, keyed by its values in sorted-port order."""
        prod = Product(System(()), ports)
        table, ok = contract_monitor(contract)(prod)
        return table, ok, {tuple(v.values()): e for e, v in enumerate(prod.envs)}

    def test_monitor_component_ok_falls_after_violation(self):
        contract = ComponentContract("m", None, parse_property("G (a=1 => b=1)"))
        table, ok, env = self.compiled(contract, {"a": BIN, "b": BIN})
        state = 0  # the initial memory
        assert ok[state]
        state = table[state, env["1", "0"]]
        assert not ok[state]
        # absorbing
        assert (table[state] == state).all()

    def test_monitor_matches_trace_semantics_exhaustively(self):
        prop = parse_property("G (p=1 => F<=2 (q=1))")
        mon = PropertyMonitor(prop)
        values = [{"p": a, "q": b} for a in BIN for b in BIN]
        for depth in range(1, 6):
            for combo in itertools.product(values, repeat=depth):
                mem = mon.initial()
                died_at = None
                for t, v in enumerate(combo):
                    violated, mem = mon.step(mem, v)
                    if violated:
                        died_at = t
                        break
                satisfied = trace_satisfies(prop, list(combo))
                if died_at is None:
                    assert satisfied, combo
                else:
                    assert not trace_satisfies(prop, list(combo[:died_at + 1])), combo
                    if died_at > 0:
                        assert trace_satisfies(prop, list(combo[:died_at])), combo

    def test_contract_monitor_with_assumption_same_tick_absolution(self):
        # guarantee dies while the assumption dies at the very same tick: the
        # contract is not violated, so ok must stay true
        contract = ComponentContract(
            "c", parse_property("G (true => a=1)"),  # assumption: a stays 1
            parse_property("G (true => b=1)"),
            inputs={"a": BIN}, outputs={"b": BIN},
        )
        table, ok, env = self.compiled(contract, {"a": BIN, "b": BIN})
        state = table[0, env["1", "1"]]
        assert ok[state]
        # a=0 breaks the assumption exactly when b=0 breaks the guarantee
        state = table[state, env["0", "0"]]
        assert ok[state]
        assert not ok[table[0, env["1", "0"]]]  # guarantee alone dies

        cm = ContractMonitor(contract)  # the same on the monitor's own step
        assert cm.advance(cm.initial(), True, False, True, False)[0] is False
        assert cm.advance(cm.initial(), True, True, True, False)[0] is True

    def test_random_traces_monitor_equals_trace_evaluation(self, rng):
        props = [
            parse_property("G (p=1 => F<=3 (q=1))"),
            parse_property("G (p=0 & q=1 => F<=1 (q=0))"),
            parse_property("G (p=1 => q=1)"),
            parse_property("G (true => F<=2 (q=0))"),
        ]
        for prop in props:
            mon = PropertyMonitor(prop)
            for _ in range(200):
                trace = [{"p": str(rng.integers(0, 2)), "q": str(rng.integers(0, 2))}
                         for _ in range(int(rng.integers(1, 8)))]
                mem = mon.initial()
                monitor_ok = True
                for v in trace:
                    violated, mem = mon.step(mem, v)
                    if violated:
                        monitor_ok = False
                        break
                assert monitor_ok == trace_satisfies(prop, trace)


class TestMostGeneralEnvironment:
    def _language(self, comp, out_ports, depth):
        """All output-valuation sequences the generator can produce."""
        prod = Product(System((comp,)))
        traces = set()

        def rec(states, prefix):
            if prefix:
                traces.add(tuple(prefix))
            if len(prefix) == depth:
                return
            for env in prod.envs:
                out = prod.valuation(states, {})
                key = tuple(out[p] for p in out_ports)
                rec(prod.step(states, env), prefix + [key])

        for s in prod.initial_states():
            rec(s, [])
        return traces

    def _allowed_prefixes(self, contract, out_ports, depth):
        """Monitor-filtered free traces: the reference language."""
        cm = ContractMonitor(contract)
        values = list(itertools.product(*(contract.outputs[p] for p in out_ports)))
        allowed = set()

        def rec(mstate, prefix):
            if len(prefix) == depth:
                return
            for combo in values:
                v = dict(zip(out_ports, combo))
                nxt = cm.step(mstate, v)
                if ContractMonitor.is_bad(nxt):
                    continue
                allowed.add(tuple(prefix + [combo]))
                rec(nxt, prefix + [combo])

        rec(cm.initial(), [])
        return allowed

    def test_true_contract_generates_all_valuations(self):
        contract = ComponentContract("free", None, parse_property("G (true => true)"),
                                     outputs={"a": BIN, "b": BIN})
        gen = most_general_environment(contract)
        lang = self._language(gen, ["a", "b"], depth=2)
        assert len([t for t in lang if len(t) == 1]) == 4
        assert len([t for t in lang if len(t) == 2]) == 16

    def test_deadline_forcing(self):
        contract = ComponentContract(
            "resp", None, parse_property("G (p=1 => F<=1 (q=1))"),
            outputs={"p": BIN, "q": BIN},
        )
        gen = most_general_environment(contract)
        lang = self._language(gen, ["p", "q"], depth=3)
        # after p=1 with q=0, the very next tick must carry q=1
        for trace in lang:
            for t in range(len(trace) - 1):
                p, q = trace[t]
                if p == "1" and q == "0":
                    assert trace[t + 1][1] == "1", trace

    @pytest.mark.parametrize("text", [
        "G (p=1 => F<=1 (q=1))",
        "G (p=1 => F<=2 (q=0))",
        "G (true => F<=2 (q=1))",
        "G (p=0 => q=0)",
        "G (true => true)",
    ])
    def test_language_equality_up_to_depth(self, text):
        contract = ComponentContract("c", None, parse_property(text),
                                     outputs={"p": BIN, "q": BIN})
        gen = most_general_environment(contract)
        depth = 6 if len(text) < 20 else 5
        assert self._language(gen, ["p", "q"], depth) == \
            self._allowed_prefixes(contract, ["p", "q"], depth)

    def test_monitor_and_generator_models_pinned(self):
        # memories and state names follow discovery order; pinned so a change
        # to the search shows up as a diff in the compiled tables
        contract = ComponentContract(
            "resp", parse_property("G (c=1 => F<=1 (c=0))"),
            parse_property("G (c=1 => F<=1 (v=1))"),
            inputs={"c": BIN}, outputs={"v": BIN},
        )

        def table(model):
            keys = list(model.input_keys())
            return {s: " ".join(model.transitions[(s, k)] for k in keys) for s in model.states}

        # the monitor's memories over every cell of its four atoms' truths,
        # so m1 and m5, which only cells that no valuation of (c, v) gives
        # reach, are in it too; memory 0 is the initial one
        mon, ok, _ = TestMonitors.compiled(contract, {"c": BIN, "v": BIN})
        assert [m for m in range(len(ok)) if not ok[m]] == [4, 5]
        assert {f"m{m}": " ".join(f"m{n}" for n in row) for m, row in enumerate(mon)} == {
            "m0": "m0 m0 m3 m2", "m1": "m4 m0 m5 m2", "m2": "m0 m0 m7 m6",  # inputs (c, v)
            "m3": "m4 m0 m8 m6", "m4": "m4 m4 m4 m4", "m5": "m5 m5 m5 m5",
            "m6": "m6 m6 m7 m6", "m7": "m8 m6 m8 m6", "m8": "m8 m8 m8 m8",
        }

        gen = most_general_environment(contract)
        assert gen.initial == ("g0", "g1")
        assert "".join(gen.output_map[s]["v"] for s in gen.states) == "01101010101"
        assert table(gen) == {  # inputs (c, v_pick)
            "g0": "g0 g1 g2 g2", "g1": "g0 g1 g3 g4", "g2": "g0 g1 g5 g6",
            "g3": "g0 g1 g7 g8", "g4": "g0 g1 g5 g6", "g5": "g5 g6 g7 g8",
            "g6": "g5 g6 g5 g6", "g7": "g9 g10 g9 g10", "g8": "g5 g6 g5 g6",
            "g9": "g9 g10 g9 g10", "g10": "g9 g10 g9 g10",
        }

    def test_unrealizable_immediate_input_response_rejected(self):
        contract = ComponentContract(
            "bad", None, parse_property("G (i=1 => q=1)"),
            inputs={"i": BIN}, outputs={"q": BIN},
        )
        with pytest.raises(ValueError, match="Moore"):
            most_general_environment(contract)

    def test_input_ported_generator_language(self):
        # the generator observes c and emits v; joint traces must be exactly
        # those the contract monitor admits
        contract = ComponentContract(
            "resp", None, parse_property("G (c=1 => F<=2 (v=1))"),
            inputs={"c": BIN}, outputs={"v": BIN},
        )
        gen = most_general_environment(contract)
        prod = Product(System((gen,)))
        depth = 4
        joint = set()

        def rec(states, prefix):
            if prefix:
                joint.add(tuple(prefix))
            if len(prefix) == depth:
                return
            for env in prod.envs:
                out = prod.valuation(states, {})
                step = (env["c"], out["v"])
                rec(prod.step(states, env), prefix + [step])

        for s in prod.initial_states():
            rec(s, [])

        cm_ref = ContractMonitor(contract)
        allowed = set()

        def ref(mstate, prefix):
            if len(prefix) == depth:
                return
            for c in BIN:
                for v in BIN:
                    nxt = cm_ref.step(mstate, {"c": c, "v": v})
                    if ContractMonitor.is_bad(nxt):
                        continue
                    allowed.add(tuple(prefix + [(c, v)]))
                    ref(nxt, prefix + [(c, v)])

        ref(cm_ref.initial(), [])
        assert joint == allowed


class TestAbstractDnn:
    def _contract(self):
        import numpy as np
        from safecomp.contracts import RegionContract
        regions = (
            RegionContract("R1", np.zeros(2), 0.1, "L2", LabelIs("red"),
                           provenance={"summary": "FullySafe"}),
            RegionContract("R2", np.ones(2), 0.1, "L2", LabelNotIn(("green",)),
                           provenance={"summary": "TargetedSafe"}),
        )
        return DnnContract("sem", regions)

    def test_label_is_token_pins_class_next_tick(self):
        comp = abstract_dnn_component(self._contract(), ("red", "green", "yellow"))
        prod = Product(System((comp,)))
        for init in prod.initial_states():
            nxt = prod.step(init, {"x": "R1", "Class_pick": "green"})
            assert prod.valuation(nxt, {}) == {"Class": "red"}

    def test_label_not_in_token_ranges_over_allowed(self):
        comp = abstract_dnn_component(self._contract(), ("red", "green", "yellow"))
        prod = Product(System((comp,)))
        seen = set()
        for pick in ("red", "green", "yellow"):
            nxt = prod.step(prod.initial_states()[0], {"x": "R2", "Class_pick": pick})
            seen.add(prod.valuation(nxt, {})["Class"])
        assert seen == {"red", "yellow"}

    def test_outside_token_ranges_over_all_labels(self):
        comp = abstract_dnn_component(self._contract(), ("red", "green", "yellow"))
        prod = Product(System((comp,)))
        seen = set()
        for pick in ("red", "green", "yellow"):
            nxt = prod.step(prod.initial_states()[0], {"x": "outside", "Class_pick": pick})
            seen.add(prod.valuation(nxt, {})["Class"])
        assert seen == {"red", "green", "yellow"}

    def test_empty_contract_warns_and_is_fully_nondeterministic(self):
        with pytest.warns(UserWarning, match="nondeterministic"):
            comp = abstract_dnn_component(DnnContract("e", ()), ("red", "green"))
        assert comp.inputs["x"] == ("outside",)
        assert set(comp.outputs["Class"]) == {"red", "green"}


class TestAssumeGuarantee:
    def test_ebs_demo_all_premises_pass(self):
        demo = build_ebs_demo(braking_ticks=2)
        report = check_assume_guarantee(
            demo.m1, demo.c1, demo.dnn_contract, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")},
        )
        assert [p.holds for p in report.premises] == [True, True, True]
        assert report.conclusion

    def test_slow_vehicle_fails_premise_one_with_trace(self):
        demo = build_ebs_demo(braking_ticks=4)
        report = check_assume_guarantee(
            demo.m1, demo.c1, demo.dnn_contract, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")},
        )
        premise1 = report.premise("M1 |= C1")
        assert not premise1.holds
        assert premise1.counterexample is not None
        assert not report.conclusion
        # the trace replays on the subsystem
        assert replay_violation(demo.m1, demo.c1.guarantee, premise1.counterexample)

    def test_weakened_c1_deadline_fails_premise_three(self):
        demo = build_ebs_demo(braking_ticks=2)
        weak_c1 = ComponentContract(
            name="C1",
            assumption=None,
            guarantee=parse_property("G (Class=red => F<=5 (velocity=0))"),
            inputs=demo.c1.inputs,
            outputs=demo.c1.outputs,
        )
        report = check_assume_guarantee(
            demo.m1, weak_c1, demo.dnn_contract, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")},
        )
        assert report.premise("M1 |= C1").holds
        assert not report.premise("C1 & C2 => P").holds
        assert report.premise("C1 & C2 => P").counterexample is not None

    def test_empty_dnn_contract_fails_premise_three(self):
        demo = build_ebs_demo(braking_ticks=2)
        empty = DnnContract("sem", ())
        report = check_assume_guarantee(
            demo.m1, demo.c1, empty, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={"red": None, "green": None, "yellow": None},
        )
        assert report.premise("M2 |= C2").holds  # vacuous audit
        assert not report.premise("C1 & C2 => P").holds
        assert not report.conclusion

    def test_tampered_provenance_fails_premise_two(self):
        demo = build_ebs_demo(braking_ticks=2)
        from safecomp.contracts import RegionContract
        bad = DnnContract("sem", (RegionContract(
            "R1", np.zeros(2), 0.1, "L2", LabelIs("red"),
            provenance={"summary": "Inconclusive"}),))
        report = check_assume_guarantee(
            demo.m1, demo.c1, bad, demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")},
        )
        assert not report.premise("M2 |= C2").holds

    def test_token_map_unbacked_by_the_contract_fails_premise_two(self):
        # every token claims its label, but the contract proves no region
        demo = build_ebs_demo(braking_ticks=2)
        report = check_assume_guarantee(
            demo.m1, demo.c1, DnnContract("semaphore-stub", ()), demo.p,
            class_domain=("red", "green", "yellow"),
            token_map={l: LabelIs(l) for l in ("red", "green", "yellow")},
        )
        premise2 = report.premise("M2 |= C2")
        assert not premise2.holds
        assert premise2.detail.startswith("token red: no region of the contract carries")
        assert report.premise("C1 & C2 => P").holds
        assert not report.conclusion

    def test_token_guarantee_must_be_carried_by_a_region(self):
        """Carried: the same label, or the same excluded labels in any order."""
        demo = build_ebs_demo(braking_ticks=2)
        dnn = DnnContract("sem", demo.dnn_contract.regions + (RegionContract(
            "R1", np.zeros(8), 0.1, "Linf", LabelNotIn(("green", "yellow")),
            provenance={"summary": "TargetedSafe"}),))

        def premise_two(token_map):
            return check_assume_guarantee(demo.m1, demo.c1, dnn, demo.p,
                                          class_domain=("red", "green", "yellow"),
                                          token_map=token_map).premise("M2 |= C2")

        held = premise_two({"red": LabelIs("red"), "amber": LabelNotIn(("yellow", "green")),
                            "green": None})
        assert held.holds
        assert held.detail == "4 region contract(s) backed by verifier verdicts"
        for unbacked in (LabelNotIn(("green",)), LabelNotIn(("green", "red")), LabelIs("blue")):
            assert not premise_two({"red": LabelIs("red"), "other": unbacked}).holds

    # a C1 that declares a port narrower than M1 gives it: premise 3 would
    # read only the declared values, and every premise passed where the
    # monolithic check fails
    NARROW_C1 = [
        ({"Class": ("red", "green", "yellow")}, {"velocity": ("0",)}, "G (true => velocity=0)",
         "contract 'C1' declares port 'velocity' without '1', '2', which M1 gives it"),
        ({"Class": ("green",)}, {"velocity": ("0", "1", "2")}, "G (x=red => F<=1 (velocity=0))",
         "contract 'C1' declares port 'Class' without 'red', 'yellow', which M1 gives it"),
    ]

    @pytest.mark.parametrize("inputs, outputs, prop, message", NARROW_C1)
    def test_contract_narrower_than_its_model_refused(self, inputs, outputs, prop, message):
        demo = build_ebs_demo(braking_ticks=2)
        p = parse_property(prop)
        assert not check_property(demo.full_system, p).holds  # so no conclusion is sound
        c1 = ComponentContract("C1", None, demo.c1.guarantee, inputs=inputs, outputs=outputs)
        with pytest.raises(ValueError, match=re.escape(message)):
            check_assume_guarantee(demo.m1, c1, demo.dnn_contract, p,
                                   class_domain=("red", "green", "yellow"),
                                   token_map={l: LabelIs(l) for l in ("red", "green", "yellow")})

    def test_contract_narrower_than_the_classifier_refused(self):
        # C1 reads the perception token over two of the four tokens there are
        demo = build_ebs_demo(braking_ticks=2)
        c1 = ComponentContract("C1", None, demo.c1.guarantee,
                               inputs={**demo.c1.inputs, "x": ("red", "green")},
                               outputs=demo.c1.outputs)
        with pytest.raises(ValueError, match="contract 'C1' declares port 'x' without 'yellow', "
                                             "'outside', which M2 gives it"):
            check_assume_guarantee(demo.m1, c1, demo.dnn_contract, demo.p,
                                   class_domain=("red", "green", "yellow"),
                                   token_map={l: LabelIs(l) for l in ("red", "green", "yellow")})

    def test_class_domain_narrower_than_m1_refused(self):
        # C1 leaves Class undeclared, so premise 3 reads it over class_domain
        demo = build_ebs_demo(braking_ticks=2)
        c1 = ComponentContract("C1", None, demo.c1.guarantee, inputs={},
                               outputs=demo.c1.outputs)
        with pytest.raises(ValueError, match="the DNN contract declares port 'Class' without "
                                             "'yellow', which M1 gives it"):
            check_assume_guarantee(demo.m1, c1, demo.dnn_contract, demo.p,
                                   class_domain=("red", "green"),
                                   token_map={l: LabelIs(l) for l in ("red", "green")})

    def test_component_contract_narrower_than_its_model_refused(self):
        seed = next(s for s in range(12) if random_ag_instance(s) is not None)
        m1_system, c1, m2_system, c2, _full, p_candidates = random_ag_instance(seed)
        narrow = ComponentContract("C2", None, c2.guarantee, inputs={"e": ("1",)},
                                   outputs=c2.outputs)
        with pytest.raises(ValueError, match="contract 'C2' declares port 'e' without '0', "
                                             "which M2 gives it"):
            check_assume_guarantee(m1_system, c1, narrow, p_candidates[0], m2_model=m2_system)

    def test_contract_wider_than_its_model_still_concludes(self):
        demo = build_ebs_demo(braking_ticks=2)
        c1 = ComponentContract("C1", None, demo.c1.guarantee, inputs=demo.c1.inputs,
                               outputs={"velocity": ("0", "1", "2", "3")})
        labels = ("red", "green", "yellow")
        report = check_assume_guarantee(demo.m1, c1, demo.dnn_contract, demo.p, class_domain=labels,
                                        token_map={l: LabelIs(l) for l in labels})
        assert report.conclusion

    @pytest.mark.parametrize("seed", range(12))
    def test_rule_soundness_on_random_systems(self, seed):
        instance = random_ag_instance(seed)
        if instance is None:
            pytest.skip("no holding guarantees mined")
        m1_system, c1, m2_system, c2, full, p_candidates = instance
        m2 = m2_system.components[0]
        passes = 0
        for p in p_candidates:
            report = check_assume_guarantee(m1_system, c1, c2, p, m2_model=m2_system)
            if not report.conclusion:
                continue
            passes += 1
            mono = check_property(full, p)
            assert mono.holds, (seed, p)
        # the mined contracts imply at least their own guarantees
        assert passes >= 1


class TestModelJson:
    TRAFFIC = {
        "name": "light",
        "states": ["g", "y", "r"],
        "init": "g",
        "inputs": {},
        "outputs": {"color": ["green", "yellow", "red"]},
        "outputs_map": {"g": {"color": "green"}, "y": {"color": "yellow"},
                        "r": {"color": "red"}},
        "transitions": [
            {"from": "g", "to": "y"},
            {"from": "y", "to": "r"},
            {"from": "r", "to": "g"},
        ],
    }

    def test_component_round_trip_and_wildcards(self):
        obj = {
            "name": "gate",
            "states": ["open", "closed"],
            "init": "open",
            "inputs": {"color": ["green", "yellow", "red"]},
            "outputs": {"ok": ["0", "1"]},
            "outputs_map": {"open": {"ok": "1"}, "closed": {"ok": "0"}},
            "transitions": [
                {"from": "open", "when": {"color": "red"}, "to": "closed"},
                {"from": "open", "when": {"color": "green"}, "to": "open"},
                {"from": "open", "when": {"color": "yellow"}, "to": "open"},
                {"from": "closed", "when": {"color": "*"}, "to": "closed"},
            ],
        }
        comp = component_from_json(obj)
        assert comp.step("open", {"color": "red"}) == "closed"
        assert comp.step("closed", {"color": "green"}) == "closed"

    def test_overlapping_rows_rejected(self):
        obj = {
            "name": "dup",
            "states": ["s"],
            "init": "s",
            "inputs": {"x": ["0", "1"]},
            "outputs": {"y": ["0"]},
            "outputs_map": {"s": {"y": "0"}},
            "transitions": [
                {"from": "s", "when": {"x": "*"}, "to": "s"},
                {"from": "s", "when": {"x": "1"}, "to": "s"},
            ],
        }
        with pytest.raises(ValueError, match="overlap"):
            component_from_json(obj)

    @pytest.mark.parametrize("row, key", [
        ({"from": "s", "when": {"x": "l"}, "to": "s"}, "'s' on ('l',)"),  # typo for "1"
        ({"from": "q", "to": "s"}, "'q' on ('0',)"),  # unknown state
    ])
    def test_rows_outside_the_domain_rejected(self, row, key):
        obj = {
            "name": "typo",
            "states": ["s"],
            "init": "s",
            "inputs": {"x": ["0", "1"]},
            "outputs": {"y": ["0"]},
            "outputs_map": {"s": {"y": "0"}},
            "transitions": [{"from": "s", "when": {"x": "*"}, "to": "s"}, row],
        }
        with pytest.raises(ValueError, match=f"typo: transition from {re.escape(key)} lies "
                                             "outside its states x input domain"):
            component_from_json(obj)

    def test_system_with_property(self):
        sysobj = {
            "components": [self.TRAFFIC],
            "wiring": [],
            "properties": ["G (color=red => F<=2 (color=green))"],
        }
        system, props = system_from_json(sysobj)
        assert check_property(system, props[0]).holds
