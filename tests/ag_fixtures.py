"""Random small systems and mined contracts for assume-guarantee sampling."""

import itertools

import numpy as np

from safecomp.app import build_ebs_demo
from safecomp.compose import ComponentModel, System, Wire, check_property
from safecomp.contracts import Always, Atom, ComponentContract, Eventually, parse_property

BIN = ("0", "1")
TRI = ("0", "1", "2")


def const_component(name="const", port="v", value="1", domain=BIN):
    """A one-state component that always outputs value on port."""
    return ComponentModel(
        name=name,
        inputs={},
        outputs={port: tuple(domain)},
        states=("s",),
        initial=("s",),
        output_map={"s": {port: value}},
        transitions={("s", ()): "s"},
    )


def random_component(name, rng, in_ports, out_ports, max_states=4, in_domain=BIN,
                     out_domain=BIN, n_initial=1):
    """Random total Moore machine; its first n_initial states (as many as it
    has) are initial."""
    n_states = int(rng.integers(1, max_states + 1))
    states = tuple(f"s{i}" for i in range(n_states))
    output_map = {
        s: {p: out_domain[int(rng.integers(0, len(out_domain)))] for p in out_ports}
        for s in states
    }
    inputs = {p: in_domain for p in in_ports}
    transitions = {}
    key_ports = sorted(in_ports)
    for s in states:
        combos = itertools.product(*(in_domain for _ in key_ports)) if key_ports else [()]
        for combo in combos:
            transitions[(s, tuple(combo))] = states[int(rng.integers(0, n_states))]
    return ComponentModel(
        name=name,
        inputs=inputs,
        outputs={p: out_domain for p in out_ports},
        states=states,
        initial=states[:n_initial],
        output_map=output_map,
        transitions=transitions,
    )


def random_cyclic_system(seed):
    """Three components wired in a cycle, A -> B -> C -> A, each with up to
    two initial states. Outputs range over ("1", "2") and inputs over
    ("0", "1", "2"), so each wire's producer domain is a strict subset of
    its consumer's that is not a prefix of it; ports e and f are left to
    the environment."""
    rng = np.random.default_rng(seed)
    kw = dict(in_domain=TRI, out_domain=TRI[1:], n_initial=2)
    a = random_component("A", rng, ["c", "e"], ["a"], **kw)
    b = random_component("B", rng, ["a", "f"], ["b", "q"], **kw)
    c = random_component("C", rng, ["b"], ["c"], **kw)
    return System((a, b, c), (Wire("A", "a", "B", "a"), Wire("B", "b", "C", "b"),
                              Wire("C", "c", "A", "c")))


def random_property(rng, ports):
    """Immediate or bounded response between random conjunctions of
    literals over the given {port: domain}."""
    def atom(max_literals):
        names = rng.choice(sorted(ports), size=int(rng.integers(0, max_literals + 1)),
                           replace=False)
        return Atom(tuple((str(n), ports[n][int(rng.integers(0, len(ports[n])))])
                          for n in sorted(names)))
    antecedent, consequent = atom(2), atom(2)
    if rng.random() < 0.5:
        return Always(antecedent, consequent)
    return Always(antecedent, Eventually(int(rng.integers(1, 4)), consequent))


def candidate_properties(trigger_ports, response_ports):
    """Small pool of fragment properties to mine holding guarantees from."""
    props = []
    for q in response_ports:
        for w in BIN:
            props.append(Always(Atom(()), Atom(((q, w),))))
    for p in trigger_ports:
        for v in BIN:
            for q in response_ports:
                for w in BIN:
                    for k in (1, 2, 3):
                        props.append(Always(Atom(((p, v),)),
                                            Eventually(k, Atom(((q, w),)))))
    return props


def mine_guarantee(system, candidates, rng):
    """First (seeded-shuffled) candidate property the system satisfies."""
    order = list(range(len(candidates)))
    rng.shuffle(order)
    for idx in order:
        if check_property(system, candidates[idx]).holds:
            return candidates[idx]
    return None


def random_ag_instance(seed):
    """A wired two-or-three component system plus mined contracts.

    Returns (m1_system, c1, m2_system, c2, full_system, p_candidates) or None
    when no holding guarantees could be mined.
    """
    rng = np.random.default_rng(seed)
    three = rng.random() < 0.5
    m2 = random_component("M2", rng, in_ports=["e"], out_ports=["m"])
    if three:
        m1a = random_component("M1a", rng, in_ports=["m"], out_ports=["h"])
        m1b = random_component("M1b", rng, in_ports=["h"], out_ports=["o"])
        m1_system = System((m1a, m1b), (Wire("M1a", "h", "M1b", "h"),))
        full = System((m1a, m1b, m2),
                      (Wire("M1a", "h", "M1b", "h"), Wire("M2", "m", "M1a", "m")))
    else:
        m1a = random_component("M1a", rng, in_ports=["m"], out_ports=["o"])
        m1_system = System((m1a,))
        full = System((m1a, m2), (Wire("M2", "m", "M1a", "m"),))

    g1 = mine_guarantee(m1_system, candidate_properties(["m"], ["o"]), rng)
    g2 = mine_guarantee(System((m2,)), candidate_properties(["e"], ["m"]), rng)
    if g1 is None or g2 is None:
        return None
    c1 = ComponentContract("C1", None, g1, inputs={"m": BIN}, outputs={"o": BIN})
    c2 = ComponentContract("C2", None, g2, inputs={"e": BIN}, outputs={"m": BIN})
    p_candidates = candidate_properties(["e", "m"], ["o", "m"])
    return m1_system, c1, System((m2,)), c2, full, p_candidates


def braking_fleet(n, braking_ticks):
    """n copies of the EBS demo's braking subsystem sharing its Class input,
    copy i on ports velocity_i and brake_i. Returns (m1, c1, stopped): the
    fleet, the contract that every vehicle stops within three ticks of
    Class=red, and the text of the atom "every vehicle stopped"."""
    demo = build_ebs_demo(braking_ticks)
    comps, wires = [], []
    for i in range(n):
        def r(port):
            return f"{port}_{i}" if port in ("velocity", "brake") else port
        # the renames keep each component's sorted input port order, and so
        # its transition keys
        comps += [ComponentModel(f"{c.name}_{i}", {r(q): d for q, d in c.inputs.items()},
                                 {r(q): d for q, d in c.outputs.items()}, c.states, c.initial,
                                 {s: {r(q): v for q, v in out.items()}
                                  for s, out in c.output_map.items()}, c.transitions)
                  for c in demo.m1.components]
        wires += [Wire(f"{w.src_comp}_{i}", r(w.src_port), f"{w.dst_comp}_{i}", r(w.dst_port))
                  for w in demo.m1.wiring]
    stopped = " & ".join(f"velocity_{i}=0" for i in range(n))
    c1 = ComponentContract("C1", None, parse_property(f"G (Class=red => F<=3 ({stopped}))"),
                           inputs=dict(demo.c1.inputs),
                           outputs={f"velocity_{i}": TRI for i in range(n)})
    return System(tuple(comps), tuple(wires)), c1, stopped
