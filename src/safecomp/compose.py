"""Port-based Moore machines, synchronous composition, explicit-state checking
of the bounded-LTL safety fragment, and the assume-guarantee proof rule.

Semantics: at every tick each component's outputs are read from its Moore
output map, wired inputs copy producer outputs of the same tick, unbound
inputs branch nondeterministically over their domains, and all components
step simultaneously. Moore outputs make cyclic wiring well-defined. A
component may declare several initial states; the product branches over
their cross product at tick zero. One breadth-first search, a whole level at
a time over integer numpy tables, checks a property on a system and, over
compiled contract observers, premise 3 of the assume-guarantee rule; traces
replay on the name-keyed steps, kept as their oracles. A level's step moves
each component that reads no environment port of more than one value once
per product state, as every environment valuation moves it alike, and only
the others once per (state, valuation) edge.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .codec import NAME, json_field
from .contracts import (
    Always,
    Atom,
    ComponentContract,
    DnnContract,
    Eventually,
    LabelIs,
    LabelNotIn,
    Property,
    domains_from_json,
    parse_property,
    property_ports,
    render_property,
)


@dataclass(frozen=True)
class ComponentModel:
    """Finite Moore machine: outputs depend on state only; the transition
    function is total over state x input-domain product."""

    name: str
    inputs: dict[str, tuple[str, ...]]
    outputs: dict[str, tuple[str, ...]]
    states: tuple[str, ...]
    initial: tuple[str, ...]
    output_map: dict[str, dict[str, str]]
    transitions: dict[tuple[str, tuple[str, ...]], str]
    # input port names in sorted order, the order of a transition key
    _ports: tuple[str, ...] = field(init=False, compare=False, repr=False)
    # compiled form: the index of each state name, and the next state's index
    # at next[state * n_keys + key], key the position in input_keys()
    _index: dict[str, int] = field(init=False, compare=False, repr=False)
    _next: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ports", tuple(sorted(self.inputs)))
        if not self.states:
            raise ValueError(f"{self.name}: no states")
        if not self.initial or any(s not in self.states for s in self.initial):
            raise ValueError(f"{self.name}: bad initial states")
        if len(set(self.initial)) != len(self.initial):
            raise ValueError(f"{self.name}: repeated initial state")
        for port, domain in {**self.inputs, **self.outputs}.items():
            if not domain:
                raise ValueError(f"{self.name}: port {port!r} has an empty domain")
        index = {s: i for i, s in enumerate(self.states)}
        table = []
        for state in self.states:
            out = self.output_map.get(state)
            if out is None or set(out) != set(self.outputs):
                raise ValueError(f"{self.name}: output map not total at state {state!r}")
            for port, value in out.items():
                if value not in self.outputs[port]:
                    raise ValueError(f"{self.name}: output {port}={value!r} outside domain")
            for key in self.input_keys():
                nxt = self.transitions.get((state, key))
                if nxt is None:
                    raise ValueError(f"{self.name}: no transition from {state!r} on {key}")
                if nxt not in index:
                    raise ValueError(f"{self.name}: transition target {nxt!r} unknown")
                table.append(index[nxt])
        if len(self.transitions) != len(table):  # some key lies outside the domain
            domain = set(itertools.product(self.states, self.input_keys()))
            state, key = next(k for k in self.transitions if k not in domain)
            raise ValueError(f"{self.name}: transition from {state!r} on {key} lies "
                             "outside its states x input domain")
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_next", np.array(table, dtype=np.intp))

    def input_ports(self) -> tuple[str, ...]:
        return self._ports

    def input_keys(self):
        return itertools.product(*(self.inputs[p] for p in self._ports))

    def step(self, state: str, valuation: dict[str, str]) -> str:
        """Name-keyed transition, the oracle the compiled table is checked against."""
        return self.transitions[(state, tuple([valuation[p] for p in self._ports]))]


@dataclass(frozen=True)
class Wire:
    src_comp: str
    src_port: str
    dst_comp: str
    dst_port: str


@dataclass(frozen=True)
class System:
    components: tuple[ComponentModel, ...]
    wiring: tuple[Wire, ...] = ()
    # unbound inputs, the environment's choices, in sorted port order
    env_ports: dict[str, tuple[str, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = [c.name for c in self.components]
        if len(names) != len(set(names)):
            raise ValueError("component names must be unique")
        by_name = {c.name: c for c in self.components}
        seen_dst = set()
        for w in self.wiring:
            src = by_name.get(w.src_comp)
            dst = by_name.get(w.dst_comp)
            if src is None or w.src_port not in src.outputs:
                raise ValueError(f"wire source {w.src_comp}.{w.src_port} not an output")
            if dst is None or w.dst_port not in dst.inputs:
                raise ValueError(f"wire destination {w.dst_comp}.{w.dst_port} not an input")
            if not set(src.outputs[w.src_port]) <= set(dst.inputs[w.dst_port]):
                raise ValueError(
                    f"wire {w.src_comp}.{w.src_port} -> {w.dst_comp}.{w.dst_port}: "
                    "producer domain not accepted by consumer"
                )
            if (w.dst_comp, w.dst_port) in seen_dst:
                raise ValueError(f"input {w.dst_comp}.{w.dst_port} wired twice")
            seen_dst.add((w.dst_comp, w.dst_port))
        # global valuation namespace: output names unique, env inputs must not
        # shadow outputs, and same-named env inputs must agree on domains
        out_names: dict[str, str] = {}
        for c in self.components:
            for port in c.outputs:
                if port in out_names:
                    raise ValueError(f"output port {port!r} produced by both "
                                     f"{out_names[port]} and {c.name}")
                out_names[port] = c.name
        env_domains: dict[str, tuple[str, ...]] = {}
        for c in self.components:
            for port, domain in c.inputs.items():
                if (c.name, port) in seen_dst:
                    continue
                if port in out_names:
                    raise ValueError(f"unbound input {c.name}.{port} shadows an output; wire it")
                if port in env_domains and env_domains[port] != domain:
                    raise ValueError(f"environment input {port!r} declared with two domains")
                env_domains[port] = domain
        object.__setattr__(self, "env_ports", dict(sorted(env_domains.items())))

    def component(self, name: str) -> ComponentModel:
        for c in self.components:
            if c.name == name:
                return c
        raise KeyError(name)

    def ports(self) -> dict[str, tuple[str, ...]]:
        """Global valuation ports: every component output plus env inputs."""
        return {**self.env_ports, **{p: d for c in self.components for p, d in c.outputs.items()}}


class Product:
    """Synchronous product, compiled for the search: a product state is a tuple
    of component state indices, an environment valuation an index into `envs`.
    The search holds the indices in row order: first the S components, whose
    next state no env port moves, then the D others. The name-keyed `step`
    and `valuation` are the oracles that replay traces."""

    def __init__(self, system: System):
        self.comps = system.components
        self._env_ports = system.env_ports
        index = {c.name: i for i, c in enumerate(self.comps)}
        self._wired = {(index[w.dst_comp], w.dst_port): (index[w.src_comp], w.src_port)
                       for w in system.wiring}
        # each env port's value index per env index, the last port fastest
        dims = [len(d) for d in self._env_ports.values()]
        self._n_env = math.prod(dims)
        digits = np.indices(dims).reshape(len(dims), self._n_env)
        self._digits = dict(zip(self._env_ports, digits))
        # row order: first the S components, which read no env port of more
        # than one value and so step alike under every env index, then the D;
        # _order holds each row's component, _row each component's row
        reads = [any(len(d) > 1 and (i, port) not in self._wired for port, d in c.inputs.items())
                 for i, c in enumerate(self.comps)]
        self._order = sorted(range(len(self.comps)), key=reads.__getitem__)
        self._row = sorted(range(len(self.comps)), key=self._order.__getitem__)
        self._n_static = reads.count(False)
        # row r's next state lies in the tables end to end at offset[r] +
        # state * radix[r] + env_key[r, e] + each wired input's key, read off
        # the producer's state by a (producer, consumer, key per state) wire
        radix, env_weight, self._wires = [], np.zeros((len(self.comps), len(dims)), np.intp), []
        for r, i in enumerate(self._order):
            c = self.comps[i]
            radix.append(1)
            for port in reversed(c.input_ports()):  # the last port varies fastest in input_keys
                src = self._wired.get((i, port))
                if src is None:
                    env_weight[r, list(self._env_ports).index(port)] = radix[r]
                else:
                    outs = map(self.comps[src[0]].output_map.get, self.comps[src[0]].states)
                    self._wires.append((self._row[src[0]], r, np.array(
                        [c.inputs[port].index(o[src[1]]) * radix[r] for o in outs], np.intp)))
                radix[r] *= len(c.inputs[port])
        self._env_key = (env_weight[self._n_static:] @ digits)[:, None, :]
        tables = [self.comps[i]._next for i in self._order]
        self._table = np.concatenate([np.zeros(0, np.intp), *tables])
        self._radix = np.array(radix, np.intp)[:, None]
        self._offset = np.array([*itertools.accumulate(map(len, tables), initial=0)][:-1],
                                np.intp)[:, None]
        # the first index of each row's states in per-state tables, which run
        # end to end in component order
        at = [0, *itertools.accumulate(len(c.states) for c in self.comps)]
        self._states_at = np.array([at[i] for i in self._order], np.intp)[:, None]

    @functools.cached_property
    def envs(self) -> list[dict[str, str]]:
        """Every environment valuation, at its env index."""
        return list(_valuations(self._env_ports))

    def initial_states(self) -> list[tuple[str, ...]]:
        return list(itertools.product(*(c.initial for c in self.comps)))

    def valuation(self, states: tuple[str, ...], env: dict[str, str]) -> dict[str, str]:
        v: dict[str, str] = {}
        for c, s in zip(self.comps, states):
            v.update(c.output_map[s])
        v.update(env)
        return v

    def step(self, states: tuple[str, ...], env: dict[str, str]) -> tuple[str, ...]:
        outputs = [c.output_map[s] for c, s in zip(self.comps, states)]
        nxt = []
        for i, (c, s) in enumerate(zip(self.comps, states)):
            inputs = {}
            for port in c.inputs:
                src = self._wired.get((i, port))
                inputs[port] = outputs[src[0]][src[1]] if src else env[port]
            nxt.append(c.step(s, inputs))
        return tuple(nxt)

    def _initial(self) -> np.ndarray:
        """The initial product states as (C, R) columns in row order, in
        initial-state product order."""
        roots = list(itertools.product(*([c._index[s] for s in c.initial] for c in self.comps)))
        return np.array(roots, np.intp).reshape(len(roots), len(self.comps))[:, self._order].T

    def _names(self, s: tuple[int, ...]) -> tuple[str, ...]:
        """The state names of a product state given in row order."""
        return tuple(c.states[s[r]] for c, r in zip(self.comps, self._row))

    def _step(self, nodes: np.ndarray) -> tuple[np.ndarray | None, np.ndarray | None]:
        """The next states of F product states, given as (C, F) in row order:
        (S, F) for the S components, which every env index moves alike, and
        (D, F, E) for the D others, one per (state, env) edge. The S side is
        None when S is empty, the D side when D is empty and S is not."""
        index = nodes * self._radix + self._offset
        for producer, consumer, keys in self._wires:
            index[consumer] += keys[nodes[producer]]
        s = self._n_static
        return (self._table[index[:s]] if s else None,
                None if 0 < s == len(index) else self._table[index[s:, :, None] + self._env_key])

    def _atom(self, atom: Atom) -> tuple[np.ndarray, np.ndarray]:
        """Whether an atom's literals on a component's outputs hold, per state
        of every component end to end, and those on env ports, per env index."""
        states = np.array([all(c.output_map[st].get(q, v) == v for q, v in atom.literals)
                           for c in self.comps for st in c.states], dtype=np.intp)
        env = np.ones(self._n_env, np.intp)
        for q, v in atom.literals:
            if q in self._digits:
                env &= self._digits[q] == self._env_ports[q].index(v)
        return states, env

    def explore(self) -> list[tuple[str, ...]]:
        """Reachable product states in BFS order."""
        levels, _, _ = _check(self, Always(Atom(()), Atom(())))
        return [self._names(s) for nodes, _, _ in levels for s in nodes.T.tolist()]


def _valuations(ports: dict[str, tuple[str, ...]]):
    """Every assignment of one domain value per port, as dicts keyed in
    sorted port order, enumerated lexicographically."""
    names = sorted(ports)
    for combo in itertools.product(*(ports[n] for n in names)):
        yield dict(zip(names, combo))


def _search(roots, successors) -> list:
    """The nodes reachable from the roots, in breadth-first discovery order,
    where `successors(node)` yields a node's next nodes; compiles observers."""
    order = list(dict.fromkeys(roots))
    seen = set(order)
    for node in order:  # the list grows while the loop reads it
        for nxt in successors(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order


# ---------------------------------------------------------------------------
# Monitors for the safety fragment


class PropertyMonitor:
    """Tick-by-tick violation detector for one Always property.

    Bounded response tracks only the earliest outstanding deadline: satisfying
    the consequent clears every pending obligation at once, so later triggers
    never have an earlier deadline than the current one.
    """

    def __init__(self, prop: Property):
        self.prop = prop
        self.atoms = (prop.antecedent, prop.consequent_atom)

    def initial(self):
        return None

    def step(self, mem, valuation: dict[str, str]):
        antecedent, consequent = self.atoms
        return self.advance(mem, antecedent.holds(valuation), consequent.holds(valuation))

    def advance(self, mem, antecedent: bool, consequent: bool):
        """One tick, given whether the antecedent and the consequent's atom hold."""
        cons = self.prop.consequent
        if isinstance(cons, Eventually):
            if consequent:
                return False, None
            if mem is not None:
                mem -= 1
                if mem <= 0:
                    return True, None
            if antecedent:
                mem = cons.bound if mem is None else min(mem, cons.bound)
            return False, mem
        return antecedent and not consequent, None


class ContractMonitor:
    """Prefix membership in a contract's language.

    A prefix leaves the language ("goes bad") exactly when the guarantee is
    violated at a tick where the assumption has not been violated at or
    before that same tick. Once the assumption dies everything is allowed;
    once bad, always bad.
    """

    def __init__(self, contract: ComponentContract):
        self.contract = contract
        self._a = PropertyMonitor(contract.assumption) if contract.assumption else None
        self._g = PropertyMonitor(contract.guarantee)

    def initial(self):
        a0 = self._a.initial() if self._a else None
        return (False, a0, False, self._g.initial(), False)

    def step(self, state, valuation: dict[str, str]):
        a_dead, a_mem, g_dead, g_mem, bad = state
        if bad:
            return state
        if self._a is not None and not a_dead:
            a_viol, a_mem = self._a.step(a_mem, valuation)
            a_dead = a_dead or a_viol
        g_viol = False
        if not g_dead:
            g_viol, g_mem = self._g.step(g_mem, valuation)
            g_dead = g_dead or g_viol
        return (a_dead, a_mem, g_dead, g_mem, g_viol and not a_dead)

    @staticmethod
    def is_bad(state) -> bool:
        return state[4]


# ---------------------------------------------------------------------------
# Property checking


@dataclass(frozen=True)
class TraceStep:
    states: tuple[str, ...]
    inputs: dict[str, str]
    valuation: dict[str, str]


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    counterexample: tuple[TraceStep, ...] | None
    states_explored: int

    def __post_init__(self):
        if self.holds and self.counterexample is not None:
            raise ValueError("holds excludes a counterexample")
        if not self.holds and self.counterexample is None:
            raise ValueError("a failed check needs a counterexample")


def _bind_check(ports: dict[str, tuple[str, ...]], p: Property):
    for atom in (p.antecedent, p.consequent_atom):
        for port, value in atom.literals:
            if port not in ports:
                raise ValueError(f"property references unknown port {port!r}")
            if value not in ports[port]:
                raise ValueError(f"property value {port}={value!r} outside domain {ports[port]}")


# edges a step of the level search holds at most (a node's are never split);
# a step with more than SORT_EDGES sorts out repeats before the set lookups
LEVEL_EDGES = 1 << 13
SORT_EDGES = 512


def _check(prod: Product, p: Property, accept=None) -> tuple[list, int, list | None]:
    """Breadth-first search over product x PropertyMonitor states, a level
    at a time, for check_property, check_implication and Product.explore.

    The first violating edge in (node, env) order ends it; else each new
    (state, memory) is kept at its first edge in that order, as a FIFO
    search finds it. `accept` flags each state of every component: an edge
    into a false one is dropped, with any violation on it. Returns the levels
    as (states, memories, edge from the previous level), the nodes expanded,
    and the shortest (state, env index) path to a violation, or None; states
    are in Product's row order.

    Product._step moves the S components once per node and the D ones once
    per edge. So an edge's key and accept flag are the sum and the AND of a
    part per node and a part per edge, and an edge's whole next state is put
    together only once the edge is kept as new."""
    mon = PropertyMonitor(p)
    mems, table = [mon.initial()], []
    for mem in mems:  # grows to the memories reachable from the initial one
        for a, c in itertools.product((False, True), repeat=2):
            violated, nxt = mon.advance(mem, a, c)
            mems += [nxt] * (nxt not in mems)
            table += [violated, mems.index(nxt)]
    viol, step = np.array(table, np.intp).reshape(-1, 2).T
    # an edge's cell is 4 * memory + 2 * antecedent + consequent: the AND of
    # its node's states' codes (the atoms on their outputs) and its env
    # index's code (on env ports, with every higher bit set)
    (a_states, a_env), (c_states, c_env) = (prod._atom(atom) for atom in mon.atoms)
    codes, env_code = 2 * a_states + c_states, 2 * a_env + c_env | ~3
    # a node's key: its state in mixed radix, then its memory, in Python ints
    # past int64; a dropped edge's key is -1, seen from the start
    sizes = [len(prod.comps[c].states) for c in prod._order]
    dtype = np.int64 if len(mems) * math.prod(sizes) < 2 ** 63 else object
    strides = np.array([math.prod(sizes[i + 1:]) * len(mems) for i in range(len(sizes))], dtype)
    # strides and state offsets of the S rows, then of the D rows
    s, at = prod._n_static, prod._states_at
    s_strides, s_at, d_strides, d_at = strides[:s], at[:s], strides[s:], at[s:]
    roots = prod._initial()
    level = (roots, *np.zeros((2, roots.shape[1]), np.intp))
    seen = {-1, *(strides @ roots).tolist()}
    levels, explored, n_env = [], 0, prod._n_env
    batch = max(1, LEVEL_EDGES // n_env)
    while len(level[1]):
        levels.append(level)
        found = []
        for lo in range(0, len(level[1]), batch):
            nodes = level[0][:, lo:lo + batch]
            cell = ((4 * level[1][lo:lo + batch] + np.bitwise_and.reduce(
                codes[nodes + at], axis=0, initial=3))[:, None] & env_code).ravel()
            # an edge's key and accept flag: the D rows' part per edge, and the
            # S rows' part per node, spread over its edges (one, with no D row)
            now, later = prod._step(nodes)
            mem, ok = step[cell], None
            if later is not None:
                later = later.reshape(len(sizes) - s, len(cell))
                key = d_strides @ later + mem
                if accept is not None:
                    ok = np.logical_and.reduce(accept[later + d_at], axis=0)
            if now is not None:
                part = s_strides @ now
                key = part + mem if later is None else key + part.repeat(n_env)
                if accept is not None:
                    part = np.logical_and.reduce(accept[now + s_at], axis=0)
                    ok = part if later is None else ok & part.repeat(n_env)
            bad = viol[cell] if ok is None else viol[cell] & ok
            if bad[i := int(bad.argmax())]:
                (f, e), path = divmod(lo * n_env + i, n_env), []
                for nodes, _mem, edge in reversed(levels):  # back through the parents
                    path.append((tuple(nodes[:, f].tolist()), e))
                    f, e = divmod(int(edge[f]), n_env)
                return levels, explored + lo + i // n_env + 1, path[::-1]
            if ok is not None:
                key[~ok] = -1
            # on a large step, first find each key's first edge by sorting
            pos = np.sort(np.unique(key, return_index=True)[1]) if key.size > SORT_EDGES else None
            new = [i for i, k in enumerate((key if pos is None else key[pos]).tolist())
                   if k not in seen and not seen.add(k)]  # add returns None
            edge = np.array(new, np.intp) if pos is None else pos[new]
            if now is None:
                nxt = later[:, edge]
            elif later is None:
                nxt = now[:, edge]
            else:
                nxt = np.concatenate((now[:, edge // n_env], later[:, edge]))
            found.append((nxt, mem[edge], lo * n_env + edge))
        explored += len(level[1])
        level = found[0] if len(found) == 1 else \
            tuple(np.concatenate(part, axis=-1) for part in zip(*found))
    return levels, explored, None


def check_property(system: System, p: Property) -> CheckResult:
    """BFS over product x monitor states; a counterexample is a shortest trace."""
    _bind_check(system.ports(), p)
    prod = Product(system)
    _, explored, path = _check(prod, p)
    if path is None:
        return CheckResult(True, None, explored)
    named = [(prod._names(s), prod.envs[e]) for s, e in path]
    return CheckResult(False, tuple(TraceStep(states, env, prod.valuation(states, env))
                                    for states, env in named), explored)


def replay_violation(system: System, p: Property, trace) -> bool:
    """Deterministically re-run a counterexample trace; true iff it reproduces
    the violation at the final tick and only there."""
    prod = Product(system)
    mon = PropertyMonitor(p)
    mem = mon.initial()
    states = trace[0].states
    if states not in set(prod.initial_states()):
        return False
    for i, step in enumerate(trace):
        if step.states != states:
            return False
        v = prod.valuation(states, step.inputs)
        if v != step.valuation:
            return False
        violated, mem = mon.step(mem, v)
        if violated != (i == len(trace) - 1):
            return False
        states = prod.step(states, step.inputs)
    return True


def check_implication(constraints: list[ComponentModel], p: Property,
                      ports: dict[str, tuple[str, ...]]) -> CheckResult:
    """Do all valuation sequences over `ports` that every constraint accepts
    satisfy p? Exact for safety languages.

    A constraint is a Moore observer of ports (contract_monitor) whose outputs
    read "true" until the prefix it consumed leaves its language. The search
    is check_property's, over the constraints and a stateless reader of the
    ports none reads, accepting the states whose outputs are all "true": a
    constraint breaking at the tick of a violation absolves the trace."""
    ports = {q: tuple(d) for q, d in sorted(ports.items())}
    _bind_check(ports, p)
    read = {q for c in constraints for q in c.inputs}
    free = {q: d for q, d in ports.items() if q not in read}
    components = tuple(constraints)
    if free:
        keys = itertools.product(*free.values())
        components += (ComponentModel("free ports", free, {}, ("s",), ("s",), {"s": {}},
                                      {("s", key): "s" for key in keys}),)
    system = System(components)
    if system.env_ports != ports:
        raise ValueError("constraints must read the declared ports with their domains")
    prod = Product(system)
    _, explored, path = _check(prod, p, np.array([all(v == "true" for v in c.output_map[s].values())
                                                   for c in prod.comps for s in c.states]))
    if path is None:
        return CheckResult(True, None, explored)
    return CheckResult(False, tuple(TraceStep((), prod.envs[e], prod.envs[e])
                                    for _s, e in path), explored)


# ---------------------------------------------------------------------------
# Contract observers and generators


def _contract_ports(c: ComponentContract) -> dict[str, tuple[str, ...]]:
    return {**c.inputs, **c.outputs}


def contract_monitor(c: ComponentContract, port_domains: dict[str, tuple[str, ...]],
                     name: str) -> ComponentModel:
    """Deterministic observer `name` with a boolean output `<name>.ok`.

    The domains in port_domains override those c declares. `ok` stays
    "true" exactly while the observed prefix satisfies the contract. Being a
    Moore output, the flag reflects the ticks already consumed: a violation
    at tick t shows as ok="false" from tick t+1.
    """
    ports = {**_contract_ports(c), **port_domains}
    needed = property_ports(c.guarantee) | (property_ports(c.assumption) if c.assumption else set())
    missing = needed - set(ports)
    if missing:
        raise ValueError(f"no domain declared for ports {sorted(missing)}")
    ports = {p: tuple(ports[p]) for p in sorted(needed)}

    cm = ContractMonitor(c)
    # step once per vector of the atoms' truths, all the monitor reads of a valuation
    atoms = [a for q in (c.assumption, c.guarantee) if q
             for a in (q.antecedent, q.consequent_atom)]
    classes: dict = {}
    for v in _valuations(ports):
        classes.setdefault(tuple(a.holds(v) for a in atoms), (v, []))[1].append(tuple(v.values()))
    edges = []

    def successors(mstate):
        for v, keys in classes.values():
            edges.append((mstate, keys, cm.step(mstate, v)))
            yield edges[-1][2]

    order = _search([cm.initial()], successors)
    state_names = {ms: f"m{i}" for i, ms in enumerate(order)}
    ok_port = f"{name}.ok"
    return ComponentModel(
        name=name,
        inputs=ports,
        outputs={ok_port: ("true", "false")},
        states=tuple(state_names.values()),
        initial=(state_names[cm.initial()],),
        output_map={sn: {ok_port: "false" if ContractMonitor.is_bad(ms) else "true"}
                    for ms, sn in state_names.items()},
        transitions={(state_names[src], key): state_names[dst]
                     for src, keys, dst in edges for key in keys},
    )


def most_general_environment(c: ComponentContract, name: str | None = None) -> ComponentModel:
    """Maximal nondeterministic generator of the contract's output ports.

    The machine's trace set, projected on its outputs, is exactly the set of
    prefixes the (safety) contract allows: free choices arrive on one pick
    port per output and are redirected to a canonical allowed valuation
    whenever the chosen one would leave the language (deadline bookkeeping
    forces pending consequents by their bound).
    """
    out_ports = sorted(c.outputs)
    if not out_ports:
        raise ValueError("contract declares no output ports to generate")

    def check_realizable(prop: Property):
        if not prop.consequent_atom.ports() <= set(c.outputs):
            raise ValueError("guarantee consequent must constrain output ports only")
        if not isinstance(prop.consequent, Eventually):
            if not prop.antecedent.ports() <= set(c.outputs):
                raise ValueError(
                    "immediate response to same-tick inputs is not Moore-realizable; "
                    "use a bounded-eventually consequent"
                )

    check_realizable(c.guarantee)

    cm = ContractMonitor(c)
    out_vals = list(_valuations(c.outputs))
    in_vals = list(_valuations(c.inputs))

    def allowed(mstate, w: dict[str, str]) -> bool:
        return all(not ContractMonitor.is_bad(cm.step(mstate, {**i, **w})) for i in in_vals)

    def fallback(mstate) -> dict[str, str]:
        for w in out_vals:
            if allowed(mstate, w):
                return w
        raise ValueError("contract admits no continuation; conflicting obligations")

    # a node is (monitor state, emitted output values in out_ports order)
    roots = [(cm.initial(), tuple(w.values())) for w in out_vals if allowed(cm.initial(), w)]
    if not roots:
        raise ValueError("contract rejects every initial valuation")
    pick_ports = {f"{p}_pick": c.outputs[p] for p in out_ports}
    input_names = sorted(list(c.inputs) + list(pick_ports))
    edges = []

    def successors(node):
        mstate, w = node
        w = dict(zip(out_ports, w))
        for i in in_vals:
            m2 = cm.step(mstate, {**i, **w})
            if ContractMonitor.is_bad(m2):
                raise AssertionError("generator emitted a forbidden valuation")
            for pick in out_vals:
                w2 = pick if allowed(m2, pick) else fallback(m2)
                full_inputs = {**i, **{f"{p}_pick": pick[p] for p in out_ports}}
                key = tuple(full_inputs[p] for p in input_names)
                nxt = (m2, tuple(w2.values()))
                edges.append((node, key, nxt))
                yield nxt

    order = _search(roots, successors)
    state_names = {node: f"g{k}" for k, node in enumerate(order)}
    return ComponentModel(
        name=name or f"env_{c.name}",
        inputs={**dict(sorted(c.inputs.items())), **pick_ports},
        outputs=dict(c.outputs),
        states=tuple(state_names.values()),
        initial=tuple(state_names[node] for node in roots),
        output_map={sn: dict(zip(out_ports, w)) for (_m, w), sn in state_names.items()},
        transitions={(state_names[src], key): state_names[dst] for src, key, dst in edges},
    )


TOKEN_PORT, CLASS_PORT = "x", "Class"  # abstract_dnn_component's ports; the rule's defaults


def _perception_tokens(contract: DnnContract, token_map: dict | None):
    """The token map (by default one token per contract region, in id order)
    and the perception-token alphabet: its tokens plus "outside"."""
    if token_map is None:
        token_map = {rc.id: rc.guarantee for rc in sorted(contract.regions, key=lambda r: r.id)}
    return token_map, tuple(token_map) + (("outside",) if "outside" not in token_map else ())


def _allowed_labels(guarantee: LabelIs | LabelNotIn | None, class_domain) -> tuple[str, ...]:
    """The class labels a perception token's guarantee allows: a label_is
    token pins its label, label_not_in leaves the others, None leaves all."""
    if guarantee is None:
        return tuple(class_domain)
    if isinstance(guarantee, LabelIs):
        return (guarantee.label,)
    return tuple(l for l in class_domain if l not in guarantee.labels)


def abstract_dnn_component(contract: DnnContract, class_domain,
                           token_map: dict | None = None) -> ComponentModel:
    """Abstract the network to a Moore classifier "NN" over perception tokens.

    The input domain has one token per contract region plus "outside"; the
    class output answers one tick later (Moore latch): a label_is region pins
    it, label_not_in leaves the allowed labels, outside leaves all labels.
    """
    class_domain = tuple(class_domain)
    if token_map is None and not contract.regions:
        warnings.warn("empty contract: abstract classifier is fully nondeterministic")
    token_map, tokens = _perception_tokens(contract, token_map)
    allowed = {token: _allowed_labels(token_map.get(token), class_domain) for token in tokens}
    for token in tokens:
        if not allowed[token]:
            raise ValueError(f"token {token!r} admits no class label")

    names = {(t, cls): f"{t}|{cls}" for t in tokens for cls in allowed[t]}
    pick = f"{CLASS_PORT}_pick"
    input_names = sorted([TOKEN_PORT, pick])
    transitions = {}
    for t2 in tokens:
        for p2 in class_domain:
            nxt = names[(t2, p2 if p2 in allowed[t2] else allowed[t2][0])]
            key = tuple({TOKEN_PORT: t2, pick: p2}[p] for p in input_names)
            transitions.update(((st, key), nxt) for st in names.values())
    return ComponentModel(
        name="NN",
        inputs={TOKEN_PORT: tokens, pick: class_domain},
        outputs={CLASS_PORT: class_domain},
        states=tuple(names.values()),
        initial=tuple(names[("outside", cls)] for cls in allowed["outside"]),
        output_map={n: {CLASS_PORT: cls} for (_t, cls), n in names.items()},
        transitions=transitions,
    )


def _dnn_constraint(token_map: dict, ports: dict[str, tuple[str, ...]],
                    token_port: str, class_port: str) -> ComponentModel:
    """Premise 3's reading of a DNN contract: abstract_dnn_component projected
    on (token, class). The state is the previous token, "outside" at tick
    zero, and the class must be a label that token allows; any other class
    moves to the rejecting state, whose `C2.ok` output is "false"."""
    inputs = {token_port: tuple(ports[token_port]), class_port: tuple(ports[class_port])}
    order = sorted(inputs)
    allowed = {t: _allowed_labels(token_map.get(t), inputs[class_port])
               for t in dict.fromkeys(("outside", *inputs[token_port]))}
    transitions = {}
    for key in itertools.product(*(inputs[q] for q in order)):
        v = dict(zip(order, key))
        for t, labels in allowed.items():
            transitions[(f"after {t}", key)] = (f"after {v[token_port]}"
                                                if v[class_port] in labels else "rejected")
        transitions[("rejected", key)] = "rejected"
    states = (*(f"after {t}" for t in allowed), "rejected")
    return ComponentModel("C2", inputs, {"C2.ok": ("true", "false")}, states, ("after outside",),
                          {s: {"C2.ok": "false" if s == "rejected" else "true"} for s in states},
                          transitions)


# ---------------------------------------------------------------------------
# Assume-guarantee rule


@dataclass(frozen=True)
class PremiseReport:
    name: str
    holds: bool
    method: str
    detail: str = ""
    counterexample: tuple[TraceStep, ...] | None = None
    states_explored: int = 0


@dataclass(frozen=True)
class AGReport:
    premises: tuple[PremiseReport, ...]
    conclusion: bool
    property_text: str

    def premise(self, name: str) -> PremiseReport:
        for pr in self.premises:
            if pr.name == name:
                return pr
        raise KeyError(name)


def wire_by_name(system: System, comp: ComponentModel) -> System:
    """Add a component and wire its outputs to same-named unbound inputs."""
    bound = {(w.dst_comp, w.dst_port) for w in system.wiring}
    new_wires = list(system.wiring)
    for c in system.components:
        for port in c.inputs:
            if (c.name, port) in bound:
                continue
            if port in comp.outputs:
                new_wires.append(Wire(comp.name, port, c.name, port))
    return System(system.components + (comp,), tuple(new_wires))


def _model_check_premise(name: str, system: System, c: ComponentContract) -> PremiseReport:
    """Model check the system against c's guarantee, under the most general
    environment of c's assumption when c has one."""
    if c.assumption is not None:
        port_domains = {**system.ports(), **_contract_ports(c)}
        undeclared = property_ports(c.assumption) - port_domains.keys()
        if undeclared:
            raise ValueError(f"contract {c.name!r} assumes port {min(undeclared)!r}, which "
                             "neither it nor the system declares")
        gen_ports = {p: port_domains[p] for p in sorted(property_ports(c.assumption))}
        env = most_general_environment(
            ComponentContract("assumption", None, c.assumption, inputs={}, outputs=gen_ports),
            name="assumption_env",
        )
        system = wire_by_name(system, env)
    return _checked_premise(name, "model-checking", f"guarantee {render_property(c.guarantee)}",
                            check_property(system, c.guarantee))


def _checked_premise(name: str, method: str, detail: str, result: CheckResult) -> PremiseReport:
    return PremiseReport(name, result.holds, method, detail, result.counterexample,
                         result.states_explored)


def audit_dnn_contract(contract: DnnContract, token_map: dict | None) -> tuple[bool, str]:
    """Premise 2 for a DNN: every region contract must trace to a proved verdict,
    and each guarantee of token_map (None: the regions' own) must be carried by a
    region, with the same label or the same set of excluded labels."""
    for rc in contract.regions:
        summary = rc.provenance.get("summary")
        if summary not in ("FullySafe", "TargetedSafe"):
            return False, f"region {rc.id}: provenance summary {summary!r} is not a proof"
        if isinstance(rc.guarantee, LabelIs) and summary != "FullySafe":
            return False, f"region {rc.id}: label_is guarantee needs a FullySafe verdict"
        if isinstance(rc.guarantee, LabelNotIn) and not rc.guarantee.labels:
            return False, f"region {rc.id}: empty exclusion set"

    def carried(g):
        return g if isinstance(g, LabelIs) else frozenset(g.labels)

    backed = {carried(rc.guarantee) for rc in contract.regions}
    for token, g in (token_map or {}).items():
        if g is not None and carried(g) not in backed:
            return False, f"token {token}: no region of the contract carries {g}"
    n = len(contract.regions)
    return True, f"{n} region contract(s) backed by verifier verdicts"


def check_assume_guarantee(m1: System, c1: ComponentContract,
                           m2: DnnContract | ComponentContract, p: Property,
                           m2_model: System | ComponentModel | None = None,
                           token_port: str = TOKEN_PORT, class_port: str = CLASS_PORT,
                           class_domain=None,
                           token_map: dict | None = None) -> AGReport:
    """The compositional proof rule: three premises checked independently.

    1. m1 under the most general environment of c1's assumption satisfies
       c1's guarantee.
    2. The second component satisfies its contract: a DNN contract is
       discharged by auditing its verifier provenance and its token map; a
       component contract is model checked against m2_model.
    3. Every joint behavior allowed by both contracts satisfies p (exact for
       this safety fragment): check_implication over compiled observers of
       c1 and of the second contract. A DNN contract is read as the abstract
       classifier reads it, its class answering the previous tick's token.

    The conclusion m1 || m2 |= p is asserted only when all premises hold.
    """
    premise1 = _model_check_premise("M1 |= C1", m1, c1)

    ports: dict[str, tuple[str, ...]] = dict(_contract_ports(c1))
    if isinstance(m2, DnnContract):
        ok, detail = audit_dnn_contract(m2, token_map)
        premise2 = PremiseReport(name="M2 |= C2", holds=ok, method="provenance-audit",
                                 detail=detail)
        if class_domain is None:
            raise ValueError("class_domain is required for a DNN contract")
        token_map, tokens = _perception_tokens(m2, token_map)
        ports.setdefault(token_port, tokens)
        ports.setdefault(class_port, tuple(class_domain))
    else:
        if m2_model is None:
            raise ValueError("m2_model is required to check a component contract")
        m2_system = m2_model if isinstance(m2_model, System) else System((m2_model,))
        premise2 = _model_check_premise("M2 |= C2", m2_system, m2)
        ports.update(_contract_ports(m2))

    for port in property_ports(p):
        if port not in ports:
            raise ValueError(f"property port {port!r} is not covered by the contracts")
    constraints = [contract_monitor(c1, ports, "C1"),
                   _dnn_constraint(token_map, ports, token_port, class_port)
                   if isinstance(m2, DnnContract) else
                   contract_monitor(m2, ports, "C2")]
    premise3 = _checked_premise("C1 & C2 => P", "monitored-implication",
                                f"property {render_property(p)}",
                                check_implication(constraints, p, ports))

    premises = (premise1, premise2, premise3)
    return AGReport(premises, all(pr.holds for pr in premises), render_property(p))


# ---------------------------------------------------------------------------
# JSON model format


def component_from_json(obj: dict) -> ComponentModel:
    """Build a component from the JSON model format, expanding wildcard rows.

    A transition row is {"from": s, "when": {port: value or "*"}, "to": s2};
    omitted ports count as wildcards. Rows that cover the same (state, input
    valuation) pair twice are rejected.
    """
    name = str(json_field(obj, "name", NAME, "a component"))
    where = f"component {name!r}"
    inputs = domains_from_json(obj, "inputs", where)
    port_names = sorted(inputs)
    transitions: dict[tuple[str, tuple[str, ...]], str] = {}
    rows = json_field(obj, "transitions", list, where, items=dict, default=[])
    for row_num, row in enumerate(rows, start=1):
        row_where = f"{where} transition row {row_num}"
        src = str(json_field(row, "from", NAME, row_where))
        dst = str(json_field(row, "to", NAME, row_where))
        when = json_field(row, "when", dict, row_where, items=NAME, default={})
        for port in when:
            if port not in inputs:
                raise ValueError(f"transition row {row_num}: unknown port {port!r}")
        choices = [inputs[p] if when.get(p, "*") == "*" else (str(when[p]),) for p in port_names]
        for combo in itertools.product(*choices):
            key = (src, combo)
            if key in transitions:
                raise ValueError(f"transition row {row_num}: overlaps an earlier row "
                                 f"at state {src!r}, inputs {combo}")
            transitions[key] = dst
    return ComponentModel(
        name=name,
        inputs=inputs,
        outputs=domains_from_json(obj, "outputs", where),
        states=tuple(map(str, json_field(obj, "states", list, where, items=NAME))),
        initial=tuple(map(str, json_field(obj, "init", list, where, items=NAME, single=True))),
        output_map={str(s): {p: str(v) for p, v in out.items()} for s, out in json_field(
            obj, "outputs_map", dict, where, items=dict, default={}).items()},
        transitions=transitions,
    )


def component_to_json(comp: ComponentModel) -> dict:
    ports = comp.input_ports()
    rows = [
        {"from": state, "when": dict(zip(ports, key)), "to": target}
        for (state, key), target in sorted(comp.transitions.items())
    ]
    return {
        "name": comp.name,
        "states": list(comp.states),
        "init": list(comp.initial),
        "inputs": {p: list(d) for p, d in comp.inputs.items()},
        "outputs": {p: list(d) for p, d in comp.outputs.items()},
        "outputs_map": {s: dict(v) for s, v in comp.output_map.items()},
        "transitions": rows,
    }


def system_to_json(system: System, properties=()) -> dict:
    return {
        "components": [component_to_json(c) for c in system.components],
        "wiring": [{"from": f"{w.src_comp}.{w.src_port}",
                    "to": f"{w.dst_comp}.{w.dst_port}"} for w in system.wiring],
        "properties": [render_property(p) for p in properties],
    }


def system_from_json(obj: dict) -> tuple[System, list[Property]]:
    components = json_field(obj, "components", list, "", items=dict)
    wires = []
    for k, w in enumerate(json_field(obj, "wiring", list, "", items=dict, default=[]), start=1):
        ends = [json_field(w, end, str, f"wire {k}").partition(".") for end in ("from", "to")]
        if not all(dot for _, dot, _ in ends):
            raise ValueError(f"wire {k} must join two ports named 'component.port', got {w!r}")
        wires.append(Wire(ends[0][0], ends[0][2], ends[1][0], ends[1][2]))
    return System(tuple(map(component_from_json, components)), tuple(wires)), [
        parse_property(t) for t in json_field(obj, "properties", list, "", items=str, default=[])]
