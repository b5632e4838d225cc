"""Contract data model and textual languages.

Region contracts capture proved network behavior over centroid/radius balls;
component contracts pair an assumption with a guarantee in a bounded-LTL
safety fragment:

    G ( atoms => atoms )            always, immediate consequent
    G ( atoms => F<=k ( atoms ) )   bounded response within k ticks

where atoms is `true` or `port=value [& port=value ...]`.
"""

from __future__ import annotations

import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .codec import NAME, json_field
from .regions import METRICS, check_ball, dist_many, geometry_from_dict, region_membership


# ---------------------------------------------------------------------------
# Property AST


@dataclass(frozen=True)
class Atom:
    """Conjunction of port=value literals; the empty conjunction is `true`."""

    literals: tuple[tuple[str, str], ...] = ()

    def ports(self) -> set[str]:
        return {p for p, _ in self.literals}

    def holds(self, valuation: dict[str, str]) -> bool:
        return all(valuation.get(p) == v for p, v in self.literals)


TRUE = Atom()


@dataclass(frozen=True)
class Eventually:
    bound: int
    atom: Atom

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("eventuality bound must be >= 1")


@dataclass(frozen=True)
class Always:
    antecedent: Atom
    consequent: Atom | Eventually

    @property
    def consequent_atom(self) -> Atom:
        """The atom the consequent asks for, at once or within its bound."""
        return self.consequent.atom if isinstance(self.consequent, Eventually) else self.consequent


Property = Always


class PropertySyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"at position {position}: {message}")


_TOKEN = re.compile(r"\s*(=>|<=|[()=&]|[A-Za-z0-9_.\-]+)")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise PropertySyntaxError(f"unexpected character {text[pos]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_property(text: str) -> Property:
    """Parse `G ( atoms => atoms | F<=INT ( atoms ) )`; whitespace-insensitive."""
    tokens = _tokenize(text)
    idx = 0

    def peek() -> str | None:
        return tokens[idx][0] if idx < len(tokens) else None

    def take(expected: str | None = None) -> str:
        nonlocal idx
        if idx >= len(tokens):
            raise PropertySyntaxError(f"unexpected end, expected {expected or 'token'}", len(text))
        tok, pos = tokens[idx]
        if expected is not None and tok != expected:
            raise PropertySyntaxError(f"expected {expected!r}, found {tok!r}", pos)
        idx += 1
        return tok

    def parse_atoms() -> Atom:
        nonlocal idx
        followed_by_eq = idx + 1 < len(tokens) and tokens[idx + 1][0] == "="
        if peek() == "true" and not followed_by_eq:
            take()
            return TRUE
        literals = []
        while True:
            tok, pos = tokens[idx] if idx < len(tokens) else (None, len(text))
            if tok is None or not re.fullmatch(r"[A-Za-z0-9_.\-]+", tok):
                raise PropertySyntaxError("expected a port name", pos)
            idx += 1
            take("=")
            vtok, vpos = tokens[idx] if idx < len(tokens) else (None, len(text))
            if vtok is None or not re.fullmatch(r"[A-Za-z0-9_.\-]+", vtok):
                raise PropertySyntaxError("expected a value", vpos)
            idx += 1
            literals.append((tok, vtok))
            if peek() == "&":
                take("&")
                continue
            return Atom(tuple(literals))

    take("G")
    take("(")
    antecedent = parse_atoms()
    take("=>")
    consequent: Atom | Eventually
    if peek() == "F":
        take("F")
        take("<=")
        btok, bpos = tokens[idx] if idx < len(tokens) else (None, len(text))
        if btok is None or not btok.isdigit():
            raise PropertySyntaxError("expected an integer bound", bpos)
        idx += 1
        bound = int(btok)
        if bound < 1:
            raise PropertySyntaxError("bound must be >= 1", bpos)
        take("(")
        consequent = Eventually(bound, parse_atoms())
        take(")")
    else:
        consequent = parse_atoms()
    take(")")
    if idx != len(tokens):
        raise PropertySyntaxError(f"trailing input {tokens[idx][0]!r}", tokens[idx][1])
    return Always(antecedent, consequent)


def render_atoms(atom: Atom) -> str:
    if not atom.literals:
        return "true"
    return " & ".join(f"{p}={v}" for p, v in atom.literals)


def render_property(p: Property) -> str:
    if isinstance(p.consequent, Eventually):
        body = f"F<={p.consequent.bound} ({render_atoms(p.consequent.atom)})"
    else:
        body = render_atoms(p.consequent)
    return f"G ({render_atoms(p.antecedent)} => {body})"


def property_ports(p: Property) -> set[str]:
    return p.antecedent.ports() | p.consequent_atom.ports()


# ---------------------------------------------------------------------------
# Region / DNN contracts


@dataclass(frozen=True)
class LabelIs:
    label: str


@dataclass(frozen=True)
class LabelNotIn:
    labels: tuple[str, ...]


Guarantee = LabelIs | LabelNotIn


@dataclass(frozen=True)
class RegionContract:
    id: str
    centroid: np.ndarray
    radius: float
    metric: str
    guarantee: LabelIs | LabelNotIn
    provenance: dict = field(default_factory=dict)
    uncertainty_max: float | None = None

    def __post_init__(self):
        check_ball(self.id, self.metric, self.centroid, self.radius)
        u = self.uncertainty_max
        if u is not None and (isinstance(u, bool) or not isinstance(u, numbers.Real)
                              or not 0 < u <= 1):
            raise ValueError(f"region {self.id!r} uncertainty_max must be a number in (0, 1], "
                             f"got {u!r}")
        expected = self.provenance.get("expected_label")
        if isinstance(self.guarantee, LabelNotIn) and expected in self.guarantee.labels:
            raise ValueError("excluded-label set must not contain the expected label")

    def contains(self, x) -> bool:
        """Membership of one point in this region alone. The guard asks
        DnnContract.first_containing."""
        return region_membership(self, x)


@dataclass(frozen=True)
class DnnContract:
    network: str
    regions: tuple[RegionContract, ...]
    # built once: the regions in id order, the width their centroids share
    # (None when they have none or several), their uncertainty caps (inf
    # where unset) and, for one shared width, per metric the (columns,
    # centroids, radii) of its regions in that order
    ordered: tuple[RegionContract, ...] = field(init=False, compare=False, repr=False)
    width: int | None = field(init=False, compare=False, repr=False)
    uncertainty_caps: np.ndarray = field(init=False, compare=False, repr=False)
    _groups: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        ids = [r.id for r in self.regions]
        if len(ids) != len(set(ids)):
            raise ValueError("region ids must be unique")
        ordered = tuple(sorted(self.regions, key=lambda r: r.id))
        widths = {len(r.centroid) for r in ordered}
        width = widths.pop() if len(widths) == 1 else None
        groups = []
        # centroids of several widths cannot be stacked; check_width rejects
        # such a contract before any membership is asked of it
        for metric in METRICS if width is not None else ():
            cols = [k for k, r in enumerate(ordered) if r.metric == metric]
            if cols:
                groups.append((metric, np.array(cols),
                               np.array([ordered[k].centroid for k in cols], dtype=np.float64),
                               np.array([ordered[k].radius for k in cols], dtype=np.float64)))
        object.__setattr__(self, "ordered", ordered)
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "uncertainty_caps", np.array(
            [np.inf if r.uncertainty_max is None else r.uncertainty_max for r in ordered]))
        object.__setattr__(self, "_groups", tuple(groups))

    def check_width(self, n: int, what: str) -> None:
        """Raise ValueError unless every region's centroid has n inputs."""
        if self.regions and self.width != n:
            widths = "/".join(map(str, sorted({len(r.centroid) for r in self.regions})))
            raise ValueError(f"contract regions have {widths} inputs but {what} has {n}")

    def first_containing(self, xs: np.ndarray) -> np.ndarray:
        """Index into `ordered` of the lowest-id region containing each row of
        the (n, width) batch xs, boundary included; len(ordered) where none
        does. Distances are taken exactly as regions.dist takes them; the
        caller has run check_width on the rows' width."""
        member = np.ones((len(xs), len(self.ordered) + 1), dtype=bool)  # last: no region
        for metric, cols, centroids, radii in self._groups:
            member[:, cols] = dist_many(metric, xs[:, None, :], centroids) <= radii
        return member.argmax(axis=1)


@dataclass(frozen=True)
class ComponentContract:
    """Assume/guarantee pair over declared ports (None assumption means true)."""

    name: str
    assumption: Property | None
    guarantee: Property
    inputs: dict[str, tuple[str, ...]] = field(default_factory=dict)
    outputs: dict[str, tuple[str, ...]] = field(default_factory=dict)


def emit_dnn_contract(network_name: str, labels, results) -> DnnContract:
    """Build the DNN contract from (Region, FullResult) verification outcomes.

    FullySafe regions guarantee label_is(expected); TargetedSafe regions
    guarantee label_not_in(proved-safe targets). NotSafe and Inconclusive
    regions are left out: their verdicts and counterexamples stay in the
    verification report.
    """
    labels = list(labels)
    region_contracts: list[RegionContract] = []
    seen: set[str] = set()
    for region, result in results:
        if region.id in seen:
            raise ValueError(f"duplicate region id {region.id!r}")
        seen.add(region.id)
        expected = labels[region.expected_label]
        kind = result.kind
        if kind == "FullySafe":
            guarantee: Guarantee = LabelIs(expected)
        elif kind == "TargetedSafe":
            guarantee = LabelNotIn(tuple(labels[t] for t in result.safe_targets))
        else:
            continue
        region_contracts.append(RegionContract(
            id=region.id,
            centroid=np.asarray(region.centroid, dtype=np.float64),
            radius=float(region.radius),
            metric=region.metric,
            guarantee=guarantee,
            provenance={"summary": kind, "expected_label": expected,
                        "member_count": region.member_count},
        ))
    return DnnContract(network_name, tuple(region_contracts))


# ---------------------------------------------------------------------------
# Serialization


def _guarantee_to_json(g: Guarantee) -> dict:
    if isinstance(g, LabelIs):
        return {"label_is": g.label}
    return {"label_not_in": list(g.labels)}


def _region_from_json(r: dict) -> RegionContract:
    rid = json_field(r, "id", str, "a region record")
    where = f"region {rid!r}"
    g, g_where = json_field(r, "guarantee", dict, where), f"{where} guarantee"
    guarantee = (LabelIs(json_field(g, "label_is", str, g_where)) if "label_is" in g else
                 LabelNotIn(tuple(json_field(g, "label_not_in", list, g_where, items=str))))
    return RegionContract(rid, *geometry_from_dict(r, where), guarantee,
                          dict(json_field(r, "provenance", dict, where, default={})),
                          json_field(r, "uncertainty_max", float, where, default=None))


def dnn_contract_to_json(c: DnnContract) -> dict:
    return {
        "network": c.network,
        "regions": [
            {
                "id": rc.id,
                "metric": rc.metric,
                "centroid": [float(v) for v in rc.centroid],
                "radius": float(rc.radius),
                "guarantee": _guarantee_to_json(rc.guarantee),
                **({"uncertainty_max": rc.uncertainty_max} if rc.uncertainty_max is not None else {}),
                "provenance": rc.provenance,
            }
            for rc in c.regions
        ],
    }


def dnn_contract_from_json(obj: dict) -> DnnContract:
    """The contract of a dnn_contract_to_json object; other keys are ignored."""
    regions = tuple(map(_region_from_json, json_field(obj, "regions", list, "", items=dict)))
    return DnnContract(json_field(obj, "network", str, ""), regions)


def component_contract_to_json(c: ComponentContract) -> dict:
    return {
        "name": c.name,
        "assume": "true" if c.assumption is None else render_property(c.assumption),
        "guarantee": render_property(c.guarantee),
        "inputs": {p: list(d) for p, d in c.inputs.items()},
        "outputs": {p: list(d) for p, d in c.outputs.items()},
    }


def domains_from_json(obj: dict, key: str, where: str) -> dict[str, tuple[str, ...]]:
    """The port domains in obj[key] (none if absent), each value as a string."""
    return {p: tuple(map(str, domain)) for p, domain in
            json_field(obj, key, dict, where, items=list, each=NAME, default={}).items()}


def component_contract_from_json(obj: dict) -> ComponentContract:
    name = str(json_field(obj, "name", NAME, "a contract"))
    where = f"contract {name!r}"
    assume_text = json_field(obj, "assume", str, where, default="true")
    return ComponentContract(
        name=name,
        assumption=None if assume_text.strip() == "true" else parse_property(assume_text),
        guarantee=parse_property(json_field(obj, "guarantee", str, where)),
        inputs=domains_from_json(obj, "inputs", where),
        outputs=domains_from_json(obj, "outputs", where),
    )
