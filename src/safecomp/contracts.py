"""Contract data model and textual languages.

Region contracts capture proved network behavior over centroid/radius balls;
component contracts pair an assumption with a guarantee in a bounded-LTL
safety fragment:

    G ( atoms => atoms )            always, immediate consequent
    G ( atoms => F<=k ( atoms ) )   bounded response within k ticks

where atoms is `true` or `port=value [& port=value ...]`.
"""

from __future__ import annotations

import json
import numbers
import re
from dataclasses import dataclass, field

import numpy as np

from .regions import METRICS, Region, dist, dist_many, geometry_from_dict


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
    ports = p.antecedent.ports()
    if isinstance(p.consequent, Eventually):
        ports |= p.consequent.atom.ports()
    else:
        ports |= p.consequent.ports()
    return ports


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
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if np.ndim(self.centroid) != 1:
            raise ValueError("centroid must be a vector")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"region {self.id!r} radius must be finite and positive, "
                             f"got {self.radius!r}")
        u = self.uncertainty_max
        if u is not None and (isinstance(u, bool) or not isinstance(u, numbers.Real)
                              or not 0 < u <= 1):
            raise ValueError(f"region {self.id!r} uncertainty_max must be a number in (0, 1], "
                             f"got {u!r}")
        expected = self.provenance.get("expected_label")
        if isinstance(self.guarantee, LabelNotIn) and expected in self.guarantee.labels:
            raise ValueError("excluded-label set must not contain the expected label")

    def contains(self, x) -> bool:
        """Membership of one point in this region alone. The guard and
        check_point_against_contract ask DnnContract.first_containing."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.centroid.shape:
            raise ValueError(f"dimension mismatch: {x.shape} vs {self.centroid.shape}")
        return dist(self.metric, x, self.centroid) <= self.radius


@dataclass(frozen=True)
class DnnContract:
    network: str
    regions: tuple[RegionContract, ...]
    annex: tuple[dict, ...] = ()
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
    guarantee label_not_in(proved-safe targets); NotSafe and Inconclusive
    regions are kept as annex evidence only.
    """
    labels = list(labels)
    region_contracts: list[RegionContract] = []
    annex: list[dict] = []
    seen: set[str] = set()
    for region, result in results:
        if region.id in seen:
            raise ValueError(f"duplicate region id {region.id!r}")
        seen.add(region.id)
        expected = labels[region.expected_label]
        provenance = {
            "summary": result.summary.kind,
            "expected_label": expected,
            "member_count": region.member_count,
            "network": network_name,
        }
        if result.summary.kind == "FullySafe":
            guarantee: Guarantee = LabelIs(expected)
        elif result.summary.kind == "TargetedSafe":
            guarantee = LabelNotIn(tuple(labels[t] for t in result.summary.safe_targets))
        else:
            entry = {
                "id": region.id,
                "summary": result.summary.kind,
                "expected_label": expected,
                "verdicts": {labels[t]: v.status for t, v in sorted(result.verdicts.items())},
            }
            counterexamples = {
                labels[t]: [float(c) for c in v.counterexample.point]
                for t, v in sorted(result.verdicts.items())
                if v.counterexample is not None
            }
            if counterexamples:
                entry["counterexamples"] = counterexamples
            annex.append(entry)
            continue
        region_contracts.append(RegionContract(
            id=region.id,
            centroid=np.asarray(region.centroid, dtype=np.float64),
            radius=float(region.radius),
            metric=region.metric,
            guarantee=guarantee,
            provenance=provenance,
        ))
    return DnnContract(network_name, tuple(region_contracts), tuple(annex))


@dataclass(frozen=True)
class ContractAnswer:
    determined: bool
    region_id: str | None = None
    guarantee: LabelIs | LabelNotIn | None = None


def check_point_against_contract(contract: DnnContract, x) -> ContractAnswer:
    """First containing region in id order decides; no region means undetermined."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected one input vector, got shape {x.shape}")
    contract.check_width(len(x), "the point")
    k = contract.first_containing(x[None, :])[0]
    if k == len(contract.ordered):
        return ContractAnswer(False)
    rc = contract.ordered[k]
    return ContractAnswer(True, rc.id, rc.guarantee)


# ---------------------------------------------------------------------------
# Serialization


def _guarantee_to_json(g: Guarantee) -> dict:
    if isinstance(g, LabelIs):
        return {"label_is": g.label}
    return {"label_not_in": list(g.labels)}


def _guarantee_from_json(obj: dict) -> Guarantee:
    if "label_is" in obj:
        return LabelIs(obj["label_is"])
    if "label_not_in" in obj:
        return LabelNotIn(tuple(obj["label_not_in"]))
    raise ValueError(f"bad guarantee {obj!r}")


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
        "annex": list(c.annex),
    }


def dnn_contract_from_json(obj: dict) -> DnnContract:
    regions = tuple(
        RegionContract(
            r["id"],
            *geometry_from_dict(r),
            metric=r["metric"],
            guarantee=_guarantee_from_json(r["guarantee"]),
            provenance=dict(r.get("provenance", {})),
            uncertainty_max=r.get("uncertainty_max"),
        )
        for r in obj["regions"]
    )
    return DnnContract(obj["network"], regions, tuple(obj.get("annex", ())))


def component_contract_to_json(c: ComponentContract) -> dict:
    return {
        "name": c.name,
        "assume": "true" if c.assumption is None else render_property(c.assumption),
        "guarantee": render_property(c.guarantee),
        "inputs": {p: list(d) for p, d in c.inputs.items()},
        "outputs": {p: list(d) for p, d in c.outputs.items()},
    }


def component_contract_from_json(obj: dict) -> ComponentContract:
    assume_text = obj.get("assume", "true")
    assumption = None if assume_text.strip() == "true" else parse_property(assume_text)
    return ComponentContract(
        name=obj["name"],
        assumption=assumption,
        guarantee=parse_property(obj["guarantee"]),
        inputs={p: tuple(str(v) for v in d) for p, d in obj.get("inputs", {}).items()},
        outputs={p: tuple(str(v) for v in d) for p, d in obj.get("outputs", {}).items()},
    )


def render_contract(c: DnnContract | ComponentContract | Property) -> str:
    """Canonical text form: JSON for contracts, the grammar above for properties."""
    if isinstance(c, DnnContract):
        return json.dumps(dnn_contract_to_json(c), indent=2, sort_keys=True) + "\n"
    if isinstance(c, ComponentContract):
        return json.dumps(component_contract_to_json(c), indent=2, sort_keys=True) + "\n"
    if isinstance(c, Always):
        return render_property(c)
    raise TypeError(f"cannot render {type(c).__name__}")
