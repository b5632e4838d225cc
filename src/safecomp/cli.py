"""safecomp command-line interface.

Subcommands: discover, verify, emit-contracts, check-system, guard, demo, grid.
Exit codes: 0 success, 1 property/verification failure outcomes, 2 usage or
I/O errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import app
from .compose import check_assume_guarantee, system_from_json
from .contracts import (
    component_contract_from_json,
    dnn_contract_from_json,
    emit_dnn_contract,
    parse_property,
    render_contract,
)
from .guard import build_guard, check_network, stream_guard
from .network import classify_batch, normalize, parse_network
from .regions import DiscoveryConfig, discover_regions, load_dataset_csv, region_from_dict, region_to_dict
from .verifier import FullResult, FullSummary, check_budgets

_METRICS = {"l1": "L1", "l2": "L2", "linf": "Linf"}


@contextlib.contextmanager
def _output(out: str | None):
    """The --out stream: stdout for None or "-", otherwise the file, opened
    only here, so a command that fails its checks first leaves it as it was."""
    if out is None or out == "-":
        yield sys.stdout
    else:
        with open(out, "w") as handle:
            yield handle


def _write_output(text: str, out: str | None):
    with _output(out) as handle:
        handle.write(text)


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_report(args, obj: dict, lines: list[str]):
    """A report to --out as --format asks: the object as JSON, or the lines."""
    _write_output("\n".join(lines) + "\n" if args.format == "text" else _dump_json(obj), args.out)


def _read_net(path: str):
    return parse_network(Path(path).read_text())


def _add_verifier_flags(sp: argparse.ArgumentParser):
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--node-budget", type=int, default=50_000)
    sp.add_argument("--time-budget", type=float, default=None,
                    help="seconds of wall time per region; its targets still undecided "
                         "then are Unknown (budget)")
    sp.add_argument("--eps", type=float, default=1e-6)


def cmd_discover(args) -> int:
    net = _read_net(args.net)
    data = load_dataset_csv(Path(args.data).read_text(), net.labels)
    if data.dim != net.input_dim:
        raise ValueError(f"dataset has {data.dim} columns, network {net.name!r} "
                         f"takes {net.input_dim} inputs")
    cfg = DiscoveryConfig(seed=args.seed, min_members=args.min_members,
                          radius_strategy=args.radius)
    result = discover_regions(data, _METRICS[args.metric], cfg)
    obj = {
        "network": net.name,
        "labels": list(net.labels),
        "metric": _METRICS[args.metric],
        "attributes": list(data.attributes),
        "radius_strategy": args.radius,
        "seed": args.seed,
        "regions": [region_to_dict(r, net.labels) for r in result.regions],
        "dropped": result.dropped_indices,
        "singletons": result.singleton_count,
    }
    _write_output(_dump_json(obj), args.out)
    return 0


def _load_regions(path: str, labels):
    obj = json.loads(Path(path).read_text())
    regions = [region_from_dict(r, labels) for r in obj["regions"]]
    return regions, obj.get("attributes")


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    check_budgets(args.node_budget, args.time_budget, args.eps)
    net = _read_net(args.net)
    regions, attributes = _load_regions(args.regions, net.labels)
    for r in regions:
        if r.centroid.shape != (net.input_dim,):
            raise ValueError(f"region {r.id!r} has a centroid of width {r.centroid.size}, "
                             f"network {net.name!r} takes {net.input_dim} inputs")
    results = app.run_parallel_verification(
        net, regions, workers=args.workers, seed=args.seed,
        max_nodes=args.node_budget, time_budget=args.time_budget, epsilon=args.eps,
    )
    config = {
        "workers": args.workers, "seed": args.seed, "node_budget": args.node_budget,
        "eps": args.eps, "regions_file": os.path.basename(args.regions),
    }
    report = app.build_verification_report(net, results, config, attributes,
                                           elapsed=time.perf_counter() - t0)
    lines = [f"{e['id']} {e['summary']} safe={','.join(e['safe_targets']) or '-'}"
             for e in report["regions"]]
    s = report["summary"]
    lines.append(f"total={s['total']} fully_safe={s['fully_safe']} "
                 f"targeted_safe={s['targeted_safe']} not_safe={s['not_safe']} "
                 f"inconclusive={s['inconclusive']}")
    _write_report(args, report, lines)
    any_unsafe = any(v.status == "Unsafe" for _, r in results for v in r.verdicts.values())
    return 1 if any_unsafe else 0


def cmd_emit_contracts(args) -> int:
    net = _read_net(args.net)
    report = json.loads(Path(args.report).read_text())
    rebuilt = []
    for entry in report["regions"]:
        region = region_from_dict(entry, net.labels)
        verdicts = {net.labels.index(name): app.verdict_from_json(v)
                    for name, v in entry["verdicts"].items()}
        summary = FullSummary(entry["summary"],
                              tuple(net.labels.index(n) for n in entry["safe_targets"]))
        rebuilt.append((region, FullResult(verdicts, summary)))
    contract = emit_dnn_contract(report["network"], net.labels, rebuilt)
    _write_output(render_contract(contract), args.out)
    return 0


def cmd_check_system(args) -> int:
    sysobj = json.loads(Path(args.system).read_text())
    system, properties = system_from_json(sysobj)
    if "contract" not in sysobj:
        raise ValueError("system model needs a 'contract' block for the checked subsystem")
    c1 = component_contract_from_json(sysobj["contract"])
    dnn = dnn_contract_from_json(json.loads(Path(args.contracts).read_text()))
    if args.property:
        prop = parse_property(args.property)
    elif properties:
        prop = properties[0]
    else:
        raise ValueError("no property given (use --property or a 'properties' list)")
    perception = sysobj.get("perception", {})
    token_port = perception.get("token_port", "x")
    class_port = perception.get("class_port", "Class")
    class_domain = perception.get("class_domain")
    if class_domain is None:
        class_domain = system.env_ports.get(class_port)
    if class_domain is None:
        raise ValueError(f"cannot infer the domain of {class_port!r}; "
                         "declare perception.class_domain")
    report = check_assume_guarantee(system, c1, dnn, prop,
                                    token_port=token_port, class_port=class_port,
                                    class_domain=tuple(str(v) for v in class_domain))
    obj = {"tool": "safecomp", "version": app.TOOL_VERSION,
           "system": os.path.basename(args.system),
           "assume_guarantee": app.ag_report_to_json(report),
           "conclusion": "M1 || M2 |= P" if report.conclusion else "not established"}
    lines = [f"{p['name']}: {'PASS' if p['holds'] else 'FAIL'}"
             for p in obj["assume_guarantee"]["premises"]]
    lines.append(f"conclusion: {obj['conclusion']}")
    _write_report(args, obj, lines)
    return 0 if report.conclusion else 1


def _csv_rows(lines, width: int):
    """Data rows of a CSV stream, cut to `width` cells, as strings. A first
    row that does not parse as numbers is a header and is skipped; any other
    such row is passed on for the guard to reject."""
    for i, row in enumerate(csv.reader(lines)):
        if not row:
            continue
        cells = row[:width]
        if i == 0:
            try:
                list(map(float, cells))
            except ValueError:
                continue  # header row
        yield cells


def cmd_guard(args) -> int:
    net = _read_net(args.net)
    contract = dnn_contract_from_json(json.loads(Path(args.contracts).read_text()))
    guard = build_guard(contract, uncertainty_threshold=args.threshold)
    # both checks run before --out is opened, so a refused run leaves it as it was
    check_network(guard, net)
    if args.out not in (None, "-") and os.path.exists(args.out) and \
            os.path.samefile(args.data, args.out):
        raise ValueError("--out must not be the --data file: decisions are written "
                         "while the rows are read")
    with open(args.data, newline="") as data, _output(args.out) as out:
        stream_guard(guard, net, _csv_rows(data, net.input_dim), out)
    return 0


def cmd_demo(args) -> int:
    if args.scenario != "ebs":
        raise ValueError(f"unknown demo scenario {args.scenario!r}")
    report = app.run_ebs_demo(braking_ticks=args.braking_ticks, seed=args.seed,
                              max_nodes=args.node_budget)
    lines = [f"demo ebs (braking_ticks={args.braking_ticks})"]
    for p in report["assume_guarantee"]["premises"]:
        lines.append(f"  {p['name']}: {'PASS' if p['holds'] else 'FAIL'}")
    lines.append(f"conclusion: {report['conclusion']}")
    _write_report(args, report, lines)
    return 0 if report["assume_guarantee"]["conclusion"] else 1


def cmd_grid(args) -> int:
    layout = json.loads(Path(args.cutpoints).read_text())
    names = layout["names"]
    cutpoints = layout["cutpoints"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ValueError(f"'names' must be a list of strings, got {names!r}")
    if not (isinstance(cutpoints, list) and all(isinstance(c, list) for c in cutpoints)):
        raise ValueError(f"'cutpoints' must be a list of lists of numbers, got {cutpoints!r}")
    if len(names) != len(cutpoints):
        raise ValueError("names and cutpoints must align")
    points = app.iter_grid(cutpoints)  # checks the cut points before --out is opened
    net = _read_net(args.label_with) if args.label_with else None
    if net is not None and net.input_dim != len(cutpoints):
        raise ValueError(f"grid has {len(cutpoints)} dimensions, network {net.name!r} "
                         f"takes {net.input_dim} inputs")
    rows = 0
    with _output(args.out) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(list(names) + (["label"] if net else []))
        while batch := list(itertools.islice(points, 10_000)):
            pts = np.array(batch, dtype=np.float64)
            cells = [[repr(float(v)) for v in p] for p in pts]
            if net is not None:
                for row, label in zip(cells, classify_batch(net, normalize(net, pts))):
                    row.append(net.labels[label])
            writer.writerows(cells)
            rows += len(batch)
    print(f"grid rows: {rows}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="safecomp",
        description="Safe-region discovery, ReLU classifier verification, and "
                    "compositional assume-guarantee checking.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    sp = sub.add_parser("discover", help="cluster a labeled dataset into candidate regions")
    sp.add_argument("--net", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--metric", choices=sorted(_METRICS), default="linf")
    sp.add_argument("--radius", choices=["tight", "separating"], default="separating")
    sp.add_argument("--min-members", type=int, default=3)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_discover)

    sp = sub.add_parser("verify", help="verify regions against a network in parallel")
    sp.add_argument("--net", required=True)
    sp.add_argument("--regions", required=True)
    _add_verifier_flags(sp)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("emit-contracts", help="turn a verification report into a contract")
    sp.add_argument("--net", required=True)
    sp.add_argument("--report", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_emit_contracts)

    sp = sub.add_parser("check-system", help="assume-guarantee proof over a system model")
    sp.add_argument("--system", required=True)
    sp.add_argument("--contracts", required=True)
    sp.add_argument("--property", default=None)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_check_system)

    sp = sub.add_parser("guard", help="stream guard decisions for CSV input rows")
    sp.add_argument("--net", required=True)
    sp.add_argument("--contracts", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_guard)

    sp = sub.add_parser("demo", help="run a built-in end-to-end scenario")
    sp.add_argument("scenario", choices=["ebs"])
    sp.add_argument("--braking-ticks", type=int, default=2)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--node-budget", type=int, default=50_000)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_demo)

    sp = sub.add_parser("grid", help="cartesian product of per-dimension cut points")
    sp.add_argument("--cutpoints", required=True,
                    help="JSON file with 'names' and 'cutpoints' lists")
    sp.add_argument("--label-with", default=None, metavar="NET",
                    help="label each row by running this network")
    sp.add_argument("--out", default=None)
    sp.set_defaults(func=cmd_grid)

    return parser


def cli_main(argv) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
