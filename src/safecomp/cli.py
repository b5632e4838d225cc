"""safecomp command-line interface.

Subcommands: discover, verify, emit-contracts, check-system, guard, demo, grid.
Exit codes: 0 success, 1 property/verification failure outcomes, 2 usage or
I/O errors.

`cli_main` may be called any number of times in one process, as tests and
programs that embed the CLI do. The parser is built on the first call and
shared by the later ones; each call looks up its `cmd_*` function when it
runs, so a function replaced on this module is the one that is called.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import itertools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, app
from .codec import NAME, json_field
from .compose import CLASS_PORT, TOKEN_PORT, check_assume_guarantee, system_from_json
from .contracts import (
    component_contract_from_json,
    dnn_contract_from_json,
    dnn_contract_to_json,
    emit_dnn_contract,
    parse_property,
)
from .guard import build_guard, check_network, stream_guard
from .network import classify_batch, normalize, parse_network
from .regions import DiscoveryConfig, discover_regions, load_dataset_csv, region_from_dict, region_to_dict
from .verifier import FullResult, check_budgets

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


def _read_json(path: str) -> dict:
    """A JSON file whose top level is an object."""
    try:
        obj = json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError("JSON nested too deeply to read") from None
    if not isinstance(obj, dict):
        raise ValueError(f"the top level must be a JSON object, got {type(obj).__name__}")
    return obj


@contextlib.contextmanager
def _naming(what: str):
    """A ValueError raised inside names what, a file or a record, in front."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from exc


def _read_net(path: str):
    return parse_network(Path(path).read_text())


def _check_made_for(net, network: str) -> None:
    """A regions file or a report names the network it was made for: --net's."""
    if network != net.name:
        raise ValueError(f"made for network {network!r}, not for --net's {net.name!r}")


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
        "radius_strategy": args.radius,
        "seed": args.seed,
        "regions": [region_to_dict(r, net.labels) for r in result.regions],
        "dropped": result.dropped_indices,
        "singletons": result.singleton_count,
    }
    _write_output(_dump_json(obj), args.out)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    check_budgets(args.node_budget, args.time_budget, args.eps)
    net = _read_net(args.net)
    with _naming(args.regions):
        obj = _read_json(args.regions)
        regions = [region_from_dict(r, net.labels)
                   for r in json_field(obj, "regions", list, "", items=dict)]
        _check_made_for(net, json_field(obj, "network", str, "", default=net.name))
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
    report = app.build_verification_report(net, results, config,
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


def _region_result(entry: dict, labels) -> tuple:
    """The (Region, FullResult) of a report entry, its summary checked against its verdicts."""
    region = region_from_dict(entry, labels)
    with _naming(f"region {region.id!r}"):
        verdicts = json_field(entry, "verdicts", dict, "", items=dict)
        targets = sorted(set(labels) - {labels[region.expected_label]})
        if sorted(verdicts) != targets:
            raise ValueError(f"verdicts name {sorted(verdicts)}, not the targets {targets}")
        result = FullResult({labels.index(name): app.verdict_from_json(v, f"verdict {name!r}")
                             for name, v in verdicts.items()})
        safe = [labels[t] for t in result.safe_targets]
        if (entry.get("summary"), entry.get("safe_targets")) != (result.kind, safe):
            raise ValueError(f"summary {entry.get('summary')!r} and safe_targets "
                             f"{entry.get('safe_targets')!r} disagree with its verdicts, "
                             f"which give {result.kind!r} and {safe!r}")
    return region, result


def cmd_emit_contracts(args) -> int:
    net = _read_net(args.net)
    with _naming(args.report):
        report = _read_json(args.report)
        rebuilt = [_region_result(entry, net.labels)
                   for entry in json_field(report, "regions", list, "", items=dict)]
        _check_made_for(net, json_field(report, "network", str, ""))
    contract = emit_dnn_contract(net.name, net.labels, rebuilt)
    _write_output(_dump_json(dnn_contract_to_json(contract)), args.out)
    return 0


def cmd_check_system(args) -> int:
    with _naming(args.system):
        sysobj = _read_json(args.system)
        system, properties = system_from_json(sysobj)
        c1 = component_contract_from_json(json_field(sysobj, "contract", dict, ""))
        perception = json_field(sysobj, "perception", dict, "", default={})
        token_port = json_field(perception, "token_port", str, "perception", default=TOKEN_PORT)
        class_port = json_field(perception, "class_port", str, "perception", default=CLASS_PORT)
        class_domain = json_field(perception, "class_domain", list, "perception", items=NAME,
                                  default=system.env_ports.get(class_port))
    with _naming(args.contracts):
        dnn = dnn_contract_from_json(_read_json(args.contracts))
    if args.property:
        prop = parse_property(args.property)
    elif properties:
        prop = properties[0]
    else:
        raise ValueError("no property given (use --property or a 'properties' list)")
    if class_domain is None:
        raise ValueError(f"cannot infer the domain of {class_port!r}; "
                         "declare perception.class_domain")
    report = check_assume_guarantee(system, c1, dnn, prop,
                                    token_port=token_port, class_port=class_port,
                                    class_domain=tuple(str(v) for v in class_domain))
    obj = {"tool": "safecomp", "version": __version__,
           "system": os.path.basename(args.system),
           "assume_guarantee": app.ag_report_to_json(report),
           "conclusion": "M1 || M2 |= P" if report.conclusion else "not established"}
    lines = [f"{p['name']}: {'PASS' if p['holds'] else 'FAIL'}"
             for p in obj["assume_guarantee"]["premises"]]
    lines.append(f"conclusion: {obj['conclusion']}")
    _write_report(args, obj, lines)
    return 0 if report.conclusion else 1


def _csv_rows(lines, width: int):
    """Data rows of a CSV stream, cut to `width` cells, as strings. Blank
    lines are skipped. A first non-blank row that does not parse as numbers
    is a header and is skipped; any other such row is passed on for the
    guard to reject. A row the csv module refuses, such as one with a field
    longer than csv.field_size_limit(), is passed on as no cells, which the
    guard rejects too, and reading goes on at the next line."""
    rows = _csv_records(csv.reader(lines), width)
    for cells in itertools.islice(rows, 1):
        try:
            list(map(float, cells))
        except ValueError:
            continue  # header row
        yield cells
    yield from rows


def _csv_records(reader, width: int):
    """The non-blank rows of a csv.reader cut to `width` cells, and no cells
    for a row it refuses; the reader then goes on at the next line."""
    while True:
        try:
            yield from (row[:width] for row in reader if row)
            return
        except csv.Error:
            yield ()


def cmd_guard(args) -> int:
    net = _read_net(args.net)
    with _naming(args.contracts):
        contract = dnn_contract_from_json(_read_json(args.contracts))
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
    with _naming(args.cutpoints):
        layout = _read_json(args.cutpoints)
        names = json_field(layout, "names", list, "", items=str)
        cutpoints = json_field(layout, "cutpoints", list, "", items=list)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once, on the first call; it binds no command function, so
    `cli_main` can share it between calls."""
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

    sp = sub.add_parser("verify", help="verify regions against a network in parallel")
    sp.add_argument("--net", required=True)
    sp.add_argument("--regions", required=True)
    _add_verifier_flags(sp)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("emit-contracts", help="turn a verification report into a contract")
    sp.add_argument("--net", required=True)
    sp.add_argument("--report", required=True)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("check-system", help="assume-guarantee proof over a system model")
    sp.add_argument("--system", required=True)
    sp.add_argument("--contracts", required=True)
    sp.add_argument("--property", default=None)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("guard", help="stream guard decisions for CSV input rows")
    sp.add_argument("--net", required=True)
    sp.add_argument("--contracts", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("demo", help="run a built-in end-to-end scenario")
    sp.add_argument("scenario", choices=["ebs"])
    sp.add_argument("--braking-ticks", type=int, default=2)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--node-budget", type=int, default=50_000)
    sp.add_argument("--format", choices=["json", "text"], default="json")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("grid", help="cartesian product of per-dimension cut points")
    sp.add_argument("--cutpoints", required=True,
                    help="JSON file with 'names' and 'cutpoints' lists")
    sp.add_argument("--label-with", default=None, metavar="NET",
                    help="label each row by running this network")
    sp.add_argument("--out", default=None)

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
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    # read at call time, so a cmd_* function replaced on this module is called
    commands = {"discover": cmd_discover, "verify": cmd_verify,
                "emit-contracts": cmd_emit_contracts, "check-system": cmd_check_system,
                "guard": cmd_guard, "demo": cmd_demo, "grid": cmd_grid}
    try:
        return commands[args.command](args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
