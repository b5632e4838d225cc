"""The dataset CSV and the network file are read one numpy pass per block of
numbers, with the row loop kept to name a bad row. The row loop is the oracle:
on a seeded corpus of valid and broken files, both paths give bit-identical
arrays and labels, or the same error text."""

import csv
import random

import numpy as np
import pytest

from conftest import random_network
from safecomp import network, regions
from safecomp.app import build_semaphore_classifier
from safecomp.codec import read_numbers
from safecomp.network import parse_network, render_network
from safecomp.regions import load_dataset_csv, render_dataset_csv

LABELS = ("red", "green", "yellow")
# cells that float() and np.loadtxt read alike, differently, or not at all
CELLS = ["1.5e-3", "-2E+2", "-0.0", "0.0", "5e-324", "2.2250738585072014e-308", "1_0", "+1",
         ".5", "5.", " 0.25 ", "\t3", "\xa01.5", "1\x1f", "1\x0c", "١", "0x10", "nan", "-inf",
         "inf", "Infinity", "1e400", "-1e-400", "", " ", "oops", "1 2", "1#2", '"0.5"', "1\x00"]


def outcome(read, text):
    """What reading text gives: its arrays as bytes, or the error's type and text."""
    try:
        return read(text)
    except (ValueError, csv.Error) as exc:  # the row loop lets a csv.Error through
        return type(exc).__name__, str(exc)


def arrays(*arrs):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrs]


def csv_outcome(text, read=load_dataset_csv, labels=LABELS):
    def state(text):
        data = read(text, labels)
        return data.attributes, arrays(data.points, data.labels)
    return outcome(state, text)


def net_outcome(text):
    def state(text):
        net = parse_network(text)
        return (net.name, net.labels, net.metadata,
                arrays(net.input_min, net.input_max, net.input_mean, net.input_range,
                       *(a for layer in net.layers for a in (layer.weights, layer.bias))),
                [layer.activation for layer in net.layers])
    return outcome(state, text)


def mutate_csv(rng, text):
    lines = text.split("\n")[:-1]
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(1, len(lines))
        cells = lines[k].split(",")
        kind = rng.choice(["cell", "cell", "cell", "blank", "short", "long", "trailing",
                           "quoted-label", "unknown-label", "spaced-label", "cr", "crlf"])
        if kind == "cell":
            cells[rng.randrange(len(cells) - 1)] = rng.choice(CELLS)
        elif kind == "blank":
            lines.insert(k, rng.choice(["", "\r", "  "]))
            continue
        elif kind == "short":
            del cells[rng.randrange(len(cells) - 1)]
        elif kind == "long":
            cells.insert(0, "0.5")
        elif kind == "trailing":
            cells.append("")
        elif kind == "quoted-label":
            cells[-1] = f'"{cells[-1]}"'
        elif kind == "unknown-label":
            cells[-1] = "blue"
        elif kind == "spaced-label":
            cells[-1] = f" {cells[-1]}\t"
        elif kind == "cr":
            cells[-1] += "\r"
        else:
            return "\r\n".join(lines) + "\r\n"
        lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def mutate_net(rng, text):
    lines = text.split("\n")[:-1]
    numeric = [k for k, line in enumerate(lines)
               if line[:1] in "-0123456789" or line.startswith("input_")]
    for _ in range(rng.randint(1, 3)):
        k = rng.choice(numeric)
        key, _, values = lines[k].rpartition(" ")
        cells = values.split(",")
        kind = rng.choice(["cell", "cell", "cell", "short", "long", "trailing", "double",
                           "spaces", "comment", "blank-inside", "comment-inside", "drop-line"])
        if kind == "cell":
            cells[rng.randrange(len(cells))] = rng.choice(CELLS).replace("#", "")
        elif kind == "short":
            del cells[rng.randrange(len(cells))]
        elif kind == "long":
            cells.append("0.5")
        elif kind == "trailing":
            cells.append("")
        elif kind == "double":
            cells.insert(rng.randrange(len(cells) + 1), "")
        elif kind == "spaces":
            cells = [f" {c} " for c in cells]
        elif kind == "comment":
            cells[-1] += " # a comment"
        elif kind in ("blank-inside", "comment-inside"):
            lines.insert(k, "" if kind == "blank-inside" else "# inside the block")
            return "\n".join(lines) + "\n"
        else:
            del lines[k]
            return "\n".join(lines) + "\n"
        lines[k] = (key + " " if key else "") + ",".join(cells)
    sep = "\r\n" if rng.random() < 0.2 else "\n"
    return sep.join(lines) + sep


def base_files(seed):
    net, data = build_semaphore_classifier(seed)
    small = random_network(seed, dims=(3, 5, 3), scale=3.0)
    return (render_dataset_csv(data, LABELS),
            [render_network(net), render_network(small)])


class TestBulkAgreesWithRowLoop:
    SEEDS = range(8)

    def test_csv_corpus(self, monkeypatch):
        row_loop_calls = []
        row_loop = regions._read_rows
        monkeypatch.setattr(regions, "_read_rows",
                            lambda *a: row_loop_calls.append(1) or row_loop(*a))
        cases = bulk = 0
        for seed in self.SEEDS:
            rng = random.Random(seed)
            text, _ = base_files(seed + 40)
            for _ in range(60):
                broken = mutate_csv(rng, text)
                before = len(row_loop_calls)
                got = csv_outcome(broken)
                bulk += len(row_loop_calls) == before
                assert got == csv_outcome(broken, read=row_loop), repr(broken[:400])
                cases += 1
        # the corpus reaches both paths, so the comparison means something
        assert 0.1 * cases < bulk < 0.9 * cases

    def test_network_corpus(self, monkeypatch):
        line_loop_calls = []
        line_loop = network._parse_floats
        monkeypatch.setattr(network, "_parse_floats",
                            lambda *a: line_loop_calls.append(1) or line_loop(*a))
        cases = []
        for seed in self.SEEDS:
            rng = random.Random(seed)
            for text in base_files(seed + 40)[1]:
                cases += [text] + [mutate_net(rng, text) for _ in range(30)]
        bulk, decided = [], 0
        for text in cases:
            before = len(line_loop_calls)
            bulk.append(net_outcome(text))
            decided += len(line_loop_calls) == before
        # every block down the line loop
        monkeypatch.setattr(network, "read_numbers", lambda rows, width: None)
        for text, got in zip(cases, bulk):
            assert got == net_outcome(text), repr(text)
        assert 0.1 * len(cases) < decided < 0.9 * len(cases)

    @pytest.mark.parametrize("text", [
        "x1,label\n", "", "\n\n", "x1,x2\n0.5,red\n", "x1,label\r\n0.5,red\r\n\r\n0.25,green\r\n",
        'x1,label\n0.5,"red"\n', "x1,label\n0.5,red\r0.25,green\n", "x1,label\n0.5,red",
        "x1,label\n  \n0.5,red\n", "x1 , label \n 0.5 , red \n", "x1,label\n,red\n",
        "x1,label\nred\n", "x1,x2,label\n1,2,3,red\n", "x1,label\n0.5,red,\n",
        "x1,label\n0.5\r,red\n",
    ])
    def test_csv_edge_cases(self, text):
        assert csv_outcome(text) == csv_outcome(text, read=regions._read_rows)

    def test_csv_quoted_label(self):
        # csv reads "red" as red, which is the second label here
        text, labels = 'x1,label\n0.5,"red"\n', ('"red"', "red")
        assert csv_outcome(text, labels=labels) == \
            csv_outcome(text, read=regions._read_rows, labels=labels)

    @pytest.mark.parametrize("rows, width", [([], 1), ([""], 1), (["1,2", ""], 2), (["  "], 1),
                                             (["1,2"], 3), (["nan"], 1), (["1\x1c"], 1)])
    def test_read_numbers_declines(self, rows, width):
        assert read_numbers(rows, width) is None

    def test_read_numbers_reads_as_float_does(self):
        rows = ["-0.0, 5e-324 ,1e-310", "+1,.5,\xa02"]
        block = read_numbers(rows, 3)
        expected = np.array([[float(c) for c in row.split(",")] for row in rows])
        assert block.tobytes() == expected.tobytes() and block.shape == (2, 3)


class TestValidFilesTakeTheBulkPath:
    """The row loops raise here: a valid file must never need them, or a later
    edit could send every file down the slow path unseen."""

    def test_seed_42_dataset_and_network(self, monkeypatch):
        net, data = build_semaphore_classifier(42)
        net_text, csv_text = render_network(net), render_dataset_csv(data, net.labels)

        def row_loop(*args):
            raise AssertionError("a valid file went down the row loop")
        monkeypatch.setattr(regions, "_read_rows", row_loop)
        monkeypatch.setattr(network, "_parse_floats", row_loop)
        back = parse_network(net_text)
        loaded = load_dataset_csv(csv_text, back.labels)
        assert back.layers[0].weights.tobytes() == net.layers[0].weights.tobytes()
        assert loaded.points.tobytes() == data.points.tobytes()
        assert loaded.labels.tolist() == data.labels.tolist()
        assert load_dataset_csv(csv_text.replace("\n", "\r\n"), back.labels).points.tobytes() == \
            data.points.tobytes()
