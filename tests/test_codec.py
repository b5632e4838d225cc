import ast
from pathlib import Path

import pytest

import safecomp
from safecomp.codec import NAME, json_field

# the decoders of the JSON records the CLI reads, by module; each reads its
# fields through json_field
DECODERS = {
    "regions": {"region_from_dict", "geometry_from_dict"},
    "contracts": {"_region_from_json", "dnn_contract_from_json", "domains_from_json",
                  "component_contract_from_json"},
    "compose": {"component_from_json", "system_from_json"},
    "app": {"verdict_from_json"},
    "cli": {"_region_result"},
}


class TestJsonField:
    def test_returns_the_value_of_its_kind(self):
        obj = {"s": "a", "n": 2, "x": 0.5, "l": [1, 2.5], "d": {"p": ["a", 1]}}
        assert json_field(obj, "s", str, "r") == "a"
        assert json_field(obj, "n", int, "r") == 2
        assert json_field(obj, "n", float, "r") == 2
        assert json_field(obj, "x", float, "r") == 0.5
        assert json_field(obj, "l", list, "r", items=float) == [1, 2.5]
        assert json_field(obj, "d", dict, "r", items=list) == {"p": ["a", 1]}
        assert json_field(obj, "n", NAME, "r") == 2

    @pytest.mark.parametrize("value, kind, items, noun", [
        (True, float, None, "a number"),
        (True, int, None, "an integer"),
        (False, NAME, None, "a string or number"),
        ("0.5", float, None, "a number"),
        (0.5, int, None, "an integer"),
        ([0.5, True], list, float, "a list of numbers"),
        ({"a": 1}, list, None, "a list"),
        ({"a": [1]}, dict, dict, "an object of objects"),
    ])
    def test_wrong_kind_names_the_record_and_the_field(self, value, kind, items, noun):
        with pytest.raises(ValueError) as exc:
            json_field({"f": value}, "f", kind, "region 'r0'", items=items)
        assert str(exc.value) == f"region 'r0' f must be {noun}, got {value!r}"

    def test_items_of_items_checked_in_one_pass(self):
        value = {"p": ["a", 1], "q": [2.5, ["b"]]}
        with pytest.raises(ValueError) as exc:
            json_field({"f": value}, "f", dict, "r", items=list, each=NAME)
        assert str(exc.value) == f"r f must be an object of lists of strings or numbers, got {value!r}"
        with pytest.raises(ValueError, match="^r f must be an object of objects, got"):
            json_field({"f": {"s": 1}}, "f", dict, "r", items=dict, each=NAME)
        assert json_field({"f": {"s": {"p": 1}}}, "f", dict, "r", items=dict, each=NAME) == \
            {"s": {"p": 1}}

    def test_missing_field(self):
        with pytest.raises(ValueError, match="^region 'r0' has no 'f'$"):
            json_field({}, "f", str, "region 'r0'")
        with pytest.raises(ValueError, match="^the top level has no 'f'$"):
            json_field({}, "f", str, "")
        with pytest.raises(ValueError, match="^f must be a string, got None$"):
            json_field({"f": None}, "f", str, "")

    def test_default_stands_for_a_missing_or_null_field(self):
        assert json_field({}, "f", list, "r", default=[]) == []
        assert json_field({"f": None}, "f", float, "r", default=None) is None

    @pytest.mark.parametrize("obj", [{"f": 10**400}, {"f": [0.5, -10**400]}])
    def test_int_beyond_float_range(self, obj):
        kind, items = (float, None) if isinstance(obj["f"], int) else (list, float)
        with pytest.raises(ValueError, match="^r f -?1000+ lies beyond float range$"):
            json_field(obj, "f", kind, "r", items=items)

    def test_single_item_stands_for_a_list(self):
        assert json_field({"f": "s"}, "f", list, "r", items=NAME, single=True) == ["s"]
        assert json_field({"f": ["s"]}, "f", list, "r", items=NAME, single=True) == ["s"]
        with pytest.raises(ValueError, match="must be a list of strings or numbers, got"):
            json_field({"f": {}}, "f", list, "r", items=NAME, single=True)


def test_only_the_field_reader_checks_types():
    # a decoder that checks a type on its own would bypass the reader's
    # message form and its rule that a bool is no number
    found, seen = [], set()
    for path in sorted(Path(safecomp.__file__).parent.glob("*.py")):
        names = DECODERS.get(path.stem, set())
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and \
                    (node.name in names or path.stem == "cli" and node.name.startswith("cmd_")):
                seen.add(node.name)
                found += [f"{path.name}:{call.lineno} in {node.name}"
                          for call in ast.walk(node) if isinstance(call, ast.Call)
                          and isinstance(call.func, ast.Name) and call.func.id == "isinstance"]
    assert set().union(*DECODERS.values()) <= seen  # a renamed decoder is still checked
    assert found == []
