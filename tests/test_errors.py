import json

import pytest

from retroroute.errors import ConfigError, read_json, read_lines


@pytest.mark.parametrize("text, entries", [
    ("C\n\nN\n", [(1, "C"), (3, "N")]),
    # a comment starts at a '#' that begins the line or follows whitespace
    ("# header\n  # indented\nC # note\nN\t#tab\n", [(3, "C"), (4, "N")]),
    # a '#' inside an entry is a triple bond, and one joined to an entry belongs to it
    ("C#N\nCC#N  # acetonitrile\nN#note\nCN#\n", [(1, "C#N"), (2, "CC#N"), (3, "N#note"),
                                                  (4, "CN#")]),
    ("  \tCC#CC \t\n\t\n", [(1, "CC#CC")]),
    ("T\tC  # note\n[U] \t PPPP\n", [(1, "T\tC"), (2, "[U] \t PPPP")]),
    ('{"target": "CN # x"}\n', [(1, '{"target": "CN')]),
    # every line break of str.splitlines ends a line, and any whitespace can start a comment
    ("C\r\nN\u2028O\u00a0#x\n", [(1, "C"), (2, "N"), (3, "O")]),
], ids=["blank", "comments", "triple-bonds", "whitespace", "tab", "jsonl", "unicode"])
def test_read_lines(text, entries, tmp_path):
    path = tmp_path / "lines.txt"
    path.write_text(text, "utf-8", newline="")
    assert list(read_lines(path)) == entries


@pytest.mark.parametrize("text", ["[1" + "0" * 5000 + "]", "[" * 100000],
                         ids=["integer-too-long", "nested-too-deeply"])
def test_read_json_names_a_file_json_cannot_take(tmp_path, text):
    # json.loads raises ValueError and RecursionError, not JSONDecodeError, on these
    path = tmp_path / "t.json"
    path.write_text(text, "utf-8")
    with pytest.raises(ConfigError, match=r"t\.json: "):
        read_json(path, list)


def test_read_json_names_unknown_keys(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"a": 1, "c": 2, "b": 3}), "utf-8")
    assert read_json(path, dict, {"a", "b", "c"}) == {"a": 1, "b": 3, "c": 2}
    assert read_json(path, dict) == {"a": 1, "b": 3, "c": 2}
    with pytest.raises(ConfigError, match=r"c\.json: unknown keys \['b', 'c'\]$"):
        read_json(path, dict, ("a",))
