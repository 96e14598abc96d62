import re
from pathlib import Path

import numpy as np
import pytest

import pauliprop
from pauliprop.files import read_csv, read_json, write_csv, write_json


def test_only_files_module_parses_or_formats():
    # every JSON and CSV file goes through pauliprop.files, which keeps the format rules
    pattern = re.compile(r"json\.(dump|load)|csv\.(writer|reader|DictReader)")
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(Path(pauliprop.__file__).parent.glob("*.py")) if path.name != "files.py"
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if pattern.search(line)
    ]
    assert offenders == []


def test_csv_cells_are_shortest_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [(0.1, np.float64(1 / 3), np.int64(5)), (-0.0, 1e-300, 7)])
    assert path.read_bytes() == b"a,b,c\r\n0.1,0.3333333333333333,5\r\n-0.0,1e-300,7\r\n"


def test_json_is_sorted_and_ends_in_newline(tmp_path):
    path = tmp_path / "t.json"
    write_json(path, {"b": 0.1, "a": [1, np.float64(1 / 3)]})
    assert path.read_text() == '{\n "a": [\n  1,\n  0.3333333333333333\n ],\n "b": 0.1\n}\n'
    assert read_json(path) == {"a": [1, 1 / 3], "b": 0.1}


@pytest.mark.parametrize("data", [b"", b'{"a": ', b"\xff\xfe"], ids=["empty", "truncated", "binary"])
def test_json_that_does_not_parse_names_the_file(tmp_path, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=r"bad\.json is not JSON"):
        read_json(path)


def test_csv_columns_by_name(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("b,extra,a\n2.5,x,1\n\n-1,y,3\n")
    assert read_csv(path, {"a": int, "b": float}) == [(1, 2.5), (3, -1.0)]


@pytest.mark.parametrize("data, message", [
    (b"", "the file is empty"),
    (b"a\n1\n", "no column(s) b"),
    (b"a,b\n1\n", "row 1 has 1 cells for 2 columns"),
    (b"a,b\n1,2\n1,2,3\n", "row 2 has 3 cells for 2 columns"),
    (b"a,b\n1,x\n", "could not convert string to float: 'x'"),
    (b"a,b\n\xff,1\n", "'utf-8' codec can't decode byte 0xff"),
], ids=["empty", "missing-column", "short-row", "long-row", "bad-cell", "binary"])
def test_malformed_csv_names_the_file(tmp_path, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError) as info:
        read_csv(path, {"a": int, "b": float})
    assert str(info.value).startswith(f"CSV file {path}: {message}")
