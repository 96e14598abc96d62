"""Every JSON and CSV file the package reads or writes.

The writers keep artifacts byte-stable: JSON has sorted keys, a one-space
indent and a final newline, and a float cell is its shortest ``repr`` (``csv``
writes numpy floats that way too).  A reader names the file it cannot parse.
"""

import csv
import json


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # not JSON, or not text
            raise ValueError(f"{path} is not JSON: {exc}") from None


def read_csv(path, columns: dict) -> list[tuple]:
    """The rows of a CSV file with a header, as tuples of the named columns.

    ``columns`` maps each column to the type of its cells, in tuple order; the
    header may hold them in any order, among others.  Blank lines are skipped.
    An empty file, a missing column, a row with more or fewer cells than the
    header and a cell its type rejects raise ValueError naming the file.
    """
    try:
        with open(path, newline="") as fh:
            lines = [row for row in csv.reader(fh) if row]
        if not lines:
            raise ValueError("the file is empty")
        header, *body = lines
        missing = [name for name in columns if name not in header]
        if missing:
            raise ValueError(f"no column(s) {', '.join(missing)}")
        cells = [(header.index(name), convert) for name, convert in columns.items()]
        rows = []
        for number, row in enumerate(body, start=1):
            if len(row) != len(header):
                raise ValueError(f"row {number} has {len(row)} cells for {len(header)} columns")
            rows.append(tuple(convert(row[i]) for i, convert in cells))
        return rows
    except (ValueError, csv.Error) as exc:  # also bytes that are not text
        raise ValueError(f"CSV file {path}: {exc}") from None
