"""CSV ingestion and output helpers.

Dataset files hold plain decimal numbers, one observation per row, with a
single designated response column (default: the last); ``np.loadtxt``
parses them, skipping blank lines and accepting quoted or space-padded
fields.  A header row is opt-in; with a header, the response column may
also be named: text is an index when it is an ASCII ``-?[0-9]+`` and a
header name otherwise.  Malformed input raises InvalidArgumentError naming
the file.
"""

from __future__ import annotations

import csv
import re
import warnings

import numpy as np

from .core import Dataset, _check_flag, _check_integer
from .errors import InvalidArgumentError


def _parse_rows(path: str, header: bool):
    with open(path) as fh:
        names = None
        if header:
            names = next((row for row in csv.reader(fh) if row), None)
            if names is None:
                raise InvalidArgumentError(f"{path}: empty file")
            names = [c.strip() for c in names]
        try:
            with warnings.catch_warnings():
                # an empty input is reported below, with the path
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                  quotechar='"')
        except ValueError as exc:
            raise InvalidArgumentError(f"{path}: {exc}") from None
    if data.shape[0] == 0:
        what = "header but no data rows" if header else "empty file"
        raise InvalidArgumentError(f"{path}: {what}")
    if names is not None and len(names) != data.shape[1]:
        raise InvalidArgumentError(
            f"{path}: the header has {len(names)} fields but the rows have {data.shape[1]}"
        )
    return data, names


def _resolve_response(response, width: int, names) -> int:
    if response in (None, "last"):
        return width - 1
    if isinstance(response, str):
        if re.fullmatch(r"-?[0-9]+", response):  # ASCII digits only
            response = int(response)
        elif names is not None and response in names:
            return names.index(response)
        else:
            raise InvalidArgumentError(
                f"response column {response!r} not found (no matching header name)"
            )
    return _check_integer("response column", response, -width, width - 1) % width


def load_dataset_csv(
    path: str, response="last", header: bool = False
) -> Dataset:
    """Read a dataset; all columns but the response become features in file order."""
    data, names = _parse_rows(path, _check_flag("header", header))
    col = _resolve_response(response, data.shape[1], names)
    if data.shape[1] < 2:
        raise InvalidArgumentError(f"{path}: need at least one feature column")
    y = data[:, col]
    # Dataset copies X, so the usual last-column response needs only a view.
    X = data[:, :col] if col == data.shape[1] - 1 else np.delete(data, col, axis=1)
    feature_names = None
    if names is not None:
        feature_names = tuple(nm for i, nm in enumerate(names) if i != col)
    return Dataset(X=X, y=y, feature_names=feature_names)


def save_dataset_csv(data: Dataset, path: str, header: bool = False) -> None:
    """Write features then the response as the last column.

    Each cell is ``repr`` of its float, the shortest text that reads back to
    the same double; rows end in CRLF, as ``csv.writer`` writes them.
    """
    header = _check_flag("header", header)
    with open(path, "w", newline="") as fh:
        if header:
            names = data.feature_names or tuple(
                f"x{i}" for i in range(data.p)
            )
            csv.writer(fh).writerow(list(names) + ["y"])
        # row by row, the response after the features, with no stacked copy of X
        for row, response in zip(data.X, data.y.tolist()):  # a file holds the original rows
            fh.write(",".join(map(repr, row.tolist())) + f",{response!r}\r\n")


def load_matrix_csv(path: str) -> np.ndarray:
    """Read a square numeric matrix (no header)."""
    data, _ = _parse_rows(path, header=False)
    if data.shape[0] != data.shape[1]:
        raise InvalidArgumentError(
            f"{path}: expected a square matrix, got {data.shape}"
        )
    return data
