import csv
import re
import tracemalloc

import numpy as np
import pytest

from sparseridge import Dataset, InvalidArgumentError
from sparseridge.cli import main
from sparseridge.data_io import load_dataset_csv, load_matrix_csv, save_dataset_csv


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


class TestAccepted:
    @pytest.mark.parametrize("text", [
        "1,2,3\r\n4,5,6\r\n",          # CRLF line ends
        "\n1,2,3\n\n\n4,5,6\n\n",      # blank lines skipped
        '"1",2,"3"\n4,"5",6\n',        # quoted numbers
        " 1 ,2 , 3\n4, 5,6 \n",        # spaces around numbers
    ])
    def test_layouts(self, tmp_path, text):
        data = load_dataset_csv(_write(tmp_path, text))
        assert np.array_equal(data.X, [[1.0, 2.0], [4.0, 5.0]])
        assert np.array_equal(data.y, [3.0, 6.0])
        assert data.feature_names is None

    def test_nan_and_inf_parse(self, tmp_path):
        m = load_matrix_csv(_write(tmp_path, "nan,inf\n-inf,1e-3\n"))
        assert np.isnan(m[0, 0])
        assert m[0, 1] == np.inf and m[1, 0] == -np.inf and m[1, 1] == 1e-3

    def test_header_with_named_response(self, tmp_path):
        path = _write(tmp_path, "\n a ,target,b\n1,2,3\n4,5,6\n")
        data = load_dataset_csv(path, response="target", header=True)
        assert data.feature_names == ("a", "b")
        assert np.array_equal(data.X, [[1.0, 3.0], [4.0, 6.0]])
        assert np.array_equal(data.y, [2.0, 5.0])

    def test_non_ascii_digits_name_a_column(self, tmp_path):
        # '\u0663' is an Arabic-Indic 3: a header name, not column 3
        path = _write(tmp_path, "a,\u0663,b,c\n1,2,3,4\n")
        data = load_dataset_csv(path, response="\u0663", header=True)
        assert data.feature_names == ("a", "b", "c")
        assert np.array_equal(data.y, [2.0])

    @pytest.mark.parametrize("header", [False, True])
    def test_save_load_round_trip_is_bit_exact(self, tmp_path, header):
        rng = np.random.default_rng(11)
        scale = 10.0 ** rng.uniform(-300, 300, size=(7, 4))
        X = rng.standard_normal((7, 4)) * scale
        X[0, 0] = 5e-324  # smallest subnormal
        data = Dataset(X=X[:, :3], y=X[:, 3], feature_names=("u", "v", "w"))
        path = str(tmp_path / "rt.csv")
        save_dataset_csv(data, path, header=header)
        back = load_dataset_csv(path, header=header)
        assert back.X.tobytes() == data.X.tobytes()
        assert back.y.tobytes() == data.y.tobytes()
        assert back.feature_names == (data.feature_names if header else None)


@pytest.mark.parametrize("header", [False, True])
def test_writer_bytes_match_csv_writer(tmp_path, header):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((6, 3)) * 10.0 ** rng.uniform(-300, 300, size=(6, 3))
    X[0] = [-0.0, 5e-324, 3.0]
    data = Dataset(X=X, y=rng.standard_normal(6), feature_names=("a", 'b,"c"', "d"))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:  # the csv.writer/repr writer it replaced
        writer = csv.writer(fh)
        if header:
            writer.writerow(list(data.feature_names) + ["y"])
        for i in range(data.n):
            row = [repr(float(v)) for v in data.X[i]] + [repr(float(data.y[i]))]
            writer.writerow(row)
    out = tmp_path / "out.csv"
    save_dataset_csv(data, str(out), header=header)
    assert out.read_bytes() == ref.read_bytes()


def test_load_holds_at_most_two_copies_of_x(tmp_path):
    rng = np.random.default_rng(2)
    data = Dataset(X=rng.standard_normal((60, 200)), y=rng.standard_normal(60))
    path = str(tmp_path / "m.csv")
    save_dataset_csv(data, path)
    tracemalloc.start()
    try:
        back = load_dataset_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * back.X.nbytes


REJECTED = {
    "ragged": ("1,2,3\n4,5\n", False),
    "non_numeric": ("1,2,3\n4,x,6\n", False),
    "whitespace_line": ("1,2,3\n   \n4,5,6\n", False),
    "trailing_comma": ("1,2,3,\n4,5,6,\n", False),
    # float() accepts digit separators; plain decimal numbers do not have them
    "digit_separator": ("1_0,2,3\n", False),
    "empty": ("", False),
    "blank_only": ("\n\n", False),
    "empty_with_header": ("", True),
    "header_only": ("a,b,y\n\n", True),
    "header_too_short": ("a,b\n1,2,3\n4,5,6\n", True),
    "header_too_long": ("a,b,c,d\n1,2,3\n4,5,6\n", True),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_rejected_input_names_the_file(tmp_path, capsys, case):
    text, header = REJECTED[case]
    path = _write(tmp_path, text)
    with pytest.raises(InvalidArgumentError, match="^" + re.escape(path) + ": "):
        load_dataset_csv(path, header=header)
    argv = ["fit", "--input", path, "--lambda", "0.1", "--k", "1",
            "--method", "greedy", "--out", str(tmp_path / "fit.json")]
    assert main(argv + ["--header"] * header) == 2
    assert path in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("", "empty file"), ("a,b\n", "header but no data rows"),
])
def test_empty_input_messages(tmp_path, text, message):
    with pytest.raises(InvalidArgumentError, match=message):
        load_dataset_csv(_write(tmp_path, text), header=True)
