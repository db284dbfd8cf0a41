"""The shared CSV table format: exact round trips, byte identity, rejected input."""

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promolab.cli import main
from promolab.errors import ValidationError
from promolab.tables import BLOCK_ROWS, read_table, write_table

HEADER = ("id", "x", "k", "z")
INTS = ("id", "k")

EXTREME_FLOATS = st.sampled_from(
    [5e-324, -5e-324, 0.0, -0.0, 1e16, -1e16, 1e-5, 1.7976931348623157e308, -1.7e308, 0.1, 1 / 3]
)
FLOATS = st.one_of(EXTREME_FLOATS, st.floats(allow_nan=False, allow_infinity=False))
INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


def _csv_writer_reference(path, header, columns):
    """The row-by-row ``csv.writer`` output the table format must reproduce."""
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([str(v) if isinstance(v, int) else repr(v) for v in row])


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(INT64, FLOATS, INT64, FLOATS), max_size=40),
    newline=st.sampled_from([b"\r\n", b"\n"]),
)
def test_round_trip_is_exact(tmp_path_factory, rows, newline):
    path = tmp_path_factory.mktemp("table") / "t.csv"
    ids, x, k, z = (list(c) for c in zip(*rows)) if rows else ([], [], [], [])
    columns = [
        np.array(ids, dtype=np.int64),
        np.array(x, dtype=np.float64),
        np.array(k, dtype=np.int64),
        np.array(z, dtype=np.float64),
    ]
    write_table(path, HEADER, columns)
    path.write_bytes(path.read_bytes().replace(b"\r\n", newline))
    loaded = read_table(path, HEADER, INTS)
    for want, got in zip(columns, loaded):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()  # bit-identical, so -0.0 stays -0.0


def test_bytes_match_csv_writer_across_blocks(tmp_path):
    n = 2 * BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = [
        np.arange(n, dtype=np.int64) * 7 - 3,
        rng.lognormal(0.0, 4.0, n) * rng.choice([-1.0, 1.0], n),
        rng.integers(0, 7, n),
        rng.random(n),
    ]
    write_table(tmp_path / "blocks.csv", HEADER, columns)
    _csv_writer_reference(tmp_path / "reference.csv", HEADER, [c.tolist() for c in columns])
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
    loaded = read_table(tmp_path / "blocks.csv", HEADER, INTS)
    for want, got in zip(columns, loaded):
        np.testing.assert_array_equal(got, want)


def test_header_only_table_is_empty(tmp_path):
    path = tmp_path / "empty.csv"
    ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
    write_table(path, HEADER, [ints, floats, ints, floats])
    assert path.read_bytes() == b"id,x,k,z\r\n"
    assert [len(c) for c in read_table(path, HEADER, INTS)] == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "body, message",
    [
        ("id,x,k,z\n1,0.5,2,0.5\n2,0.5,3\n", "line 3: expected 4 cells"),
        ("id,x,k,z\n1,0.5,2,0.5\n2,0.5,3,0.5,1\n", "line 3: expected 4 cells"),
        ("id,x,k,z\n1,0.5,2,0.5\n\n", "line 3: expected 4 cells"),
        ("id,x,k,z\n1,0.5,2\n2,0.5,3,0.5,1\n", "line 2: expected 4 cells"),  # cell count adds up
        ("id,x,k,z\n1,abc,2,0.5\n", "line 2: could not convert string to float: 'abc'"),
        ("id,x,k,z\n1,0.5,3.5,0.5\n", r"line 2: invalid literal for int\(\) with base 10: '3.5'"),
        ("id,x,k,z\n1,0.5,99999999999999999999,0.5\n", "line 2: .*too large"),
        ("id,x,z\n1,0.5,0.5\n", "unexpected header"),
        ("", "unexpected header"),
    ],
)
def test_malformed_tables_name_file_and_line(tmp_path, body, message):
    path = tmp_path / "bad.csv"
    path.write_text(body)
    with pytest.raises(ValidationError, match=message) as info:
        read_table(path, HEADER, INTS)
    assert str(path) in str(info.value)


def test_error_line_counts_across_blocks(tmp_path):
    path = tmp_path / "late.csv"
    lines = ["id,x,k,z"] + [f"{i},0.5,1,0.5" for i in range(BLOCK_ROWS + 10)]
    lines[BLOCK_ROWS + 5] = "7,0.5,x,0.5"
    path.write_text("\r\n".join(lines) + "\r\n")
    with pytest.raises(ValidationError, match=f"line {BLOCK_ROWS + 6}: invalid literal for int"):
        read_table(path, HEADER, INTS)


SESSION_CONFIG = """\
generation:
  n_customers: 600
  coupon_values: [0.0, 1.5, 3.0]
model:
  hidden_dims: [8, 8, 8, 4]
  batch_size: 256
  learning_rate: 0.003
  max_epochs: 2
  patience_epochs: 2
  plateau_epochs: 1
evaluation:
  n_folds: 2
  budget: 300.0
"""

# SHA-256 of each artifact of the session below. dataset.csv and
# ground_truth.csv come from the generator that gives every kind of draw its
# own stream (see promolab.datagen). predictions.csv, plan.csv and curve.csv
# are also what train, predict, allocate and sweep wrote from that dataset.csv
# before the generator changed, so only the world moved, not the pipeline.
# plan.csv was then re-derived when the Lagrangian solver took its hull steps
# in place of bisecting: one customer changed arm, and the plan's predicted
# value rose from 3472.601 to 3472.626 within the same budget of 40.
PINNED_DIGESTS = {
    "dataset.csv": "0d2dc5638637c7bb918a1f8fc33ea20ed63ee3cd94830f143aadd8fb2f51c00a",
    "ground_truth.csv": "a42281d0de5bd14ab61fe08f58ee90c5b5beba6e8f0a624bbee5cc690253b638",
    "predictions.csv": "75f426e6b7e3216887203b439f94296b0c04dcfe08c13112a68ef558a2aec0b9",
    "plan.csv": "aadc6f7b96f60110230a309131e44b86b6a9162152731ba160e587cfa9c0cf85",
    "curve.csv": "d7431e8f193dc0155396947f451eb015e377b4939baa24d98f1ee3b093d0d61e",
}


def test_cli_artifacts_match_pinned_digests(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SESSION_CONFIG)
    common = ["--config", str(cfg), "--seed", "3", "--out", str(tmp_path)]
    data = ["--data", str(tmp_path / "dataset.csv")]
    model = ["--model", str(tmp_path / "model.npz")]
    for argv in (
        ["generate", *common],
        ["train", *common, *data],
        ["predict", *common, *data, *model],
        ["allocate", *common, *data, *model, "--budget", "40"],
        ["sweep", *common, *data, *model, "--budget-grid", "300,800"],
    ):
        assert main(argv) == 0, argv
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS
