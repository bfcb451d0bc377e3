"""Property tests of the sweep table format: ``write_table`` then ``read_table``."""

import string

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kgz import ParameterError, read_table, write_table
from kgz.harness import ErrorRow, FailedRow, RateTable

# one settings profile for both properties: no example database on disk,
# and the same file rewritten for every example
SETTINGS = settings(
    max_examples=80,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

numbers = st.floats(allow_nan=False, allow_infinity=False)
errors = st.floats(min_value=0.0, allow_infinity=False)
rates = st.none() | numbers
# plain free text: no line break and no backslash, so it is written as it
# is (any_text below has the rest)
text = st.text(string.ascii_letters + string.digits + " :.,=-_()'", max_size=30).map(str.rstrip)

rows = st.builds(
    ErrorRow, eps=numbers, h=numbers, tau=numbers, t=numbers,
    e_err=errors, n_err=errors, rate_e=rates, rate_n=rates,
)
# a failure note is matched to its row by the printed (eps, h, tau)
failures = st.lists(
    st.builds(FailedRow, eps=numbers, h=numbers, tau=numbers, message=text),
    max_size=4, unique_by=lambda f: (f.eps, f.h, f.tau),
)
meta = st.dictionaries(st.text(string.ascii_lowercase + "_", min_size=1, max_size=12), text,
                       max_size=5)
tables = st.builds(RateTable, meta=meta, rows=st.lists(rows, max_size=6), failures=failures)

# an edit: (position, bytes deleted there, bytes inserted there)
edits = st.tuples(
    st.integers(min_value=0),
    st.integers(min_value=0, max_value=4),
    st.binary(max_size=3)
    | st.sampled_from([b",", b"\n", b"#", b"=", b" ", b"ERROR", b"nan", b"-"]),
)


@SETTINGS
@given(table=tables)
def test_round_trip(tmp_path, table):
    path = tmp_path / "table.csv"
    write_table(table, str(path))
    assert read_table(str(path)) == table


@SETTINGS
@given(table=tables, changes=st.lists(edits, min_size=1, max_size=4))
def test_corruption_raises_only_parameter_error(tmp_path, table, changes):
    path = tmp_path / "table.csv"
    write_table(table, str(path))
    data = path.read_bytes()
    for at, cut, insert in changes:
        at %= len(data) + 1
        data = data[:at] + insert + data[at + cut :]
    path.write_bytes(data)
    try:
        read_table(str(path))
    except ParameterError as exc:
        assert str(path) in str(exc)


# any text at all: line breaks, carriage returns, backslashes and trailing spaces
any_text = st.text(max_size=30) | st.sampled_from(
    ["two\nlines", "crlf\r\n", "back\\slash\\n", "trailing  ", " ", "\\"]
)
any_tables = st.builds(
    RateTable,
    meta=st.dictionaries(st.text(string.ascii_lowercase + "_", min_size=1, max_size=12), any_text,
                         max_size=5),
    rows=st.lists(rows, max_size=3),
    failures=st.lists(
        st.builds(FailedRow, eps=numbers, h=numbers, tau=numbers, message=any_text),
        max_size=4, unique_by=lambda f: (f.eps, f.h, f.tau),
    ),
)


@SETTINGS
@given(table=any_tables)
def test_round_trip_any_text(tmp_path, table):
    path = tmp_path / "table.csv"
    write_table(table, str(path))
    assert read_table(str(path)) == table


@SETTINGS
@given(table=tables)
def test_plain_text_is_written_as_it_is(tmp_path, table):
    path = tmp_path / "table.csv"
    write_table(table, str(path))
    lines = path.read_text().split("\n")
    assert all(f"# {k}={v}" in lines for k, v in table.meta.items())
    assert all(any(line.endswith(f" {f.message}") for line in lines) for f in table.failures)
