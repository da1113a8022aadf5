"""read_series_columns, the column parser behind `detect`, read as pairs,
against the line-by-line parser it replaced: the same pairs for every file
that parses, the same error (class, message and line) for every file that
does not, and the typo rule that only the column parser has."""
import json
import random
import string

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hybridpar.cli import CURVE_HEADER, main, read_series_columns
from hybridpar.errors import SeriesParseError


def series_pairs(path: str) -> list[tuple[int, float]]:
    """The (t, discrepancy) pairs of read_series_columns(path)."""
    return list(zip(*read_series_columns(path)))


# what str.isspace counts as whitespace below 128: a typo's field is quoted
# without it
ASCII_SPACE = string.whitespace + "\x1c\x1d\x1e\x1f"


def per_line_read(path: str, typos: bool = False) -> list[tuple[int, float]]:
    """The series reader as it was when every line was split, stripped and
    converted in its own loop iteration: the reference. With typos, it also
    has the typo rule: a t or rel_mae field holding "_" or a non-ASCII
    character is a bad field, quoted without its ASCII padding."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SeriesParseError(f"series file is not valid UTF-8: {exc}") from exc
    pairs = []
    cols = None
    for lineno, ln in enumerate(text.split("\n"), 1):
        ln = ln.strip()
        if not ln:
            continue
        fields = ln.split(",")
        if cols is None:
            cols = 0, 1
            try:
                float(fields[0])
            except ValueError:
                names = [f.strip() for f in fields]
                try:
                    cols = names.index("t"), names.index("rel_mae")
                except ValueError as exc:
                    raise SeriesParseError(f"header must name columns t and rel_mae, "
                                           f"got {names}", line=lineno) from exc
                need = max(cols) + 1
                continue
            need = 2
        if len(fields) < need:
            raise SeriesParseError(f"expected at least {need} columns, got {len(fields)}",
                                   line=lineno)
        t_col, m_col = cols
        if typos and any("_" in f or not f.isascii() for f in (fields[t_col], fields[m_col])):
            raise SeriesParseError(f"bad numeric fields {fields[t_col].strip(ASCII_SPACE)!r}, "
                                   f"{fields[m_col].strip(ASCII_SPACE)!r}", line=lineno)
        try:
            pairs.append((int(fields[t_col]), float(fields[m_col])))
        except ValueError as exc:
            raise SeriesParseError(f"bad numeric fields {fields[t_col].strip()!r}, "
                                   f"{fields[m_col].strip()!r}", line=lineno) from exc
    if cols is None:
        raise SeriesParseError("series file is empty")
    return pairs


def outcome(read, path):
    """The pairs read, by repr (NaN equals itself, -0.0 differs from 0.0 and
    an int from a float), or the error raised: class, message and line."""
    try:
        return repr(read(path))
    except Exception as exc:                      # noqa: BLE001 - compared whole
        return type(exc), str(exc), getattr(exc, "line", None)


@pytest.fixture
def reads(monkeypatch) -> list:
    """The row count of each cli._columns call, the conversion that both
    column pickers (the strided split of the body and the per-row lists)
    feed: the whole-file read first, then, if it failed, the one-row
    re-reads (reads[1:]) up to the first bad row. A file that fails before
    its rows are read makes no call."""
    import hybridpar.cli as cli
    calls = []
    original = cli._columns

    def counting(pick, cols):
        calls.append(len(pick(0)))              # every row has a column 0
        return original(pick, cols)

    monkeypatch.setattr(cli, "_columns", counting)
    return calls


def write(tmp_path, data) -> str:
    path = tmp_path / "series.csv"
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return str(path)


CURVE = CURVE_HEADER + "\n" + "".join(
    f"{t},{0.1 + t / 7!r},{t / 3!r},{t / 9!r},{t / 5!r},{int(t == 2)}\n" for t in range(6, 0, -1))

VALID = {
    "bare": "3,0.5\n2,0.4\n1,0.3\n",
    "headered": "t,rel_mae\n3,0.5\n2,0.4\n1,0.3\n",
    "columns-swapped": "rel_mae,t\n0.5,3\n0.4,2\n0.3,1\n",
    "columns-among-others": "x,rel_mae,y,t\na,0.5,b,3\n,0.4,,2\n",
    "curve-csv": CURVE,
    "ragged-extra-columns": "t,rel_mae\n3,0.5,extra\n2,0.4\n1,0.3,a,b,c\n",
    "bare-ragged": "3,0.5,9\n2,0.4\n",
    "blank-lines-anywhere": "\n \n\t\nt,rel_mae\n\n3,0.5\n  \n\r\n2,0.4\n\n\n",
    "padded-fields": " t , rel_mae \n 3 , 0.5 \n\t2\t,\t0.4\t\n",
    "crlf": "t,rel_mae\r\n3,0.5\r\n2,0.4\r\n",
    "bom": b"\xef\xbb\xbft,rel_mae\n3,0.5\n2,0.4\n",
    "bom-bare": b"\xef\xbb\xbf3,0.5\n2,0.4\n",
    "no-final-newline": "t,rel_mae\n3,0.5\n2,0.4",
    "number-spellings": "t,rel_mae\n+3,1e-3\n-2,-0.0\n007,nan\n1,inf\n0,-Infinity\n",
    "header-only": "t,rel_mae\n",
    "header-only-blank-lines": "\n\nt,rel_mae\n\n",
    "curve-header-only": CURVE_HEADER + "\n",
    "long": "t,rel_mae\n" + "".join(f"{t},{t / 1000 + 0.1!r}\n" for t in range(1000, 0, -1)),
    "every-row-wider-than-the-header": "t,rel_mae\n3,0.5,x\n2,0.4,y\n",
    "first-row-wider-than-the-rest": "t,rel_mae\n3,0.5,x\n2,0.4\n1,0.3\n",
    "single-data-row": "t,rel_mae\n3,0.5\n",
    "bare-single-row": "3,0.5\n",
    # widths 3, 2 and 4 total a uniform file's 9 fields; read from one split,
    # the third row's t would be its third field
    "widths-that-total-a-uniform-files": "t,rel_mae,x\n3,0.5,a\n2,0.4\n1,7,8,9\n",
}

# name -> (file, the error's line, the rows re-read one at a time): the data
# rows up to and including the bad one, none for a file that fails before
BAD = {
    "short-first-row": ("3\n2,0.4\n1,0.3\n", 1, 1),
    "short-middle-row": ("t,rel_mae\n3,0.5\n2\n1,0.3\n", 3, 2),
    "short-last-row": ("t,rel_mae\n3,0.5\n2,0.4\n1\n", 4, 3),
    "short-row-for-a-late-t-column": ("x,rel_mae,y,t\na,0.5,b,3\na,0.4,b\n", 3, 2),
    "bad-rel-mae": ("t,rel_mae\n50,0.5\n49,0.4\n48,not_a_number\n", 4, 3),
    "bad-t": ("t,rel_mae\n3,0.5\n2.5,0.4\n", 3, 2),
    "bad-bare-first-row": ("3,x\n2,0.4\n", 1, 1),
    "header-without-t": ("time,rel_mae\n3,0.5\n", 1, 0),
    "header-without-rel-mae": ("t,mae\n3,0.5\n", 1, 0),
    "empty": ("", None, 0),
    "blank-only": ("\n  \n\t\r\n\n", None, 0),
    "bom-only": (b"\xef\xbb\xbf", None, 0),
    "t-over-4300-digits": ("t,rel_mae\n" + "1" * 4301 + ",0.5\n", 2, 1),
    "invalid-utf8": (b"t,rel_mae\n3,0.5\n\xff\xfe,0.4\n", None, 0),
    "second-header": ("t,rel_mae\n3,0.5\nt,rel_mae\n2,0.4\n", 3, 2),
    "first-of-two-bad-lines": ("t,rel_mae\n3,0.5\n2,x\n1\n", 3, 2),
    # lines 2-999 hold 899 rows and a blank line at each multiple of 10
    "bad-row-after-scattered-blank-lines": ("t,rel_mae\n" + "".join(
        "\n" if n % 10 == 0 else f"{n},0.5\n" for n in range(2, 1000)) + "x,0.5\n", 1000, 900),
    "bad-header-after-blank-lines": ("\n \n\t\ntime,rel_mae\n3,0.5\n", 4, 0),
    # widths 2, 1 and 3 total a uniform file's 6 fields, but the split's
    # field 5, a "\n" in a uniform file, is the third row's t
    "short-row-in-widths-that-total-a-uniform-files": ("t,rel_mae\n3,0.5\n2\n1,0.4,x\n", 3, 2),
    "short-first-row-then-wide": ("3\n2,0.4,x\n", 1, 1),
    "row-of-commas-only": ("t,rel_mae\n3,0.5\n,\n1,0.3\n", 3, 2),
}

# int and float read each of these; a series rejects them: line -> fields
TYPOS = {
    "underscore-in-t": ("t,rel_mae\n3,0.5\n1_0,0.5\n", 3, "'1_0', '0.5'"),
    "underscore-in-rel-mae": ("t,rel_mae\n9,0.4_5\n", 2, "'9', '0.4_5'"),
    "arabic-indic-t": ("٣,0.5\n", 1, "'٣', '0.5'"),
    "arabic-indic-rel-mae": ("t,rel_mae\n3,0.٥\n", 2, "'3', '0.٥'"),
    "fullwidth-t": ("t,rel_mae\n3,0.5\n２,0.4\n", 3, "'２', '0.4'"),
    "no-break-space-inside": ("t,rel_mae\n3\u00a0,0.5\n2,0.4\n", 2, "'3\\xa0', '0.5'"),
    "padded-no-break-space": ("t,rel_mae,x\n3, 0.5\u00a0 ,x\n", 2, "'3', '0.5\\xa0'"),
    "underscore-in-bare-first-row": ("1_0,0.5\n9,0.4\n", 1, "'1_0', '0.5'"),
}


@pytest.mark.parametrize("data", list(VALID.values()), ids=list(VALID))
def test_every_valid_shape_reads_as_the_per_line_parser_reads_it(data, tmp_path, reads):
    path = write(tmp_path, data)
    got = outcome(series_pairs, path)
    assert isinstance(got, str), got
    assert got == outcome(per_line_read, path)
    assert len(reads) == 1                      # the whole-file read, no re-read


@pytest.mark.parametrize("data, line, rereads", list(BAD.values()), ids=list(BAD))
def test_every_bad_file_raises_the_per_line_parsers_error(data, line, rereads, tmp_path,
                                                         reads):
    path = write(tmp_path, data)
    want = outcome(per_line_read, path)
    assert want[0] is SeriesParseError, want
    assert want[2] == line
    assert outcome(series_pairs, path) == want
    assert reads == ([reads[0]] + [1] * rereads if rereads else [])


def test_the_two_parsers_agree_on_random_files(tmp_path, reads):
    """Files of random lines: fields both valid and not, short and ragged
    rows, blank lines, CRLF and padding, with and without a header. None
    holds '_' or a non-ASCII character, which only the typo rule tells
    apart. Only the files that fail on a row are re-read row by row."""
    rng = random.Random(7)
    fields = ["3", " 2 ", "0.5", "1e-3", "-1", "nan", "", "abc", "t", "rel_mae", "0.4\t",
              "2.5", "+7"]
    parsed = failed_on_a_row = 0
    for _ in range(400):
        lines = []
        if rng.random() < 0.5:
            names = ["t", "rel_mae"] + rng.sample(["x", "y", " z "], rng.randint(0, 2))
            rng.shuffle(names)
            lines.append(",".join(names))
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.15:
                lines.append(rng.choice(["", "  ", "\t"]))
            elif rng.random() < 0.7:                   # numeric, maybe ragged
                width = rng.choice([2, 2, 2, 3, 4, 1])
                lines.append(",".join(rng.choice(["3", "2", "10", " 4 "]) if i % 2 == 0
                                      else rng.choice(["0.5", "1e-3", "-0.25"])
                                      for i in range(width)))
            else:
                lines.append(",".join(rng.choice(fields) for _ in range(rng.randint(1, 4))))
        text = rng.choice(["\n", "\r\n"]).join(lines) + rng.choice(["", "\n"])
        path = write(tmp_path, text)
        want = outcome(per_line_read, path)
        reads.clear()
        assert outcome(series_pairs, path) == want, text
        parsed += isinstance(want, str)
        # not the empty file's error, which has no line, nor a bad header's
        on_a_row = not isinstance(want, str) and want[2] is not None and "header must" not in want[1]
        failed_on_a_row += on_a_row
        assert bool(reads[1:]) == on_a_row and set(reads[1:]) <= {1}, text
    assert parsed > 50 and failed_on_a_row > 50


# characters a series file may be typed with; "٣٠" are Arabic-Indic and
# "２０" full-width digits
SERIES_CHARS = [*string.digits, "+", "-", ".", "e", "nan", " ", "\t", "\r", "_", "\u00a0",
                "٣", "٠", "２", "０"]


@st.composite
def series_texts(draw) -> str:
    """Lines of fields drawn from SERIES_CHARS, each field a number as often
    as not, bare or under a header naming the two columns either way round,
    with blank lines, CRLF and a leading byte order mark at times."""
    field = st.one_of(st.sampled_from(["3", "12", "0", "0.5", "1e-3", "-2", "nan"]),
                      st.lists(st.sampled_from(SERIES_CHARS), max_size=4).map("".join))
    width = st.sampled_from([1, 2, 2, 2, 2, 3])
    line = st.one_of(st.just(""), width.flatmap(lambda n: st.lists(field, min_size=n, max_size=n))
                     .map(",".join))
    lines = draw(st.lists(line, max_size=8))
    header = draw(st.sampled_from([[], ["t,rel_mae"], ["rel_mae,t"]]))
    return ("\ufeff" * draw(st.booleans())
            + draw(st.sampled_from(["\n", "\r\n"])).join(header + lines))


@given(text=series_texts())
@settings(max_examples=500, deadline=None, derandomize=True)
@example(text="t,rel_mae\n3,0.5\n2,0.4\n")
@example(text="\ufeff3,0.5\n\n2\u00a0,0.4\n1,x\n")
@example(text="rel_mae,t\n0.5,3\n0.4,٢\n")
def test_the_column_reader_is_the_per_line_reader_with_the_typo_rule(text, tmp_path_factory):
    """On any text, the column reader returns the per-line reader's pairs, or
    raises its error (class, message and line), once the typo rule is added
    to it."""
    path = write(tmp_path_factory.getbasetemp(), text)
    assert outcome(series_pairs, path) == outcome(
        lambda p: per_line_read(p, typos=True), path), text


@st.composite
def near_uniform_texts(draw) -> str:
    """n rows each w - 1, w or w + 1 fields wide, under a header of w names
    (t, rel_mae and w - 2 others, in any order) or bare, where w is 2. In
    about half the files the first row is w wide and the widths total n·w
    fields, as a uniform file's do: each later row one field wider is
    matched by one a field narrower. Most fields are numbers, and in some
    files all are integers."""
    header = draw(st.booleans())
    w = draw(st.integers(2, 4)) if header else 2
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        k = (n - 1) // 2
        half = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=k, max_size=k))
        deltas = [0] + draw(st.permutations(half + [-d for d in half] + [0] * (n - 1 - 2 * k)))
    else:
        deltas = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    # at times integers only, so a row read from the wrong offsets still parses
    field = st.sampled_from(["3", "12", "-7"] if draw(st.booleans()) else
                            ["3", "12", "7", "0.5", "1e-3", "-2", "nan", "0.25", "", "x", "1_0"])
    lines = [",".join(draw(st.lists(field, min_size=w + d, max_size=w + d))) for d in deltas]
    if header:
        lines.insert(0, ",".join(draw(st.permutations(["t", "rel_mae", "a", "b"][:w]))))
    return "\n".join(lines) + "\n"


@given(text=near_uniform_texts())
@settings(max_examples=500, deadline=None, derandomize=True)
@example(text="t,rel_mae\n3,0.5\n2\n1,0.4,x\n")
@example(text="t,rel_mae\n3,0.5,x\n2\n1,0.4\n")
@example(text="3,0.5\n2\n1,0.4,7\n")
def test_rows_whose_widths_total_a_uniform_files_read_as_the_per_line_reader_reads_them(
        text, tmp_path_factory):
    """Near-uniform widths, at times adding up to a uniform file's, give the
    per-line reader's pairs or error (with the typo rule) all the same."""
    path = write(tmp_path_factory.getbasetemp(), text)
    assert outcome(series_pairs, path) == outcome(
        lambda p: per_line_read(p, typos=True), path), text


@pytest.mark.parametrize("name, per_row", [
    ("headered", False), ("curve-csv", False), ("long", False), ("crlf", False),
    ("every-row-wider-than-the-header", False), ("single-data-row", False),
    ("bare-single-row", False), ("ragged-extra-columns", True), ("bare-ragged", True),
    ("first-row-wider-than-the-rest", True), ("widths-that-total-a-uniform-files", True),
])
def test_only_a_file_of_mixed_widths_is_read_through_per_row_lists(name, per_row, tmp_path,
                                                                  monkeypatch):
    """A file whose rows are all one width is read from one split of its
    body; cli._by_row, the per-row picker, serves only mixed widths."""
    import hybridpar.cli as cli
    calls = []
    original = cli._by_row

    def counting(rows):
        calls.append(len(rows))
        return original(rows)

    monkeypatch.setattr(cli, "_by_row", counting)
    path = write(tmp_path, VALID[name])
    assert series_pairs(path) == per_line_read(path)
    assert calls == ([len(per_line_read(path))] if per_row else [])


@pytest.mark.parametrize("data, line, quoted", list(TYPOS.values()), ids=list(TYPOS))
def test_a_typo_in_a_number_names_its_line(data, line, quoted, tmp_path):
    """int and float accept '_' and non-ASCII digits, so the per-line parser
    read these; the column parser names the first such line."""
    path = write(tmp_path, data)
    assert isinstance(outcome(per_line_read, path), str)
    with pytest.raises(SeriesParseError) as info:
        series_pairs(path)
    assert (str(info.value), info.value.line) == (
        f"line {line}: bad numeric fields {quoted}", line)


@pytest.mark.parametrize("data, want", [
    ("t,rel_mae\n3,0.5\n2,0_4\n1\n", "line 3: bad numeric fields '2', '0_4'"),
    ("t,rel_mae\n3,0.5\n2\n1,0_4\n", "line 3: expected at least 2 columns, got 1"),
], ids=["typo-then-short-row", "short-row-then-typo"])
def test_the_first_bad_line_wins_typo_or_not(data, want, tmp_path):
    with pytest.raises(SeriesParseError, match=f"^{want}$"):
        series_pairs(write(tmp_path, data))


def test_extra_columns_are_not_checked_for_typos(tmp_path):
    path = write(tmp_path, "t,rel_mae,note\n3,0.5,1_0\n2,0.4,٣\n")
    assert series_pairs(path) == per_line_read(path) == [(3, 0.5), (2, 0.4)]


def test_detect_reports_a_typo_with_its_line(tmp_path, capsys):
    path = write(tmp_path, "t,rel_mae\n11,0.5\n1_0,0.4\n9,0.3\n")
    assert main(["detect", "--series", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "SeriesParseError", "line": 3,
                                        "message": "line 3: bad numeric fields '1_0', '0.4'"}
