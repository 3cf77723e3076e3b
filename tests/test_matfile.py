import itertools
import re

import numpy as np
import pytest

from ginv.errors import MatrixParseError
from ginv.matfile import format_matrix, load_matrix, parse_matrix, save_matrix


class TestParse:
    def test_basic_real(self):
        a = parse_matrix("2 2\n1 2\n3 4\n")
        np.testing.assert_array_equal(a, [[1, 2], [3, 4]])

    @pytest.mark.parametrize(
        "token,value",
        [
            ("3", 3.0),
            ("-2.5", -2.5),
            ("1e3", 1000.0),
            ("i", 1j),
            ("-i", -1j),
            ("+i", 1j),
            ("2.5i", 2.5j),
            ("2.5j", 2.5j),
            ("-0.5j", -0.5j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("1+2j", 1 + 2j),
            ("-1.5+0.25i", -1.5 + 0.25j),
            ("3+i", 3 + 1j),
            ("3-i", 3 - 1j),
            ("1e-2+2e-3i", 0.01 + 0.002j),
        ],
    )
    def test_entry_forms(self, token, value):
        a = parse_matrix(f"1 1\n{token}\n")
        assert a[0, 0] == value

    def test_comments_and_blank_lines_skipped(self):
        text = "# title\n\n2 1\n# entries\n1\n2\n"
        np.testing.assert_array_equal(parse_matrix(text), [[1], [2]])

    def test_entries_spread_arbitrarily(self):
        np.testing.assert_array_equal(parse_matrix("2 2 1 2 3 4"), [[1, 2], [3, 4]])

    def test_error_carries_line_and_column(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("2 2\n1 2\n3 4x\n")
        assert exc.value.line == 3
        assert exc.value.column == 3

    def test_too_few_entries(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("2 2\n1 2 3\n")

    def test_trailing_garbage(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("1 1\n5\n6\n")
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("two 2\n1 2\n")
        with pytest.raises(MatrixParseError):
            parse_matrix("0 2\n")
        with pytest.raises(MatrixParseError):
            parse_matrix("")
        # header counts are ASCII digits only, as in the entries, and no more
        # of them than int() converts
        for count in ("1_0", "+1", "\u0661", "9" * 5000):
            with pytest.raises(MatrixParseError, match=re.escape(f"row count {count!r} is not an integer")) as exc:
                parse_matrix(f"{count} 1\n1 2 3 4 5 6 7 8 9 10\n")
            assert (exc.value.line, exc.value.column) == (1, 1)

    @pytest.mark.parametrize("header, count", [("100000 100000", 10**10), ("4000000000 4000000000", 16 * 10**18)])
    def test_oversized_header_counts_before_allocating(self, header, count):
        with pytest.raises(MatrixParseError, match=f"expected {count} entries, found 2"):
            parse_matrix(f"{header}\n1 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 2\n1 x\n", "malformed entry 'x'"),  # a malformed entry before a short count
            ("1 1\nx 5\n", "malformed entry 'x'"),  # and before a trailing token
            ("2 2\n1 2 3\n", "expected 4 entries, found 3"),
            ("1 1\n5 x\n", "unexpected trailing token 'x'"),
        ],
    )
    def test_error_order(self, text, message):
        with pytest.raises(MatrixParseError, match=message):
            parse_matrix(text)

    @pytest.mark.parametrize(
        "bad", ["1+2", "2ii", "1 + 2i", "--3", "i2", "1+j2", "inf", "nan", "1_0", "(1+2j)", "1e", ".e3", "1+2J"]
    )
    def test_malformed_entries(self, bad):
        with pytest.raises(MatrixParseError):
            parse_matrix(f"1 1\n{bad}\n")


def _error(parse, text):
    try:
        parse(text)
    except MatrixParseError as exc:
        return str(exc), exc.line, exc.column
    return None


# The reference entry grammar: one pattern per entry form, read part by part
# with float().  The short-token test checks the one grammar of
# ginv.matfile against it.
_FLOAT = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_RE_REAL = re.compile(rf"^[+-]?{_FLOAT}$")
_RE_IMAG = re.compile(rf"^(?P<coeff>[+-]?(?:{_FLOAT})?)[ij]$")
_RE_BOTH = re.compile(rf"^(?P<real>[+-]?{_FLOAT})(?P<coeff>[+-](?:{_FLOAT})?)[ij]$")


def _imag_coeff(text: str) -> float:
    if text in ("", "+"):
        return 1.0
    if text == "-":
        return -1.0
    return float(text)


def _parse_entry(token: str, line: int, column: int) -> complex:
    m = _RE_BOTH.match(token)
    if m:
        return complex(float(m.group("real")), _imag_coeff(m.group("coeff")))
    m = _RE_IMAG.match(token)
    if m:
        return complex(0.0, _imag_coeff(m.group("coeff")))
    if _RE_REAL.match(token):
        return complex(float(token), 0.0)
    raise MatrixParseError(f"malformed entry {token!r}", line, column)


def _reference(text):
    """``text`` read token by token through :func:`_parse_entry`; well-formed input only."""
    tokens = [token for line in text.splitlines() for token in line.split("#", 1)[0].split()]
    rows, cols = int(tokens[0]), int(tokens[1])
    return np.array([_parse_entry(token, 1, 1) for token in tokens[2:]], dtype=complex).reshape(rows, cols)


class TestFastPath:
    """The one-pass grammar reads what the reference grammar reads, bit for bit,
    and a rejected text reports its first fault where it always has."""

    # (message, line, column) of each text, as the two-parser reader gave them
    MALFORMED = {
        "": ("line 1, column 1: empty matrix file", 1, 1),
        "# only a comment\n": ("line 1, column 1: empty matrix file", 1, 1),
        "2\n": ("line 1, column 1: header must be 'rows cols'", 1, 1),
        "two 2\n1 2\n": ("line 1, column 1: row count 'two' is not an integer", 1, 1),
        "2 x\n1 2\n": ("line 1, column 3: column count 'x' is not an integer", 1, 3),
        "0 2\n": ("line 1, column 1: dimensions must be positive, got 0 x 2", 1, 1),
        "2 2\n1 2\n3 4x\n": ("line 3, column 3: malformed entry '4x'", 3, 3),
        "2 2\n1 2 3\n": ("line 1, column 1: expected 4 entries, found 3", 1, 1),
        "1 1\n5\n6\n": ("line 3, column 1: unexpected trailing token '6'", 3, 1),
        "2 2\n1 inf\n3 4\n": ("line 2, column 3: malformed entry 'inf'", 2, 3),
        "2 2\n1 2\nnan 4\n": ("line 3, column 1: malformed entry 'nan'", 3, 1),
        "2 2\n1 1_0\n3 4\n": ("line 2, column 3: malformed entry '1_0'", 2, 3),
        "2 2\n1 (1+2j)\n3 4\n": ("line 2, column 3: malformed entry '(1+2j)'", 2, 3),
        "2 2\n1 2\n1+2 4\n": ("line 3, column 1: malformed entry '1+2'", 3, 1),
        "2 2\n1 2\n3 1 + 2i\n": ("line 3, column 5: unexpected trailing token '+'", 3, 5),
        "1 2\n1 + 2i\n": ("line 2, column 3: malformed entry '+'", 2, 3),
        "2 2 # header\n1 2 # first row\n3 4x # bad\n": ("line 3, column 3: malformed entry '4x'", 3, 3),
        "100000 100000\n1 2\n": ("line 1, column 1: expected 10000000000 entries, found 2", 1, 1),
    }

    @pytest.mark.parametrize("text", MALFORMED)
    def test_identical_errors(self, text):
        assert _error(parse_matrix, text) == self.MALFORMED[text]

    def test_overflow_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            parse_matrix("1 1\n1e999\n")

    def test_non_ascii_digits_rejected(self):
        text = "1 2\n\u0661 2\n"  # ARABIC-INDIC DIGIT ONE
        assert _error(parse_matrix, text) == ("line 2, column 1: malformed entry '\u0661'", 2, 1)

    def test_grammar_agrees_on_short_tokens(self):
        # every token of up to three characters over an alphabet that reaches each grammar rule
        for length in (1, 2, 3):
            for chars in itertools.product("1.e+-ij_(", repeat=length):
                token = "".join(chars)
                try:
                    want = _parse_entry(token, 1, 1)
                except MatrixParseError:
                    want = None
                if want is None:
                    assert _error(parse_matrix, f"1 1 {token}") == (f"line 1, column 5: malformed entry {token!r}", 1, 5)
                else:
                    assert parse_matrix(f"1 1 {token}").tobytes() == np.array([[want]]).tobytes(), token

    def test_bitwise_round_trip(self):
        rng = np.random.default_rng(71)
        tiny = np.array([5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -0.0, 0.0])
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 9, 2))
            a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * np.exp(rng.uniform(-700, 700, (m, n)))
            a.real[rng.random((m, n)) < 0.2] = rng.choice(tiny)
            a.imag[rng.random((m, n)) < 0.2] = rng.choice(tiny)
            text = format_matrix(a)
            back = parse_matrix(text)
            assert np.array_equal(back, a)
            # signed zeros read back as the reference grammar reads them
            assert back.tobytes() == _reference(text).tobytes()

    def test_comments_and_spread_entries(self):
        text = "# title\n2 2 # header\n1+2i\n-i 3.5e-3\n  4j # last\n"
        assert parse_matrix(text).tobytes() == _reference(text).tobytes()


def _entry(z: complex) -> str:
    """The spelling of ``z``: the body of its 1x1 matrix file."""
    return format_matrix([[z]]).split("\n")[1]


class TestFormat:
    def test_pure_real(self):
        assert format_matrix([[complex(0.5, 0.0)]]) == "1 1\n0.5\n"

    def test_pure_imag_uses_i(self):
        assert format_matrix([[complex(0, -2.5)]]) == "1 1\n-2.5i\n"

    def test_mixed_signs(self):
        assert format_matrix([[complex(1, 2), complex(1, -2)]]) == "1 2\n1+2i 1-2i\n"

    def test_zero(self):
        assert format_matrix([[0j]]) == "1 1\n0\n"

    def test_signed_zero_parts(self):
        row = [complex(-0.0, 0.0), complex(1.0, -0.0), complex(-0.0, -2.0)]
        assert format_matrix([row]) == "1 3\n-0 1 -2i\n"

    def test_matrix_is_its_entries(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        a.real[0] = 0.0
        a.imag[1] = 0.0
        rows = [" ".join(_entry(complex(z)) for z in row) for row in a]
        assert format_matrix(a) == "\n".join(["5 4", *rows]) + "\n"

    def test_round_trip_17_digits(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            m, n = (int(v) for v in rng.integers(1, 7, 2))
            a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
            a *= np.exp(rng.uniform(-80, 80))
            back = parse_matrix(format_matrix(a))
            np.testing.assert_array_equal(back, a)  # bit-exact

    def test_round_trip_special_values(self):
        a = np.array([[1 / 3, np.pi], [1e-300, -2**-52]], dtype=complex)
        np.testing.assert_array_equal(parse_matrix(format_matrix(a)), a)


class TestFileIO:
    def test_save_load(self, tmp_path):
        a = np.array([[1 + 2j, -1j], [3.25, 0]], dtype=complex)
        path = tmp_path / "m.mat"
        save_matrix(path, a)
        np.testing.assert_array_equal(load_matrix(path), a)

    def test_non_utf8_byte_is_a_parse_error(self, tmp_path):
        path = tmp_path / "m.mat"
        path.write_bytes(b"2 2\r\n1 \xc3\xa9\r\n3 \xff\n")
        with pytest.raises(MatrixParseError, match="byte 0xff is not UTF-8") as exc:
            load_matrix(path)
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_bundled_fixtures_parse(self):
        from ginv.fixtures import DEMO_4X4, fixture_path

        np.testing.assert_array_equal(load_matrix(fixture_path("demo4x4.mat")), DEMO_4X4)
        c = load_matrix(fixture_path("complex2.mat"))
        assert c[0, 0] == 1 + 2j
        assert c[1, 1] == 4 - 0.5j
