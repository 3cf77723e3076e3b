import itertools

import numpy as np
import pytest

from ginv.errors import MatrixParseError
from ginv.matfile import _parse_entry, _parse_fast, _parse_tokens, format_entry, format_matrix, load_matrix, parse_matrix, save_matrix


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


class TestFastPath:
    """The one-pass parser accepts exactly what the token parser accepts, with the same values."""

    MALFORMED = [
        "",
        "# only a comment\n",
        "2\n",
        "two 2\n1 2\n",
        "2 x\n1 2\n",
        "0 2\n",
        "2 2\n1 2\n3 4x\n",
        "2 2\n1 2 3\n",
        "1 1\n5\n6\n",
        "2 2\n1 inf\n3 4\n",
        "2 2\n1 2\nnan 4\n",
        "2 2\n1 1_0\n3 4\n",
        "2 2\n1 (1+2j)\n3 4\n",
        "2 2\n1 2\n1+2 4\n",
        "2 2\n1 2\n3 1 + 2i\n",
        "1 2\n1 + 2i\n",
        "2 2 # header\n1 2 # first row\n3 4x # bad\n",
        "100000 100000\n1 2\n",
    ]

    @pytest.mark.parametrize("text", MALFORMED)
    def test_identical_errors(self, text):
        assert _parse_fast(text) is None
        want = _error(_parse_tokens, text)
        assert want is not None
        assert _error(parse_matrix, text) == want

    def test_overflow_rejected_like_the_token_parser(self):
        text = "1 1\n1e999\n"
        assert _parse_fast(text).tobytes() == _parse_tokens(text).tobytes()
        with pytest.raises(ValueError, match="finite"):
            parse_matrix(text)

    def test_non_ascii_digits_left_to_the_token_parser(self):
        text = "1 2\n\u0661 2\n"  # ARABIC-INDIC DIGIT ONE
        assert _parse_fast(text) is None
        np.testing.assert_array_equal(parse_matrix(text), [[1, 2]])

    def test_grammar_agrees_on_short_tokens(self):
        # every token of up to three characters over an alphabet that reaches each grammar rule
        for length in (1, 2, 3):
            for chars in itertools.product("1.e+-ij_(", repeat=length):
                token = "".join(chars)
                try:
                    want = _parse_entry(token, 1, 1)
                except MatrixParseError:
                    want = None
                got = _parse_fast(f"1 1 {token}")
                if want is None:
                    assert got is None, token
                else:
                    assert got is not None and got.tobytes() == np.array([[want]]).tobytes(), token

    def test_bitwise_round_trip(self):
        rng = np.random.default_rng(71)
        tiny = np.array([5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, -0.0, 0.0])
        for _ in range(30):
            m, n = (int(v) for v in rng.integers(1, 9, 2))
            a = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) * np.exp(rng.uniform(-700, 700, (m, n)))
            a.real[rng.random((m, n)) < 0.2] = rng.choice(tiny)
            a.imag[rng.random((m, n)) < 0.2] = rng.choice(tiny)
            text = format_matrix(a)
            fast = _parse_fast(text)
            assert fast is not None
            assert fast.tobytes() == _parse_tokens(text).tobytes()
            back = parse_matrix(text)
            assert np.array_equal(back, a)
            # signed zeros read back as the token parser reads them
            assert back.tobytes() == _parse_tokens(text).tobytes()

    def test_comments_and_spread_entries(self):
        text = "# title\n2 2 # header\n1+2i\n-i 3.5e-3\n  4j # last\n"
        assert _parse_fast(text).tobytes() == _parse_tokens(text).tobytes()


class TestFormat:
    def test_pure_real(self):
        assert format_entry(complex(0.5, 0.0)) == "0.5"

    def test_pure_imag_uses_i(self):
        assert format_entry(complex(0, -2.5)) == "-2.5i"

    def test_mixed_signs(self):
        assert format_entry(complex(1, 2)) == "1+2i"
        assert format_entry(complex(1, -2)) == "1-2i"

    def test_zero(self):
        assert format_entry(0j) == "0"

    def test_signed_zero_parts(self):
        assert format_entry(complex(-0.0, 0.0)) == "-0"
        assert format_entry(complex(1.0, -0.0)) == "1"
        assert format_entry(complex(-0.0, -2.0)) == "-2i"

    def test_matrix_is_its_entries(self):
        rng = np.random.default_rng(72)
        a = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        a.real[0] = 0.0
        a.imag[1] = 0.0
        rows = [" ".join(format_entry(complex(z)) for z in row) for row in a]
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
