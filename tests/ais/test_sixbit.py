"""Tests for the 6-bit ASCII armor, and the bit lists of the reference codec."""

import pytest
from hypothesis import given, strategies as st

from repro.ais.sixbit import armor, unarmor, unarmor_many
from tests.ais.oracle import (
    BitReader,
    BitWriter,
    bits_to_payload,
    payload_to_bits,
)


class TestBitWriter:
    def test_uint_big_endian(self):
        writer = BitWriter()
        writer.write_uint(5, 4)  # 0101
        assert writer.bits() == [0, 1, 0, 1]

    def test_uint_out_of_range(self):
        writer = BitWriter()
        with pytest.raises(ValueError, match="does not fit"):
            writer.write_uint(16, 4)
        with pytest.raises(ValueError, match="does not fit"):
            writer.write_uint(-1, 4)

    def test_signed_negative(self):
        writer = BitWriter()
        writer.write_int(-1, 4)  # two's complement: 1111
        assert writer.bits() == [1, 1, 1, 1]

    def test_signed_bounds(self):
        writer = BitWriter()
        writer.write_int(-8, 4)
        writer.write_int(7, 4)
        with pytest.raises(ValueError):
            writer.write_int(8, 4)
        with pytest.raises(ValueError):
            writer.write_int(-9, 4)

    def test_length_accumulates(self):
        writer = BitWriter()
        writer.write_uint(0, 6)
        writer.write_uint(0, 2)
        assert len(writer) == 8


class TestBitReader:
    def test_round_trip_uint(self):
        writer = BitWriter()
        writer.write_uint(123456, 20)
        reader = BitReader(writer.bits())
        assert reader.read_uint(20) == 123456

    def test_round_trip_signed(self):
        writer = BitWriter()
        writer.write_int(-123456, 28)
        reader = BitReader(writer.bits())
        assert reader.read_int(28) == -123456

    def test_read_past_end_raises(self):
        reader = BitReader([1, 0])
        with pytest.raises(ValueError, match="cannot read"):
            reader.read_uint(3)

    def test_skip_advances(self):
        writer = BitWriter()
        writer.write_uint(0b1010, 4)
        writer.write_uint(3, 2)
        reader = BitReader(writer.bits())
        reader.skip(4)
        assert reader.read_uint(2) == 3
        assert reader.remaining == 0

    @given(value=st.integers(min_value=0, max_value=2**30 - 1))
    def test_uint_round_trip_property(self, value):
        writer = BitWriter()
        writer.write_uint(value, 30)
        assert BitReader(writer.bits()).read_uint(30) == value

    @given(value=st.integers(min_value=-(2**27), max_value=2**27 - 1))
    def test_int_round_trip_property(self, value):
        writer = BitWriter()
        writer.write_int(value, 28)
        assert BitReader(writer.bits()).read_int(28) == value


class TestArmor:
    def test_known_values(self):
        # 6-bit value 0 -> '0' (ASCII 48); 39 -> 'W'; 40 -> '`'; 63 -> 'w'
        payload, fill = bits_to_payload([0, 0, 0, 0, 0, 0])
        assert payload == "0"
        assert fill == 0
        payload, _ = bits_to_payload([1, 0, 0, 1, 1, 1])  # 39
        assert payload == "W"
        payload, _ = bits_to_payload([1, 0, 1, 0, 0, 0])  # 40
        assert payload == "`"
        payload, _ = bits_to_payload([1, 1, 1, 1, 1, 1])  # 63
        assert payload == "w"

    def test_fill_bits_computed(self):
        payload, fill = bits_to_payload([1, 0, 1, 0])
        assert fill == 2
        assert len(payload) == 1

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError, match="invalid 6-bit"):
            payload_to_bits("~")

    def test_fill_bits_too_large(self):
        with pytest.raises(ValueError, match="exceeds payload"):
            payload_to_bits("0", fill_bits=7)

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=400))
    def test_round_trip_property(self, bits):
        payload, fill = bits_to_payload(bits)
        assert payload_to_bits(payload, fill) == bits


class TestIntegerArmor:
    def test_known_values(self):
        assert armor(0, 6) == ("0", 0)
        assert armor(39, 6) == ("W", 0)
        assert armor(40, 6) == ("`", 0)
        assert armor(63, 6) == ("w", 0)

    def test_fill_bits_pad_the_last_character(self):
        assert armor(0b1010, 4) == ("`", 2)  # 101000 = 40
        assert unarmor("`", 2) == (0b1010, 4)

    @pytest.mark.parametrize("char", ["~", "X", "_", " ", "\u0660", "\x7f"])
    def test_invalid_character_is_a_value_error(self, char):
        with pytest.raises(ValueError, match="invalid 6-bit"):
            unarmor(f"00{char}0")

    @pytest.mark.parametrize("fill", [-1, 6, 7])
    def test_fill_bits_outside_0_to_5_rejected(self, fill):
        with pytest.raises(ValueError, match="fill bits"):
            unarmor("0000", fill)

    def test_fill_bits_longer_than_the_payload_rejected(self):
        with pytest.raises(ValueError, match="fill bits"):
            unarmor("", 1)

    @given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=400))
    def test_matches_the_bit_list_armor(self, bits):
        value = int("".join(map(str, bits)) or "0", 2)
        payload, fill = armor(value, len(bits))
        assert (payload, fill) == bits_to_payload(bits)
        assert unarmor(payload, fill) == (value, len(bits))

    @given(
        payloads=st.lists(
            st.tuples(
                st.text(
                    alphabet=st.sampled_from(
                        [chr(code) for code in range(48, 88)]
                        + [chr(code) for code in range(96, 120)]
                        + ["~", "\u0660"]
                    ),
                    max_size=12,
                ),
                st.integers(min_value=-1, max_value=7),
            ),
            max_size=6,
        )
    )
    def test_unarmor_many_is_unarmor_of_each_or_none(self, payloads):
        values = []
        for payload, fill in payloads:
            try:
                values.append(unarmor(payload, fill)[0])
            except ValueError:
                values = None
                break
        assert unarmor_many(payloads) == values
