"""Guest memory: regions, faults, word access."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryFault
from repro.runtime import Memory


@pytest.fixture()
def mem():
    m = Memory()
    m.map_region(0x1000, 0x2000)
    return m


class TestRegions:
    def test_mapped_access_ok(self, mem):
        mem.write(0x1000, b"abc")
        assert mem.read(0x1000, 3) == b"abc"

    def test_unmapped_read_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(0x4000, 1)

    def test_unmapped_write_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.write(0x4000, b"x")

    def test_null_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(0, 4)

    def test_straddling_region_end_faults(self, mem):
        with pytest.raises(MemoryFault):
            mem.read(0x2FFE, 4)

    def test_adjacent_regions_coalesce(self):
        m = Memory()
        m.map_region(0x1000, 0x1000)
        m.map_region(0x2000, 0x1000)
        assert m.is_mapped(0x1800, 0x1000)   # spans the join

    def test_cross_page_io(self, mem):
        data = bytes(range(256)) * 2
        mem.write(0x1F80, data)               # crosses a 4 KiB boundary
        assert mem.read(0x1F80, len(data)) == data

    def test_zero_fill_default(self, mem):
        assert mem.read(0x1500, 8) == b"\x00" * 8

    def test_bad_region_size(self):
        with pytest.raises(ValueError):
            Memory().map_region(0, 0)


class TestWords:
    def test_u32_roundtrip(self, mem):
        mem.write_u32(0x1000, 0xDEADBEEF)
        assert mem.read_u32(0x1000) == 0xDEADBEEF

    def test_i32_sign(self, mem):
        mem.write_i32(0x1000, -5)
        assert mem.read_i32(0x1000) == -5
        assert mem.read_u32(0x1000) == 0xFFFFFFFB

    def test_little_endian(self, mem):
        mem.write_u32(0x1000, 0x01020304)
        assert mem.read(0x1000, 4) == b"\x04\x03\x02\x01"


class TestStrings:
    def test_cstr_roundtrip(self, mem):
        mem.write_cstr(0x1000, "hello/world")
        assert mem.read_cstr(0x1000) == "hello/world"

    def test_cstr_stops_at_nul(self, mem):
        mem.write(0x1000, b"ab\x00cd")
        assert mem.read_cstr(0x1000) == "ab"

    def test_cstr_across_a_page_boundary(self, mem):
        # starts 3 bytes before the 0x2000 page edge, ends past it
        mem.write_cstr(0x1FFD, "crosses/the/edge")
        assert mem.read_cstr(0x1FFD) == "crosses/the/edge"

    def test_cstr_into_unmapped_memory_faults_at_first_unmapped_byte(self):
        m = Memory()
        m.map_region(0x1000, 0x10)
        m.write(0x1000, b"abcdefghijklmnop")     # no terminator
        with pytest.raises(MemoryFault) as err:
            m.read_cstr(0x1000)
        assert str(err.value) == \
            "access to unmapped address 0x00001010 (size 1)"
        with pytest.raises(MemoryFault) as err:
            m.read_cstr(0x3000)
        assert str(err.value) == \
            "access to unmapped address 0x00003000 (size 1)"

    def test_cstr_terminated_before_the_region_end_never_faults(self):
        m = Memory()
        m.map_region(0x1000, 0x10)
        m.write(0x1000, b"abcdefghijklmno\x00")
        assert m.read_cstr(0x1000) == "abcdefghijklmno"

    def test_cstr_truncates_at_the_limit(self, mem):
        mem.write(0x1000, b"x" * 0x2000)          # the whole region
        assert mem.read_cstr(0x1000) == "x" * 4096
        assert mem.read_cstr(0x1FF0, limit=40) == "x" * 40
        # the limit stops the scan right before unmapped memory ...
        assert mem.read_cstr(0x2FF8, limit=8) == "x" * 8
        # ... and one byte more reaches it
        with pytest.raises(MemoryFault, match="0x00003000"):
            mem.read_cstr(0x2FF8, limit=9)

    @given(text=st.text(alphabet=st.characters(min_codepoint=1,
                                               max_codepoint=0x7F),
                        max_size=64))
    @settings(max_examples=50)
    def test_property_cstr(self, text):
        m = Memory()
        m.map_region(0x1000, 0x1000)
        m.write_cstr(0x1000, text)
        assert m.read_cstr(0x1000) == text


@given(offset=st.integers(0, 0x1F00), data=st.binary(min_size=1,
                                                     max_size=200))
@settings(max_examples=60)
def test_property_write_read_roundtrip(offset, data):
    m = Memory()
    m.map_region(0x1000, 0x3000)
    m.write(0x1000 + offset, data)
    assert m.read(0x1000 + offset, len(data)) == data
