"""Tests for the layout-description language and generated extractors."""

import numpy as np
import pytest

from repro.datamodel import SubTable, SubTableId
from repro.storage import build_extractor, parse_layout_descriptor
from repro.storage.descriptor import DescriptorSyntaxError

T1_DESCRIPTOR = """
# Oil reservoir simulation output, table T1 (Section 6 of the paper)
layout reservoir_t1 {
    order: row_major;
    field x     float32 coordinate;
    field y     float32 coordinate;
    field z     float32 coordinate;
    field oilp  float32;
}
"""


class TestParser:
    def test_parse_t1(self):
        (d,) = parse_layout_descriptor(T1_DESCRIPTOR)
        assert d.name == "reservoir_t1"
        assert d.order == "row_major"
        assert d.schema.names == ("x", "y", "z", "oilp")
        assert d.schema.coordinate_names == ("x", "y", "z")

    def test_multiple_blocks(self):
        text = T1_DESCRIPTOR + """
layout reservoir_t2 {
    order: column_major;
    field x  float32 coordinate;
    field wp float32;
}
"""
        ds = parse_layout_descriptor(text)
        assert [d.name for d in ds] == ["reservoir_t1", "reservoir_t2"]
        assert ds[1].order == "column_major"

    def test_blocked_order(self):
        text = """
layout buffered {
    order: blocked(128);
    field x float32;
}
"""
        (d,) = parse_layout_descriptor(text)
        assert d.order == "blocked(128)"

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# header comment\nlayout l {\n# inner\n  order: row_major; # trailing\n\n  field x float32;\n}\n"
        (d,) = parse_layout_descriptor(text)
        assert d.schema.names == ("x",)

    @pytest.mark.parametrize(
        "bad",
        [
            "layout l {\n  field x float32;\n}",  # missing order
            "layout l {\n  order: row_major;\n}",  # no fields
            "layout l {\n  order: nope;\n  field x float32;\n}",  # unknown layout
            "layout l {\n  order: row_major;\n  order: row_major;\n  field x float32;\n}",
            "layout l {\n  order: row_major;\n  field x complex64;\n}",  # bad dtype
            "layout l {\n  order: row_major;\n  field x float32;\n  field x float32;\n}",
            "layout l {\n  order: row_major;\n  field x float32;",  # unterminated
            "field x float32;",  # field outside block
            "layout l {\n  gibberish;\n}",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(DescriptorSyntaxError):
            parse_layout_descriptor(bad)

    def test_error_carries_line_number(self):
        try:
            parse_layout_descriptor("layout l {\n  order: nope;\n  field x float32;\n}")
        except DescriptorSyntaxError as exc:
            assert exc.lineno == 4  # error surfaces when the block closes
        else:
            pytest.fail("expected DescriptorSyntaxError")


class TestGeneratedExtractor:
    def test_encode_extract_roundtrip(self):
        ex = build_extractor(T1_DESCRIPTOR)
        n = 50
        rng = np.random.default_rng(0)
        sub = SubTable(
            SubTableId(1, 7),
            ex.schema,
            {name: rng.random(n).astype(np.float32) for name in ex.schema.names},
        )
        raw = ex.encode(sub)
        assert len(raw) == n * ex.schema.record_size
        back = ex.extract(raw, SubTableId(1, 7))
        assert back.equals_unordered(sub)
        assert back.id == SubTableId(1, 7)

    def test_extract_attaches_metadata_bbox(self):
        from repro.datamodel import BoundingBox

        ex = build_extractor(T1_DESCRIPTOR)
        sub = SubTable(
            SubTableId(1, 0),
            ex.schema,
            {n: np.zeros(3, dtype=np.float32) for n in ex.schema.names},
        )
        raw = ex.encode(sub)
        meta_box = BoundingBox({"x": (0, 64)})
        out = ex.extract(raw, SubTableId(1, 0), bbox=meta_box)
        assert out.bbox == meta_box

    def test_encode_schema_mismatch(self):
        from repro.datamodel import Schema

        ex = build_extractor(T1_DESCRIPTOR)
        other = SubTable(
            SubTableId(0, 0), Schema.of("a"), {"a": np.zeros(2, dtype=np.float32)}
        )
        with pytest.raises(ValueError):
            ex.encode(other)

    def test_build_requires_single_block(self):
        with pytest.raises(ValueError):
            build_extractor(T1_DESCRIPTOR + T1_DESCRIPTOR.replace("reservoir_t1", "other"))
