"""Tests for Attribute/Schema."""

import numpy as np
import pytest

from repro.datamodel import Attribute, Schema


class TestAttribute:
    def test_basic(self):
        a = Attribute("x", "float32", coordinate=True)
        assert a.itemsize == 4
        assert a.np_dtype == np.float32
        assert a.coordinate

    def test_dtype_normalised(self):
        assert Attribute("x", "f4").dtype == "float32"
        assert Attribute("x", "<i4").dtype == "int32"

    def test_invalid_name(self):
        with pytest.raises(ValueError):
            Attribute("2bad")
        with pytest.raises(ValueError):
            Attribute("")

    def test_unsupported_dtype(self):
        with pytest.raises(ValueError):
            Attribute("x", "complex64")
        with pytest.raises(ValueError):
            Attribute("x", "U10")

    def test_unsupported_dtype_is_refused_every_time(self):
        # dtype spellings are resolved once and remembered; a refused
        # spelling must never be remembered as resolved
        for _ in range(3):
            with pytest.raises(ValueError, match="unsupported attribute dtype 'complex64'"):
                Attribute("a", "complex64")
        assert Attribute("a", "float32") == Attribute("a", "f4")


class TestSchema:
    def test_of_shorthand(self):
        s = Schema.of("x", "y", "z", "wp", coordinates=("x", "y", "z"))
        assert s.names == ("x", "y", "z", "wp")
        assert s.coordinate_names == ("x", "y", "z")
        assert s.record_size == 16  # 4 x float32

    def test_paper_oil_reservoir_schemas(self):
        # Section 6: T1(x, y, z, oilp) and T2(x, y, z, wp), 4-byte attrs
        t1 = Schema.of("x", "y", "z", "oilp", coordinates=("x", "y", "z"))
        t2 = Schema.of("x", "y", "z", "wp", coordinates=("x", "y", "z"))
        assert t1.record_size == t2.record_size == 16

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Schema.of("x", "x")

    def test_empty_schema_rejected(self):
        with pytest.raises(ValueError):
            Schema([])

    def test_coordinates_must_exist(self):
        with pytest.raises(ValueError):
            Schema.of("x", coordinates=("y",))

    def test_lookup(self):
        s = Schema.of("x", "wp")
        assert s["wp"].name == "wp"
        assert "x" in s and "nope" not in s
        with pytest.raises(KeyError):
            s["nope"]

    def test_project(self):
        s = Schema.of("x", "y", "wp")
        p = s.project(["wp", "x"])
        assert p.names == ("wp", "x")

    def test_join_schema(self):
        t1 = Schema.of("x", "y", "oilp", coordinates=("x", "y"))
        t2 = Schema.of("x", "y", "wp", coordinates=("x", "y"))
        j = t1.join(t2, on=("x", "y"))
        assert j.names == ("x", "y", "oilp", "wp")

    def test_join_schema_name_clash_gets_suffix(self):
        t1 = Schema.of("x", "v")
        t2 = Schema.of("x", "v")
        j = t1.join(t2, on=("x",))
        assert j.names == ("x", "v", "v_r")

    def test_join_keeps_unrenamed_attributes(self):
        t1 = Schema.of("x", "v")
        t2 = Schema.of("x", "v", "w", coordinates=("w",))
        j = t1.join(t2, on=("x",))
        assert j["w"] is t2["w"] and j["w"].coordinate
        assert j["v_r"] == Attribute("v_r", t2["v"].dtype)

    def test_join_missing_attr(self):
        with pytest.raises(ValueError):
            Schema.of("x").join(Schema.of("y"), on=("x",))

    def test_numpy_dtype(self):
        s = Schema.of("x", "wp", dtype="float32")
        dt = s.to_numpy_dtype()
        assert dt.names == ("x", "wp")
        assert dt.itemsize == 8

    def test_equality_and_hash(self):
        a = Schema.of("x", "y")
        b = Schema.of("x", "y")
        assert a == b and hash(a) == hash(b)
        assert a != Schema.of("y", "x")

    def test_record_size_21_attributes(self):
        # Section 2: "a total of 21 attributes for each dataset"
        names = ["x", "y", "z"] + [f"a{i}" for i in range(18)]
        s = Schema.of(*names, coordinates=("x", "y", "z"))
        assert len(s) == 21
        assert s.record_size == 84
