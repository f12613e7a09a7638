"""The package's record types and what importing the package loads."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import conset
from conset import (
    POINT,
    BottomStructure,
    IsoWitness,
    MiddleStructure,
    PairDecode,
    PairDiagnosis,
    StructureGraph,
    TopStructure,
    decode_kuratowski,
    isomorphic,
    kuratowski_pair,
    structure_of,
)
from conset.expr import _Token
from conset.numerals import vn, zermelo


def test_import_loads_no_code_generation_modules():
    heavy = ["dataclasses", "inspect", "ast", "dis", "tokenize"]
    script = f"import sys, conset; print([m for m in {heavy!r} if m in sys.modules])"
    src = Path(conset.__file__).resolve().parent.parent
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=60,
        check=True,
    )
    assert out.stdout == "[]\n"


class TestRecords:
    def test_reprs(self):
        assert repr(POINT) == "StructureGraph(tags=(None,), edges=(), top=0, bottom=0)"
        assert repr(structure_of(zermelo(1))) == (
            "StructureGraph(tags=(<set {}>, <set {{}}>), edges=((0, 1),), top=1, bottom=0)"
        )
        assert repr(isomorphic(structure_of(zermelo(2)), structure_of(vn(2)))) == (
            "IsoWitness(mapping=(0, 1, 2))"
        )
        z = zermelo(0)
        assert repr(TopStructure(set=z, arity=2)) == (
            "TopStructure(set=<set {}>, arity=2, offset=0)"
        )
        assert repr(BottomStructure(set=z, arity=1, offset=1)) == (
            "BottomStructure(set=<set {}>, arity=1, offset=1, markers=())"
        )
        assert repr(MiddleStructure(z, 3)) == (
            "MiddleStructure(set=<set {}>, arity=3, offset=0)"
        )
        assert repr(decode_kuratowski(kuratowski_pair(zermelo(1), zermelo(0)))) == (
            "PairDecode(first=<set {{}}>, second=<set {}>, "
            "diagnosis=<PairDiagnosis.OK_UNIQUE_DEGENERATE: 'ok-unique-degenerate'>, "
            "cardinality_used=False)"
        )
        assert repr(_Token("nat", "12", 3)) == "_Token(kind='nat', text='12', pos=3)"

    def test_keyword_construction_and_defaults(self):
        z = zermelo(1)
        top = TopStructure(set=z, arity=2)
        assert (top.set, top.arity, top.offset) == (z, 2, 0)
        assert top._replace(offset=1) == TopStructure(z, 2, 1)
        bottom = BottomStructure(set=z, arity=1)
        assert (bottom.offset, bottom.markers) == (0, ())
        assert MiddleStructure(set=z, arity=1, offset=2).offset == 2
        assert StructureGraph(tags=(None, None), edges=((0, 1),), top=1, bottom=0).n == 2
        decode = PairDecode(
            first=z, second=None, diagnosis=PairDiagnosis.OK, cardinality_used=True
        )
        assert decode.cardinality_used is True

    def test_equal_records_hash_equal(self):
        g, h = structure_of(vn(3)), structure_of(vn(3))
        assert g is not h
        assert g == h and hash(g) == hash(h)
        assert TopStructure(zermelo(2), 1) == TopStructure(set=zermelo(2), arity=1, offset=0)
        assert hash(TopStructure(zermelo(2), 1)) == hash(TopStructure(zermelo(2), 1, 0))
        assert IsoWitness((0, 1)) == IsoWitness(mapping=(0, 1))

    @pytest.mark.parametrize(
        "record, field",
        [
            (POINT, "top"),
            (IsoWitness((0,)), "mapping"),
            (TopStructure(zermelo(0), 1), "arity"),
            (BottomStructure(zermelo(0), 1), "markers"),
            (MiddleStructure(zermelo(0), 1), "offset"),
            (PairDecode(None, None, PairDiagnosis.NOT_A_PAIR_SHAPE, False), "first"),
            (_Token("eof", "", 0), "pos"),
        ],
    )
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
