"""The record types keep their constructors, defaults, reprs and JSON, and
importing the CLI loads neither ``dataclasses`` nor ``inspect``."""

import json
import os
import subprocess
import sys

import pytest

from dualcoh import (
    FamilyInstance,
    Generator,
    GhostCertificate,
    InvalidPresentationError,
    Morphism,
    Verdict,
    __version__,
    su_algebra,
)
from dualcoh.algebra import DEFAULT_MONOMIAL_CAP
from dualcoh.checks import CheckResult
from dualcoh.report import SCHEMA_VERSION, ReportDocument, RunConfig, run_family

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_cli_import_loads_no_dataclasses_or_inspect():
    # -S keeps the host's site hooks, which may import either, out of the test.
    code = ("import sys; sys.path.insert(0, 'src'); import dualcoh.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


class TestImmutableRecords:
    def test_generator(self):
        g = Generator("s", 2)
        assert g == Generator(name="s", degree=2)
        assert (g.name, g.degree, g.parity) == ("s", 2, 0)
        assert Generator("e3", 3).parity == 1
        assert repr(g) == "Generator('s', 2)"
        assert len({g, Generator("s", 2)}) == 1
        with pytest.raises(AttributeError):
            g.degree = 4

    def test_ghost_certificate(self):
        cert = GhostCertificate(True, False, False)
        assert cert == GhostCertificate(not_compactly_supported=True,
                                        levi_restriction_in_levi_kernel=False,
                                        is_ghost=False, discrepancy_note="")
        assert cert.discrepancy_note == ""
        assert GhostCertificate(True, True, True, "n").discrepancy_note == "n"
        assert repr(cert) == (
            "GhostCertificate(not_compactly_supported=True, "
            "levi_restriction_in_levi_kernel=False, is_ghost=False, discrepancy_note='')")

    def test_verdict(self):
        one = su_algebra(2).one()
        v = Verdict(one, True, None, None, [1, 0, 0, 1], [1])
        assert v == Verdict(fundamental_class=one, nonvanishing=True,
                            nonvanishing_witness=None, ghost=None,
                            betti_G=[1, 0, 0, 1], betti_H=[1])
        assert (v.fundamental_class, v.nonvanishing, v.betti_H) == (one, True, [1])

    def test_check_result(self):
        r = CheckResult("x", True)
        assert r == CheckResult(name="x", passed=True, detail="")
        assert r.detail == ""
        assert repr(r) == "CheckResult(name='x', passed=True, detail='')"
        assert repr(CheckResult("y", False, "d")) == (
            "CheckResult(name='y', passed=False, detail='d')")


class TestStatefulRecords:
    def test_family_instance(self):
        G = su_algebra(3)
        f = Morphism(G, G, {})
        inst = FamilyInstance("f", {"n": 1}, G, G, f, [G.one()])
        same = FamilyInstance(family_id="f", parameters={"n": 1}, dual_G=G, dual_H=G,
                              restriction=f, franke_ideal=[G.one()])
        for x in (inst, same):
            assert (x.family_id, x.parameters, x.dual_G, x.restriction) == ("f", {"n": 1}, G, f)
            assert x.compact_support_generator is None
            assert x.levi_restriction is None and x.levi_franke_generator is None
        assert inst.notes == {} and inst.notes is not same.notes
        inst.levi_restriction = f
        assert inst.levi_restriction is f
        full = FamilyInstance("f", {}, G, G, f, [], "e5", f, "e3", {"k": 1})
        assert (full.compact_support_generator, full.levi_franke_generator,
                full.notes) == ("e5", "e3", {"k": 1})

    def test_morphism(self):
        G = su_algebra(3)
        images = {"e3": G.gen("e3")}
        for m in (Morphism(G, G, images),
                  Morphism(source=G, target=G, generator_images=images)):
            # a generator with no image is sent to zero
            assert (m.source, m.target, m.generator_images) == (
                G, G, {**images, "e5": G.zero()})
            assert m.image_of_monomial((0, 0)) == G.one()
            assert m.image_of_monomial((1, 0)) == G.gen("e3")

    def test_run_config(self):
        cfg = RunConfig("siegel", {"g": 2})
        assert (cfg.family_id, cfg.parameters, cfg.monomial_cap, cfg.seed,
                cfg.checks) == ("siegel-product", {"g": 2}, DEFAULT_MONOMIAL_CAP, 42, ())
        cfg = RunConfig(family_id=None, parameters={}, monomial_cap=7, seed=3,
                        checks=("oracle",))
        assert (cfg.family_id, cfg.monomial_cap, cfg.seed, cfg.checks) == (None, 7, 3, ("oracle",))
        with pytest.raises(InvalidPresentationError, match="unknown check suites"):
            RunConfig("siegel", {}, checks=("oracle", "nope"))
        with pytest.raises(InvalidPresentationError, match="unknown family"):
            RunConfig("nope", {})

    def test_report_document_defaults(self):
        args = ("f", {}, [1], [1], 0, 0, [["1", "1"]], {"verdict": True}, {"present": False})
        doc, other = ReportDocument(*args), ReportDocument(*args)
        assert doc.notes == {} and doc.check_results == []
        assert doc.notes is not other.notes and doc.check_results is not other.check_results
        assert (doc.schema_version, doc.tool_version, doc.timing) == (
            SCHEMA_VERSION, __version__, None)
        assert list(doc.to_dict()) == list(ReportDocument.FIELDS)
        assert "timing" not in ReportDocument.FIELDS
        # A plain function on the class, so a caller can wrap it in place.
        assert callable(vars(ReportDocument)["to_json"])

    def test_report_document_round_trip(self):
        doc = run_family(RunConfig("sl-imag-sp", {"n": 2}, checks=("oracle",)))
        assert doc.check_results and doc.timing is not None
        back = ReportDocument.from_dict(json.loads(doc.to_json()))
        assert back.to_json() == doc.to_json()
        assert back.timing is None
        kw = ReportDocument(**doc.to_dict(), timing=1.5)
        assert kw.to_json() == doc.to_json() and kw.timing == 1.5
