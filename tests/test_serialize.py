import json

import numpy as np
import pytest

from typelab import catalog
from typelab.constructions import alternating_partition, arithmetic, perturb_exponential
from typelab.core import DiscreteMeasure, Interval, Partition, RealSequence, WeightTable
from typelab.serialize import (
    canonical_json,
    load_intervals,
    load_measure,
    load_partition,
    load_sequence,
    load_weight_table,
    render_csv,
    render_curve_csv,
)


class TestRoundTrips:
    def test_sequence(self):
        seq = RealSequence(np.array([-2.0, 0.5, 3.0]), 10.0, "demo")
        back = load_sequence(json.loads(canonical_json(seq)))
        assert np.array_equal(back.points, seq.points)
        assert back.window == seq.window
        assert back.generator_tag == "demo"

    def test_measure(self):
        m = DiscreteMeasure(np.array([-1.0, 2.0]), np.array([0.5, 0.125]), 5.0)
        back = load_measure(json.loads(canonical_json(m)))
        assert np.array_equal(back.positions, m.positions)
        assert np.array_equal(back.masses, m.masses)

    def test_weight_table(self):
        w = WeightTable(np.array([-2.0, 0.0, 2.0]), np.array([1.5, 4.0]))
        back = load_weight_table(json.loads(canonical_json(w)))
        assert np.array_equal(back.values, w.values)
        assert back.kind == "mu-weight"

    def test_samples_table(self):
        w = WeightTable(np.array([0.0, 1.0]), np.array([0.25]), kind="samples")
        back = load_weight_table(json.loads(canonical_json(w)))
        assert back.kind == "samples"

    def test_partition(self):
        p = Partition(np.array([-3.0, 0.0, 2.0, 7.0]))
        back = load_partition(json.loads(canonical_json(p)))
        assert np.array_equal(back.breakpoints, p.breakpoints)

    def test_intervals(self):
        doc = {"intervals": [[1.0, 2.0], [4.0, 8.0]]}
        ivs = load_intervals(doc)
        assert ivs == [Interval(1.0, 2.0), Interval(4.0, 8.0)]


class TestDocumentRoundTrips:
    """Documents typelab writes read back, from a file, to the arrays json gives,
    bit for bit, and write again to the same bytes."""

    @pytest.mark.parametrize("make, load, arrays", [
        (lambda: catalog.koosis_measure(1e4), load_measure, {"atoms": ("positions", "masses")}),
        (lambda: perturb_exponential(arithmetic(1.0, 1e4), 1.0, 0), load_sequence,
         {"points": ("points",)}),
        (lambda: perturb_exponential(arithmetic(1.0, 1e4), 1.0, 5), load_sequence,
         {"points": ("points",)}),
        (lambda: alternating_partition(1.0, 2.0, 60.0), load_partition,
         {"breakpoints": ("breakpoints",)}),
    ])
    def test_write_read_write(self, tmp_path, make, load, arrays):
        text = canonical_json(make())
        path = tmp_path / "doc.json"
        path.write_text(text + "\n")
        back = load(str(path))
        for key, fields in arrays.items():
            expected = np.asarray(json.loads(text)[key], dtype=float)
            got = np.column_stack([getattr(back, f) for f in fields])
            assert got.tobytes() == expected.reshape(got.shape).tobytes()
        assert canonical_json(back) == text


class TestCanonicalForm:
    def test_sorted_keys(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}'

    def test_twelve_digits(self):
        assert canonical_json(1.0 / 3.0) == "0.333333333333"

    def test_integral_floats_compact(self):
        assert canonical_json([1.0, 2.5]) == "[1, 2.5]"

    def test_stable_under_reparse(self):
        doc = {"x": [0.1, 0.2, 30.0], "y": {"z": None, "w": True}}
        once = canonical_json(doc)
        again = canonical_json(json.loads(once))
        assert once == again

    def test_csv_quotes_commas_and_quotes(self):
        assert render_csv({"detail": 'a, "b"'}) == 'key,value\ndetail,"a, ""b"""\n'

    def test_curve_csv_shape(self):
        from typelab.oracle import ResidualCurve

        curve = ResidualCurve(np.array([1.0, 2.0]), np.array([0.5, 0.25]),
                              np.array([1.0, 1.0]), None, np.array([2.0, 4.0]),
                              0.0, False, 1e-12)
        text = render_curve_csv(curve)
        assert text.splitlines() == ["a,sigma_min,cond", "1,0.5,2", "2,0.25,4"]
