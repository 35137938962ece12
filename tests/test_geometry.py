import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydvdw import MHZ
from rydvdw.geometry import VdwModel, separation_for_interaction, vdw_interaction
from rydvdw.protocol import solve_interaction_for_phase


class TestVdwInteraction:
    def test_reference_distance(self):
        # 20.99 um for the 97S pair coefficient sits at h x 0.46 MHz
        v = vdw_interaction(VdwModel(), 20.99)
        assert abs(v / MHZ - 0.462) < 5e-4

    def test_power_law(self):
        model = VdwModel()
        base = vdw_interaction(model, 7.3)
        for k in (2.0, 3.0, 10.0):
            assert np.isclose(vdw_interaction(model, k * 7.3), base / k**6, rtol=1e-12)
        ks = np.array([[1.0, 2.0], [3.0, 10.0]])
        assert np.allclose(vdw_interaction(model, ks * 7.3), base / ks**6, rtol=1e-12)

    def test_direct_formula(self):
        model = VdwModel()
        assert np.isclose(vdw_interaction(model, 10.0), model.c6 / 1e6, rtol=1e-15)

    def test_rejects_nonpositive_distance(self):
        for d in (0.0, -2.0, np.array([21.0, 0.0])):
            with pytest.raises(ValueError):
                vdw_interaction(VdwModel(), d)
        with pytest.raises(ValueError):
            VdwModel(c6=-1.0)


class TestSeparationForInteraction:
    def test_design_point(self):
        v = solve_interaction_for_phase(np.pi, 0.8 * MHZ)
        assert abs(separation_for_interaction(VdwModel(), v) - 20.99) < 0.01

    def test_unit_distance(self):
        model = VdwModel()
        assert np.isclose(separation_for_interaction(model, model.c6), 1.0, rtol=1e-15)

    @given(dist=st.floats(1.0, 100.0))
    @settings(max_examples=50)
    def test_inversion_round_trip(self, dist):
        model = VdwModel()
        back = separation_for_interaction(model, vdw_interaction(model, dist))
        assert np.isclose(back, dist, rtol=1e-10)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            separation_for_interaction(VdwModel(), 0.0)
