"""Every stability decision of the package uses one margin, so they flip together."""

import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from quadtrack.config import validate_config
from quadtrack.control_math import STABILITY_MARGIN
from quadtrack.errors import ConfigError, InvalidBounds, NoStabilizingController
from quadtrack.lti import (
    TransferFunctionSISO,
    factor_poles,
    h2_norm_sq_exact,
    hinf_norm,
    loop_h2_stack,
    loop_peaks,
    loop_stable,
)
from quadtrack.synthesis import SynthesisOptions, hinf_synthesize
from quadtrack.trackers import UncertaintyInterval


def _config_accepts(key, pole):
    return _accepts({key: [-pole, 1.0]})


def _accepts(scenario):
    doc = {"scenario": {"n": 1, "lambda_max": 2.0, "j": 0.5, "seed": 1, **scenario},
           "run": {"horizon": 10}}
    try:
        validate_config(doc)
    except ConfigError as exc:
        assert "scenario.d_" in str(exc)
        return False
    return True


def _synthesis_rejects(h):
    try:
        hinf_synthesize(h, UncertaintyInterval(1.0, 1.0),
                        SynthesisOptions(grid_points=2, starts=1, max_evals=10))
    except InvalidBounds:
        return True
    except NoStabilizingController:
        pass
    return False


@pytest.mark.parametrize("gap, in_band", [(0.5, True), (2.0, False)])
def test_stability_decisions_flip_together_at_the_margin(gap, in_band):
    """A pole at modulus 1 - gap * STABILITY_MARGIN counts as persistent
    everywhere when gap < 1, and as stable everywhere when gap > 1; the
    config's persistent modes end at 1 + STABILITY_MARGIN, where growing
    ones begin."""
    pole = 1.0 - gap * STABILITY_MARGIN
    h = TransferFunctionSISO([1.0], [-pole, 1.0])
    assert np.isinf(h2_norm_sq_exact(h)) == in_band
    assert np.isinf(hinf_norm(h)) == in_band
    assert factor_poles(h)[1].size - 1 == int(in_band)
    assert _config_accepts("d_stable", pole) != in_band
    assert _config_accepts("d_unstable", pole) == in_band
    assert _config_accepts("d_unstable", 1.0 + gap * STABILITY_MARGIN) == in_band
    assert _synthesis_rejects(h) == in_band
    # the program's own loop flags: c = 0.1 / (z - pole + 0.1) puts the root
    # of d_c - lam n_c at the pole for lam = 1
    c = TransferFunctionSISO([0.1], [0.1 - pole, 1.0])
    plant = TransferFunctionSISO([1.0], [-0.5, 1.0])
    assert loop_stable(plant, c, [1.0])[0] != in_band
    assert np.isinf(loop_peaks(plant, c, [1.0])[0]) == in_band
    assert np.isinf(loop_h2_stack(plant, c.den, [c.num], [1.0])[0, 0]) == in_band


RESONANCE = [1.0, -2.0 * math.cos(math.pi / 12.0), 1.0]


@pytest.mark.parametrize("d_unstable, d_stable, ok", [
    (npoly.polymul(RESONANCE, RESONANCE), [-0.5, 1.0], True),
    ([1.0, 0.0, 2.0, 0.0, 1.0], [-0.5, 1.0], True),
    (npoly.polyfromroots([1.0] * 4), [-0.5, 1.0], False),
    ([-1.0, 1.0], [-(1.0 - 5e-6), 1.0], False),
], ids=["squared-resonance", "(z^2+1)^2", "(z-1)^4", "stable-root-5e-6-away"])
def test_config_classifies_persistent_roots_by_cluster_centroid(d_unstable, d_stable, ok):
    """A double root computed up to 8.3e-8 off the circle is persistent by
    its cluster's centroid, as `factor_poles` reads it; what the centroid
    rule cannot classify, a 4-fold root computed 1e-4 off or a stable root
    that joins a persistent cluster, is refused."""
    assert _accepts({"d_unstable": list(d_unstable), "d_stable": list(d_stable)}) == ok
