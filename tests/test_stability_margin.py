"""Every stability decision of the package uses one margin, so they flip together."""

import numpy as np
import pytest

from quadtrack.config import validate_config
from quadtrack.control_math import STABILITY_MARGIN
from quadtrack.errors import ConfigError, InvalidBounds, NoStabilizingController
from quadtrack.lti import (
    StateSpaceSISO,
    TransferFunctionSISO,
    factor_poles,
    h2_norm_sq_exact,
    hinf_norm,
)
from quadtrack.scenario import make_scenario
from quadtrack.synthesis import SynthesisOptions, hinf_synthesize
from quadtrack.trackers import UncertaintyInterval


def _config_accepts(key, pole):
    doc = {"scenario": {"n": 1, "lambda_max": 2.0, "j": 0.5, "seed": 1, key: [-pole, 1.0]},
           "run": {"horizon": 10}}
    try:
        validate_config(doc)
    except ConfigError:
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
    model = StateSpaceSISO([[pole]], [1.0], [1.0], 0.0)
    assert make_scenario(1, 1.0, 2.0, model, 1.0, seed=1).model_is_stable != in_band
    assert factor_poles(h)[1].size - 1 == int(in_band)
    assert _config_accepts("d_stable", pole) != in_band
    assert _config_accepts("d_unstable", pole) == in_band
    assert _config_accepts("d_unstable", 1.0 + gap * STABILITY_MARGIN) == in_band
    assert _synthesis_rejects(h) == in_band
