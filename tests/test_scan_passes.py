"""A criterion evaluates f once on each block it scans: its builder takes no
grid, and a hypothesis on the image f(D) is checked on the jets of the scan."""

import inspect

import numpy as np
import pytest

from qcx.criteria import CRITERIA, CriterionParams, evaluate_criterion
from qcx.grids import BLOCK, DiskGrid
from qcx.maps import PolynomialMap

# a grid of two blocks: BLOCK points, then 128
TWO_BLOCKS = DiskGrid(BLOCK // 64 + 2, 64, 1e-2)
SECTOR = dict(w0=-2 + 0j, lambda0=11 / 6, a=1 / 3)


@pytest.mark.parametrize("criterion, params", [
    ("moebius_becker", CriterionParams(k=0.9, c2=-3 + 0j)),
    ("moebius_nw", CriterionParams(k=0.6, gamma=0.2 + 0j, delta=1 + 0j)),
    ("sector_becker", CriterionParams(k=0.65, **SECTOR)),
    ("sector_nw", CriterionParams(k=0.65, **SECTOR)),
])
def test_an_image_reading_row_evaluates_f_once_a_block(criterion, params, monkeypatch):
    sizes = []
    jet = PolynomialMap.jet
    monkeypatch.setattr(PolynomialMap, "jet",
                        lambda self, z: sizes.append(np.size(z)) or jet(self, z))
    rep = evaluate_criterion(criterion, PolynomialMap([1, 0.2]), None, params,
                             TWO_BLOCKS)
    # the two grid blocks and the refinement patch, each once
    assert sizes == [BLOCK, 128, 81]
    assert rep.samples == sum(sizes)


def test_every_builder_takes_f_its_companion_and_the_params():
    for name, spec in CRITERIA.items():
        f, _companion, params = inspect.signature(spec.build).parameters
        assert (f, params) == ("f", "params"), name
