"""grid.region, the one rule for where a floor holds, against the four rules it replaced.

tests/region_reference.py keeps those rules as they were; every caller of
region is checked to select the same points, except where a centred box's
edge falls on a lattice point, which region's half-open test leaves out.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from dbarlab.cli import _certified_region
from dbarlab.errors import ValidationError
from dbarlab.grid import GridSpec, periodic_offset, region
from dbarlab.singular import MollifierSchedule, _centred_region, singular_catalog
import region_reference as ref

SEAM_MARGINS = (0.0, 0.125, 0.25, 0.45)
CATALOG = [("gaussian", {"c": c}) for c in (1.0, 2.0, 4.0)] + [
    ("log_pole", {"offset": offset}) for offset in (1.5 + 1.5j, 9.5 + 9.5j)
]


@pytest.mark.parametrize("N", [16, 32, 64, 128])
def test_region_selects_the_points_of_every_old_rule(N):
    g = GridSpec(1, N, 8.0)
    for margin in SEAM_MARGINS:
        assert np.array_equal(region(g, margin), ref.interior_mask(g, margin))
    for name, params in CATALOG:
        cat = singular_catalog(name, g, **params)
        # the points within 3 spacings of a pole, where solve and positivity refuse
        near = ~ref.box_off_poles(g, g.L, cat.poles, 3.0 * g.spacing)
        for margin in SEAM_MARGINS:
            expected = ref.certified_region(margin, g, cat)
            cfg = SimpleNamespace(seam_margin=margin)
            if (expected & near).any():
                with pytest.raises(ValidationError, match="offset_re, offset_im"):
                    _certified_region(cfg, g, cat)
            else:
                assert np.array_equal(_certified_region(cfg, g, cat), expected)
        for eps in MollifierSchedule(2.0, 8).radii:
            half = 0.5 * cat.plateau_radius
            assert np.array_equal(_centred_region(g, half, cat.poles, eps),
                                  ref.box_off_poles(g, half, cat.poles, eps + 3.0 * g.spacing))
            zone = ref.psh_zone_halfwidth(cat) - eps
            assert np.array_equal(_centred_region(g, zone, cat.poles, eps),
                                  ref.monotone_region(g, cat, eps))


@pytest.mark.parametrize("N", [8, 16])
def test_region_is_the_interior_mask_at_n2(N):
    g = GridSpec(2, N, 8.0)
    for margin in SEAM_MARGINS:
        assert np.array_equal(region(g, margin), ref.interior_mask(g, margin))


def test_a_centred_box_edge_on_a_lattice_point_is_half_open():
    # the one place the conventions differ: with r0 = 1.0 at N = 64 the half-r0
    # box's edges 4 +- 0.5 are lattice points; the old closed box kept both
    g = GridSpec(1, 64, 8.0)
    cat = singular_catalog("log_pole", g, r0=1.0)
    half = 0.5 * cat.plateau_radius
    assert ref.box_off_poles(g, half, (), 0.0).sum() == 9 ** 2
    assert _centred_region(g, half, (), 0.0).sum() == 8 ** 2
    assert np.array_equal(_centred_region(g, half, (), 0.0), region(g, 0.5 - half / g.L))


def test_a_half_width_at_most_zero_is_empty():
    g = GridSpec(1, 16, 8.0)
    for half in (0.0, -1.0):
        assert not _centred_region(g, half, (), 0.0).any()


@pytest.mark.parametrize("margin", [-0.01, 0.5, 0.7])
def test_region_rejects_a_margin_outside_its_range(margin):
    with pytest.raises(ValidationError, match=r"\[0, 0.5\)"):
        region(GridSpec(1, 16, 8.0), margin)


def test_periodic_offset_wraps_into_half_the_box():
    g = GridSpec(1, 16, 8.0)
    d = np.array([-12.0, -4.0, -1.0, 0.0, 3.5, 4.0, 9.5])
    assert periodic_offset(g, d).tolist() == [-4.0, -4.0, -1.0, 0.0, 3.5, -4.0, 1.5]
