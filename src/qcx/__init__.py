"""qcx: numerical checks for univalence and quasiconformal-extension criteria.

The toolkit evaluates the classical sufficient conditions (generalized
Becker/Ahlfors bound, derivative conditions against the disk family U(k),
phi-like and Bazilevic-type positivity) through companion maps, builds the
explicit expanding chains each condition induces, materializes the
plane extension, and verifies quasiconformality by finite-difference
Beltrami estimation.
"""

from .jets import DomainError, Jet2, PreconditionError, compose
from .branches import BranchLattice, BranchTrackingError, tracked_log, tracked_ratio_log
from .maps import (
    AnalyticMap,
    CayleyMap,
    CompanionMap,
    ConstMap,
    IdentityMap,
    KoebeMap,
    MoebiusMap,
    PolynomialMap,
    ScaledMap,
    SpiralMap,
)
from .grids import AnnulusGrid, DiskGrid
from .udisk import u_disk_center_radius, u_disk_margin, u_disk_ratio
from .criteria import (
    ALL_CRITERIA,
    CriterionParams,
    CriterionReport,
    check_starlike,
    evaluate_criterion,
    gen_bazilevic_value,
    gen_becker_value,
    nw_value,
    phi_like_value,
    sector_nw_value,
    sup_over_grid,
)
from .loewner import (
    CONSTRUCTIONS,
    ChainValidation,
    ExtensionMap,
    LoewnerChain,
    build_chain,
    default_times,
    validate_chain,
)
from .qcverify import (
    BeltramiEstimate,
    beltrami_on_grid,
    compose_dilatation,
    stable_beltrami,
    wirtinger,
)
from .sector import (
    ContainmentError,
    SectorDomain,
    SectorExtension,
    SectorPowerMap,
    companion_from_sector,
    fit_sector,
    p_extension,
    p_extension_inverse,
    sup_abs_on_boundary,
)
from .svg import write_heatmap_svg

__version__ = "0.1.0"
