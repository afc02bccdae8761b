"""Fast-diffusion entropy toolkit.

Numerical machinery around the fast-diffusion route to sharp
interpolation inequalities: closed-form profiles and optimal constants,
entropy/Fisher functionals on radial meshes, radial flow solvers with
delay bookkeeping, the spectrum of the linearized operator, the
second-moment phase plane, ODE shooting for the numerically determined
constants, and the explicit constant chains evaluated in leveled log
arithmetic.
"""

from .params import ExponentSet, derive_exponents
from .profiles import (BarenblattSpec, GNSConstants, MomentTable,
                       barenblatt_mass, closed_form_moments, eval_barenblatt,
                       gns_optimal_constants, sobolev_constant)
from .fields import RadialField, TailModel, barenblatt_field, graded_mesh, quadrature_mesh
from .functionals import (EntropyReport, best_match, csiszar_kullback_gap,
                          deficit, entropy_report, fisher_information,
                          normalization_map, relative_entropy, xm_norm)
from .counterexample import counterexample_report
from .flow import (SolverStats, Trajectory, default_flow_mesh, solve_fd_original,
                   solve_fdr, solve_fdr_delayed)
from .parabolic import harnack_ratio, solve_linear_parabolic
from .spectral import SpectrumQuery, critical_gap_parameters, eigenvalue, spectral_gap
from .moments import classify_region, delay_bound, xy_closed_form, xy_integrate_batch
from .shooting import emden_fowler_verify, shoot_disk_radial
from .constants import build_ledger, moser_chain
from .ledger import ConstantLedger
from .logscale import LogReal

__all__ = [
    "ExponentSet", "derive_exponents",
    "BarenblattSpec", "GNSConstants", "MomentTable", "barenblatt_mass",
    "closed_form_moments", "eval_barenblatt", "gns_optimal_constants",
    "sobolev_constant",
    "RadialField", "TailModel", "barenblatt_field", "graded_mesh",
    "quadrature_mesh",
    "EntropyReport", "best_match", "csiszar_kullback_gap", "deficit",
    "entropy_report", "fisher_information", "normalization_map",
    "relative_entropy", "xm_norm",
    "counterexample_report",
    "SolverStats", "Trajectory", "default_flow_mesh", "solve_fd_original",
    "solve_fdr", "solve_fdr_delayed",
    "harnack_ratio", "solve_linear_parabolic",
    "SpectrumQuery", "critical_gap_parameters", "eigenvalue", "spectral_gap",
    "classify_region", "delay_bound", "xy_closed_form", "xy_integrate_batch",
    "emden_fowler_verify", "shoot_disk_radial",
    "build_ledger", "moser_chain", "ConstantLedger", "LogReal",
]

__version__ = "0.1.0"
