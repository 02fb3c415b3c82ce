"""Finite element solver for 2D time-harmonic fluid-solid scattering with a
truncated Fourier-series Dirichlet-to-Neumann absorbing boundary, validated
against the closed-form modal solution for the disc scatterer."""

from .config import PhysicalConfig
from .mesh import (ANNULUS, DISC, GAMMA, GAMMA_R, BoundaryTrace, Mesh,
                   boundary_trace, build_annulus_mesh, build_disc_mesh,
                   mesh_size, refine, save_mesh)
from .dtn import assemble_dtn_matrix, dtn_factor, truncation_decay_check
from .assembly import (DofMap, FemSystem, SystemBlocks, assemble_blocks,
                       assemble_coupling, assemble_elastic,
                       assemble_helmholtz, assemble_load, assemble_system)
from .solve import (FieldSolution, LowRankSweep, SingularSystemError,
                    evaluate_field, solve, solve_linear)
from .analytic import (SeriesSolution, SingularModeError, eval_displacement,
                       eval_pressure, modal_systems, solve_modes,
                       trace_mode_coefficients)
from .harness import (ConvergenceResult, ErrorReport, StudyConfig,
                      TruncationResult, build_mesh_pair, convergence_study,
                      error_norms, operator_decay, run_single,
                      truncation_study, write_csv)

__version__ = "0.1.0"
