"""fcat: a computational engine for spherical fusion categories.

Skeletal category data (labels, fusion rules, F/R-symbols, quantum
dimensions) is loaded from JSON and validated; on top of it the package
evaluates graphical calculus in fusion-tree bases, builds the tube
category and Ocneanu's tube algebra, and realizes Drinfeld-centre objects
as tube idempotents with their half-braidings and modular data.
"""

from .errors import (FcatError, SchemaError, MissingData, ConsistencyError,
                     UnknownLabel, ShapeMismatch, BadPosition, NotBraided,
                     NotModular, NotHalfBraiding, SplitFailed,
                     DecompositionFailed)
from .category import (Label, FusionRules, FSymbolTable, RSymbolTable,
                       PivotalData, CategorySpec, load_category, load_builtin,
                       builtin_names, validate_pentagon, validate_hexagon,
                       hom_dim, global_dimension)
from .diagrams import (Morphism, identity, zero_morphism, random_morphism,
                       compose, tensor, cup, cap, cup_word, cap_word,
                       bend_right, bend_left, unbend_right, unbend_left,
                       braid, braid_word, trace, trace_left, trace_right,
                       ptrace_left, decompose_resolution, dual_decompose_check,
                       morphism_to_json, morphism_from_json, f_move)
from .tube import (TubeMorphism, TubeAlgebra, tube_hom_dim, embed, unembed,
                   tube_identity, tube_compose, lift, c_morphism,
                   c_morphism_inv, tube_algebra, random_tube_morphism)
from .centre import (HalfBraiding, CentreIdempotent, ModularData,
                     half_braiding_residual, braiding_half_braiding,
                     eps_from_half_braiding, eps_xy, handle_slide_check,
                     hom_between_idempotents, idempotent_hom_dim,
                     completeness_check, s_matrix, t_matrix, modular_data,
                     is_modular, killing_ring_eval, slice_checks, TubeSplit,
                     split_tube_algebra, decompose_tube_algebra,
                     half_braiding_from_idempotent)

__version__ = "0.1.0"
