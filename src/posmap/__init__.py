"""Choi-matrix toolkit for positive maps from 2x2 matrices.

The package represents linear maps from 2x2 complex matrices to
(n+1) x (n+1) complex matrices by their Choi matrices, tests positivity,
complete (co)positivity and decomposability with re-checkable certificates,
implements the two-parameter nondecomposable family with its normalization
pipeline, and provides the canonical-form machinery for maps saturating the
coupling bound |Y| + |Z| = U^{1/2}.
"""

from .choi import (
    ChoiBlocks,
    ChoiMatrix,
    apply_map,
    assemble_blocks,
    choi_from_map,
    conjugate_choi,
    extract_blocks,
    row_abs,
    row_abs_product,
)
from .cpdecomp import (
    DecompositionCertificate,
    DecomposeResult,
    WitnessCertificate,
    WitnessResult,
    ccp_check,
    condensed_psd_relations,
    cp_check,
    decompose,
    kadison_constraints,
    ppt_project,
    validate_certificate,
    witness_search,
)
from .extremal import (
    CanonicalForm,
    canonicalize,
    check_row_dependence,
    classify_degenerate,
    compress,
    equality_case_detect,
    face_intersection_check,
    random_equality_blocks,
    scramble_blocks,
)
from .matkernel import (
    EigenDecomposition,
    PsdVerdict,
    hermitian_eig,
    partial_transpose,
    psd_check,
    psd_inv_sqrt,
    psd_project,
    psd_sqrt,
)
from .positivity import (
    CERTIFIED,
    INCONCLUSIVE,
    VIOLATION_FOUND,
    BlockPosVerdict,
    CouplingBound,
    admissible_combination,
    block_positive_2x2,
    block_positive_choi,
    certify_positivity,
    coupling_bound_check,
    face_membership,
    face_structure_report,
    positivity_slack_triple,
    scalar_choi_conditions,
)
from .tang import (
    TangParams,
    TangPipeline,
    build_pipeline,
    inv_sqrt_constants,
    param_grid,
    phi0_apply,
    resolve_y_entry,
    tang_choi,
    verify_tang,
)

__version__ = "0.1.0"
