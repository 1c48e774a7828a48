"""Texture pattern recognition by inverse resonance filtration.

The toolkit models a textured raster as a sum of 2D harmonics, designs a
convolution filter that flattens the texture's own signal, flags foreign
objects as statistical outliers of the flattened signal, and removes
false detections with histogram-difference and cross-frame correlation
post-filters.
"""

from .errors import (
    ConfigError,
    ImageFormatError,
    ModelError,
    NumericError,
    ResofiltError,
)
from .filtering import (
    DetectionMask,
    IRFilter,
    apply_filter,
    design_filter,
    detect,
    noise_dispersion,
)
from .harmonic import (
    AmplitudeBasis,
    HarmonicModel,
    PolynomialCoeffs,
    ResonanceRoots,
    TextureKernel,
    coeffs_from_roots,
    companion_matrix,
    polynomial_roots,
    reconstruct,
    shift_kernel,
    spectrum,
    synth_texture,
    vandermonde,
)
from .imageio import ImageStack, read_image, write_image
from .linear_symmetry import (
    LsSolution,
    estimate_model_ls,
    ls_coefficients,
    ls_symmetric_coefficients,
    marginal_correlations,
)
from .model_doc import RunReport, doc_to_model, model_to_doc
from .pencil import (
    SubspaceBasis,
    estimate_model_pencil,
    extract_submatrices,
    gram_inverse_direct,
    gram_inverse_iterative,
    pencil_eigenvalues,
    svd_windows,
)
from .pipeline import PipelineConfig, PipelineResult, design, estimate, run_pipeline
from .postfilter import (
    HistogramEvidence,
    ObjectBox,
    TrackState,
    binarize_evidence,
    binary_correlation,
    connected_components,
    density_verdict,
    histogram_difference,
    track_filter,
)

__version__ = "0.1.0"
