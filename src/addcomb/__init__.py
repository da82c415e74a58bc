"""Exact computational toolkit for additive-combinatorial identities,
shifted-intersection inequalities, kernel spectra on finite cyclic groups,
and multiplicative-subgroup experiments over prime fields."""

from .checks import IneqCheck
from .groups import (
    CyclicGroup,
    GroupFn,
    GroupSet,
    indicator,
    intersect_shifts,
    sumset,
    tuple_sumset_with_diagonal,
)
from .transform import (
    check_commutation,
    convolve,
    correlate,
    dft,
    gen_convolution,
    idft,
    kfold_convolve,
)
from .energy import (
    check_ap_bound,
    check_energy_weight_a,
    check_energy_weight_b,
    check_heart,
    check_heart_triple,
    check_katz_koester,
    check_level_thresholds,
    check_membership_identity,
    check_weight_inequality,
    energy,
    energy_k,
    t_k,
)
from .spectral import (
    EigBoundReport,
    SpectralOperator,
    Spectrum,
    build_restricted_operator,
    check_cycle_sums,
    check_traces,
    check_triangle_inequality,
    eigendecompose,
    first_eigenfunction_bounds,
)
from .subgroup import (
    MultSubgroup,
    MuTable,
    PrimeField,
    check_eigenbasis,
    check_exact_fourier,
    check_mu_convolution,
    check_tk_characters,
    check_vinogradov_bounds,
    make_field,
    mu_alpha_direct,
    mult_energy_k,
    subgroup,
)

__version__ = "0.1.0"
