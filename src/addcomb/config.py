"""Central numeric tolerances and size caps.

Every approximate comparison in the package goes through one of these
constants; integer and rational paths compare exactly and use no tolerance.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative tolerance for DFT round trips and Parseval-type identities
    dft_rel: float = 1e-9
    # relative tolerance for complex-valued identity checks
    complex_rel: float = 1e-8
    # relative tolerance for eigenvalue multiset comparisons
    spectrum_rel: float = 1e-8
    # residual bound for eigenvector checks ||M v - mu v||_inf
    eig_residual: float = 1e-8
    # relative tolerance for cycle-sum vs eigenvalue power sums
    cycle_rel: float = 1e-7
    # character orthonormality
    ortho: float = 1e-10
    # Jacobi sweep termination: off-diagonal Frobenius norm below this
    # multiple of the matrix Frobenius norm
    jacobi_off: float = 1e-12
    # maximum Jacobi sweeps before reporting non-convergence
    jacobi_sweeps: int = 100
    # relative target for non-integer-exponent energies
    energy_float_rel: float = 1e-12


TOL = Tolerances()

# set/tuple size caps
TUPLE_CELL_CAP = 10 ** 6   # dense tables over Gr^k refuse to exceed this
MULT_ENERGY_CAP = 10 ** 7  # direct product-energy enumeration cap t^(2k-1)

# Read by no library code: sets are Python-int bitmasks at every modulus.
# Kept only because perfbench/workloads.py imports it to size its
# large-modulus counting queries.
BITSET_LIMIT = 4096
