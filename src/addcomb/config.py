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


TOL = Tolerances()

# set/tuple size caps
TUPLE_CELL_CAP = 10 ** 6   # dense tables over Gr^k refuse to exceed this
MULT_ENERGY_CAP = 10 ** 7  # direct product-energy enumeration cap t^(2k-1)
SCAN_PRIME_CAP = 10 ** 4   # largest p in the subgroup scans and the verify suite
FIELD_PRIME_CAP = 10 ** 6  # largest p make_field builds a discrete-log table for
# largest n in convex_scan: its int64 count vector has about 4 n^2 entries
# (33.6 MB at n = 1024)
CONVEX_N_CAP = 1024
# largest |A| in doubling_stats: each statistic sorts an |A| x |A| array of
# pair values (about 4.2M at the cap, the scale of sumset_size_np's switch)
DOUBLING_SET_CAP = 2048

# Read by no library code: one pair-count kernel serves every modulus.
# Kept only because perfbench/workloads.py imports it to size its
# large-modulus counting queries.
BITSET_LIMIT = 4096
