"""Divisor-class group arithmetic on curves over prime fields.

Group operations on the Jacobian are pure linear algebra over F_p once the
curve is given by a multiplication table (or by point values) between its
spaces of linear and quadratic functions.  The package bundles the engine, a
hyperelliptic instance generator with ground-truth data, an independent
Mumford/Cantor oracle, and a benchmarking CLI.
"""

from .field import (CompositeModulus, PrimeField, RandomStream, is_probable_prime,
                    make_prime_field)
from .linalg import (DimensionMismatch, Subspace, column_echelon, kernel_basis,
                     mat_mul)
from .curverep import (AllZeroSections, RepA, RepB0, ZeroSection, divide,
                       mult_matrix, product, simple_mul, sum_of_products,
                       validate_rep)
from .divisors import (DivisorBrief, EmptySpace, PreconditionCodim,
                       PreconditionDegree, RetryStats, deflate, degree, flip,
                       igs_for_v, igs_size_h, inflate, is_igs,
                       membership_test, random_igs_candidate)
from .jacobian import (LARGE, SMALL, InconsistentPrecomp, JacobianPoint,
                       LargeModel, LargeModelPrecomp, TagMismatch, add,
                       addflip, addflip_large, addflip_small, equal_class,
                       make_large_model, negate, scalar_mul, zero_point)
from .hyperelliptic import (BadCharacteristic, CurveBundle, HyperellipticCurve,
                            InsufficientRationalPoints, MalformedFile,
                            SingularCurve, VersionMismatch, gen_hyperelliptic,
                            gen_paper_fixture, gen_rep_b0, load_bundle,
                            save_bundle)
from .cantor import (CurveMismatch, MumfordDivisor, cantor_add, cantor_negate,
                     cantor_scalar, mumford_to_point, neutral, oracle_compare,
                     random_mumford, semireduced_space)

__version__ = "0.1.0"
