"""Exact symbolic kernel for quantum differential operators acting on the
quantum divided power algebra, with mechanical verification of the defining
relations, the simple-root presentation, and the braid-built root vectors.
"""

from .aqn import Element, monomials_up_to, mul, mul_monomial
from .errors import (ContextMix, ExprSyntaxError, InvalidArgs, InvalidIndex,
                     NotDivisible, QweylError, RankMismatch)
from .exprparse import parse_element, parse_operator
from .qindex import MultiIndex, star, theta, theta_exponent
from .qring import LaurentPoly, exact_div, q_binom, q_fact, q_int, q_power
from .report import RelationResult, VerificationReport
from .rootvec import (FormalUq, apply_formal, braid_relation_check,
                      braid_root_vector, closed_form_root_action,
                      default_braid_word, evaluate, lemma34_check, lusztig_T,
                      positive_roots_in_convex_order, prop32_check, symE,
                      symF, symK, theorem33_check)
from .uqrealize import (Realization, build_realization, cartan_matrix,
                        classical_degeneration_check, closed_form_action,
                        lemma21_check, q_euler_eigenvalue, root_op, verify_gl,
                        verify_serre)
from .weylops import (D, GenSymbol, Operator, S, T, X, apply, apply_generator,
                      compose, normalize, op_eq_up_to_degree, q_bracket,
                      verify_weyl_relations)

__version__ = "0.1.0"
