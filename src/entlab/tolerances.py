"""Every numerical threshold entlab decides with, stated once.

Each entry names the invariant it protects and says whether it is absolute
or relative (and to what).  Entries are grouped by invariant, not by value:
one name serves every operation that relies on the same promise, and two
equal values that protect different things keep two names.  Rounding bounds
an algorithm derives from machine epsilon and its own sizes (the
permutohedron step's ``8 m eps`` in ``locc``) stay with that algorithm.
"""

# --------------------------------------------------------------------------- #
#                              data from outside                               #
# --------------------------------------------------------------------------- #

# Absolute.  Data from outside may miss an exact normalization by at most
# this: a state norm or density trace off 1, a density's non-Hermitian part,
# a density eigenvalue or spectrum entry below 0, a state spectrum's total
# off 1, and two spectra's totals and partial sums in ``majorizes``.  Within
# it entlab symmetrizes, clips to 0 and renormalizes; beyond it it refuses.
INPUT_TOL = 1e-10

# --------------------------------------------------------------------------- #
#                                 equal reals                                  #
# --------------------------------------------------------------------------- #

# Relative (absolute in log).  Two positive reals this close in log are the
# same real: ``atomic_measure`` merges such atoms (so the flow never splits
# coincident ones) and ``tv_distance`` merges the atoms of both measures the
# same way; in both the relation chains, so sorted atoms whose consecutive
# log gaps are each within it form one run, however far the run spans.
# ``catalytic_deviation`` treats a flow time this close to s periods
# log(1/lambda) as moving atom k onto atom k - s, ``AtomicMeasure.isclose``
# never resolves positions finer, and ``classify_itpfi`` merges spectrum
# entries by the same chained rule (there is no separate gap rule).
MERGE_TOL = 1e-12

# --------------------------------------------------------------------------- #
#                                  supports                                    #
# --------------------------------------------------------------------------- #

# Relative to the largest.  ``quantum._in_support`` is the one support mask.
# Schmidt data is cut on the coefficients s: the Schmidt rank and spectrum,
# ``connect_purifications`` and ``_mirror_bob``.  Eigenvalues of a marginal
# and the mixing's weights s^2 (``support_projector``, ``_mixing_terms``, so
# synthesis's support columns) are cut on the weights.
SUPPORT_CUT = 1e-12
# Absolute.  A source support weight s^2 below this lets Alice's t / s
# coefficient amplify rounding by more than 1e6; synthesis refuses such a
# source as ill-conditioned.  Above it the limit is this floor: Alice divides
# by the weights the mixing rebuilds, not by s^2, so the mixing's absolute
# rounding is never divided by a small weight, and 30 of 30 probes with a
# smallest weight of 1e-10 or 2e-12 (d = 4, 8, 16, Haar local frames,
# target s^1.5) synthesize and verify with residuals below 5e-15.
SUPPORT_FLOOR = 1e-12
# Relative to the largest.  ``_mirror_bob``'s polar factor keeps the
# singular directions of the mirrored operator above this times the largest.
POLAR_CUT = 1e-13

# --------------------------------------------------------------------------- #
#                                  protocols                                   #
# --------------------------------------------------------------------------- #

# Absolute, on the eigenvalues of sum_x k_x^dagger k_x minus the support
# projector (the identity for an instrument).  An instrument may exceed
# completeness by this, and the simulator adds no complement outcome within
# it; a synthesized or verified protocol's completeness residual, and its
# probability sum's distance from 1, may be at most this.  Relative to s^2,
# it also bounds how far a source weight the synthesis mixing rebuilds may
# miss s^2 (with a floor of 64 m eps times the largest weight), so a
# majorization miss beyond rounding is still refused.
COMPLETENESS_TOL = 1e-9
# Absolute.  A branch entlab builds matches what it was built to match: the
# synthesis branch probability its mixing weight, the two A-marginals that
# ``connect_purifications`` joins (trace distance), a mirrored Bob operator
# the original (largest amplitude difference), and, in ``verify_protocol``,
# every kept branch the target (overlap at least 1 minus this).
BRANCH_TOL = 1e-8
# Absolute probability.  Mass entlab may drop: ``simulate``,
# ``one_way_reduce``, ``one_way_branches`` and ``verify_protocol`` prune
# branches of at most this probability, and the permutohedron decomposition
# may leave at most this of a source weight unplaced.
MASS_CUT = 1e-12

# --------------------------------------------------------------------------- #
#                               integer answers                                #
# --------------------------------------------------------------------------- #

# Absolute.  ``one_shot_entanglement`` adds this before flooring
# min_k k / S_k, so a ratio that is an integer but rounds just below it
# still counts.
FLOOR_SLACK = 1e-9
