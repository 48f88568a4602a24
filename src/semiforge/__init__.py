"""semiforge: exact-arithmetic tools for rational matrix semigroups.

Decides finiteness of finitely generated semigroups of rational matrices,
rewrites semigroup elements as short generator products, conjugates finite
rational matrix groups into integer form, and decides finiteness of
weighted automata over Q. Everything is computed exactly; no floats.
"""

__version__ = "0.1.0"

from .linalg import (Mat, Subspace, det, image, inverse, kernel,
                     minimal_polynomial, rank, rref,
                     DimensionMismatch, NotInvertible)
from .exterior import trivial_intersection
from .semigroup import (DEFAULT_CAP, ClosureResult, FinitenessResult, MorphismTable,
                        CapExceeded, InfiniteSemigroup, NotMember, decide_finiteness,
                        is_torsion, length_bound, shortest_word_for, size_bound)
from .grouplat import (FiniteGroupClosure, NonInvertibleGenerator, group_closure, hnf,
                       integerize)
from .imagegraph import (ImageGraph, MixedRankGenerators, NotSameSCC,
                         RankDropped, build_image_graph, scc_segment_decompose,
                         scc_shortest_path, to_dot)
from .shortener import NotACycle, Shortener, cycle_rep, shorten
from .wautomata import (UnknownLetter, WeightedAutomaton, decide_wa_finiteness,
                        evaluate, forward_space, minimize)
from .vass import (AffineVass, Configuration, ReachResult, Transition,
                   check_fmp, reach_bounded, step)
