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
from .exterior import MultiVector, iota, trivial_intersection, wedge
from .semigroup import (BoundReport, ClosureResult, FinitenessResult,
                        MorphismTable, CapExceeded, NotMember,
                        closure, decide_finiteness, default_cap, is_torsion,
                        length_bound, shortest_word_for, size_bound)
from .grouplat import (FiniteGroupClosure, GroupInfinite, NonInvertibleGenerator,
                       group_closure, hnf, integerize, short_product)
from .imagegraph import (ImageGraph, MixedRankGenerators, NotSameSCC,
                         RankDropped, build_image_graph, scc_segment_decompose,
                         scc_shortest_path, to_dot)
from .shortener import InfiniteSemigroup, NotACycle, Shortener, cycle_rep, shorten
from .wautomata import (UnknownLetter, WeightedAutomaton, backward_space,
                        decide_wa_finiteness, evaluate, forward_space, minimize)
from .vass import (AffineVass, Configuration, ReachResult, Transition,
                   check_fmp, reach_bounded, step)
