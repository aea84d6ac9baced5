"""Degree-bounded vanishing ideals of matrix-morphism images of one-counter
coverability, reachability and zero-weight languages."""

from .closure import (
    Caps,
    DEFAULT_CAPS,
    OracleResult,
    PipelineResult,
    counter_saturation,
    finite_vanishing_space,
    oracle_closure,
    regular_closure,
    run_cover,
    run_reach,
    run_zero,
)
from .errors import (
    DimensionError,
    InfeasibleError,
    InternalInvariantError,
    OracleDisagreementError,
    PreconditionError,
    SchemaError,
    ZClosureError,
)
from .exactlin import Matrix, Subspace, is_stable, rank, rank_decomp, stable_identity
from .exterior import ExtVector, greedy_basis, iota, trivially_intersects, wedge
from .facttree import (
    FactTree,
    build_rank_tree,
    build_tree,
    extract_stable_factor,
    validate_tree,
)
from .lang import MorphismPair, WordClass, classify_word, default_eta
from .automata import (
    Nfa,
    build_bz_automaton,
    build_cover_automaton,
    build_reach_automaton,
    build_zero_automaton,
    construct_zero_witness,
    determinize,
    flatten,
)
from .polys import IdealGens, PolySpace, ideal_slice, space_to_generators
from .reduction import BlockMorphism, Vass, blockify_regular, extract_block_closure, run_vass

__all__ = [name for name in dir() if not name.startswith("_")]
