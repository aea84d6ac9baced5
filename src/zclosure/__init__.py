"""Degree-bounded vanishing ideals of matrix-morphism images of one-counter
coverability, reachability and zero-weight languages.

`closure` is imported first.  The block reduction, the factorization trees
and the exterior algebra, which no cover, reach, zero or regular pipeline
uses, are imported on first access to their names (`_DEFERRED`).

A `closure run` process loads only what it runs.  Records are
`typing.NamedTuple`s, never `dataclasses` (whose import pulls in `inspect`,
`ast` and `dis`), and what only the corpus needs (`importlib.resources`,
`pathlib`) is imported inside the function that lists the corpus."""
from importlib import import_module as _import_module

from .closure import (
    Caps,
    DEFAULT_CAPS,
    OracleResult,
    PipelineResult,
    counter_saturation,
    finite_vanishing_space,
    oracle_closure,
    pipeline,
    regular_closure,
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

# module -> the names the package takes from it on first access
_DEFERRED = {
    "exterior": ("ExtVector", "greedy_basis", "iota", "trivially_intersects", "wedge"),
    "facttree": (
        "FactTree", "build_rank_tree", "build_tree", "extract_stable_factor", "validate_tree",
    ),
    "reduction": (
        "BlockMorphism", "Vass", "blockify_regular", "extract_block_closure",
        "vass_to_constrained",
    ),
}


def __getattr__(name: str):
    for module, names in _DEFERRED.items():
        if name == module or name in names:
            loaded = _import_module(f"{__name__}.{module}")
            return loaded if name == module else getattr(loaded, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = sorted(
    {name for name in dir() if not name.startswith("_")}
    | {name for module, names in _DEFERRED.items() for name in (module, *names)}
)
