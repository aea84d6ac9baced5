"""Degree-bounded vanishing ideals of matrix-morphism images of one-counter
coverability, reachability and zero-weight languages.

`closure` is imported first.  What a default-threshold or regular pipeline
never runs is imported on first access to its names (`_DEFERRED`): the
bounded-counter saturation and the brute-force oracle, which only an
eta-overridden pipeline runs; the paper's counter constructions and the
class of a single word; the parsing of generator strings and the ideal
slices that the corpus check compares with; the rank algebra, the
factorization trees and the exterior algebra; and the block reduction.

A `closure run` process loads only what it runs, and compiles only that
when there are no bytecode caches.  Records are `typing.NamedTuple`s, never
`dataclasses` (whose import pulls in `inspect`, `ast` and `dis`); what only
the corpus needs (`importlib.resources`, `pathlib`) is imported inside the
function that lists the corpus; and the commands other than `closure run`
are in `commands`, which `cli.main` imports only for them."""
from importlib import import_module as _import_module

from .closure import DEFAULT_CAPS, Caps, PipelineResult, pipeline, regular_closure
from .errors import (
    DimensionError,
    InfeasibleError,
    InternalInvariantError,
    OracleDisagreementError,
    PreconditionError,
    SchemaError,
    ZClosureError,
)
from .exactlin import Matrix, Subspace
from .lang import MorphismPair, default_eta
from .automata import Nfa
from .polys import IdealGens, PolySpace, space_to_generators

# module -> the names the package takes from it on first access
_DEFERRED = {
    "constructions": (
        "build_bz_automaton", "build_cover_automaton", "build_reach_automaton",
        "build_zero_automaton", "construct_zero_witness", "determinize", "flatten",
    ),
    "exterior": ("ExtVector", "greedy_basis", "iota", "trivially_intersects", "wedge"),
    "facttree": (
        "FactTree", "build_rank_tree", "build_tree", "extract_stable_factor", "validate_tree",
    ),
    "ideals": ("ideal_slice",),
    "oracle": ("OracleResult", "finite_vanishing_space", "oracle_closure"),
    "reduction": (
        "BlockMorphism", "Vass", "blockify_regular", "extract_block_closure",
        "vass_to_constrained",
    ),
    "saturation": ("counter_saturation",),
    "stable": ("is_stable", "rank", "rank_decomp", "stable_identity"),
    "words": ("WordClass", "classify_word"),
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
