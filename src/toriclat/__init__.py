"""Cyclic lattice codes on q x q torus grids for all odd q >= 5.

Builds the code spanned by (1, 2(n-1)) on the q x q torus, its full
generator set, the Mannheim minimum distance (brute force and closed
form), the polyomino fundamental regions that tile the lattice, the
[[2q, 2, d]] / [[2q**2, 2q, t=q]] parameter families with rate and gain
comparisons, and the burst-error interleaver with its correctability
guarantees.

The public names below are re-exported from their layers, and a layer is
imported when one of its names is first looked up (PEP 562), so that
`import toriclat` by itself imports no layer.
"""

__version__ = "0.1.0"

_LAYERS = {
    "codes": ("CodewordSet", "GeneratorSet", "codewords", "generator_set",
              "is_perfect", "is_sum_of_two_squares", "verify_determinant"),
    "distance": ("DistanceReport", "distance_report", "mannheim_weight",
                 "min_distance_closed_form", "move_vectors"),
    "interleaving": ("BurstCluster", "FailureExemplar", "InterleaverMap",
                     "SimulationStats", "build_interleaver", "deinterleave",
                     "is_correctable", "simulate"),
    "lattice": ("SLOT_LEFT", "SLOT_TOP", "Cell", "Edge", "TorusLattice",
                "Vector", "symmetric_residue"),
    "params": ("CodeParams", "ComparisonRow", "bmd_params", "compare",
               "interleaved_params", "kitaev_params", "toric_code_params"),
    "tessellation": ("Polyomino", "Tiling", "canonical_polyomino",
                     "is_fundamental_region", "lee_sphere", "render_ascii",
                     "render_svg", "tessellate"),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = sorted(_LAYER_OF)


def __getattr__(name: str):
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{layer}"), name)
    globals()[name] = value  # later lookups find it without this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
