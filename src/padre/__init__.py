"""Polynomial drop-in token mixing: blocks, oracles, adapters, benchmarks.

The names below load their submodule on first use, so ``import padre``
imports no numpy: the ``padre`` console script and ``python -m padre`` reach
``padre.cli``, which pins the BLAS thread pools, before numpy loads.
"""

import importlib

#: each public name and the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("FlopLedger", "LayoutError", "Mixer", "MixerKind", "NumericError",
                     "PadMode", "ShapeError", "Side", "apply_mixer", "apply_mixer_transpose",
                     "hadamard"), "tensor"),
    **dict.fromkeys(("Grid", "PadreBlock", "PadreTrace", "Seq1d", "WMode",
                     "build_conv_instance", "forward", "load_block", "param_count",
                     "random_block", "rms_normalize_rows", "save_block"), "block"),
    **dict.fromkeys(("GradBundle", "GradReport", "backward", "gradcheck"), "grad"),
    **dict.fromkeys(("NotPolynomialError", "PolyCoeffs", "assert_homogeneous", "extract_coeffs",
                     "max_effective_degree"), "oracle"),
    **dict.fromkeys(("RationalPadreBlock", "rational_forward", "rational_gradcheck"),
                    "rational"),
    **dict.fromkeys(("MultimodalBlock", "build_multimodal", "multimodal_forward"),
                    "multimodal"),
    **dict.fromkeys(("BenchRecord", "ScalingFit", "emit_csv", "fit_scaling", "run_bench"),
                    "bench"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
