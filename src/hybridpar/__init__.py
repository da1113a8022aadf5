"""Adaptive hybrid-parallel sampling for conditional diffusion, simulated.

The package couples an analytic Gaussian-mixture denoiser (exact conditional
and unconditional scores, so branch discrepancies carry no estimation noise)
with a discrete-event model of a small device cluster. A run warms up with
both guidance branches split across two devices, watches the branch
discrepancy flatten, pipelines the conditional branch across devices for a
bounded window, then reconnects for the final steps.

Each name is imported from the module that defines it, for example
``from hybridpar.engine import run_plan``; importing the package itself
loads none of them.
"""
__version__ = "0.1.0"
