"""Monge-Ampere solves on negatively curved discs and their isometric
embeddings into Lorentz-Minkowski 3-space, with full a priori estimate
audits and extrinsic verification of the reconstructed surfaces.

Import from the submodules (``lorentz_embed.metric``, ``.grid``,
``.solver``, ``.exhaustion``, ``.estimates``, ``.geodesics``, ``.embed``,
``.cli``); the package root re-exports nothing."""

__version__ = "0.1.0"
