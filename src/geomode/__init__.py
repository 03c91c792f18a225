"""Multi-particle holonomies in linear, Hermitian coupled-mode systems.

Subpackages:

* :mod:`geomode.fock` -- multi-particle bases, operator lifting, vacuum
  expectations.
* :mod:`geomode.coupledmode` -- coupled-mode systems, envelopes,
  evolution operators, the calibrated four-waveguide Jx structure.
* :mod:`geomode.holonomy` -- mode couplings, dynamical contributions,
  gauge fields, holonomy extraction.
* :mod:`geomode.enumeration` -- exhaustive cyclic-subspace enumeration.
* :mod:`geomode.experiment` -- stability-scan simulator, detection
  model, plateau analysis, count-data ingestion.
* :mod:`geomode.reference` -- the bundled width catalogue and its table.
* :mod:`geomode.report` -- the byte-stable JSON and CSV report writers.
* :mod:`geomode.cli` -- the ``geomode`` command-line interface.
"""

__version__ = "0.1.0"
