"""1D stochastic Maxwell-Bloch simulator of the ASE-superfluorescence
transition in a swept-gain three-level medium."""

__version__ = "0.2.0"
