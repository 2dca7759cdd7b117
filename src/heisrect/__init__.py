"""Executable quantitative-rectifiability toolbox for the first
Heisenberg group: group arithmetic, vertical planes and cones,
intrinsic graphs, constant-gradient solvers, flatness numbers,
multiscale cube decompositions, and the graph-piece partition
pipeline."""

__version__ = "0.1.0"

from . import beta, burgers, core, cubes, graphs, partition, planes
