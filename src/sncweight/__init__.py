"""Exact homological algebra for dual boundary complexes and weight cohomology.

Given the combinatorial data of a compactification of a smooth
quasi-projective variety with very simple normal crossing boundary, this
package computes the dual boundary complex with its integral reduced
cohomology (torsion included), the bigraded weight cohomology with
compact support, and runs the consistency checks tying the two together.
All arithmetic is exact over the integers.
"""

__version__ = "0.1.0"
