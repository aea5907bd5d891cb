"""Combinatorial 2-complexes, exact homology, admissible surfaces and scl.

The package is organised in five layers:

* ``complexes``   : finite 2-complexes with combinatorial attaching words
  (links, boundary, surface criterion, subcomplexes).
* ``exactlin`` / ``homology`` : exact integer/rational linear algebra,
  Smith normal form, absolute / relative / mapping-cone homology,
  orientability of 2-complexes.
* ``words`` / ``lp`` / ``scl`` : 1-chains on free groups, an exact-rational
  simplex solver and the scl calculator with the rotation-number sandwich.
* ``surfaces`` / ``rewrite``   : transverse admissible surfaces over a
  cellulated surface (vertex discs, 1-handles, cellular discs) and the
  rewriting moves that bring them to standard form.
* ``fixtures`` : the worked example library (small complexes, ambient
  pairs, subsurfaces and folded admissible surfaces).
"""

__version__ = "0.1.0"
