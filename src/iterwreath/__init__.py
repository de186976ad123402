"""Iterated wreath products of S2 as binary-tree automorphism towers.

Exact construction and brute-force verification of the tower's structure:
cosets, centers, centralizer algebras, conjugation orbits, the Mackey
decomposition for adjacent levels, and bases and generating sets for the
endomorphism algebras of iterated induction and restriction.
"""
