"""Graph & query model substrate: triples, query graph patterns, covering
paths, and a naive brute-force matcher used as an independent oracle."""
