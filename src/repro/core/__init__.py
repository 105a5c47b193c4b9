"""The paper's contribution: TRIC / TRIC+ (trie-based clustering)."""
